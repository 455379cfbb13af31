import math
import os
import subprocess
import sys

import numpy as np
import pytest

from b92sim import qstate
from b92sim.errors import InvalidStateError
from b92sim.qstate import (
    DOWN,
    LEFT,
    P_DOWN,
    P_LEFT,
    P_UP,
    RIGHT,
    UP,
    Projector,
    StateVector,
    basis_states,
    commutator_norm,
    inner,
    measure,
    pass_probability,
)

from oracles import states_equal

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_basis_state_coefficients():
    up, down, right, left = basis_states()
    assert (up.amp_up, up.amp_down) == (1.0, 0.0)
    assert (down.amp_up, down.amp_down) == (0.0, 1.0)
    assert right.amp_up == pytest.approx(INV_SQRT2, abs=1e-15)
    assert right.amp_down == pytest.approx(INV_SQRT2, abs=1e-15)
    assert left.amp_down == pytest.approx(-INV_SQRT2, abs=1e-15)


def test_orthonormality():
    assert inner(UP, DOWN) == 0
    assert abs(inner(UP, RIGHT)) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert np.linalg.norm(LEFT.vec()) == pytest.approx(1.0, abs=1e-12)
    assert abs(inner(RIGHT, LEFT)) < 1e-12
    assert abs(inner(UP, UP) - 1) < 1e-12


def test_state_normalization_enforced():
    with pytest.raises(InvalidStateError):
        StateVector(1.0, 1.0)
    with pytest.raises(InvalidStateError):
        StateVector(0.5, 0.5)


def test_states_equal_up_to_global_phase():
    phased = StateVector(INV_SQRT2 * np.exp(1j * 0.9), INV_SQRT2 * np.exp(1j * 0.9))
    assert states_equal(phased, RIGHT)
    assert not states_equal(UP, DOWN)


def test_projector_validation():
    with pytest.raises(ValueError):
        Projector(np.array([[1, 0], [1, 0]]))  # not Hermitian
    with pytest.raises(ValueError):
        Projector(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        Projector(0.5 * np.eye(2))  # not idempotent
    with pytest.raises(ValueError, match=r"must be 2x2, got \(3, 3\)"):
        Projector(np.eye(3) / 3)


@pytest.mark.parametrize(
    "psi,proj,expected",
    [
        (UP, P_DOWN, 0.0),
        (RIGHT, P_DOWN, 0.5),
        (UP, P_UP, 1.0),
        (UP, P_LEFT, 0.5),
        (RIGHT, P_LEFT, 0.0),
        (DOWN, P_LEFT, 0.5),
        (DOWN, P_DOWN, 1.0),
    ],
)
def test_pass_probabilities(psi, proj, expected):
    assert pass_probability(psi, proj) == pytest.approx(expected, abs=1e-12)


def test_pass_probability_is_real_in_range():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        psi = StateVector(complex(v[0]), complex(v[1]))
        for p in (P_UP, P_DOWN, P_LEFT):
            val = pass_probability(psi, p)
            assert 0.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_measure_orthogonal_always_fails():
    rng = np.random.default_rng(0)
    for _ in range(200):
        passed, collapsed = measure(UP, P_DOWN, rng)
        assert not passed
        assert states_equal(collapsed, UP)


def test_measure_collapse_on_pass():
    # superposition through P(down): the pass branch lands on |down>
    rng = np.random.default_rng(3)
    seen_pass = False
    for _ in range(100):
        passed, collapsed = measure(RIGHT, P_DOWN, rng)
        if passed:
            seen_pass = True
            assert states_equal(collapsed, DOWN)
        else:
            assert states_equal(collapsed, UP)
        assert abs(np.linalg.norm(collapsed.vec()) - 1.0) < 1e-12
    assert seen_pass


class StuckAtOne:
    """A generator stub whose draws sit at 1.0, outside [0, 1)."""

    def random(self):
        return 1.0


def test_measure_rejects_a_draw_of_an_empty_branch():
    # UP passes P_UP surely; a draw of 1.0 would pick the empty fail branch
    with pytest.raises(InvalidStateError, match="zero weight"):
        measure(UP, P_UP, StuckAtOne())


MEASURE_UNDER_O = """
from b92sim.errors import InvalidStateError
from b92sim.qstate import P_UP, UP, measure

class StuckAtOne:
    def random(self):
        return 1.0

if __debug__:
    raise SystemExit("not running under python -O")
try:
    state = measure(UP, P_UP, StuckAtOne())
except InvalidStateError:
    raise SystemExit(0)
raise SystemExit(f"measure returned {state}")
"""


def test_measure_check_holds_under_python_O():
    # python -O strips asserts; the check must not be one
    src = os.path.dirname(os.path.dirname(os.path.abspath(qstate.__file__)))
    r = subprocess.run(
        [sys.executable, "-O", "-c", MEASURE_UNDER_O],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr


def test_measure_born_frequency():
    rng = np.random.default_rng(42)
    n = 100_000
    hits = sum(measure(RIGHT, P_DOWN, rng)[0] for _ in range(n))
    assert hits / n == pytest.approx(0.5, abs=0.01)


def test_measure_repeatability():
    # a pass of P makes an immediate re-measurement of P pass surely
    rng = np.random.default_rng(5)
    repeats = 0
    for _ in range(10_000):
        passed, collapsed = measure(RIGHT, P_DOWN, rng)
        if passed:
            again, _ = measure(collapsed, P_DOWN, rng)
            assert again
            repeats += 1
    assert repeats > 4000


def test_commutator_norms():
    assert commutator_norm(P_UP, P_UP) == 0
    expected = math.sqrt(2.0) / 2.0
    assert commutator_norm(P_UP, qstate.P_RIGHT) == pytest.approx(expected, abs=1e-12)
    assert commutator_norm(P_DOWN, P_LEFT) == pytest.approx(expected, abs=1e-12)


def test_projector_completeness():
    assert np.allclose(P_UP.matrix + P_DOWN.matrix, np.eye(2), atol=1e-12)


def reference_measure(psi, p, rng):
    """The earlier body of ``measure``: numpy matrix algebra, with the
    norm check of ``pass_probability`` and a fresh vec() per step."""
    prob = pass_probability(psi, p)
    passed = bool(rng.random() < prob)
    v = psi.vec()
    if passed:
        w = p.matrix @ v
    else:
        w = v - p.matrix @ v
    wn = np.linalg.norm(w)
    if not wn > 1e-9:
        raise InvalidStateError("degenerate collapse: the sampled branch has zero weight")
    w = w / wn
    return passed, StateVector(complex(w[0]), complex(w[1]))


def test_measure_equals_the_reference_body_over_10000_draws():
    # random states against the four working projectors and random
    # ones; both bodies draw from equal streams, one draw per call
    pick = np.random.default_rng(8)
    rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)

    def random_state():
        z = pick.normal(size=2) + 1j * pick.normal(size=2)
        z /= np.linalg.norm(z)
        return StateVector(complex(z[0]), complex(z[1]))

    fixed = [P_UP, P_DOWN, P_LEFT, Projector.onto(RIGHT)]
    for i in range(10_000):
        psi = (UP, DOWN, RIGHT, LEFT)[i % 4] if i % 5 == 0 else random_state()
        p = fixed[i % 4] if i % 3 else Projector.onto(random_state())
        got, want = measure(psi, p, rng_new), reference_measure(psi, p, rng_ref)
        assert got[0] == want[0]
        assert abs(got[1].amp_up - want[1].amp_up) <= 1e-12
        assert abs(got[1].amp_down - want[1].amp_down) <= 1e-12
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
