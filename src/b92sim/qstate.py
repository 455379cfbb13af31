"""Two-level quantum states, projectors, and Born-rule measurement.

Everything here is exact 2x2 complex algebra in the spin-z basis
{|up>, |down>}. Randomness for measurement collapse comes from an
injected numpy Generator; this module never owns global RNG state,
so every experiment built on it is reproducible from its seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

ATOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Unit vector of two complex amplitudes in the spin-z basis."""

    amp_up: complex
    amp_down: complex

    def __post_init__(self):
        n = abs(self.amp_up) ** 2 + abs(self.amp_down) ** 2
        if abs(n - 1.0) > 1e-9:
            raise InvalidStateError(f"state norm^2 = {n!r}, expected 1")

    def vec(self) -> np.ndarray:
        return np.array([self.amp_up, self.amp_down], dtype=complex)


def inner(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b>."""
    return complex(np.vdot(a.vec(), b.vec()))


def states_equal(a: StateVector, b: StateVector, atol: float = ATOL) -> bool:
    """Equality up to an unobservable global phase: |<a|b>| = 1."""
    return abs(abs(inner(a, b)) - 1.0) <= atol


class Projector:
    """Rank-1 Hermitian idempotent on the two-dimensional space."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"projector must be 2x2, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise ValueError("projector is not Hermitian")
        if not np.allclose(m @ m, m, atol=ATOL):
            raise ValueError("projector is not idempotent")
        if abs(np.trace(m) - 1.0) > ATOL:
            raise ValueError("projector is not rank-1 (trace != 1)")
        self.matrix = m
        self.matrix.setflags(write=False)
        # the entries (row-major) as Python complex numbers, for the
        # scalar arithmetic of ``measure``
        self._entries = tuple(m.ravel().tolist())

    @classmethod
    def onto(cls, state: StateVector) -> "Projector":
        """|s><s| for a normalized state."""
        v = state.vec()
        return cls(np.outer(v, v.conj()))

    def __repr__(self):
        return f"Projector({self.matrix.tolist()})"


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def basis_states() -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """The four working states: spin-z up/down and spin-x up/down.

    Returns (up, down, right, left) with right = (up + down)/sqrt(2)
    and left = (up - down)/sqrt(2).
    """
    up = StateVector(1.0, 0.0)
    down = StateVector(0.0, 1.0)
    right = StateVector(_INV_SQRT2, _INV_SQRT2)
    left = StateVector(_INV_SQRT2, -_INV_SQRT2)
    return up, down, right, left


UP, DOWN, RIGHT, LEFT = basis_states()
P_UP = Projector.onto(UP)
P_DOWN = Projector.onto(DOWN)
P_RIGHT = Projector.onto(RIGHT)
P_LEFT = Projector.onto(LEFT)


def pass_probability(psi: StateVector, p: Projector) -> float:
    """Born-rule probability <psi|P|psi> that ``psi`` passes ``p``."""
    v = psi.vec()
    n = float(np.real(np.vdot(v, v)))
    if abs(n - 1.0) > 1e-9:
        raise InvalidStateError(f"state norm^2 = {n!r}, expected 1")
    val = np.vdot(v, p.matrix @ v)
    return float(np.real(val))


def measure(
    psi: StateVector, p: Projector, rng: np.random.Generator
) -> tuple[bool, StateVector]:
    """Sample one projective measurement of ``p`` on ``psi``.

    Returns (passed, collapsed). On a pass the state collapses to
    P|psi>/||P|psi>||, on a fail to (1-P)|psi>/||(1-P)|psi>||; the
    collapsed state is normalized either way. The arithmetic is scalar
    on the two amplitudes: a StateVector's norm was checked when it was
    built, so unlike ``pass_probability`` this does not check it again.
    Each call takes exactly one ``rng.random()``.
    """
    a, b = complex(psi.amp_up), complex(psi.amp_down)
    m00, m01, m10, m11 = p._entries
    pa, pb = m00 * a + m01 * b, m10 * a + m11 * b  # P|psi>
    prob = (a.conjugate() * pa + b.conjugate() * pb).real
    passed = bool(rng.random() < prob)
    if not passed:
        pa, pb = a - pa, b - pb
    wn = math.hypot(abs(pa), abs(pb))
    # the sampled branch has nonzero weight as long as random() lies in
    # [0, 1); a generator outside that range would draw an empty branch
    if not wn > 1e-9:
        raise InvalidStateError("degenerate collapse: the sampled branch has zero weight")
    return passed, StateVector(pa / wn, pb / wn)


def commutator_norm(p1: Projector, p2: Projector) -> float:
    """Frobenius norm of [p1, p2]; zero iff the measurements commute."""
    c = p1.matrix @ p2.matrix - p2.matrix @ p1.matrix
    return float(np.linalg.norm(c))
