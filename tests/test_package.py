import ast
import pathlib
import re

import b92sim


def test_every_exported_name_resolves():
    assert len(set(b92sim.__all__)) == len(b92sim.__all__)
    missing = [name for name in b92sim.__all__ if not hasattr(b92sim, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from b92sim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(b92sim.__all__)
    for name, value in namespace.items():
        assert value is getattr(b92sim, name)


REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "b92sim"

# Scalar references that only the tests call: each is the oracle that a
# test holds a vectorized engine path to, so it stays in src/ on purpose.
TEST_ORACLES = {
    "afterpulse_probability",
    "effective_hit_prob",
    "eve_intercept",
    "reconcile_block_parity",
    "sample_photon_count",
    "states_equal",
    "thin_photons",
}


def public_top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def test_every_public_name_has_a_user_outside_the_tests():
    # a public name must be used by another src module, a demo, the
    # benchmark or the README, or a second time in its own module;
    # code that only its own tests reach is deleted instead
    modules = {p: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = [
        *(p.read_text() for p in sorted((REPO / "demos").glob("*.py"))),
        *(p.read_text() for p in sorted((REPO / "bench").glob("*.py"))),
        *(p.read_text() for p in sorted((REPO / "bench").glob("*.md"))),
        (REPO / "README.md").read_text(),
    ]
    defined, unused = set(), set()
    for path, text in modules.items():
        for name in public_top_level_names(ast.parse(text)):
            defined.add(name)
            word = re.compile(rf"\b{name}\b")
            if len(word.findall(text)) > 1:
                continue
            others = [t for p, t in modules.items() if p != path] + outside
            if not any(word.search(t) for t in others):
                unused.add(f"{path.stem}.{name}")
    assert TEST_ORACLES <= defined
    assert sorted(n for n in unused if n.split(".")[1] not in TEST_ORACLES) == []
