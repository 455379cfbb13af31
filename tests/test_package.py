import ast
import pathlib

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

# Scalar references that only the tests call live in tests/oracles.py;
# this one stays in src/ because acceptance criterion 12 imports it from
# b92sim.protocol.
TEST_ORACLES = {"reconcile_block_parity"}

# Other names that only the tests read, each with the reason it stays.
TESTED_ONLY = {
    "beamsplitter": "acceptance criterion 10 checks its unitarity",
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


def references(tree: ast.AST, modules: set[str]) -> set[str]:
    """Names a module's code reads: loaded names, imported names, and
    attributes of a b92sim module (``qstate.inner``, not ``np.linalg.norm``)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if getattr(owner, "id", getattr(owner, "attr", None)) in modules:
                refs.add(node.attr)
    return refs


def test_every_public_name_has_a_user_outside_the_tests():
    # a public name must be read by the code of a src module, its own
    # included, a demo or the benchmark; a word in a string, a comment
    # or the README does not count. Code that only its own tests reach
    # is deleted instead.
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    bench = [p for p in sorted((REPO / "bench").glob("*.py")) if not p.name.startswith("test_")]
    outside = [*sorted((REPO / "demos").glob("*.py")), *bench]
    stems = {p.stem for p in trees}
    users = set().union(*(
        references(tree, stems)
        for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in outside)]
    ))
    defined = {(p.stem, name) for p, tree in trees.items() for name in public_top_level_names(tree)}
    allowed = TEST_ORACLES | TESTED_ONLY.keys()
    assert allowed <= {name for _, name in defined}
    assert sorted(f"{m}.{n}" for m, n in defined if n not in users | allowed) == []


def test_the_oracles_write_their_laws_out():
    # an oracle that read the kernel's private helpers or its window law
    # would hold the kernel to itself
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text())
    refs = references(tree, {p.stem for p in SRC.glob("*.py")})
    kernel_laws = {"central_window", "tm_window_distribution"}
    assert sorted(n for n in refs if n.startswith("_") or n in kernel_laws) == []


def test_one_wire_path_no_json_and_no_hex_codec():
    # frames are binary (channel.encode_frame/decode_frame): no module
    # imports json, names a function for hex, or parses hex back to bytes
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.stem} imports {a.name}" for a in node.names
                          if a.name.split(".")[0] == "json"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found.append(f"{path.stem} imports from {node.module}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and "hex" in node.name.lower():
                found.append(f"{path.stem} defines {node.name}")
            elif isinstance(node, ast.Attribute) and node.attr == "fromhex":
                found.append(f"{path.stem} calls fromhex")
    assert found == []
