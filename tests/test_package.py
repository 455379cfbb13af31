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
