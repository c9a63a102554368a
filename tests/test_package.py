"""The package namespace: what ``from permatch import *`` exports."""

from types import ModuleType

import permatch


def test_all_names_resolve_and_none_is_a_module():
    assert permatch.__all__ == sorted(set(permatch.__all__))
    for name in permatch.__all__:
        assert not isinstance(getattr(permatch, name), ModuleType), name
    for module in ("autiso", "classify", "graphs", "matchings", "perms",
                   "polygonal", "voltage"):
        assert module not in permatch.__all__
    assert "CoverGraph" not in permatch.__all__  # derived_cover builds covers
    assert "derived_cover" in permatch.__all__

    namespace: dict = {}
    exec("from permatch import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == permatch.__all__
