import importlib
import pkgutil

import pytest

import qhahn_polymer


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(qhahn_polymer.__path__) if m.name != "__main__"))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qhahn_polymer.{name}")
    assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == []
