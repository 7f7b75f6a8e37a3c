import importlib
import pkgutil

import pytest

import absim

MODULES = ["absim"] + [f"absim.{m.name}" for m in pkgutil.iter_modules(absim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry would break `from <module> import *`; absim.rng has no __all__
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
