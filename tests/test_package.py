import ast
import importlib
import pathlib
import pkgutil

import pytest
from hypothesis import settings

import absim

MODULES = ["absim"] + [f"absim.{m.name}" for m in pkgutil.iter_modules(absim.__path__)]
SOURCES = sorted(pathlib.Path(absim.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry would break `from <module> import *`; absim.rng has no __all__
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    # an imported name that the module neither reads nor re-exports in __all__
    # is dead code; __future__ imports switch on features and bind nothing read
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    assert sorted(imported - read - exported) == []


def test_console_script_targets_run():
    # the command pip installs calls [project.scripts]' module:func; check
    # that each resolves and validates the default config, without installing
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, func = target.split(":")
        main = getattr(importlib.import_module(module), func)
        assert main(["validate-config"]) == 0, name


def test_hypothesis_profile_is_fixed():
    # conftest's profile: every host draws the same examples, with no database
    current = settings()
    assert (current.derandomize, current.deadline, current.database) == (True, None, None)
