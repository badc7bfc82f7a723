"""perfbench's ledger patches production functions by module path.

A refactor that moves or renames one of them would only show up when the
traced benchmark runs; these checks load ``perfbench/ledger.py`` (read
only, nothing is patched) and resolve every target it names.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LEDGER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LEDGER = _load_ledger()


@pytest.mark.parametrize("module_name", LEDGER.PRELOAD)
def test_preloaded_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    "module_name,path,sites",
    [(module, path, sites) for module, path, _, sites in LEDGER.TARGETS],
    ids=[f"{module}:{path}" for module, path, _, _ in LEDGER.TARGETS],
)
def test_ledger_target_resolves(module_name, path, sites):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # methods are patched on the class that defines them
        raw = vars(getattr(module, owner_name)).get(attr)
        raw = getattr(raw, "__func__", raw)  # a classmethod's function
        assert callable(raw), f"{owner_name} defines no {attr}"
        return
    target = getattr(module, attr, None)
    assert callable(target), f"{module_name} has no {attr}"
    for site in sites or ():
        bound = getattr(importlib.import_module(site), attr, None)
        assert bound is target, f"{site} does not bind {module_name}.{attr}"
