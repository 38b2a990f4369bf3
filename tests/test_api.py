import importlib

import pytest

import triladder

MODULES = ["triladder", "triladder.coherent", "triladder.fock", "triladder.painleve",
           "triladder.wavepacket"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_the_module_objects():
    # a package-level name is the object of the same name in its module
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    for name in triladder.__all__:
        if name in ("__version__", "GridSpec"):
            continue
        homes = [m for m in modules if name in m.__all__]
        assert len(homes) == 1, name
        assert getattr(triladder, name) is getattr(homes[0], name), name
