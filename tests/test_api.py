import importlib
import types

import pytest

import triladder

MODULES = ["triladder.coherent", "triladder.fock", "triladder.grid", "triladder.painleve",
           "triladder.wavepacket"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_defines_only_its_version():
    # the public names are listed once, in the modules' __all__
    defined = [
        n for n, v in vars(triladder).items()
        if not n.startswith("__") and not isinstance(v, types.ModuleType)
    ]
    assert defined == []
    assert isinstance(triladder.__version__, str)
