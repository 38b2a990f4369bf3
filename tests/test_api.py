import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_state_modules_leave_the_dense_oracle_unimported():
    # fock holds the dense matrices the tests check against; the state
    # builders and densities must not need it
    script = (
        "import sys, triladder.wavepacket, triladder.coherent;"
        " print(*(name for name in sys.modules if name.startswith('triladder')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(triladder.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "triladder.coherent" in loaded and "triladder.wavepacket" in loaded
    assert "triladder.fock" not in loaded
