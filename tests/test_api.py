import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import triladder
from triladder import coherent, fock

MODULES = ["triladder.coherent", "triladder.fock", "triladder.grid", "triladder.painleve",
           "triladder.shortest", "triladder.wavepacket"]

ROOT = Path(__file__).parents[1]


def loaded_names():
    """Every name read as a variable or an attribute in the package and the benchmark."""
    names = set()
    for path in [*ROOT.glob("src/triladder/*.py"), *ROOT.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_run(name):
    # a name only the tests use is an oracle and belongs in tests/oracle.py
    used = loaded_names()
    unused = [n for n in importlib.import_module(name).__all__ if n not in used]
    assert unused == []


def test_fock_holds_what_the_algebra_check_runs():
    assert fock.__all__ == [
        "FockOperator",
        "build_annihilation",
        "build_hamiltonian",
        "build_deformed_ladders",
        "number_analogue",
    ]
    assert "evolve" not in coherent.__all__


def test_no_public_coherent_callable_takes_a_truncation():
    # every state is built at its tail-rule size, so a size argument would be
    # a second truncation rule; classes are checked with their public methods
    sized = []
    for name in coherent.__all__:
        obj = getattr(coherent, name)
        members = vars(obj).items() if isinstance(obj, type) else ()
        callables = [(name, obj)] + [
            (f"{name}.{attr}", member) for attr, member in members
            if callable(member) and not attr.startswith("_")
        ]
        for label, func in callables:
            if callable(func):
                params = inspect.signature(func).parameters
                sized += [f"{label}({p})" for p in params if p in ("truncation", "n_trunc")]
    assert sized == []


def test_only_main_writes_to_stderr_in_cli():
    # every refusal is raised and reported once, in one form, by main
    tree = ast.parse((ROOT / "src/triladder/cli.py").read_text(encoding="utf-8"))

    def writes_stderr(node):
        return any(
            isinstance(n, ast.Attribute) and n.attr == "stderr"
            and isinstance(n.value, ast.Name) and n.value.id == "sys"
            for n in ast.walk(node)
        )

    assert [getattr(node, "name", None) for node in tree.body if writes_stderr(node)] == ["main"]


def test_package_defines_only_its_version():
    # the public names are listed once, in the modules' __all__
    defined = [
        n for n, v in vars(triladder).items()
        if not n.startswith("__") and not isinstance(v, types.ModuleType)
    ]
    assert defined == []
    assert isinstance(triladder.__version__, str)


def test_state_modules_leave_the_dense_oracle_unimported():
    # fock holds the dense matrices of the fock-algebra check; the state
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


def test_benchmark_wrappers_install_and_restore(monkeypatch):
    # bench/tracing.py wraps package attributes by name, so renaming one fails here
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    from triladder import cli, painleve, wavepacket

    owners = [cli, coherent, coherent.CoherentSpec, fock, painleve, wavepacket]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        wrapped = [(owner, attr) for owner, attr, _ in tracer._restore]
    finally:
        tracer.uninstall()
    assert wrapped and all(owner in owners for owner, _ in wrapped)
    assert [dict(vars(owner)) for owner in owners] == before
