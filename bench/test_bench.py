"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from triladder import coherent  # noqa: E402

SPEC = run.spec()
OUT = BENCH / "out" / "tests"
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name):
    return {
        "cli_session": lambda: workloads.CliSession(OUT / name, density_grid=(41, 25), piv_xsteps=201),
        "fock_field": lambda: workloads.FockField(z_abs=(2.0,), x_steps=81, t_steps=9),
        "large_label": lambda: workloads.LargeLabel(state_count=3, state_max=1e3, series_count=8),
    }[name]()


@pytest.fixture(scope="module")
def reports():
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            cache[name, trace] = run.measure(tiny(name), seed=3, seconds=0, trace=trace, setup_repeats=1)
        return cache[name, trace]

    yield get
    shutil.rmtree(OUT, ignore_errors=True)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + NAMES
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert sorted(NAMES) == sorted(["cli_session", "fock_field", "large_label"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(reports, name, trace):
    line = run.result_line(reports(name, trace), SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    json.dumps(line, allow_nan=False)
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_every_layer_metric_moves_on_some_workload(reports):
    idle = {m["name"] for m in SPEC["per_layer"]}
    for name in NAMES:
        idle -= {k for k, v in reports(name, 1)["per_layer"].items() if v != 0}
    assert not idle


def test_large_label_reports_the_silent_nonfinite_series(reports):
    figures = reports("large_label", 0)["figures"]
    assert figures["known_defects"][1] == "count"
    assert reports("large_label", 1)["per_layer"]["coherent.a_norm_squared.nonfinite"] == (
        figures["known_defects"][0]
    )


@pytest.mark.parametrize(
    "command, flag", [("density", "--inject-spotcheck"), ("verify", "--inject-density")]
)
def test_injected_faults_count_as_failed_operations(command, flag):
    session = tiny("cli_session")
    session.setup()
    name, argv, outputs, check = next(
        step for step in session.plan(np.random.default_rng(0)) if step[0] == command
    )
    assert session.run_command(name, argv, outputs, check).ok
    assert not session.run_command(name, [*argv, flag], outputs, check).ok


def test_timeout_counts_as_a_failed_operation():
    session = workloads.CliSession(OUT / "timeout", timeout_s=0.01)
    session.work_dir.mkdir(parents=True, exist_ok=True)
    op = session.run_command("verify", ["verify"], [], session._check_verify)
    assert not op.ok and "timed out" in op.detail


def test_nonfinite_result_fails_the_operation(monkeypatch):
    monkeypatch.setattr(coherent, "a_norm_squared", lambda j, a: math.nan)
    label = tiny("large_label")
    assert not workloads.timed("label", lambda: label.label(0, 10.0)).ok
    assert not workloads.timed("series", lambda: label.sweep(0)).ok


def test_round_time_is_scaled_by_the_reference():
    class Steady:
        nominal_s = 0.5

        def run(self):
            return 0.25

    workload = tiny("large_label")
    workload.reference = Steady
    report = run.measure(workload, seed=3, seconds=0, trace=0, setup_repeats=1)
    wall = report["figures"]["round_wall_s"][0]
    assert report["end_to_end"]["round_s"] == pytest.approx(2.0 * wall)
    assert report["figures"]["host_speed"][0] == 2.0


def test_references_run_without_the_package():
    (OUT / "reference").mkdir(parents=True, exist_ok=True)
    script = (
        "import os, sys; sys.modules['triladder'] = None; import speed; "
        "speed.ProcessReference(sys.argv[1], dict(os.environ)).run(); "
        "speed.GridReference(41, 9).run(); speed.DenseReference().run()"
    )
    subprocess.run(
        [sys.executable, "-c", script, str(OUT / "reference")], cwd=BENCH, check=True, timeout=60
    )


def test_tracer_self_time_excludes_child_spans():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda: ns.inner() + ns.inner()
    original = ns.outer
    tracer = tracing.Tracer()
    tracer.span_on(ns, "inner", "inner")
    tracer.span_on(ns, "outer", "outer")
    ns.outer()
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["inner.calls"] == 2 and summary["outer.calls"] == 1
    outer = next(end - start for name, start, end, _ in tracer.spans if name == "outer")
    assert summary["outer.self_s"] + summary["inner.self_s"] == pytest.approx(outer)
    assert ns.outer is original


def test_directory_without_the_package_exits_nonzero_without_result():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
