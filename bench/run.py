"""Run one workload of the triladder benchmark and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are listed in BENCHMARK.json at the checkout
root. A run first times the workload's set-up in fresh processes, then sets
itself up and repeats closed-loop rounds for S seconds, checking every
output. It prints a report, writes it to bench/out/, and ends with one JSON
line holding ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. ``round_s`` is the
median over untraced rounds of each round's time, scaled to the host speed
that the workload's reference computation (speed.py) measures just before
and just after it; ``setup_s`` is the median over fresh set-up processes of
each one's time, scaled likewise by a fresh interpreter importing numpy.
Both read in seconds at the references' nominal speed, and the wall times
are reported beside them. With ``--trace 1`` the metrics are the per-layer
ones, medians over traced rounds: the run alternates untraced and traced
rounds, so ``trace.overhead_s`` is the median traced round minus the median
untraced one, and the spans of the traced rounds are written to bench/out/
as well.

The package is imported from ``src/`` of the same checkout; without it the
run exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
WATCHDOG_S = 170
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Overrun(BaseException):
    """The run passed its watchdog; derives from BaseException so no operation swallows it."""


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def setup_probe(name):
    """Set up ``name`` as a run does, in this fresh process; print the import time."""
    start = time.perf_counter()
    import triladder.cli  # noqa: F401  (imports every module of the package)

    import_s = time.perf_counter() - start
    import workloads

    work_dir = OUT / f"probe-{os.getpid()}"
    try:
        workloads.make(name, work_dir).setup()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))
    return 0


def time_setup(name, repeats):
    """Scaled median time of a fresh process setting up ``name``, its wall times, and its import time.

    A fresh interpreter importing numpy, the reference for start-up work,
    is timed before every set-up process and after the last.
    """
    import workloads

    reference = speed.StartReference(workloads.child_env())
    walls, imports, refs = [], [], [reference.run()]
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name],
            env=workloads.child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        walls.append(time.perf_counter() - start)
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
        refs.append(reference.run())
    return speed.scaled_median(walls, refs[:-1], refs[1:], reference.nominal_s), walls, median(imports)


def per_op(statistic, rounds):
    """``statistic`` of each operation's seconds over the rounds.

    A round does the same operations in the same order every time, so the
    columns line up: one value per operation of the round.
    """
    return [statistic(column) for column in zip(*[[op.seconds for op in ops] for ops in rounds])]


def measure(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Set up and run ``workload`` for ``seconds``; return the full report."""
    import numpy as np

    setup_s, setup_walls, import_s = time_setup(workload.name, setup_repeats)
    workload.setup()
    workload.checks.worst.clear()  # the warm-up is not part of the run
    rng = np.random.default_rng(seed)
    reference = workload.reference()
    reference.run()  # warm-up
    tracer = tracing.Tracer() if trace else None
    plain, traced, layer_rounds, spans = [], [], [], []
    # The reference runs before every round and once after the last, so each
    # round sits between two timings of it.
    refs, plain_at = [], []
    start = time.perf_counter()
    while len(plain) + len(traced) < 1 + trace or time.perf_counter() - start < seconds:
        refs.append(reference.run())
        if trace and len(plain) > len(traced):
            tracer.reset()
            tracer.measure_peaks = not traced
            traced.append(workload.run_round(rng, tracer))
            layer_rounds.append(tracer.summary())
            spans.append(tracer.spans)
        else:
            plain_at.append(len(refs) - 1)
            plain.append(workload.run_round(rng))
    refs.append(reference.run())
    elapsed = time.perf_counter() - start

    who = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
    ops = [op for ops in plain + traced for op in ops]
    failures = [op for op in ops if not op.ok]
    # On a shared 2-vCPU virtual machine, neighbours slow a process by up to
    # 2x in phases lasting seconds to minutes, so wall times of the same code
    # spread by 15-40 % between runs; scaled by a reference doing the same
    # kind of work, timed on either side of each round, they spread 2-6 %.
    walls = [sum(op.seconds for op in round_ops) for round_ops in plain]
    typical = per_op(median, plain)
    end_to_end = {
        "setup_s": setup_s,
        "round_s": speed.scaled_median(
            walls, [refs[at] for at in plain_at], [refs[at + 1] for at in plain_at], reference.nominal_s
        ),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
    }
    figures = {
        "round_wall_s": (median(walls), "s"),
        "setup_wall_s": (median(setup_walls), "s"),
        "reference_s": (median(refs), "s"),
        "host_speed": (reference.nominal_s / median(refs), "1"),
        "slowest_op_s": (max(typical), "s"),
        **workload.figures(typical),
        "failed_ratio": (len(failures) / len(ops), "1"),
    }
    per_layer = {}
    if trace:
        names = set().union(*layer_rounds)
        per_layer = {name: median([r.get(name, 0.0) for r in layer_rounds]) for name in names}
        per_layer.update(tracer.peaks)
        traced_round = sum(per_op(median, traced))
        per_layer["trace.round_s"] = traced_round
        per_layer["trace.overhead_s"] = traced_round - sum(typical)
        # Self time as a share of the traced round: a layer that a workload
        # never calls reads 0 %, not a time of exactly 0 s.
        per_layer.update(
            {name[: -len("self_s")] + "self_pct": 100.0 * per_layer[name] / traced_round
             for name in names if name.endswith(".self_s")}
        )
        per_layer.update(
            {f"check.{name}.worst_over_tol": v for name, v in workload.checks.worst.items()}
        )
        per_layer["triladder.import_s"] = import_s
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_THREADS),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rounds": {
            "untraced": len(plain),
            "traced": len(traced),
            "elapsed_s": elapsed,
            "untraced_op_s": [[op.seconds for op in ops] for ops in plain],
            "reference_s": refs,
            "setup_walls": setup_walls,
        },
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [f"{op.name}: {op.detail}" for op in failures[:20]],
        "end_to_end": end_to_end,
        "figures": figures,
        "per_layer": per_layer,
        "spans": spans,
    }


def result_line(report, bench):
    """The final JSON line: every end-to-end, or every per-layer, metric of BENCHMARK.json."""
    listed = bench["per_layer"] if report["trace"] else bench["end_to_end"]
    values = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed},
    }


def print_report(report, bench):
    why = {w["name"]: w["why"] for w in bench["workloads"]}[report["workload"]]
    env = report["environment"]
    rounds = report["rounds"]
    print(f"workload {report['workload']} (seed {report['seed']}): {why}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"rounds: {rounds['untraced']} untraced, {rounds['traced']} traced in"
        f" {rounds['elapsed_s']:.1f} s; operations attempted={report['attempted']}"
        f" failed={report['failed']}; verdict: {'correct' if report['failed'] == 0 else 'FAILED'}"
    )
    for line in report["failures"]:
        print(f"  failed {line}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    rows = [(name, value, units[name]) for name, value in report["end_to_end"].items()]
    rows += [(name, value, unit) for name, (value, unit) in report["figures"].items()]
    if report["trace"]:
        rows += [(m["name"], report["per_layer"].get(m["name"], 0.0), m["unit"]) for m in bench["per_layer"]]
        rows += [(name, value, "s") for name, value in sorted(report["per_layer"].items())
                 if name.endswith(".self_s")]
    for name, value, unit in rows:
        print(f"  {name:<44} {value:.6g} {unit}")


def write_report(report):
    OUT.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    spans = report.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")


def _overrun(signum, frame):
    raise Overrun(f"run exceeded {WATCHDOG_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "triladder" / "__init__.py").is_file():
        print(f"no triladder source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One client on one core. Fixed before numpy loads: with the default
    # thread pool the first BLAS call stalls ~0.9 s in some fresh processes.
    os.environ.update(BLAS_THREADS)
    if args.setup_probe:
        return setup_probe(args.workload)

    bench = spec()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    import workloads

    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(WATCHDOG_S)
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        report = measure(workloads.make(args.workload, work_dir), args.seed, args.seconds, args.trace)
    except Overrun as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work_dir, ignore_errors=True)
    print_report(report, bench)
    write_report(report)
    print(json.dumps(result_line(report, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
