"""Time the four commands of a figure rebuild in fresh processes, for one or two checkouts.

    python tests/startup.py OLD/src [NEW/src]

Each round runs ``verify``, ``density``, ``piv --xsteps 20001`` and
``uncertainty``, each as one ``python -m triladder.cli`` process with the
given ``src`` first on PYTHONPATH and one BLAS thread, in a fresh temporary
directory. With two trees the rounds alternate between them, and which tree
goes first alternates too, so that a slow phase of the host falls on both.
Each round also runs ``python -c "import numpy"`` in the same environment,
outside the round's sum: the floor of interpreter start-up, numpy's import
and the interpreter's exit that every command pays. The script prints, per
command, for the whole round and for that floor, the median wall time of
each tree and, with two trees, the change of the medians and in how many
rounds the second tree was faster. Time of a process runs from its start to
its end: start-up (interpreter, imports, and compiling the package where
PYTHONDONTWRITEBYTECODE is set), the command's own work, and the
interpreter's exit, whose collection of the import-time heap ``cli.entry``
skips by freezing it. A command's time above the floor is what the package
adds.

pytest does not collect this file: its 15 rounds take 20-40 s on a 2-vCPU VM.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROUNDS = 15
COMMANDS = {
    "verify": ["verify"],
    "density": ["density"],
    "piv": ["piv", "--xsteps", "20001"],
    "uncertainty": ["uncertainty"],
}
FLOOR = ["-c", "import numpy"]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_round(src: Path) -> dict:
    """Wall seconds of each command and of the floor, each in a fresh process, from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **ONE_THREAD)
    runs = {name: ["-m", "triladder.cli", *args] for name, args in COMMANDS.items()}
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in {**runs, "floor": FLOOR}.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                           capture_output=True, timeout=300, check=True)
            times[name] = time.perf_counter() - start
    times["round"] = sum(times[name] for name in COMMANDS)
    return times


def main(argv) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(arg) for arg in argv[1:]]
    runs = [[] for _ in trees]
    for i in range(ROUNDS):
        order = range(len(trees)) if i % 2 == 0 else reversed(range(len(trees)))
        for k in order:
            runs[k].append(run_round(trees[k]))
    print(f"{ROUNDS} rounds; PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}")
    print(f"{'':<12}" + "".join(f"{str(t):>24}" for t in trees)
          + ("   change  wins" if len(trees) == 2 else ""))
    for name in [*COMMANDS, "round", "floor"]:
        series = [[r[name] for r in tree_runs] for tree_runs in runs]
        line = f"{name:<12}" + "".join(f"{median(s):>22.4f} s" for s in series)
        if len(trees) == 2:
            change = median(series[1]) / median(series[0]) - 1.0
            wins = sum(new < old for old, new in zip(*series))
            line += f"  {100 * change:+6.1f} %  {wins}/{ROUNDS}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
