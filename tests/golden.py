"""Print one sha256 per output of a fixed set of CLI runs, to compare two checkouts.

    python tests/golden.py [SRC]

Each run below is one ``python -m triladder.cli`` process with ``SRC``
(default: ``src`` of this checkout) first on PYTHONPATH, in a fresh
temporary directory that holds the sample files for ``moments``. The runs
cover the data files and the refusals (exit 1 or 2, no file). For every
run the script prints one line ``<sha256>  <run>/<name>`` for each file
the run wrote and for its exit code, stdout and stderr. "Same bytes" between two checkouts is then one
diff of two listings, e.g. with the parent's tree in OLD:

    diff <(python tests/golden.py OLD/src) <(python tests/golden.py)

pytest does not collect this file: together the runs take several seconds.
"""

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# with "verify" and "verify --inject-FLAG" for each of the checkout's CHECKS first
RUNS = {
    "density_default": ["density"],
    "density_31x7": ["density", "--xsteps", "31", "--tsteps", "7"],
    "density_1x1": ["density", "--xsteps", "1", "--tsteps", "1"],
    # one cell off x = 0: pins the last bits of a one-cell Gaussian density
    "density_1x1_offset": ["density", "--xmin", "-0.5", "--xmax", "1", "--xsteps", "1",
                           "--tsteps", "1"],
    # z = 0: the degenerate triangle, the number state |j>
    "density_z0": ["density", "--z-re", "0", "--xsteps", "31", "--tsteps", "7"],
    "density_1601x61": ["density", "--xsteps", "1601", "--tsteps", "61"],
    "density_alt": ["density", "--z-re", "1.2", "--z-im", "-0.4", "--xmin", "-6", "--xmax", "7",
                    "--xsteps", "121", "--tmin", "0.5", "--tmax", "3", "--tsteps", "13"],
    "density_j1_z8": ["density", "--j", "1", "--z-re", "8"],
    "density_inject": ["density", "--j", "0", "--inject-spotcheck"],
    # the far tail: zeros, subnormals and normal values in one column
    "density_far_tail": ["density", "--xmin", "25", "--xmax", "40", "--xsteps", "301",
                         "--tsteps", "3"],
    "piv_default": ["piv"],
    "piv_20001": ["piv", "--xsteps", "20001"],
    "piv_301": ["piv", "--xmin", "-3", "--xmax", "4", "--xsteps", "301"],
    "piv_tiny_span": ["piv", "--xmin", "1e-9", "--xmax", "2e-9", "--xsteps", "2"],
    "piv_far": ["piv", "--xmin", "1e110", "--xmax", "1e111", "--xsteps", "2"],
    "uncertainty_default": ["uncertainty"],
    "uncertainty_alt": ["uncertainty", "--amin", "0.5", "--amax", "3", "--asteps", "17",
                        "--j", "1"],
    "uncertainty_wide": ["uncertainty", "--amin", "1", "--amax", "1.5e4", "--asteps", "31"],
    "decompose_default": ["decompose"],
    "decompose_alt": ["decompose", "--j", "2", "--z-re", "1.3", "--z-im", "0.8"],
    "decompose_z3": ["decompose", "--z-re", "3"],
    "decompose_z26": ["decompose", "--j", "0", "--z-re", "26"],
    "moments_default": ["moments", "--samples", "weight.txt"],
    "moments_alt": ["moments", "--samples", "weight.txt", "--j", "1", "--nmax", "3",
                    "--rtol", "1e-2"],
    # refusals: each exits 1 or 2 and writes no file; moments_overflow writes
    # its file and exits 1 for the missed targets
    "moments_58": ["moments", "--samples", "weight.txt", "--nmax", "58"],
    "moments_overflow": ["moments", "--samples", "overflow.txt", "--nmax", "3"],
    "moments_too_large": ["moments", "--samples", "too_large.txt", "--nmax", "3"],
    "piv_cover": ["piv", "--xmin", "-0.05", "--xmax", "0.05", "--xsteps", "11"],
    "piv_span": ["piv", "--xmin", "-1.7e308", "--xmax", "1.7e308", "--xsteps", "3"],
    "density_j2_1e-8": ["density", "--j", "2", "--z-re", "1e-8"],
    "density_j1_1e-5": ["density", "--j", "1", "--z-re", "1e-5"],
    "density_j0_6e102": ["density", "--j", "0", "--z-re", "6e102"],
    "density_sweep_1e-3": ["density", "--z-re", "1e-3"],
    "density_far": ["density", "--j", "2", "--z-re", "-1e-300", "--xmin", "-1e-3",
                    "--xmax", "1e300"],
    "density_near_x": ["density", "--j", "0", "--xmin", "-8e307", "--xmax", "8e307",
                       "--xsteps", "3", "--tsteps", "2"],
    "density_near_t": ["density", "--j", "0", "--xsteps", "3", "--tsteps", "2",
                       "--tmin", "-8e307", "--tmax", "8e307"],
    "density_oversized": ["density", "--j", "0", "--xsteps", "100000000", "--tsteps", "100000"],
    "uncertainty_oversized": ["uncertainty", "--asteps", "100000000"],
    # a sweep's files are named from --out's file name; '' names none
    "density_out_empty": ["density", "--xsteps", "5", "--tsteps", "3", "--out", ""],
}

# the sample files every run finds in its directory, beside weight.txt
SAMPLES = {
    "overflow.txt": "0 1\n1e300 0\n",  # x^2 overflows at the second sample, x^2 f = 0 does not
    "too_large.txt": "0 1\n1e300 1\n",  # the second moment, 1e600 / 2, overflows
}


def write_weight(path, step=0.01, top=60.0):
    """exp(-x) sampled at ``step`` on [0, ``top``], two columns."""
    lines = []
    for i in range(round(top / step) + 1):
        x = i * step
        lines.append(f"{x!r} {math.exp(-x)!r}\n")
    path.write_text("".join(lines), encoding="ascii")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1")
    flags = subprocess.run(
        [sys.executable, "-c", "from triladder import cli; print(*(f for _, f, _ in cli.CHECKS))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    runs = {"verify": ["verify"],
            **{f"verify_inject_{flag}": ["verify", f"--inject-{flag}"] for flag in flags},
            **RUNS}
    for name, args in runs.items():
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            write_weight(work / "weight.txt")
            for sample, text in SAMPLES.items():
                (work / sample).write_text(text, encoding="ascii")
            done = subprocess.run([sys.executable, "-m", "triladder.cli", *args], cwd=work,
                                  env=env, capture_output=True, timeout=300)
            print(f"{digest(str(done.returncode).encode())}  {name}/exit")
            print(f"{digest(done.stdout)}  {name}/stdout")
            print(f"{digest(done.stderr)}  {name}/stderr")
            for path in sorted(work.iterdir()):
                if path.name != "weight.txt" and path.name not in SAMPLES:
                    print(f"{digest(path.read_bytes())}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
