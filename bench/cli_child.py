"""Run one ``triladder`` command with the benchmark's timing wrappers installed.

    python3 bench/cli_child.py RECORD.json ARG...

runs ``triladder.cli.main([ARG...])`` and exits with its code. The spans
and counters are written to RECORD.json when the command ends.
"""

import json
import sys

import tracing
from triladder import cli


def main(record_path, argv):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        with open(record_path, "w", encoding="ascii") as fh:
            json.dump(tracer.to_record(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
