"""Runs one ``mops`` CLI command with the layer wrappers installed.

Usage: python3 -X importtime perfbench/clishim.py COUNTERS SPANS JOB -- ARGS...

The traced counterpart of ``python3 -m mops.cli ARGS...``: it imports the
CLI, installs the wrappers of ``layertrace.py``, runs the command, and
writes the tracer's counters (JSON) to COUNTERS and its spans, tagged with
JOB, to SPANS.
"""

import json
import sys


def main():
    counters_path, spans_path, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: clishim.py COUNTERS SPANS JOB -- ARGS...")
    import mops
    import mops.cli

    from layertrace import Tracer

    tracer = Tracer(mops)
    tracer.job = job
    tracer.install()
    try:
        code = mops.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.note_job_end()
        with open(counters_path, "w") as handle:
            json.dump(tracer.counters(), handle)
        tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
