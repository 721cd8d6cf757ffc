"""Run the actx command line with its public functions traced.

    python3 perfbench/traced_actx.py SPANS_JSON RUN_ID ACTX_ARGS...

Behaves like ``actx ACTX_ARGS...`` (same exit code) and, on exit, writes the
recorded spans to SPANS_JSON. The import of ``actx.cli`` is recorded as the
root span ``import``; everything the command does nests under ``cli.main``.
"""

import json
import sys
import time

from spans import Recorder, install


def main() -> int:
    out_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter_ns()
    import actx.cli

    recorder = Recorder(run_id)
    recorder.spans.append(["import", start, time.perf_counter_ns(), -1, run_id, 0])
    install(recorder)
    try:
        return actx.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"run_id": run_id, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
