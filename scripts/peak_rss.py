#!/usr/bin/env python3
"""Peak RSS of an actx invocation, measured from a small spawner.

    python scripts/peak_rss.py [-n N] [--src DIR] ARGS...

Runs ``python -c "import sys; from actx.cli import main; sys.exit(main())" ARGS``
N times (default 5), one after another, each in a fresh interpreter started
by ``os.posix_spawn`` with ``PYTHONPATH=DIR`` (default: the ``src`` next to
this script) and the caller's environment otherwise. ``{run}`` in an argument
becomes the run's index, so that ``--out out/{run}`` keeps the runs' outputs
apart. Prints the median and range of each run's ``ru_maxrss`` (MiB; the
largest RSS of the invocation and of the helpers and workers it reaped) and
``ru_minflt`` (minor page faults), from ``os.wait4``.

A child's ``ru_maxrss`` counts the pages of the process it was spawned from
until it execs, so a spawner holding more memory than the invocation (such as
a benchmark harness) reads its own size instead; this script imports nothing
beyond the standard library, and stays well below any invocation.

Example, the circle-2d benchmark config:

    python scripts/peak_rss.py -n 7 run --config circle.cfg --out /tmp/rss/{run}
"""

import argparse
import os
import statistics
import sys

CLI_MAIN = "import sys; from actx.cli import main; sys.exit(main())"


def measure(args: list[str], env: dict[str, str]) -> tuple[float, int]:
    """(ru_maxrss in MiB, ru_minflt) of one invocation; exits if it fails."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CLI_MAIN, *args], env)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"peak_rss: actx {' '.join(args)} exited with {code}")
    return usage.ru_maxrss / 1024.0, usage.ru_minflt


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=5, help="runs (default 5)")
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"), help="the actx sources")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="the actx command line")
    opts = parser.parse_args()
    if opts.n < 1 or not opts.args:
        parser.error("need at least one run and an actx command line")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(opts.src))
    runs = [measure([a.replace("{run}", str(i)) for a in opts.args], env) for i in range(opts.n)]
    for name, values, fmt in (("ru_maxrss_mib", [r[0] for r in runs], "{:.2f}"),
                              ("ru_minflt", [r[1] for r in runs], "{:.0f}")):
        low, mid, high = min(values), statistics.median(values), max(values)
        print(f"{name} median {fmt.format(mid)} range {fmt.format(low)}-{fmt.format(high)} (n={len(values)})")


if __name__ == "__main__":
    main()
