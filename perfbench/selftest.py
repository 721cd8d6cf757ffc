"""Fast self-test of the benchmark at toy size (about half a minute).

    python3 perfbench/selftest.py        # from the repository root

Checks that every metric BENCHMARK.json names is reported, with its unit, in
its mode; that traced and untraced runs give the same output digest; that
the layer self times, the import and the uncovered time add up to the
traced wall time; that the pulsed radius law reduces to ``mcf_oracle``
without a pulse; and that a corrupted output counts as a failed invocation.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

TOY = 0.25  # share of each workload's simulated time


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_names(result: dict, specs: list[dict], mode: str) -> None:
    got = result["metrics"]
    for spec in specs:
        check(spec["name"] in got and got[spec["name"]]["unit"] == spec["unit"],
              f"{mode}: {spec['name']} reported in {spec['unit']}")
    check(set(got) == {s["name"] for s in specs}, f"{mode}: no metric beyond BENCHMARK.json")


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())

    result, _ = run.measure(root, "circle-2d", 0, 0.0, 0, scale=TOY)
    check(result["correct"] and result["attempted"] >= 1, "clean end-to-end run passes its checks")
    check_names(result, bench["end_to_end"], "end_to_end")

    result, record = run.measure(root, "ladder-sweep", 0, 0.0, 1, scale=TOY)
    check(result["correct"], "clean traced sweep passes its checks")
    check_names(result, bench["per_layer"], "per_layer")
    digests = record["digests"]
    check(len(digests["untraced"]) == 1 and digests["untraced"] == digests["traced"],
          "traced and untraced output digests match")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = sum(m[f"layer.{mod}.self_s"] for mod in spans.MODULES)
    parts += m["cli.import_s"] + m["trace.uncovered_s"]
    check(abs(parts - m["trace.wall_s"]) < 1e-6, "self times + import + uncovered = traced wall")
    check(m["measures.monotonicity_check.busy_s"] > 0 and m["grid.read_field.calls"] > 0,
          "the sweep's offline checks are traced")

    from actx.interface import mcf_oracle

    ref = mcf_oracle(0.25, 1.2, 2, 0.003).radius(0.003)
    got = run.pulsed_radius(0.25, 1.2, 0.0, 0.0, 2, 0.003)
    check(abs(got - ref) / ref < 1e-9, "pulsed radius law without pulse matches mcf_oracle")

    spawn = run.Session._spawn

    def corrupting(self, traced, case):
        status = spawn(self, traced, case)
        if traced:
            path = case / "out" / "diagnostics.csv"
            path.write_text(path.read_text().replace("0", "1", 1))
        return status

    run.Session._spawn = corrupting
    try:
        result, _ = run.measure(root, "circle-2d", 0, 0.0, 1, scale=TOY)
    finally:
        run.Session._spawn = spawn
    fail_ratio = result["metrics"]["fail_ratio"]["value"]
    check(not result["correct"] and result["failed"] == 1 and fail_ratio > 0,
          f"a corrupted output raises fail_ratio (to {fail_ratio})")
    check(math.isclose(fail_ratio, result["failed"] / result["attempted"]),
          "fail_ratio = failed / attempted")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
