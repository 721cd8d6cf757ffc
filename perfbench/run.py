"""Benchmark of the actx command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it runs the program from ``src/`` and
writes only under ``.perfbench_work/``. It is a closed loop with one client:
one ``actx`` invocation at a time, each in a fresh interpreter, with the
numeric libraries pinned to one thread and ``ACTX_THREADS`` unset.

Workloads (see workloads.py; the seed only jitters the ball):

  circle-2d     ``actx run`` on the acceptance shrinking circle, 256^2, euler:
                after the import, nearly all of it is the explicit stepper.
  ladder-sweep  ``actx sweep`` over rungs 96/128/160 with pulsed radial
                transport and rk2: rows, snapshot writes and reads, and the
                offline monotonicity and Groenwall checks.
  ball-3d       ``actx run`` on a 97^3 ball: 3D stencils, marching cubes and
                frame retention.

``--trace 0`` repeats (invocation, set-up probe) pairs for S seconds and
prints the end-to-end metrics: medians of wall time, node updates per
second, set-up time and peak RSS, the radius error against the exact radial
law, and the share of invocations whose outputs passed every check.

``--trace 1`` alternates untraced and traced invocations for S seconds and
prints the per-layer metrics from the traced ones (means per invocation),
the tracing overhead, and one tracemalloc pass over a few steps.

Every invocation is checked: exit code 0, ``ACCEPT 8/8`` from the program's
report on every artifact, ``gronwall_margin > 0`` on every sweep rung, the
radius error within ORACLE_BOUND, and the same output digest
(``diagnostics.csv``, or ``sweep.csv`` plus every rung's ``diagnostics.csv``)
as the first invocation of the run, traced or not.

The last line of standard output is the JSON result; the lines before it
describe the machine, the computed per-node cost model and the digests. The
full record, spans included, stays under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
CLI_MAIN = "import sys; from actx.cli import main; sys.exit(main())"
INVOKE_TIMEOUT_S = 60.0  # about 6x the longest invocation; keeps a hung run under 180 s
MIN_SETUP_PROBES = 3
ALLOC_STEPS = 4
MIB = 1024.0 * 1024.0
# Largest accepted radius error against the exact law: about ten times the
# largest error these workloads show (6e-4 on circle-2d).
ORACLE_BOUND = 0.005


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no program to run)."""


@dataclass
class Invocation:
    traced: bool
    code: int
    wall_s: float
    rss_mib: float
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    oracle_rel_err: float = math.nan
    node_updates: int = 0
    spans: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def spawn(cmd: list[str], cwd: Path, env: dict, log: Path, timeout: float = INVOKE_TIMEOUT_S):
    """Run cmd to completion; returns (exit code, wall seconds, peak RSS in MiB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                proc.kill()
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(fd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def spawn_json(cmd: list[str], cwd: Path, env: dict) -> dict:
    """Run a probe that prints one JSON object; raise with its stderr if it fails."""
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=INVOKE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"probe {cmd[2:4]} failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    keys = [k.strip() for k in lines[0].split(",")]
    return [dict(zip(keys, (v.strip() for v in line.split(",")))) for line in lines[1:] if line]


def manifest_value(art: Path, key: str) -> str:
    for line in (art / "run-manifest").read_text().splitlines():
        k, sep, v = line.partition("=")
        if sep and k.strip() == key:
            return v.strip()
    raise KeyError(f"{art}/run-manifest has no {key}")


def pulsed_radius(r0: float, c: float, amp: float, freq: float, n: int, t: float) -> float:
    """Exact radius of dR/dt = -(n-1)/R + m(t) R, m(t) = c + amp sin(freq t).

    With y = R^2 the law is linear, y' = 2 m y - 2(n-1), so
    y(t) = e^{2M(t)} (y0 - 2(n-1) int_0^t e^{-2M(s)} ds), M the integral of m;
    the remaining integral is evaluated with composite Simpson on 2000 panels.
    """
    def big_m(s: float) -> float:
        return c * s + (amp / freq) * (1.0 - math.cos(freq * s)) if freq else c * s

    panels = 2000
    h = t / panels
    acc = 0.0
    for i in range(panels + 1):
        w = 1 if i in (0, panels) else (4 if i % 2 else 2)
        acc += w * math.exp(-2.0 * big_m(i * h))
    y = math.exp(2.0 * big_m(t)) * (r0 * r0 - 2.0 * (n - 1) * acc * h / 3.0)
    return math.sqrt(y) if y > 0 else math.nan


def radius_error(wl: workloads.Workload, art: Path) -> float:
    """Largest relative radius error against the exact radial law at 10 matched times."""
    from actx.interface import mcf_oracle

    rows = read_csv(art / "diagnostics.csv")
    times = [float(r["t"]) for r in rows]
    c, amp, freq = wl.transport
    oracle = None if amp else mcf_oracle(wl.radius, c, wl.dim, wl.t_end)
    worst = 0.0
    for k in range(10):
        t = wl.tau + (wl.t_end - wl.tau) * k / 9
        i = min(range(len(times)), key=lambda j: abs(times[j] - t))
        r_sim = float(rows[i]["interface_radius"])
        if oracle is not None:
            r_ref = oracle.radius(times[i])
        else:
            r_ref = pulsed_radius(wl.radius, c, amp, freq, wl.dim, times[i])
        if r_sim <= 0 or not math.isfinite(r_ref):
            return math.inf
        worst = max(worst, abs(r_sim - r_ref) / r_ref)
    return worst


def artifacts(wl: workloads.Workload, out: Path) -> list[Path]:
    if wl.command == "run":
        return [out]
    return [out / f"rung_{cells:04d}" for cells in wl.cells]


def output_digest(wl: workloads.Workload, out: Path) -> str:
    h = hashlib.sha256()
    files = [out / "sweep.csv"] if wl.command == "sweep" else []
    files += [art / "diagnostics.csv" for art in artifacts(wl, out)]
    for path in files:
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_outputs(wl: workloads.Workload, out: Path, inv: Invocation, reference: str | None) -> None:
    """Fill inv's digest, radius error and node updates; append every failed check."""
    from actx.cli import emit_report

    fails = inv.failures
    if inv.code != 0:
        fails.append(f"exit code {inv.code}")
        return
    try:
        for art, nodes in zip(artifacts(wl, out), wl.nodes):
            _text, passed, total = emit_report(str(art))
            if not (passed == total == 8):
                fails.append(f"{art.name}: ACCEPT {passed}/{total}")
            inv.node_updates += int(manifest_value(art, "n_steps")) * nodes
        if wl.command == "sweep":
            rows = read_csv(out / "sweep.csv")
            if [int(r["cells"]) for r in rows] != list(wl.cells):
                fails.append("sweep.csv does not list every rung")
            for r in rows:
                if r["status"] != "ok" or not float(r["gronwall_margin"]) > 0:
                    fails.append(f"rung {r['cells']}: status {r['status']}, "
                                 f"gronwall_margin {r['gronwall_margin']}")
        inv.oracle_rel_err = max(radius_error(wl, art) for art in artifacts(wl, out))
        if not inv.oracle_rel_err <= ORACLE_BOUND:
            fails.append(f"radius error {inv.oracle_rel_err:.4g} above {ORACLE_BOUND}")
        inv.digest = output_digest(wl, out)
        if reference is not None and inv.digest != reference:
            fails.append(f"digest {inv.digest[:12]} differs from the first run's {reference[:12]}")
    except (OSError, KeyError, ValueError, IndexError) as exc:
        fails.append(f"unreadable output: {exc!r}")


# ---------------------------------------------------------------------------
# A benchmark session: one workload, one seed
# ---------------------------------------------------------------------------


class Session:
    def __init__(self, root: Path, wl: workloads.Workload, seed: int, trace: int):
        self.wl = wl
        self.work = root / ".perfbench_work" / f"{wl.name}-s{seed}-t{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / ("plan.cfg" if wl.command == "sweep" else "config.cfg")
        self.config.write_text(wl.text)
        self.env = dict(os.environ)
        self.env.pop("ACTX_THREADS", None)
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.invocations: list[Invocation] = []
        self.reference: str | None = None

    def _spawn(self, traced: bool, case: Path) -> tuple[int, float, float]:
        flag = "--plan" if self.wl.command == "sweep" else "--config"
        args = [self.wl.command, flag, str(self.config), "--out", "out"]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_actx.py"), "spans.json", case.name, *args]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *args]
        return spawn(cmd, case, self.env, case / "stderr.txt")

    def invoke(self, traced: bool) -> Invocation:
        case = self.work / f"inv{len(self.invocations):03d}"
        case.mkdir()
        code, wall, rss = self._spawn(traced, case)
        inv = Invocation(traced, code, wall, rss)
        check_outputs(self.wl, case / "out", inv, self.reference)
        if self.reference is None and inv.digest:
            self.reference = inv.digest
        if traced:
            try:
                inv.spans = json.loads((case / "spans.json").read_text())["spans"]
            except (OSError, ValueError, KeyError) as exc:
                inv.failures.append(f"no spans: {exc!r}")
        if inv.failures:
            (case / "failures.txt").write_text("\n".join(inv.failures) + "\n")
        else:
            shutil.rmtree(case / "out")
        self.invocations.append(inv)
        return inv

    def probe(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "probe.py"), mode, self.wl.command, str(self.config), *extra]
        return spawn_json(cmd, self.work, self.env)

    def setup_s(self) -> float:
        return sum(self.probe("setup").values())

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.failures)


def closed_loop(seconds: float, iteration) -> None:
    """Run iteration() once, then again while the next one should end within seconds."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iteration()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def end_to_end(sess: Session, seconds: float) -> dict:
    setups: list[float] = []

    def iteration():
        sess.invoke(traced=False)
        setups.append(sess.setup_s())

    closed_loop(seconds, iteration)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(sess.setup_s())
    invs = [i for i in sess.invocations if not i.failures] or sess.invocations
    med = statistics.median
    return {
        "wall_s": (med(i.wall_s for i in invs), "s"),
        "node_updates_per_s": (med(i.node_updates / i.wall_s for i in invs), "1/s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (med(i.rss_mib for i in invs), "MiB"),
        "oracle_rel_err": (med(i.oracle_rel_err for i in invs), "ratio"),
        "pass_ratio": (1.0 - sess.failed / len(sess.invocations), "ratio"),
    }


def per_layer(sess: Session, seconds: float) -> dict:
    def iteration():
        sess.invoke(traced=False)
        sess.invoke(traced=True)

    closed_loop(seconds, iteration)
    alloc = sess.probe("alloc", str(ALLOC_STEPS))["peak_fields"]
    return layer_metrics(sess.invocations, alloc, sess.failed)


def span_table(invs: list[Invocation]) -> dict[str, dict]:
    """Every span name of the traced invocations: calls, busy and self time per
    invocation, and per-call percentiles over all of them."""
    sums = [spanlib.summarize(i.spans) for i in invs if i.traced and i.spans]
    table = {}
    for name in sorted({k for s in sums for k in s}):
        entries = [s[name] for s in sums if name in s]
        durs = sorted(d for e in entries for d in e["durations"])
        table[name] = {
            "calls": sum(e["calls"] for e in entries) / len(sums),
            "busy_s": sum(e["busy"] for e in entries) / len(sums),
            "self_s": sum(e["self"] for e in entries) / len(sums),
            "p50_ms": 1e3 * spanlib.percentile(durs, 50),
            "p99_ms": 1e3 * spanlib.percentile(durs, 99),
        }
    return table


def layer_metrics(invs: list[Invocation], alloc_fields: float, failed: int) -> dict:
    """Per-layer metrics: means per traced invocation, percentiles over all of them."""
    traced = [i for i in invs if i.traced and i.spans]
    n = max(len(traced), 1)  # no spans at all leaves every metric 0 (and a failed run)
    sums = [spanlib.summarize(i.spans) for i in traced]

    def tot(name: str, key: str) -> float:
        return sum(s[name][key] for s in sums if name in s)

    def durations(name: str) -> list[float]:
        return sorted(d for s in sums if name in s for d in s[name]["durations"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps, rows = tot("solver.step", "calls"), tot("solver.row", "calls")
    step_d, row_d = durations("solver.step"), durations("solver.row")
    m: dict[str, tuple[float, str]] = {
        "solver.step.calls": (steps / n, "count"),
        "solver.step.busy_s": (tot("solver.step", "busy") / n, "s"),
        "solver.step.ns_per_node": (1e9 * ratio(tot("solver.step", "busy"), tot("solver.step", "work")), "ns"),
        "solver.step.p50_ms": (1e3 * spanlib.percentile(step_d, 50), "ms"),
        "solver.step.p99_ms": (1e3 * spanlib.percentile(step_d, 99), "ms"),
        "solver.step.alloc_fields": (alloc_fields, "fields"),
        "grid.laplacian.calls_per_step": (ratio(tot("grid.laplacian", "in_step"), steps), "count"),
        "grid.gradient.calls_per_step": (ratio(tot("grid.gradient", "in_step"), steps), "count"),
        "potential.eval.calls_per_step": (ratio(tot("potential.eval", "in_step"), steps), "count"),
        "potential.eval.busy_s": (tot("potential.eval", "busy") / n, "s"),
        "solver.row.calls": (rows / n, "count"),
        "solver.row.gap_ms": (1e3 * spanlib.percentile(row_d, 50), "ms"),
        "solver.row.busy_s": (tot("solver.row", "busy") / n, "s"),
        "grid.gradient.calls_per_row": (ratio(tot("grid.gradient", "in_row"), rows), "count"),
        "measures.ball_masses.calls_per_row": (ratio(tot("measures.ball_masses", "in_row"), rows), "count"),
    }
    for name in ("measures.energy", "measures.discrepancy_field", "measures.kernel_field",
                 "measures.density_ratio", "measures.monotonicity_check", "measures.gronwall_check",
                 "cli.load_trajectory", "cli.fitted_monotonicity_c",
                 "scenario.build_initial_phase"):
        m[f"{name}.busy_s"] = (tot(name, "busy") / n, "s")
    for name in ("grid.write_field", "grid.read_field"):
        m[f"{name}.calls"] = (tot(name, "calls") / n, "count")
        m[f"{name}.busy_s"] = (tot(name, "busy") / n, "s")
        m[f"{name}.mb_per_s"] = (ratio(tot(name, "work") / MIB, tot(name, "busy")), "MiB/s")
    m["cli.run_experiment.self_s"] = (tot("cli.run_experiment", "self") / n, "s")
    m["scenario.velocity.calls_per_step"] = (ratio(tot("scenario.velocity", "calls"), steps), "count")
    m["scenario.velocity.busy_s"] = (tot("scenario.velocity", "busy") / n, "s")
    m["interface.extract_interface.calls"] = (tot("interface.extract_interface", "calls") / n, "count")
    m["interface.extract_interface.ms_per_call"] = (
        1e3 * ratio(tot("interface.extract_interface", "busy"), tot("interface.extract_interface", "calls")), "ms")
    m["solver.trajectory.retained_mb"] = (
        max((s["solver.run"]["max_work"] for s in sums if "solver.run" in s), default=0.0) / MIB, "MiB")
    m["cli.import_s"] = (tot("import", "busy") / n, "s")
    for mod in spanlib.MODULES:
        self_s = sum(v["self"] for s in sums for k, v in s.items() if k.startswith(mod + "."))
        m[f"layer.{mod}.self_s"] = (self_s / n, "s")
    traced_wall = sum(i.wall_s for i in traced) / n
    covered = sum(spanlib.root_total(i.spans) for i in traced) / n
    untraced = [i.wall_s for i in invs if not i.traced]
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.uncovered_s"] = (traced_wall - covered, "s")
    m["trace_overhead_s"] = (traced_wall - statistics.fmean(untraced) if traced and untraced else 0.0, "s")
    m["fail_ratio"] = (failed / len(invs), "ratio")
    return m


# ---------------------------------------------------------------------------
# Machine description and computed cost model
# ---------------------------------------------------------------------------


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in [*THREAD_ENV, "ACTX_THREADS"]},
    }


def computed_cost(wl: workloads.Workload) -> dict:
    """Operations and bytes per node per step of the explicit update, computed, not measured.

    Model: each stage reads every node once and writes it once (8 bytes
    each); a transported stage also reads its n velocity components. A
    stage costs the (2n+1)-point Laplacian (2n + 2 operations), W'(s) =
    s^3 - s scaled by 1/eps^2 (4), the subtraction (1), and with transport
    the gradient (2n), the dot product (2n - 1) and its subtraction (1); an
    update is 2 operations. rk2 has two stages and two updates.
    """
    n = wl.dim
    transported = any(wl.transport)
    stages = 2 if wl.scheme == "rk2" else 1
    stage_ops = (2 * n + 2) + 4 + 1 + (4 * n if transported else 0)
    stage_bytes = 16 + (8 * n if transported else 0)
    return {
        "label": "computed",
        "ops_per_node_step": stages * (stage_ops + 2),
        "bytes_per_node_step": stages * stage_bytes,
        "largest_field_mib": max(wl.nodes) * 8 / MIB,
        "note": "from the arithmetic of the update, not measured; no roofline ratio is reported",
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def measure(root: Path, name: str, seed: int, seconds: float, trace: int, scale: float = 1.0):
    """Run one workload; returns (result dict for the last line, full record)."""
    if not (root / "src" / "actx" / "cli.py").is_file():
        raise BenchError(f"no actx sources under {root / 'src'}; run from the repository root")
    os.environ.update(THREAD_ENV)
    os.environ.pop("ACTX_THREADS", None)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    # Imported up front: the checks call the program's own report, and the
    # import warms the file cache before anything is timed.
    import actx.cli  # noqa: F401

    wl = workloads.make(name, seed, scale)
    sess = Session(root, wl, seed, trace)
    metrics = per_layer(sess, seconds) if trace else end_to_end(sess, seconds)
    # A failed invocation can leave a metric undefined; JSON has no NaN, and
    # "correct" is false whenever that happens.
    metrics = {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    result = {
        "correct": sess.failed == 0,
        "attempted": len(sess.invocations),
        "failed": sess.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "config": wl.text,
        "machine": machine(),
        "computed": computed_cost(wl),
        "digests": {"untraced": sorted({i.digest for i in sess.invocations if not i.traced}),
                    "traced": sorted({i.digest for i in sess.invocations if i.traced})},
        "invocations": [
            {"traced": i.traced, "code": i.code, "wall_s": i.wall_s, "rss_mib": i.rss_mib,
             "digest": i.digest, "oracle_rel_err": i.oracle_rel_err, "failures": i.failures}
            for i in sess.invocations
        ],
        "result": result,
    }
    if trace:
        record["spans"] = span_table(sess.invocations)
    (sess.work / "record.json").write_text(json.dumps(record, indent=1))
    return result, record


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = measure(Path.cwd(), args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print("computed: " + json.dumps(record["computed"], sort_keys=True))
    print("digests: " + json.dumps(record["digests"], sort_keys=True))
    for i, inv in enumerate(record["invocations"]):
        if inv["failures"]:
            print(f"invocation {i} failed: " + "; ".join(inv["failures"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
