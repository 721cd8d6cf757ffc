"""Experiment orchestration: single runs, refinement sweeps, offline diagnostics.

Subcommands:
  run       integrate one scenario config into an artifact directory
  sweep     run a refinement ladder and report cross-rung convergence
  diagnose  print the diagnostics rows of snapshot files, and a probe's report
  oracle    print the exact radial-flow reference trajectory
  report    validate an artifact directory and summarize its checks

Exit codes: 0 clean, 1 configuration error (also one found before the first
step, such as an empty density-ratio radius ladder, and bad ``oracle``
arguments), unreadable snapshot or diagnostics file, bad ``diagnose`` probe
(also a snapshot at or after the default probe's time T + 0.01), bad
``report`` run-manifest value,
or a sweep rung whose monotonicity probes cannot be evaluated (no initial
interface to place them on, or fewer than two snapshot frames in [tau, T]),
2 solver abort or a failed sweep rung (a FAILED row in ``sweep.csv``).

The environment variable ACTX_THREADS caps the CPUs one invocation uses
(default: the CPUs the process may run on; ``grid.cpu_budget``): the forked
workers of a sweep, and the threads of the block sweeps (``grid.stencil_rhs``
and ``measures.frame_fields`` on grids above ``grid.THREAD_NODES``); each
sweep worker gets an equal share of at least one. For ``run``, ``sweep`` and
``diagnose`` a value that is not a positive integer is a configuration error.
Each distinct rung is one job, its run and its offline checks, in a forked
worker process, the largest rung first; a rung named twice in a plan runs
once. Messages come in plan order and a threaded block sweep gives the serial
bits, so no output depends on ACTX_THREADS. Artifact directories contain a manifest
listing every output file with its sha256 and the transport bounds; an
aborted run's manifest also records the abort's step, node, time and |phi|.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import re
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple, dataclass

import numpy as np

from . import __version__, measures, scenario, solver
from .grid import GridError, cpu_budget
from .interface import InterfaceError, extract_interface, mcf_oracle
from .measures import DiagnosticsRow, HuiskenProbe, MeasureError
from .scenario import ConfigError, ScenarioConfig
from .shapes import Ball
from .solver import SolverAbort, SolverConfig, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2


def solver_from_config(conf: dict[str, str]) -> SolverConfig:
    """The solver settings a parsed config sets; the others keep their defaults."""
    keys = ("scheme", "cfl", "diag_every", "snap_every")
    return SolverConfig(**{key: scenario.NUMBERS.get(key, str)(conf[key]) for key in keys if key in conf})


def load_experiment(path: str) -> tuple[ScenarioConfig, SolverConfig, str]:
    with open(path) as fh:
        text = fh.read()
    conf = scenario.parse_config(text)
    return scenario.scenario_from_config(conf), solver_from_config(conf), text


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, cfg: ScenarioConfig, sol: SolverConfig, config_text: str,
                    dt: float, n_steps: int, status: str, abort: SolverAbort | None = None) -> None:
    sup_dtg = cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end)
    tr = scenario.transport_report(cfg)
    if tr.norm > cfg.lambda0:
        print(
            f"warning: transport norm {tr.norm:.4g} exceeds the configured cap "
            f"lambda0 = {cfg.lambda0:g}",
            file=sys.stderr,
        )
    if tr.first_violation is not None:
        print(
            f"warning: transport exceeds the eps-scaled bounds from t = {tr.first_violation:g}: "
            f"sup|u| = {tr.sup_u:.4g} vs {tr.cap_u:.4g}, sup|grad u| = {tr.sup_grad_u:.4g} vs "
            f"{tr.cap_grad_u:.4g}", file=sys.stderr,
        )
    lines = [
        f"status = {status}",
        f"version = {__version__}",
        f"dt = {dt!r}",
        f"n_steps = {n_steps}",
        f"diag_every = {sol.diag_every}",
        f"epsilon = {cfg.epsilon!r}",
        f"beta = {cfg.beta!r}",
        f"tau = {cfg.tau!r}",
        f"T = {cfg.t_end!r}",
        f"sup_dt_g = {sup_dtg!r}",
        f"transport_norm = {tr.norm!r}",
        f"transport_sup_u = {tr.sup_u!r}",
        f"transport_sup_grad_u = {tr.sup_grad_u!r}",
        f"transport_cap_u = {tr.cap_u!r}",
        f"transport_cap_grad_u = {tr.cap_grad_u!r}",
        f"transport_first_violation = {'none' if tr.first_violation is None else repr(tr.first_violation)}",
        f"lambda0 = {cfg.lambda0!r}",
    ]
    if abort is not None:
        lines += [
            f"abort_step = {abort.step_index}",
            "abort_node = " + " ".join(str(i) for i in abort.location),
            f"abort_t = {abort.t!r}",
            f"abort_abs_phi = {abort.value!r}",
        ]
    lines.append("[config]")
    lines += ["  " + l for l in config_text.splitlines()]
    lines.append("[files]")
    entries = []
    for root, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            if name == "run-manifest":
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            entries.append(f"{_sha256(full)}  {rel}")
    lines += sorted(entries)
    with open(os.path.join(out_dir, "run-manifest"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(config_path: str, out_dir: str) -> int:
    """Run one scenario; returns the process exit code."""
    try:
        cfg, sol, text = load_experiment(config_path)
    except (OSError, ValueError) as exc:  # ConfigError and malformed numbers alike
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = solver.run(cfg, sol, out_dir=out_dir)
    except ConfigError as exc:  # raised before the first step: collar margin, ratio radii
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        _write_manifest(out_dir, cfg, sol, text, exc.dt, exc.n_steps, "aborted", abort=exc)
        return EXIT_ABORT
    _write_manifest(out_dir, cfg, sol, text, result.dt, result.n_steps, "complete")
    print(f"run complete: {result.n_steps} steps, {len(result.rows)} diagnostics rows -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepPlan:
    """Refinement ladder: cell counts per rung at fixed eps/h."""

    base_conf: dict[str, str]
    rungs: tuple[int, ...]
    eps_over_h: float = 8.0

    def __post_init__(self):
        if len(self.rungs) < 2:
            raise ConfigError("a sweep plan needs at least 2 rungs")
        if self.eps_over_h < 4.0:
            raise ConfigError(f"eps_over_h must be >= 4 for a resolved interface, got {self.eps_over_h}")
        for key in scenario.REQUIRED_KEYS:
            if key not in ("cells", "epsilon") and key not in self.base_conf:  # rungs set those two
                raise ConfigError(f"missing required key {key!r}")
        dim = int(self.base_conf["dim"])
        if any(len(corner) != dim for corner in scenario.config_box(self.base_conf, dim)):
            raise ConfigError("lo and hi must each have length dim")

    def rung_config_text(self, cells: int) -> str:
        conf = dict(self.base_conf)
        lo, hi = scenario.config_box(conf, int(conf["dim"]))
        h = min(b - a for a, b in zip(lo, hi)) / cells
        conf["epsilon"] = repr(self.eps_over_h * h)
        conf["cells"] = str(cells)
        if "snap_every" not in conf:
            conf["snap_every"] = conf.get("diag_every", str(SolverConfig.diag_every))
        return "\n".join(f"{k} = {v}" for k, v in conf.items()) + "\n"


def load_plan(path: str) -> SweepPlan:
    """The sweep plan in ``path``: ``rungs``, ``eps_over_h`` and its rungs' keys,
    checked as a config's (``scenario.check_entry``), so a malformed number fails
    naming its line before any rung runs; one that does not suit a rung fails it."""
    with open(path) as fh:
        text = fh.read()
    base: dict[str, str] = {}
    rungs: tuple[int, ...] = ()
    eps_over_h = 8.0
    for lineno, key, value in scenario.config_entries(text):
        if key == "rungs":
            rungs = tuple(scenario.numbers(lineno, key, value, int, several=True))
            if min(rungs) < 1:
                raise ConfigError(f"line {lineno}: bad {key} value {value!r}")
        elif key == "eps_over_h":
            eps_over_h = scenario.numbers(lineno, key, value, float)[0]
        else:
            scenario.check_entry(lineno, key, value)
            base[key] = value
    return SweepPlan(base, rungs, eps_over_h)


def interface_probes(traj: Trajectory, count: int = 10) -> list[HuiskenProbe]:
    """Evenly spread probes along the initial interface, inside the domain."""
    cfg = traj.cfg
    iset = extract_interface(traj.frames[0])
    if iset.is_empty:
        raise ConfigError("cannot place probes: initial interface is empty")
    verts = iset.vertices
    centroid = np.mean(verts, axis=0)
    ang = np.arctan2(verts[:, 1] - centroid[1], verts[:, 0] - centroid[0])
    order = np.argsort(ang, kind="stable")
    picks = [order[int(round(i * len(order) / count)) % len(order)] for i in range(count)]
    return [solver.probe_at(cfg, verts[i]) for i in picks]


def fitted_monotonicity_c(traj: Trajectory, count: int = 10) -> float:
    """Per-rung fitted constant: 9th-smallest of the probes' ``fitted_c``.

    Each probe's constant absorbs the residual beyond the
    ``measures.MONOTONICITY_SLACK`` share of its scale; the 9th-smallest
    realizes the 9-of-10 acceptance reading.
    """
    cfg = traj.cfg
    reps = measures.monotonicity_check(traj, interface_probes(traj, count), cfg.tau, cfg.t_end)
    cs = sorted(rep.fitted_c for rep in reps)
    return cs[min(8, len(cs) - 1)]


def _radius_error_vs_oracle(cfg: ScenarioConfig, rows: list[DiagnosticsRow], n_times: int = 10):
    """(max relative radius error at matched times, matched list) or None without an oracle."""
    c = cfg.transport.radial_rate()
    if not isinstance(cfg.shape, Ball) or c is None:
        return None
    oracle = mcf_oracle(cfg.shape.radius, c, cfg.grid.dim, cfg.t_end)
    ts = np.linspace(cfg.tau, cfg.t_end, n_times)
    row_times = np.array([r.t for r in rows])
    matched = []
    worst = 0.0
    for t in ts:
        i = int(np.argmin(np.abs(row_times - t)))
        r_sim = rows[i].interface_radius
        r_ref = oracle.radius(rows[i].t)
        if r_sim <= 0 or not np.isfinite(r_ref):
            continue
        err = abs(r_sim - r_ref) / r_ref
        worst = max(worst, err)
        matched.append((rows[i].t, r_sim, r_ref, err))
    if not matched:
        return None
    return worst, matched


def _run_rung(args: tuple[str, str]) -> int:
    text, out_dir = args
    cfg_path = os.path.join(out_dir, "config.txt")
    os.makedirs(out_dir, exist_ok=True)
    with open(cfg_path, "w") as fh:
        fh.write(text)
    return run_experiment(cfg_path, out_dir)


def read_rows(art_dir: str) -> list[DiagnosticsRow]:
    """The rows of an artifact directory's ``diagnostics.csv``; a row that does not
    parse raises ``ValueError`` naming the file and the line."""
    path = os.path.join(art_dir, "diagnostics.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            rows.append(DiagnosticsRow.from_csv_line(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: {exc}") from None
    return rows


def _rung_checks(text: str, rung_dir: str, code: int) -> tuple[dict, str | None]:
    """A rung's ``sweep.csv`` entry from its finished run (exit ``code``), and the
    one-line message of the first offline check that could not be made, if any."""
    # a failed rung's config may not even load, so the epsilon comes from its text
    conf = scenario.parse_config(text)
    entry: dict = {"cells": int(conf["cells"]), "epsilon": float(conf["epsilon"]),
                   "status": "ok" if code == 0 else "FAILED"}
    if code != 0:
        return entry, None
    cfg = scenario.scenario_from_config(conf)
    try:
        rows = read_rows(rung_dir)
    except (OSError, ValueError) as exc:
        return entry, f"diagnostics error: {exc}"
    tail = [r for r in rows if r.t >= cfg.tau - 1e-12]
    entry["e_max"] = max(r.density_ratio_max for r in tail)
    entry["sup_xi_pos"] = max(r.sup_xi_pos for r in tail)
    err = _radius_error_vs_oracle(cfg, rows)
    entry["interface_err"] = err[0] if err else math.nan
    if err:
        with open(os.path.join(rung_dir, "radius_vs_oracle.csv"), "w") as fh:
            fh.write("t,radius_sim,radius_oracle,rel_err\n")
            for t, rs, rr, e in err[1]:
                fh.write(f"{t!r},{rs!r},{rr!r},{e!r}\n")
    try:
        traj = solver.load_trajectory(rung_dir, cfg)
    except (GridError, OSError) as exc:
        return entry, f"snapshot error: {exc}"
    try:  # no interface to place probes on, or fewer than two frames in [tau, T]
        entry["fitted_c"] = fitted_monotonicity_c(traj)
    except (ConfigError, MeasureError) as exc:
        return entry, f"probe error: {rung_dir}: {exc}"
    # the same sup |dt g| and row spacing as the rung's run-manifest
    rep = measures.gronwall_report(rows, cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end),
                                   solver_from_config(conf).diag_every)
    entry["gronwall_margin"] = rep.rate_bound - rep.growth_rate
    return entry, None


def _rung_job(job: tuple[str, str]) -> tuple[dict, str, str, str | None]:
    """One sweep rung, in whichever process runs it: ``_run_rung`` (looked up at
    call time, so a replaced hook also runs in forked workers), then its offline
    checks. Returns the rung's entry, the stdout and stderr text it wrote and its
    check error (``_rung_checks``), so that the caller prints them in plan order."""
    out, err = io.StringIO(), io.StringIO()
    # catch_warnings resets the once-per-location warning registries, so a rung
    # prints the same warnings whichever process ran the rungs before it
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        entry, error = _rung_checks(job[0], job[1], _run_rung(job))
    return entry, out.getvalue(), err.getvalue(), error


def _set_cpu_budget(cpus: int) -> None:
    """A forked sweep worker's share of the CPU budget (``grid.cpu_budget``)."""
    os.environ["ACTX_THREADS"] = str(cpus)


def sweep(plan_path: str, out_dir: str) -> int:
    """Run every rung, then emit the cross-rung convergence table."""
    try:
        plan = load_plan(plan_path)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(out_dir, exist_ok=True)
    # one job per distinct rung (two jobs must never write one directory),
    # the largest first: it takes longest
    cells = sorted(set(plan.rungs), reverse=True)
    jobs = [(plan.rung_config_text(c), os.path.join(out_dir, f"rung_{c:04d}")) for c in cells]
    budget = cpu_budget()
    workers = min(budget, len(jobs))
    if workers > 1:
        # imported here: the process pool's modules are a noticeable part of every
        # invocation's import time, and only a parallel sweep needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked workers inherit the imports and the ``_run_rung`` hook; the pool
        # forks them all before it starts its own thread, and multiprocessing
        # flushes stdout and stderr first, so no worker writes the parent's text.
        # The workers share the CPU budget for their block sweeps.
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_set_cpu_budget, initargs=(max(1, budget // workers),)) as pool:
            results = list(pool.map(_rung_job, jobs))
    else:
        results = list(map(_rung_job, jobs))
    done = dict(zip(cells, results))

    for c in dict.fromkeys(plan.rungs):  # each distinct rung once, in plan order
        _, out_text, err_text, _ = done[c]
        sys.stdout.write(out_text)
        sys.stderr.write(err_text)
    for c in plan.rungs:
        error = done[c][3]
        if error is not None:
            print(error, file=sys.stderr)
            return EXIT_CONFIG
    table = [done[c][0] for c in plan.rungs]

    # observed order between consecutive successful rungs (eps decreasing)
    orders: list[float | None] = [None]
    for prev, cur in zip(table, table[1:]):
        if (
            prev["status"] == "ok"
            and cur["status"] == "ok"
            and np.isfinite(prev.get("interface_err", math.nan))
            and np.isfinite(cur.get("interface_err", math.nan))
            and prev["epsilon"] != cur["epsilon"]
            and cur["interface_err"] > 0
        ):
            orders.append(
                math.log(prev["interface_err"] / cur["interface_err"])
                / math.log(prev["epsilon"] / cur["epsilon"])
            )
        else:
            orders.append(None)

    lines = ["cells,epsilon,status,interface_err,order,e_max,sup_xi_pos,fitted_c,gronwall_margin"]
    for entry, order in zip(table, orders):
        lines.append(
            ",".join(
                [
                    str(entry["cells"]),
                    repr(entry["epsilon"]),
                    entry["status"],
                    repr(entry.get("interface_err", math.nan)),
                    "n/a" if order is None else repr(order),
                    repr(entry.get("e_max", math.nan)),
                    repr(entry.get("sup_xi_pos", math.nan)),
                    repr(entry.get("fitted_c", math.nan)),
                    repr(entry.get("gronwall_margin", math.nan)),
                ]
            )
        )
    out_text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write(out_text)
    print(out_text, end="")
    return EXIT_OK if all(entry["status"] == "ok" for entry in table) else EXIT_ABORT


# ---------------------------------------------------------------------------
# Offline diagnostics, oracle, report
# ---------------------------------------------------------------------------


def _parse_probe(spec_str: str, cfg: ScenarioConfig) -> HuiskenProbe:
    """Parse 'y=0.5,0.5 s=0.05' (optionally 'd=0.05'); commas may separate fields."""
    y = None
    s = None
    d = measures.probe_radius(cfg.inset_prime)
    # split on whitespace/semicolons, or on commas that start a new key=value
    for tok in re.split(r"[;\s]+|,(?=[A-Za-z]+=)", spec_str.strip()):
        if not tok:
            continue
        key, _, val = tok.partition("=")
        if key == "y":
            y = tuple(float(v) for v in val.split(","))
        elif key == "s":
            s = float(val)
        elif key == "d":
            d = float(val)
        else:
            raise ConfigError(f"unknown probe field {key!r}")
    if y is None or s is None:
        raise ConfigError("probe needs y=<coords> and s=<time>")
    return HuiskenProbe(y, s, d / 2.0, d)


def diagnose(args) -> int:
    """Print each snapshot's ``solver.RowBuilder`` row in time order (``max_abs_phi``:
    the frame's own max |phi|), then the ``--probe`` report. The rows stop at a
    frame the default probe cannot evaluate (exit code 1); the report still runs.
    ``--t0`` and ``--t1`` bound the report's window, so they need ``--probe``."""
    if not args.probe and (args.t0 is not None or args.t1 is not None):
        print("config error: --t0 and --t1 need --probe", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg, _sol, _ = load_experiment(args.config)
        radii = solver.ratio_radii(cfg)
    except (OSError, ValueError) as exc:  # ConfigError and malformed numbers alike
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        traj = solver.read_trajectory(args.snapshot, cfg)
    except (GridError, OSError) as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    probe = None
    if args.probe:
        try:
            probe = _parse_probe(args.probe, cfg)
            probe.validate(cfg.grid)
        except ValueError as exc:  # ConfigError, MeasureError and bad numbers alike
            print(f"probe error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    build_row = solver.RowBuilder(cfg, radii)
    code = EXIT_OK
    print(DiagnosticsRow.CSV_HEADER)
    for t, phi in zip(traj.times, traj.frames):
        try:  # the default probe needs t < s = T + 0.01, so no later frame has a row
            row, _ = build_row(phi, t, float(np.max(np.abs(phi.values))))
        except MeasureError as exc:
            print(f"probe error: default probe: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
            break
        print(row.to_csv_line())
    if probe is None:
        return code
    try:  # the probe's times: t < s, and a window of at least two frames
        t0 = args.t0 if args.t0 is not None else traj.times[0]
        t1 = args.t1 if args.t1 is not None else traj.times[-1]
        (rep,) = measures.monotonicity_check(traj, [probe], t0, t1)
    except MeasureError as exc:
        print(f"probe error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"monotonicity [{rep.t0!r},{rep.t1!r}]: lhs={rep.lhs!r} "
        f"transport={rep.transport_term!r} discrepancy={rep.discrepancy_term!r} "
        f"tail_factor={rep.tail_factor!r} residual={rep.residual!r} fitted_c={rep.fitted_c!r}"
    )
    return code


def oracle_cmd(args) -> int:
    try:
        traj = mcf_oracle(args.r0, args.c, args.n, args.t_end, n_samples=args.samples)
    except InterfaceError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("t,radius")
    for t, r in zip(traj.times, traj.radii):
        print(f"{float(t)!r},{float(r)!r}")
    if traj.extinction_time is not None:
        print(f"# extinction at t = {float(traj.extinction_time)!r}")
    return EXIT_OK


def _parse_manifest(path: str) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """(metadata, [(sha256, relative path)]); the [config] echo is skipped."""
    meta: dict[str, str] = {}
    files: list[tuple[str, str]] = []
    section = "meta"
    with open(path) as fh:
        for raw in fh.read().splitlines():
            if raw.strip() == "[config]":
                section = "config"
                continue
            if raw.strip() == "[files]":
                section = "files"
                continue
            if section == "meta" and "=" in raw:
                k, _, v = raw.partition("=")
                meta[k.strip()] = v.strip()
            elif section == "files" and raw.strip():
                digest, _, rel = raw.strip().partition("  ")
                files.append((digest, rel))
    return meta, files


def _manifest_value(meta: dict[str, str], key: str, kind=float):
    """One run-manifest value; ConfigError naming the key if it is missing or unparseable."""
    if key not in meta:
        raise ConfigError(f"run-manifest: missing key {key!r}")
    try:
        return kind(meta[key])
    except ValueError:
        raise ConfigError(f"run-manifest: key {key!r} has unparseable value {meta[key]!r}") from None


_REPORT_KEYS = ("dt", "epsilon", "beta", "tau", "T", "sup_dt_g", "diag_every", "lambda0",
                "transport_norm", "transport_sup_u", "transport_cap_u", "transport_sup_grad_u",
                "transport_cap_grad_u", "transport_first_violation")


def emit_report(art_dir: str) -> tuple[str, int, int]:
    """Validate an artifact directory; returns (text, passed, total).

    Eight checks: (1) diagnostics parse finite, (2) manifest hashes match,
    (3) near-maximum principle, (4) energy stays under the weighted cap,
    (5) discrepancy under the scaled bound after tau, (6) weighted-energy
    growth rate bounded, (7) static-weight non-increase, (8) ratio/velocity
    columns finite and sane. An informational line gives the transport norm
    and the eps-scaled transport bounds. A manifest key these need that is
    missing or unparseable raises ConfigError naming the key.
    """
    manifest_path = os.path.join(art_dir, "run-manifest")
    if not os.path.exists(manifest_path):
        return ("INCOMPLETE: no run-manifest found\n", 0, 0)
    meta, files = _parse_manifest(manifest_path)
    if meta.get("status") != "complete":
        text = f"INCOMPLETE: run status = {meta.get('status', 'missing')}\n"
        return (text, 0, 0)
    kinds = {"diag_every": int, "transport_first_violation": str}  # "none" or a time
    m = {key: _manifest_value(meta, key, kinds.get(key, float)) for key in _REPORT_KEYS}

    results: list[tuple[str, bool, str]] = []

    ok, detail = True, ""
    try:
        rows = read_rows(art_dir)
    except (OSError, ValueError) as exc:
        rows, ok, detail = [], False, f"unreadable: {exc}"
    bad = next((i for i, row in enumerate(rows) if not all(np.isfinite(astuple(row)))), None)
    if bad is not None:  # the checks below see the rows before it
        rows, ok, detail = rows[:bad], False, f"non-finite value in diagnostics.csv row {bad + 2}"
    results.append(("diagnostics-finite", ok, detail))

    ok, detail = True, ""
    for digest, rel in files:
        full = os.path.join(art_dir, rel)
        if not os.path.exists(full):
            ok, detail = False, f"missing file {rel}"
            break
        if _sha256(full) != digest:
            ok, detail = False, f"hash mismatch for {rel}"
            break
    results.append(("manifest-hashes", ok, detail))

    if rows:
        cap = 1.0 + 10.0 * m["dt"]
        bad = [r for r in rows if r.max_abs_phi > cap]
        results.append((
            "near-max-principle", not bad,
            "" if not bad else f"max|phi|={bad[0].max_abs_phi:.6f} > 1+10dt at t={bad[0].t:g}",
        ))

        gron = measures.gronwall_report(rows, m["sup_dt_g"], m["diag_every"])
        mu0 = rows[0].total_energy
        energy_cap = 1.25 * mu0 * math.exp(gron.rate_bound * m["T"])
        worst = max(r.total_energy for r in rows)
        results.append((
            "energy-cap", worst <= energy_cap,
            f"max energy {worst:.6g} vs cap {energy_cap:.6g}",
        ))

        xi_cap = 10.0 * m["epsilon"] ** (-m["beta"])
        tail = [r for r in rows if r.t >= m["tau"] - 1e-12]
        worst_xi = max((r.sup_xi for r in tail), default=0.0)
        results.append((
            "discrepancy-bound", worst_xi <= xi_cap,
            f"sup xi {worst_xi:.6g} vs 10 eps^-beta {xi_cap:.6g}",
        ))

        results.append((
            "gronwall-rate", gron.rate_bound_ok(),
            f"growth rate {gron.growth_rate:.6g} vs bound {gron.rate_bound:.6g}",
        ))

        if gron.sup_dt_g == 0.0:
            results.append((
                "static-weight-dissipation", gron.max_step_increase <= 1e-9,
                f"max per-step increase {gron.max_step_increase:.3g} x F(0) vs 1e-9",
            ))
        else:
            results.append(("static-weight-dissipation", True, "skipped: time-modulated weight"))

        sane = all(
            np.isfinite(r.density_ratio_max) and r.density_ratio_max >= 0 and r.velocity_sq >= 0
            for r in rows
        )
        results.append(("columns-sane", sane, ""))
    else:
        for name in ("near-max-principle", "energy-cap", "discrepancy-bound",
                     "gronwall-rate", "static-weight-dissipation", "columns-sane"):
            results.append((name, False, "no diagnostics rows"))

    passed = sum(1 for _, ok, _ in results if ok)
    lines_out = []
    for name, ok, detail in results:
        suffix = f" ({detail})" if detail else ""
        lines_out.append(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    lines_out.append(
        f"INFO transport: norm {m['transport_norm']:.6g} vs lambda0 {m['lambda0']:g}; "
        f"sup|u| {m['transport_sup_u']:.6g} vs eps^-beta {m['transport_cap_u']:.6g}; "
        f"sup|grad u| {m['transport_sup_grad_u']:.6g} vs eps^-(beta+1) "
        f"{m['transport_cap_grad_u']:.6g}; first violation {m['transport_first_violation']}"
    )
    lines_out.append(f"ACCEPT {passed}/{len(results)}")
    text = "\n".join(lines_out) + "\n"

    with open(os.path.join(art_dir, "report.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(art_dir, "report.csv"), "w") as fh:
        fh.write("check,passed,detail\n")
        for name, ok, detail in results:
            fh.write(f"{name},{int(ok)},{detail}\n")
    return text, passed, len(results)


def report_cmd(args) -> int:
    try:
        text, passed, total = emit_report(args.dir)
    except ConfigError as exc:
        print(f"manifest error: {args.dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(text, end="")
    return EXIT_OK if total > 0 and passed == total else EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="actx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run a refinement ladder")
    p_sweep.add_argument("--plan", required=True)
    p_sweep.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="print the diagnostics rows of snapshots")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--snapshot", action="append", required=True)
    p_diag.add_argument("--probe", default=None, help="e.g. 'y=0.5,0.5 s=0.05'")
    p_diag.add_argument("--t0", type=float, default=None)
    p_diag.add_argument("--t1", type=float, default=None)

    p_orc = sub.add_parser("oracle", help="print the radial-flow reference trajectory")
    p_orc.add_argument("--r0", type=float, required=True)
    p_orc.add_argument("--c", type=float, default=0.0)
    p_orc.add_argument("--n", type=int, default=2)
    p_orc.add_argument("--t-end", dest="t_end", type=float, required=True)
    p_orc.add_argument("--samples", type=int, default=11)

    p_rep = sub.add_parser("report", help="validate an artifact directory")
    p_rep.add_argument("--dir", required=True)

    args = parser.parse_args(argv)
    if args.command in ("run", "sweep", "diagnose"):
        try:
            cpu_budget()
        except GridError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    if args.command == "run":
        return run_experiment(args.config, args.out)
    if args.command == "sweep":
        return sweep(args.plan, args.out)
    if args.command == "diagnose":
        return diagnose(args)
    if args.command == "oracle":
        return oracle_cmd(args)
    return report_cmd(args)


if __name__ == "__main__":
    sys.exit(main())
