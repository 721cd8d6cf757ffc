"""Experiment orchestration: single runs, refinement sweeps, offline diagnostics.

Subcommands:
  run       integrate one scenario config into an artifact directory
  sweep     run a refinement ladder and report cross-rung convergence
  diagnose  recompute diagnostics offline from snapshot files
  oracle    print the exact radial-flow reference trajectory
  report    validate an artifact directory and summarize its checks

Exit codes: 0 clean, 1 configuration error or unreadable snapshot, 2 solver
abort. The environment variable ACTX_THREADS caps sweep-rung parallelism
(default serial). Artifact directories contain a manifest listing every
output file with its sha256; an aborted run's manifest also records the
abort's step, node, time and |phi|.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, measures, scenario, solver
from .grid import GridError, read_field
from .interface import extract_interface, mcf_oracle
from .measures import DiagnosticsRow, HuiskenProbe
from .scenario import ConfigError, RadialGradient, ScenarioConfig, ZeroTransport
from .shapes import Ball
from .solver import SolverAbort, SolverConfig, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2


def solver_from_config(conf: dict[str, str]) -> SolverConfig:
    return SolverConfig(
        scheme=conf.get("scheme", "euler"),
        cfl=float(conf.get("cfl", "0.5")),
        diag_every=int(conf.get("diag_every", "50")),
        snap_every=int(conf.get("snap_every", "0")),
    )


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
    sup_dtg = 0.0
    if cfg.transport.is_gradient:
        sup_dtg = cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end)
    u_norm = scenario.transport_norm(cfg)
    if u_norm > cfg.lambda0:
        print(
            f"warning: transport norm {u_norm:.4g} exceeds the configured cap "
            f"lambda0 = {cfg.lambda0:g}",
            file=sys.stderr,
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
        f"transport_norm = {u_norm!r}",
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


def _write_interface_csv(out_dir: str, result: solver.RunResult) -> None:
    iset = extract_interface(result.final_phi)
    path = os.path.join(out_dir, "interface_final.csv")
    with open(path, "w") as fh:
        fh.write("x0,y0,x1,y1\n" if iset.dim == 2 else "x0,y0,z0,x1,y1,z1,x2,y2,z2\n")
        for element in iset.elements:  # a segment (2D) or a triangle (3D)
            fh.write(",".join(repr(float(v)) for v in element.reshape(-1)) + "\n")


def run_experiment(config_path: str, out_dir: str) -> int:
    """Run one scenario; returns the process exit code."""
    try:
        cfg, sol, text = load_experiment(config_path)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = solver.run(cfg, sol, out_dir=out_dir)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        _write_manifest(out_dir, cfg, sol, text, exc.dt, exc.n_steps, "aborted", abort=exc)
        return EXIT_ABORT
    _write_interface_csv(out_dir, result)
    dt, n_steps, n_rows = result.dt, result.n_steps, len(result.rows)
    del result  # frees the retained frames before the manifest's transport-norm quadrature
    _write_manifest(out_dir, cfg, sol, text, dt, n_steps, "complete")
    print(f"run complete: {n_steps} steps, {n_rows} diagnostics rows -> {out_dir}")
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

    def rung_config_text(self, cells: int) -> str:
        conf = dict(self.base_conf)
        dim = int(conf["dim"])
        lo = [float(v) for v in conf.get("lo", "0 " * dim).split()]
        hi = [float(v) for v in conf.get("hi", "1 " * dim).split()]
        h = min(b - a for a, b in zip(lo, hi)) / cells
        conf["cells"] = str(cells)
        conf["epsilon"] = repr(self.eps_over_h * h)
        if "snap_every" not in conf:
            conf["snap_every"] = conf.get("diag_every", "50")
        return "\n".join(f"{k} = {v}" for k, v in conf.items()) + "\n"


def load_plan(path: str) -> SweepPlan:
    with open(path) as fh:
        text = fh.read()
    base: dict[str, str] = {}
    rungs: tuple[int, ...] = ()
    eps_over_h = 8.0
    for lineno, key, value in scenario.config_entries(text):
        if key == "rungs":
            rungs = tuple(int(v) for v in value.split())
        elif key == "eps_over_h":
            eps_over_h = float(value)
        elif key in scenario.KNOWN_KEYS:
            base[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if "epsilon" not in base:
        base["epsilon"] = "0.1"  # placeholder; each rung overrides it
    return SweepPlan(base, rungs, eps_over_h)


def load_trajectory(art_dir: str, cfg: ScenarioConfig) -> Trajectory:
    """Rebuild a trajectory from the snapshot files of an artifact directory."""
    snap_dir = os.path.join(art_dir, "snapshots")
    traj = Trajectory(cfg)
    steps = []
    for name in sorted(os.listdir(snap_dir)):
        path = os.path.join(snap_dir, name)
        match = re.fullmatch(r"step_(\d+)\.afld", name)
        if match is None:
            raise GridError(f"{path}: not a snapshot file (expected step_<digits>.afld)")
        f, t = read_field(path)
        traj.times.append(t)
        traj.frames.append(f)
        steps.append(int(match.group(1)))
    if len(steps) >= 2:
        traj.steps_between = steps[1] - steps[0]
    return traj


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


def fitted_monotonicity_c(traj: Trajectory, count: int = 10) -> tuple[float, list[float]]:
    """Per-rung fitted constant: 9th-smallest of the probes' required constants.

    Each probe's required constant absorbs the residual beyond a 5%-of-scale
    slack; the 9th-smallest realizes the 9-of-10 acceptance reading.
    """
    cfg = traj.cfg
    cs = []
    for probe in interface_probes(traj, count):
        rep = measures.monotonicity_check(traj, probe, cfg.tau, cfg.t_end)
        if rep.tail_factor > 0:
            cs.append(max(0.0, (rep.residual - 0.05 * abs(rep.scale)) / rep.tail_factor))
        else:
            cs.append(0.0)
    cs_sorted = sorted(cs)
    return cs_sorted[min(8, len(cs_sorted) - 1)], cs


def _radius_error_vs_oracle(cfg: ScenarioConfig, rows: list[DiagnosticsRow], n_times: int = 10):
    """(max relative radius error at matched times, matched list) or None without an oracle."""
    if not isinstance(cfg.shape, Ball):
        return None
    if isinstance(cfg.transport, ZeroTransport):
        c = 0.0
    elif isinstance(cfg.transport, RadialGradient) and not cfg.transport.time_dependent:
        c = cfg.transport.strength
    else:
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
    with open(os.path.join(art_dir, "diagnostics.csv")) as fh:
        lines = fh.read().splitlines()
    return [DiagnosticsRow.from_csv_line(l) for l in lines[1:]]


def sweep(plan_path: str, out_dir: str) -> int:
    """Run every rung, then emit the cross-rung convergence table."""
    try:
        plan = load_plan(plan_path)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        (plan.rung_config_text(cells), os.path.join(out_dir, f"rung_{cells:04d}"))
        for cells in plan.rungs
    ]
    workers = int(os.environ.get("ACTX_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_run_rung, jobs))
    else:
        codes = [_run_rung(j) for j in jobs]

    header = "cells,epsilon,status,interface_err,order,e_max,sup_xi_pos,fitted_c,gronwall_margin"
    table: list[dict] = []
    for (text, rung_dir), code, cells in zip(jobs, codes, plan.rungs):
        cfg, _sol, _ = load_experiment(os.path.join(rung_dir, "config.txt"))
        entry: dict = {"cells": cells, "epsilon": cfg.epsilon, "status": "ok" if code == 0 else "FAILED"}
        if code == 0:
            rows = read_rows(rung_dir)
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
                traj = load_trajectory(rung_dir, cfg)
            except (GridError, OSError) as exc:
                print(f"snapshot error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            entry["fitted_c"], _ = fitted_monotonicity_c(traj)
            rep = measures.gronwall_check(traj, steps_between=traj.steps_between)
            entry["gronwall_margin"] = rep.sup_dt_g + 0.05 - rep.growth_rate
        table.append(entry)

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

    lines = [header]
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
    return EXIT_OK if all(c == 0 for c in codes) else EXIT_ABORT


# ---------------------------------------------------------------------------
# Offline diagnostics, oracle, report
# ---------------------------------------------------------------------------


def _parse_probe(spec_str: str, cfg: ScenarioConfig) -> HuiskenProbe:
    """Parse 'y=0.5,0.5 s=0.05' (optionally 'd=0.05'); commas may separate fields."""
    y = None
    s = None
    d = min(cfg.inset_prime / 2.0, 0.25)
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
    try:
        cfg, _sol, _ = load_experiment(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    traj = Trajectory(cfg)
    for path in args.snapshot:
        try:
            f, t = read_field(path)
        except (GridError, OSError) as exc:
            print(f"snapshot error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        traj.times.append(t)
        traj.frames.append(f)
    order = np.argsort(traj.times, kind="stable")
    traj.times = [traj.times[i] for i in order]
    traj.frames = [traj.frames[i] for i in order]
    probe = _parse_probe(args.probe, cfg) if args.probe else None

    mask = measures.region_mask(cfg.grid, cfg.omega_prime())
    for t, phi in zip(traj.times, traj.frames):
        ff = measures.frame_fields(phi, cfg.epsilon, cfg.well)
        mu = ff.measure()
        ratio = measures.density_ratio(mu, region=cfg.omega_prime(), stride=4)
        print(
            f"t={t!r} energy={mu.total!r} sup_xi={float(np.max(ff.xi.values[mask]))!r} "
            f"density_ratio_max={ratio.max_ratio!r} at center={ratio.center} r={ratio.radius!r}"
        )
        if probe is not None and len(traj.times) == 1:
            print(f"kernel energy at t={t!r}: {measures.kernel_terms(ff, probe, t, None)[0]!r}")
    if probe is not None and len(traj.times) >= 2:
        t0 = args.t0 if args.t0 is not None else traj.times[0]
        t1 = args.t1 if args.t1 is not None else traj.times[-1]
        rep = measures.monotonicity_check(traj, probe, t0, t1)
        print(
            f"monotonicity [{rep.t0!r},{rep.t1!r}]: lhs={rep.lhs!r} "
            f"transport={rep.transport_term!r} discrepancy={rep.discrepancy_term!r} "
            f"tail_factor={rep.tail_factor!r} residual={rep.residual!r} fitted_c={rep.fitted_c!r}"
        )
    return EXIT_OK


def oracle_cmd(args) -> int:
    traj = mcf_oracle(args.r0, args.c, args.n, args.t_end, n_samples=args.samples)
    print("t,radius")
    for t, r in zip(traj.times, traj.radii):
        print(f"{float(t)!r},{float(r)!r}")
    if traj.extinction_time is not None:
        print(f"# extinction at t = {float(traj.extinction_time)!r}")
    return EXIT_OK


def _parse_manifest(path: str) -> tuple[dict[str, str], list[tuple[str, str]], list[str]]:
    meta: dict[str, str] = {}
    files: list[tuple[str, str]] = []
    config_lines: list[str] = []
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
            elif section == "config":
                config_lines.append(raw[2:] if raw.startswith("  ") else raw)
            elif section == "files" and raw.strip():
                digest, _, rel = raw.strip().partition("  ")
                files.append((digest, rel))
    return meta, files, config_lines


def emit_report(art_dir: str) -> tuple[str, int, int]:
    """Validate an artifact directory; returns (text, passed, total).

    Eight checks: (1) diagnostics parse finite, (2) manifest hashes match,
    (3) near-maximum principle, (4) energy stays under the weighted cap,
    (5) discrepancy under the scaled bound after tau, (6) weighted-energy
    growth rate bounded, (7) static-weight non-increase, (8) ratio/velocity
    columns finite and sane.
    """
    manifest_path = os.path.join(art_dir, "run-manifest")
    if not os.path.exists(manifest_path):
        return ("INCOMPLETE: no run-manifest found\n", 0, 0)
    meta, files, config_lines = _parse_manifest(manifest_path)
    if meta.get("status") != "complete":
        text = f"INCOMPLETE: run status = {meta.get('status', 'missing')}\n"
        return (text, 0, 0)

    results: list[tuple[str, bool, str]] = []

    rows: list[DiagnosticsRow] = []
    detail = ""
    ok = True
    try:
        with open(os.path.join(art_dir, "diagnostics.csv")) as fh:
            lines = fh.read().splitlines()
        for i, line in enumerate(lines[1:], start=2):
            row = DiagnosticsRow.from_csv_line(line)
            vals = [getattr(row, f) for f in row.__dataclass_fields__]
            if not all(np.isfinite(v) for v in vals):
                ok = False
                detail = f"non-finite value in diagnostics.csv row {i}"
                break
            rows.append(row)
    except (OSError, ValueError) as exc:
        ok = False
        detail = f"diagnostics.csv unreadable: {exc}"
    results.append(("diagnostics-finite", ok, detail))

    ok = True
    detail = ""
    for digest, rel in files:
        full = os.path.join(art_dir, rel)
        if not os.path.exists(full):
            ok, detail = False, f"missing file {rel}"
            break
        if _sha256(full) != digest:
            ok, detail = False, f"hash mismatch for {rel}"
            break
    results.append(("manifest-hashes", ok, detail))

    dt = float(meta.get("dt", "0") or 0)
    eps = float(meta.get("epsilon", "0.1"))
    beta = float(meta.get("beta", "0.25"))
    tau = float(meta.get("tau", "0"))
    t_end = float(meta.get("T", "0"))
    sup_dtg = float(meta.get("sup_dt_g", "0"))
    diag_every = int(meta.get("diag_every", "1"))

    if rows:
        cap = 1.0 + 10.0 * dt
        bad = [r for r in rows if r.max_abs_phi > cap]
        results.append((
            "near-max-principle", not bad,
            "" if not bad else f"max|phi|={bad[0].max_abs_phi:.6f} > 1+10dt at t={bad[0].t:g}",
        ))

        mu0 = rows[0].total_energy
        energy_cap = 1.25 * mu0 * math.exp((sup_dtg + 0.05) * t_end)
        worst = max(r.total_energy for r in rows)
        results.append((
            "energy-cap", worst <= energy_cap,
            f"max energy {worst:.6g} vs cap {energy_cap:.6g}",
        ))

        xi_cap = 10.0 * eps ** (-beta)
        tail = [r for r in rows if r.t >= tau - 1e-12]
        worst_xi = max((r.sup_xi for r in tail), default=0.0)
        results.append((
            "discrepancy-bound", worst_xi <= xi_cap,
            f"sup xi {worst_xi:.6g} vs 10 eps^-beta {xi_cap:.6g}",
        ))

        f0 = rows[0].gronwall_factor
        rates = [
            math.log(r.gronwall_factor / f0) / r.t for r in rows if r.t > 0 and r.gronwall_factor > 0
        ]
        rate = max(rates, default=0.0)
        results.append((
            "gronwall-rate", rate <= sup_dtg + 0.05,
            f"growth rate {rate:.6g} vs bound {sup_dtg + 0.05:.6g}",
        ))

        if sup_dtg == 0.0:
            slack = 1e-9 * f0 * diag_every
            bad_pairs = [
                (a, b) for a, b in zip(rows, rows[1:]) if b.gronwall_factor > a.gronwall_factor + slack
            ]
            results.append((
                "static-weight-dissipation", not bad_pairs,
                "" if not bad_pairs else f"weighted energy rose at t={bad_pairs[0][1].t:g}",
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
    text, passed, total = emit_report(args.dir)
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

    p_diag = sub.add_parser("diagnose", help="recompute diagnostics from snapshots")
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
