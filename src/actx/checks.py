"""Offline checks of the paper's inequalities, and the commands that drive them.

The checks read what a run already wrote, its rows and its snapshot frames,
and nothing here runs during ``actx run``: ``cli.main`` imports this module
only for ``sweep``, ``diagnose``, ``oracle`` and ``report``, before its one
``gc.freeze`` (so forked sweep workers share its pages), and a run never
compiles it. The per-frame formulas the checks build on (the energy
measure, the discrepancy, ball masses, the probes' kernel terms) live in
``measures``, where the rows use them.

The checks: the discrepancy field and its positive part on a ball, the scaled density ratio,
the truncated backward heat kernel and the near-monotonicity of its energy
integral over a window of frames (``monotonicity_check``), the
Meyers-Ziemer ratio probe, the weighted-energy growth check on the rows
(``gronwall_report``) and the Hausdorff distance between two interfaces.
Inequality checks report fitted constants instead of asserting universal
ones, and acceptance pins the stability of those fits across refinement.

The commands (see ``cli`` for their exit codes): ``sweep`` runs each rung
and its offline checks and writes ``sweep.csv``; ``diagnose`` prints the
rows of snapshot files and a probe's report; ``oracle`` prints the exact
radial-flow trajectory; ``report`` prints ``cli.emit_report``'s checks.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import scenario, solver
from .cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_OK,
    emit_report,
    load_experiment,
    load_plan,
    read_rows,
    run_experiment,
    solver_from_config,
)
from .grid import (
    GridError,
    GridSpec,
    ScalarField,
    ball_integrate,
    cpu_budget,
    integrate,
    open_team,
    outer_sum_sq,
    window_integral,
)
from .interface import InterfaceError, InterfaceSet, extract_interface, mcf_oracle
from .measures import (
    DiagnosticsRow,
    EnergyMeasure,
    HuiskenProbe,
    MeasureError,
    _index_slice,
    _kernel,
    _lattice_argmax,
    ball_masses,
    density_ratio,
    dyadic_radii,
    frame_fields,
    kernel_terms,
    probe_geometry,
    probe_radius,
)
from .potential import DoubleWell, _smoothstep
from .scenario import ConfigError, ScenarioConfig
from .shapes import Ball
from .solver import Trajectory


# ---------------------------------------------------------------------------
# Discrepancy, scaled density ratio, kernel energy near-monotonicity
# ---------------------------------------------------------------------------


def discrepancy_field(phi: ScalarField, eps: float, well: DoubleWell) -> ScalarField:
    """xi = eps |grad phi|^2 / 2 - W(phi)/eps; vanishes on the exact 1D profile."""
    return frame_fields(phi, eps, well).xi


def positive_discrepancy_ball(
    phi: ScalarField, eps: float, well: DoubleWell, y: Sequence[float], r: float
) -> float:
    """Ball integral of the positive part of the discrepancy; needs B_r(y) inside."""
    spec = phi.spec
    if not spec.contains_box([v - r for v in y], [v + r for v in y]):
        raise MeasureError(f"ball of radius {r:g} at {tuple(y)} is not contained in the domain")
    xi = discrepancy_field(phi, eps, well)
    pos = ScalarField(spec, np.maximum(xi.values, 0.0))
    return ball_integrate(pos, y, r, clip_ok=True)


def scaled_density_ratio(
    traj: Trajectory,
    stride: int = 4,
    radii: Sequence[float] | None = None,
) -> tuple[float, tuple[float, ...], float, float]:
    """Max over (x, r, t) of l(x,t)^{n-1} mu_t(B_r(x)) / r^{n-1}.

    l(x,t) = min(distance of x to the eps-inset box boundary, sqrt(t - eps^2));
    centers must satisfy U_{2r}(x) inside the inset box and t > eps^2.
    Returns (value, center, radius, time).
    """
    cfg = traj.cfg
    spec = cfg.grid
    eps = cfg.epsilon
    if radii is None:
        ext = min(hi - lo for lo, hi in zip(spec.lo, spec.hi))
        radii = dyadic_radii(spec, ext / 8.0)
    axes = spec.axes()
    # each axis's distance to the eps-inset box boundary; the node's is their min
    dist = [np.minimum(ax - (lo + eps), (hi - eps) - ax) for ax, lo, hi in zip(axes, spec.lo, spec.hi)]
    best = (-math.inf, (math.nan,) * spec.dim, math.nan, math.nan)
    found = False
    for t, phi in zip(traj.times, traj.frames):
        if t <= eps * eps:
            continue
        mu = EnergyMeasure.from_phase(phi, eps, cfg.well)
        l_time = math.sqrt(t - eps * eps)
        for r in radii:
            fit = ([lo + eps + 2.0 * r for lo in spec.lo], [hi - eps - 2.0 * r for hi in spec.hi])
            centres = [_index_slice(sl, stride) for sl in spec.box_slices(fit)]
            if None in centres:
                continue
            found = True
            masses = ball_masses(mu, r, centres)
            dist_inset = functools.reduce(np.minimum, np.ix_(*(d[c] for d, c in zip(dist, centres))))
            l_field = np.minimum(dist_inset, l_time)
            vals = np.maximum(l_field, 0.0) ** (spec.dim - 1) * masses / r ** (spec.dim - 1)
            val, center = _lattice_argmax(vals, axes, centres)
            if val > best[0]:
                best = (val, center, r, t)
    if not found:
        raise MeasureError("no admissible (center, radius, time) samples for the scaled ratio")
    return best


def heat_kernel(probe: HuiskenProbe, x: Sequence[float], t: float, n: int) -> float:
    """The truncated kernel at a single point."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(probe.y)
    r2 = np.sum(d * d)
    return float(_kernel(probe, r2, probe.cutoff(np.sqrt(r2)), t, n))


def kernel_field(probe: HuiskenProbe, spec: GridSpec, t: float) -> ScalarField:
    """The truncated kernel sampled on the node lattice: zero off the probe's box."""
    geo = probe_geometry(probe, spec)
    rho = np.zeros(spec.nodes)
    rho[geo.box] = _kernel(probe, geo.r2, geo.cutoff, t, spec.dim)
    return ScalarField(spec, rho)


MONOTONICITY_SLACK = 0.05  # share of the kernel-energy scale the residual may exceed c * tail by


@dataclass
class MonotonicityReport:
    """Windowed check of the kernel-energy inequality.

    lhs is the change of the kernel-weighted energy over [t0, t1]; transport
    and discrepancy are the time quadratures of the two structural terms;
    tail_factor multiplies the unknown constant of the cutoff-boundary term.
    fitted_c is the residual beyond MONOTONICITY_SLACK |scale| per unit of
    tail factor (0 if none): up to rounding, the smallest c >= 0 with which
    ``holds_with`` holds.
    """

    t0: float
    t1: float
    lhs: float
    transport_term: float
    discrepancy_term: float
    tail_factor: float
    scale: float
    residual: float = field(init=False)
    fitted_c: float = field(init=False)

    def __post_init__(self):
        self.residual = self.lhs - self.transport_term - self.discrepancy_term
        self.fitted_c = 0.0
        if self.tail_factor > 0:
            self.fitted_c = max(0.0, (self.residual - MONOTONICITY_SLACK * abs(self.scale)) / self.tail_factor)

    def holds_with(self, c: float) -> bool:
        """residual <= c tail_factor + MONOTONICITY_SLACK |scale|."""
        return self.residual <= c * self.tail_factor + MONOTONICITY_SLACK * abs(self.scale)


def monotonicity_check(
    traj: Trajectory, probes: Sequence[HuiskenProbe], t0: float, t1: float
) -> list[MonotonicityReport]:
    """Evaluate the kernel-energy inequality over [t0, t1], one report per probe.

    Trapezoid quadrature of ``kernel_terms`` on the retained-frame schedule;
    the discrepancy term uses the signed discrepancy, and the tail term is
    the kernel-cutoff leakage factor integral exp(-1/(128(s-t))) mu_t(B_{1/4}(y)) dt.
    Each frame's fields are built once and shared by all probes. Checked in
    turn: t1 < s for every probe, two frames in the window, t0 < t1.
    """
    cfg = traj.cfg
    if not probes:
        raise MeasureError("monotonicity check needs at least one probe")
    tails = []
    for probe in probes:
        tails.append(probe_geometry(probe, cfg.grid).tail)  # validates the probe's ball
        if not t1 < probe.s:
            raise MeasureError(f"kernel needs t < s: need t0 < t1 < s, got {t0:g}, {t1:g}, {probe.s:g}")

    window = [(t, phi) for t, phi in zip(traj.times, traj.frames) if t0 - 1e-12 <= t <= t1 + 1e-12]
    if len(window) < 2:
        raise MeasureError(
            f"window [{t0:g}, {t1:g}] covers {len(window)} retained frames; need at least 2"
        )
    if not t0 < t1:
        raise MeasureError(f"need t0 < t1, got {t0:g}, {t1:g}")
    vals = []  # (frame, probe, term)
    for t, phi in window:
        ff = frame_fields(phi, cfg.epsilon, cfg.well)
        rows = []
        for probe, tail in zip(probes, tails):
            leak = math.exp(-1.0 / (128.0 * (probe.s - t)))
            mass = window_integral(ff.density, tail)  # ball_integrate over B_{1/4}(y)
            rows.append(kernel_terms(ff, probe, t, cfg.transport) + (leak * mass,))
        vals.append(rows)
    times, vals = np.asarray([t for t, _ in window]), np.asarray(vals)
    return [
        MonotonicityReport(
            t0=float(times[0]),
            t1=float(times[-1]),
            lhs=float(v[-1, 0] - v[0, 0]),
            transport_term=float(np.trapezoid(v[:, 1], times)),
            discrepancy_term=float(np.trapezoid(v[:, 2], times)),
            tail_factor=float(np.trapezoid(v[:, 3], times)),
            scale=float(np.max(v[:, 0])),
        )
        for v in (vals[:, j] for j in range(len(probes)))
    ]


def hat_p(p: float, q: float, n: int, margin: float = 0.0) -> float:
    """Time-integrability exponent of the kernel-transport bound.

    p < n: the closed form (2pq - 2p - nq)/(pq). p = n: any exponent below
    (q-2)/q works, so the caller chooses the gap via ``margin``. p > n:
    (q-2)/q itself.
    """
    if p < n:
        val = (2.0 * p * q - 2.0 * p - n * q) / (p * q)
        if val <= 0:
            raise MeasureError(f"exponents p={p:g}, q={q:g} give non-positive hat-p {val:g}")
        return val
    if p == n:
        return (q - 2.0) / q - margin
    return (q - 2.0) / q


# ---------------------------------------------------------------------------
# Meyers-Ziemer ratio probe
# ---------------------------------------------------------------------------


@dataclass
class MeyersZiemerReport:
    max_ratio: float
    k_density: float
    trials: int
    seed: int


def meyers_ziemer_check(
    measure: EnergyMeasure,
    trials: int = 100,
    seed: int = 0,
    k_density: float | None = None,
) -> MeyersZiemerReport:
    """Max over random C^1 bumps of |integral phi dmu| / (K(mu) integral |grad phi|).

    K(mu) defaults to the full-lattice density ratio (every node, clipped
    balls, dyadic radii). Bump centers/radii are drawn from a seeded
    generator, so the result is reproducible. Bump radii lie in [8h, ext/4],
    ext the shortest box side, so up to 32 cells across it raise ``MeasureError``.
    """
    spec = measure.spec
    ext = min(hi - lo for lo, hi in zip(spec.lo, spec.hi))
    r_lo, r_hi = 8.0 * spec.h, ext / 4.0
    if r_lo >= r_hi:
        raise MeasureError(f"bump radii need 8h < ext/4 (over 32 cells across the shortest "
                           f"side), got 8h = {r_lo:g} >= ext/4 = {r_hi:g}")
    if k_density is None:
        k_density = density_ratio(measure, stride=1, require_fit=False).max_ratio
    if k_density <= 0.0:
        return MeyersZiemerReport(0.0, k_density, trials, seed)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        rho = rng.uniform(r_lo, r_hi)
        c = [rng.uniform(spec.lo[k] + rho, spec.hi[k] - rho) for k in range(spec.dim)]
        r = np.sqrt(outer_sum_sq([ax - ck for ax, ck in zip(spec.axes(), c)]))
        t = np.clip(1.0 - r / rho, 0.0, 1.0)
        bump = _smoothstep(t)
        dq = 30.0 * t**2 * (1.0 - t) ** 2 / rho  # |d bump / d r|
        num = abs(integrate(ScalarField(spec, bump * measure.density.values)))
        den = k_density * integrate(ScalarField(spec, dq))
        if den > 0:
            best = max(best, num / den)
    return MeyersZiemerReport(best, k_density, trials, seed)


# ---------------------------------------------------------------------------
# Weighted-energy growth
# ---------------------------------------------------------------------------


GRONWALL_SLACK = 0.05  # growth rate allowed above sup |dt g|


@dataclass
class GronwallReport:
    times: np.ndarray
    values: np.ndarray
    sup_dt_g: float
    max_step_increase: float  # max per-step increase of F, normalized by F(0)
    growth_rate: float  # max over t > 0 of log(F(t)/F(0)) / t

    @property
    def rate_bound(self) -> float:
        """sup |dt g| + GRONWALL_SLACK: the largest growth rate the check accepts."""
        return self.sup_dt_g + GRONWALL_SLACK

    def rate_bound_ok(self) -> bool:
        return self.growth_rate <= self.rate_bound


def gronwall_report(
    rows: Sequence[DiagnosticsRow], sup_dt_g: float, diag_every: int
) -> GronwallReport:
    """The growth check on the rows' F(t) = integral exp(-g) dmu_t (their
    ``gronwall_factor``), sampled from t = 0 every ``diag_every`` steps;
    with static g, F must not rise."""
    times, values = np.array([(r.t, r.gronwall_factor) for r in rows]).T
    f0 = values[0]
    diffs = np.diff(values) / max(diag_every, 1)
    max_step_inc = float(np.max(diffs) / f0) if diffs.size else 0.0
    with np.errstate(divide="ignore"):
        rates = np.log(values[1:] / f0) / times[1:]
    growth = float(np.max(rates)) if rates.size else 0.0
    return GronwallReport(times, values, sup_dt_g, max_step_inc, growth)


# ---------------------------------------------------------------------------
# Interface distance
# ---------------------------------------------------------------------------


def hausdorff_distance(a: InterfaceSet, b: InterfaceSet) -> float:
    """Symmetric max over vertices of the min distance to the other's segments.

    For triangle soups the segment set is the triangle edges, so the value can
    overshoot the true surface distance by at most the in-face sag.
    """
    if a.is_empty or b.is_empty:
        raise InterfaceError("hausdorff distance of an empty interface")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def _segments_of(s: InterfaceSet) -> tuple[np.ndarray, np.ndarray]:
    if s.dim == 2:
        return s.elements[:, 0], s.elements[:, 1]
    e = s.elements
    p = np.concatenate([e[:, 0], e[:, 1], e[:, 2]], axis=0)
    q = np.concatenate([e[:, 1], e[:, 2], e[:, 0]], axis=0)
    return p, q


def _directed_hausdorff(a: InterfaceSet, b: InterfaceSet) -> float:
    pts = a.vertices
    p, q = _segments_of(b)
    d = q - p
    dd = np.sum(d * d, axis=-1)
    dd = np.where(dd == 0.0, 1.0, dd)
    worst = 0.0
    for lo in range(0, pts.shape[0], 256):
        blk = pts[lo : lo + 256]
        w = blk[:, None, :] - p[None, :, :]
        t = np.clip(np.sum(w * d[None, :, :], axis=-1) / dd[None, :], 0.0, 1.0)
        proj = p[None, :, :] + t[..., None] * d[None, :, :]
        dist = np.min(np.sqrt(np.sum((blk[:, None, :] - proj) ** 2, axis=-1)), axis=1)
        worst = max(worst, float(np.max(dist)))
    return worst


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


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
    ``MONOTONICITY_SLACK`` share of its scale; the 9th-smallest
    realizes the 9-of-10 acceptance reading.
    """
    cfg = traj.cfg
    reps = monotonicity_check(traj, interface_probes(traj, count), cfg.tau, cfg.t_end)
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
    rep = gronwall_report(rows, cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end),
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


def _failed_rung(job: tuple[str, str], line: str) -> tuple[dict, str, str, None]:
    """The result of a job whose sweep worker ended before sending its own: the
    rung's FAILED entry, and ``line`` for stderr."""
    return _rung_checks(job[0], job[1], 1)[0], "", line + "\n", None


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
    if workers > 1:  # the workers share the CPU budget for their block sweeps
        from .team import run_jobs  # imported only to fork: see the docstring of team

        results = run_jobs(jobs, workers, max(1, budget // workers), _rung_job, _failed_rung)
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
    d = probe_radius(cfg.inset_prime)
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
    # each frame is copied into the fields that the block sweeps' helpers share
    with open_team(cfg.grid.nodes, 3) as team:
        frame, scratch, density = team.field(), team.field(), team.field()
        for t, phi in zip(traj.times, traj.frames):
            np.copyto(frame, phi.values)
            try:  # the default probe needs t < s = T + 0.01, so no later frame has a row
                row, _ = build_row(ScalarField.from_checked(phi.spec, frame), t,
                                   float(np.max(np.abs(frame))), scratch, density)
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
        (rep,) = monotonicity_check(traj, [probe], t0, t1)
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


def report_cmd(args) -> int:
    try:
        text, passed, total = emit_report(args.dir)
    except ConfigError as exc:
        print(f"manifest error: {args.dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(text, end="")
    return EXIT_OK if total > 0 and passed == total else EXIT_CONFIG
