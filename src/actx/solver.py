"""Explicit time integration of the transported phase-field equation.

One step advances phi by dt * (laplacian phi - W'(phi)/eps^2 - u . grad phi)
with forward Euler or midpoint RK2; boundary nodes are pinned to their
initial trace, which realizes the -1 Dirichlet condition for scenario-built
data (whose trace is identically -1) while keeping synthetic profiles
consistent. The timestep obeys the diffusive, reactive and advective limits
simultaneously.

``run`` integrates a scenario from 0 to T, records a diagnostics row and
retains the field every ``diag_every`` steps (the quadrature schedule for all
time-integrated diagnostics), and optionally writes snapshot files. Identical
configs produce bit-identical outputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .grid import ScalarField, VectorField, integrate, write_field
from .interface import extract_interface, radius_estimate
from .potential import DoubleWell
from .scenario import ScenarioConfig, build_initial_phase

PHI_ABORT = 1.1  # just outside the wells' basin; past this the run is garbage


class SolverAbort(RuntimeError):
    """Instability: non-finite update or |phi| beyond the abort threshold.

    ``t`` is the time the failed update would have reached and ``value`` the
    |phi| at ``location`` (inf or nan for a non-finite node). ``run`` adds
    the run's ``dt`` and ``n_steps`` before the exception leaves it.
    """

    def __init__(
        self,
        step_index: int,
        location: tuple[int, ...],
        message: str,
        t: float = math.nan,
        value: float = math.nan,
    ):
        super().__init__(message)
        self.step_index = step_index
        self.location = location
        self.t = t
        self.value = value
        self.dt = math.nan
        self.n_steps = -1


@dataclass
class SolverConfig:
    scheme: str = "euler"  # "euler" | "rk2"
    cfl: float = 0.5
    diag_every: int = 50
    snap_every: int = 0  # 0: snapshot only the first and final fields
    max_frames: int = 600  # retention guard; raise rather than thrash memory

    def __post_init__(self):
        if self.scheme not in ("euler", "rk2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl safety factor must lie in (0,1], got {self.cfl}")
        if self.diag_every < 1:
            raise ValueError("diag_every must be >= 1")


@dataclass
class SimState:
    t: float
    phi: ScalarField
    step_index: int
    max_abs_phi: float = math.nan  # max |phi|, as measured by the step that made this state


@dataclass
class Trajectory:
    """Retained fields on the diagnostics schedule, plus run context."""

    cfg: ScenarioConfig
    times: list[float] = field(default_factory=list)
    frames: list[ScalarField] = field(default_factory=list)
    steps_between: int = 1

    def append(self, t: float, phi: ScalarField) -> None:
        self.times.append(t)
        self.frames.append(phi.copy())


def stable_dt(h: float, eps: float, u_max: float, w: DoubleWell, n: int, cfl: float = 0.5) -> float:
    """cfl * min of the diffusive h^2/(4n), reactive eps^2/max|W''|, advective h/(2|u|) limits."""
    wpp = w.wpp_max(PHI_ABORT)
    return cfl * min(
        h * h / (4.0 * n),
        eps * eps / wpp,
        h / (2.0 * max(u_max, 1e-12)),
    )


def _rhs(
    f: np.ndarray, u: np.ndarray | None, h: float, eps: float, well: DoubleWell, out: np.ndarray
) -> None:
    """lap f - W'(f)/eps^2 - u . grad f on the nodes of ``f[1:-1]``, into the flat ``out``.

    ``f[1:-1]`` (every node off the two axis-0 faces) is one contiguous run
    of the flattened field, and its neighbours along axis k are the same run
    shifted by +-stride_k, so every term is a contiguous 1D operation and no
    ghost layer is built. The nodes of the other axes' faces in that run get
    wrapped-around neighbours; the caller does not keep their values. The
    operation order is that of ``grid.laplacian``, ``grid.gradient`` and
    ``DoubleWell.eval``, so the interior values are bit-identical to
    ``laplacian(f) - eval(f)[1] / (eps*eps) - np.sum(u * gradient(f), -1)``:
    (-2n f + up_0 + dn_0 + up_1 + dn_1 ...) / h^2, then W' / (eps*eps), then
    sum_k u_k (up_k - dn_k) / (2h) in axis order.
    """
    flat = f.reshape(-1)
    steps = [st // f.itemsize for st in f.strides]
    lo, hi = steps[0], flat.size - steps[0]
    np.multiply(flat[lo:hi], -2.0 * f.ndim, out=out)
    for st in steps:
        out += flat[lo + st : hi + st]
        out += flat[lo - st : hi - st]
    out /= h**2
    wp = well.wprime(flat[lo:hi])
    wp /= eps * eps
    out -= wp
    del wp
    if u is None:
        return
    uf = u.reshape(-1, f.ndim)[lo:hi]
    acc = None
    for ax, st in enumerate(steps):
        g = np.subtract(flat[lo + st : hi + st], flat[lo - st : hi - st])
        g /= 2.0 * h
        g *= uf[:, ax]
        if acc is None:
            acc = g
        else:
            acc += g
    out -= acc


def _max_abs(a: np.ndarray) -> float:
    """max |a| in two reductions and no temporary; nan if any entry is nan."""
    return max(abs(float(a.max())), abs(float(a.min())))


def _abort(state: SimState, vals: np.ndarray, t: float, midpoint: bool) -> SolverAbort:
    """The abort for an update that failed the max |phi| check, at its first bad node."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        loc = tuple(int(v) for v in np.argwhere(bad)[0])
        msg = (
            f"non-finite midpoint at node {loc}"
            if midpoint
            else f"non-finite value at node {loc} after step {state.step_index}"
        )
        return SolverAbort(state.step_index, loc, msg, t, abs(float(vals[loc])))
    worst = int(np.argmax(np.abs(vals)))
    loc = tuple(int(v) for v in np.unravel_index(worst, vals.shape))
    value = abs(float(vals.flat[worst]))
    return SolverAbort(
        state.step_index,
        loc,
        f"|phi| = {value:.4f} > {PHI_ABORT} at node {loc} after step {state.step_index}: stability lost",
        t,
        value,
    )


def step(
    state: SimState,
    cfg: ScenarioConfig,
    dt: float,
    u: VectorField | None = None,
    u_mid: VectorField | None = None,
    scheme: str = "euler",
) -> SimState:
    """One explicit step; boundary nodes keep their current (initial-trace) values.

    ``u``/``u_mid`` are the velocity samples at t and t + dt/2 (midpoint rule);
    omit them for transport-free runs. The input state is not modified. Each
    update is written into a fresh copy of phi, so the boundary nodes carry
    over untouched, and is checked by one max |phi| scan, which the returned
    state keeps as ``max_abs_phi``. Aborts with the step index and the first
    non-finite (else the largest) node when the update leaves the physical
    range; the rk2 midpoint is only checked for non-finite values.
    """
    v = state.phi.values
    h, eps, well = state.phi.spec.h, cfg.epsilon, cfg.well

    def update(f: np.ndarray, vel: VectorField | None, scale: float) -> np.ndarray:
        """phi + scale * rhs(f) on the interior, phi on the boundary."""
        out = v.copy()
        r = out[1:-1].reshape(-1)
        _rhs(f, None if vel is None else vel.values, h, eps, well, r)
        r *= scale
        r += v[1:-1].reshape(-1)
        for ax in range(1, v.ndim):  # the faces that _rhs swept along with the interior
            for face in (0, -1):
                sl = (slice(None),) * ax + (face,)
                out[sl] = v[sl]
        return out

    f = v
    if scheme != "euler":
        f = update(v, u, 0.5 * dt)
        if not math.isfinite(_max_abs(f)):
            raise _abort(state, f, state.t + 0.5 * dt, midpoint=True)
        u = u_mid if u_mid is not None else u
    new = update(f, u, dt)
    m = _max_abs(new)
    if not m <= PHI_ABORT:  # also catches nan and inf
        raise _abort(state, new, state.t + dt, midpoint=False)
    return SimState(state.t + dt, ScalarField.from_checked(state.phi.spec, new), state.step_index + 1, m)


@dataclass
class RunResult:
    cfg: ScenarioConfig
    solver: SolverConfig
    dt: float
    n_steps: int
    trajectory: Trajectory
    rows: list[measures.DiagnosticsRow]
    probe: measures.HuiskenProbe
    snapshot_paths: list[str] = field(default_factory=list)

    @property
    def final_phi(self) -> ScalarField:
        return self.trajectory.frames[-1]


def probe_at(cfg: ScenarioConfig, y) -> measures.HuiskenProbe:
    """Standard probe at y (pulled inside the box so its ball fits), s = T + 0.01."""
    d = min(cfg.inset_prime / 2.0, 0.25)
    y = [min(max(float(v), lo + d), hi - d) for v, lo, hi in zip(y, cfg.grid.lo, cfg.grid.hi)]
    return measures.HuiskenProbe.standard(y, cfg.t_end + 0.01, cfg.inset_prime)


def _default_probe(cfg: ScenarioConfig, phi0: ScalarField) -> measures.HuiskenProbe:
    """Probe at the strongest initial energy node."""
    mu = measures.EnergyMeasure.from_phase(phi0, cfg.epsilon, cfg.well)
    idx = np.unravel_index(int(np.argmax(mu.density.values)), cfg.grid.nodes)
    return probe_at(cfg, [mesh[idx] for mesh in cfg.grid.meshgrid()])


def _sup_speed(cfg: ScenarioConfig) -> float:
    """sup |u| for the advective limit: sampled on the nodes for a static
    transport, the transport's analytic bound over [0, T] otherwise."""
    if cfg.transport.time_dependent:
        return cfg.transport.sup_speed(cfg.grid, 0.0, cfg.t_end)
    u = cfg.transport.velocity(np.stack(cfg.grid.meshgrid(), axis=-1), 0.0)
    return float(np.max(np.sqrt(np.sum(u * u, axis=-1))))


def run(
    cfg: ScenarioConfig,
    solver: SolverConfig | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Integrate the scenario from 0 to T with scheduled diagnostics.

    The step count is rounded up to a whole number of diagnostics intervals,
    so the row count is n_steps / diag_every + 1 and the final time lands
    exactly on T. On abort, partial outputs are flushed before the exception
    propagates (carrying the rows computed so far).
    """
    solver = solver or SolverConfig()
    phi0 = build_initial_phase(cfg)
    u_max = _sup_speed(cfg)
    dt0 = stable_dt(cfg.grid.h, cfg.epsilon, u_max, cfg.well, cfg.grid.dim, solver.cfl)
    d = solver.diag_every
    n_steps = d * math.ceil(cfg.t_end / (dt0 * d))
    dt = cfg.t_end / n_steps
    n_frames = n_steps // d + 1
    if n_frames > solver.max_frames:
        raise ValueError(
            f"schedule would retain {n_frames} frames (> max_frames={solver.max_frames}); "
            f"increase diag_every or max_frames"
        )

    probe = _default_probe(cfg, phi0)
    traj = Trajectory(cfg, steps_between=d)
    rows: list[measures.DiagnosticsRow] = []
    snap_paths: list[str] = []

    pts = np.stack(cfg.grid.meshgrid(), axis=-1)
    static_u: VectorField | None = None
    u2_static = None
    if not cfg.transport.time_dependent:
        u2_static = measures.speed_sq(cfg.transport, pts, 0.0)
        if u2_static is not None:
            static_u = VectorField(cfg.grid, cfg.transport.velocity(pts, 0.0))

    center = tuple(0.5 * (l + h) for l, h in zip(cfg.grid.lo, cfg.grid.hi))
    omega_p = cfg.omega_prime()
    mask_p = measures.region_mask(cfg.grid, omega_p)
    ratio_radii = measures.ratio_lattice_radii(cfg.grid, cfg.inset_prime)
    g_weight = None
    if cfg.transport.is_gradient and not cfg.transport.time_dependent:
        g_weight = measures.gronwall_weight(cfg.transport, pts, 0.0)

    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "snapshots"), exist_ok=True)

    prev_kernel: list[tuple[float, ...]] = []  # (t, i_rho, i_u, i_xi) of the previous row

    def make_row(state: SimState, running_max: float) -> measures.DiagnosticsRow:
        phi = state.phi
        t = state.t
        ff = measures.frame_fields(phi, cfg.epsilon, cfg.well, drive=True)
        vel = measures.velocity_sq(ff, omega_p)
        ff.drive = None  # release it before the density-ratio FFTs
        mu = ff.measure()
        ratio = measures.density_ratio(mu, region=omega_p, stride=4, radii=ratio_radii)
        iset = extract_interface(phi)
        radius = -1.0
        if not iset.is_empty:
            radius = radius_estimate(iset, center)[0]
        if g_weight is not None:
            weight = g_weight
        elif cfg.transport.is_gradient:
            weight = measures.gronwall_weight(cfg.transport, pts, t)
        else:
            weight = 1.0
        gron = measures.weighted_energy(ff, weight)
        u2 = measures.speed_sq(cfg.transport, pts, t) if cfg.transport.time_dependent else u2_static
        i_rho, i_u, i_xi = measures.kernel_terms(ff, probe, t, u2)
        resid = 0.0
        if prev_kernel:
            t0, rho0, u0, xi0 = prev_kernel.pop()
            resid = (i_rho - rho0) - 0.5 * (t - t0) * (i_u + u0 + i_xi + xi0)
        prev_kernel.append((t, i_rho, i_u, i_xi))
        xi_p = np.maximum(ff.xi.values, 0.0)
        return measures.DiagnosticsRow(
            t=t,
            total_energy=mu.total,
            density_ratio_max=ratio.max_ratio,
            sup_xi=float(np.max(ff.xi.values[mask_p])),
            sup_xi_pos=float(np.max(xi_p[mask_p])),
            pos_xi_integral=integrate(ScalarField(cfg.grid, xi_p), omega_p),
            interface_radius=radius,
            monotonicity_residual=resid,
            gronwall_factor=gron,
            velocity_sq=vel,
            max_abs_phi=running_max,
        )

    def snapshot(state: SimState) -> None:
        if out_dir is None:
            return
        path = os.path.join(out_dir, "snapshots", f"step_{state.step_index:08d}.afld")
        write_field(path, state.phi, state.t)
        snap_paths.append(path)

    state = SimState(0.0, phi0, 0)
    running_max = float(np.max(np.abs(phi0.values)))
    traj.append(state.t, state.phi)
    rows.append(make_row(state, running_max))
    snapshot(state)

    try:
        for k in range(1, n_steps + 1):
            if cfg.transport.time_dependent:
                u = VectorField(cfg.grid, cfg.transport.velocity(pts, state.t))
                u_mid = (
                    VectorField(cfg.grid, cfg.transport.velocity(pts, state.t + 0.5 * dt))
                    if solver.scheme == "rk2"
                    else None
                )
            else:
                u = static_u
                u_mid = static_u
            state = step(state, cfg, dt, u=u, u_mid=u_mid, scheme=solver.scheme)
            running_max = max(running_max, state.max_abs_phi)
            if k % d == 0:
                traj.append(state.t, state.phi)
                rows.append(make_row(state, running_max))
                running_max = state.max_abs_phi
            if (solver.snap_every and k % solver.snap_every == 0) or k == n_steps:
                snapshot(state)
    except SolverAbort as exc:
        exc.dt, exc.n_steps = dt, n_steps
        raise
    finally:  # an abort flushes the rows computed so far
        if out_dir is not None:
            _write_rows(out_dir, rows)
    return RunResult(cfg, solver, dt, n_steps, traj, rows, probe, snap_paths)


def _write_rows(out_dir: str, rows: list[measures.DiagnosticsRow]) -> None:
    path = os.path.join(out_dir, "diagnostics.csv")
    with open(path, "w") as fh:
        fh.write(measures.DiagnosticsRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_line() + "\n")
