"""Explicit time integration of the transported phase-field equation.

One step advances phi by dt * (laplacian phi - W'(phi)/eps^2 - u . grad phi)
with forward Euler or midpoint RK2; a transport u = m(t) U enters as the
grid's cached U, component-major (``grid.VectorField.components``, shape
(n,) + nodes), and m at each update's time scales its transport sum.
Boundary nodes are pinned to their initial trace, which realizes the -1
Dirichlet condition for scenario-built data (whose trace is identically -1)
while keeping synthetic profiles consistent. The timestep obeys the diffusive, reactive and advective limits
simultaneously.

``run`` integrates a scenario from 0 to T, records a diagnostics row every
``diag_every`` steps (the quadrature schedule for all time-integrated
diagnostics) and writes snapshot files ``snapshots/step_<8-digit step>.afld``:
the first and final fields and every ``snap_every``-th. A ``RowBuilder``
makes each row from its frame, which it extracts once; the last row's
interface is written to ``interface_final.csv``. The run keeps only the
final field, and allocates its fields once, from ``grid.open_team`` (shared
with the block sweeps' helper processes on a grid large enough for them):
phi0 (built by slabs) and a spare field, which the steps write in turn, and
rk2's midpoint; each row borrows the spare field, which holds the drive and
then the density, while the discrepancy is reduced in the density's sweep
and never becomes a field. Besides these (and a transport's cached U and G,
U's copy among the team's fields, and the Groenwall weight), what a run allocates is
the size of a slab, a block or one interface: a row drops the previous
row's interface before it extracts its own. The rows are the run's record
of every per-frame diagnostic;
``load_trajectory`` reads the snapshot files back bit for bit, for the
offline checks that need the fields themselves (probes chosen after the run,
the scaled density ratio). With ``snap_every = diag_every`` the snapshots
are the fields on the diagnostics schedule, and a ``RowBuilder`` fed them
in order rebuilds the run's rows (``actx diagnose``). Identical configs
produce bit-identical outputs.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .grid import GridError, ScalarField, VectorField, open_team, read_field, stencil_rhs
from .grid import write_field
from .interface import InterfaceSet, extract_interface, radius_estimate
from .potential import DoubleWell
from .scenario import ConfigError, ScenarioConfig, build_initial_phase, transport_field

PHI_ABORT = 1.1  # just outside the wells' basin; past this the run is garbage

# Elements per chunk of interface_final.csv. Each chunk takes the reprs of
# its distinct values, the grid-line coordinates again among them: at 97^3,
# 1024 took 8% longer than 2048, and with 4096 the write raised a ball-3d
# run's peak RSS by 2.6 MiB, against 1.2.
INTERFACE_CHUNK = 2048


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

    def __post_init__(self):
        if self.scheme not in ("euler", "rk2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl safety factor must lie in (0,1], got {self.cfl}")
        if self.diag_every < 1:
            raise ValueError("diag_every must be >= 1")
        if self.snap_every < 0:
            raise ValueError(f"snap_every must be >= 0, got {self.snap_every}")


@dataclass
class SimState:
    t: float
    phi: ScalarField
    step_index: int
    max_abs_phi: float = math.nan  # max |phi|, as measured by the step that made this state


@dataclass
class Trajectory:
    """Fields at increasing times, plus run context."""

    cfg: ScenarioConfig
    times: list[float] = field(default_factory=list)
    frames: list[ScalarField] = field(default_factory=list)

    def append(self, t: float, phi: ScalarField) -> None:
        self.times.append(t)
        self.frames.append(phi)  # by reference: ``step`` without ``out`` returns a fresh field


def stable_dt(h: float, eps: float, u_max: float, w: DoubleWell, n: int, cfl: float = 0.5) -> float:
    """cfl * min of the diffusive h^2/(4n), reactive eps^2/max|W''|, advective h/(2|u|) limits."""
    wpp = w.wpp_max(PHI_ABORT)
    return cfl * min(
        h * h / (4.0 * n),
        eps * eps / wpp,
        h / (2.0 * max(u_max, 1e-12)),
    )


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
    out: np.ndarray | None = None,
    mid: np.ndarray | None = None,
    m: float = 1.0,
    m_mid: float | None = None,
) -> SimState:
    """One explicit step; boundary nodes keep their current (initial-trace) values.

    ``u``/``u_mid`` are the velocity samples at t and t + dt/2 (midpoint rule);
    omit them for transport-free runs. ``stencil_rhs`` reads their
    component-major ``components`` as they are, so the step copies neither.
    Each is scaled by its time factor, ``m`` or ``m_mid`` (default ``m``;
    ``u_mid`` defaults to ``u``), so a transport m(t) U passes U itself. The input state is not modified:
    ``grid.stencil_rhs`` writes each update, with phi's boundary nodes, into
    ``out`` (rk2's midpoint into ``mid``), fields that share no memory with
    phi or each other, or into fresh ones. The update is checked by the max
    |phi| that ``stencil_rhs`` takes in its sweep, which the returned state
    keeps as ``max_abs_phi``. Aborts
    with the step index and the first non-finite (else the largest) node
    when the update leaves the physical range; the rk2 midpoint is only
    checked for non-finite values.
    """
    v = state.phi.values
    h, eps, well = state.phi.spec.h, cfg.epsilon, cfg.well

    def update(f: np.ndarray, vel: VectorField | None, m: float, scale: float, dst: np.ndarray | None):
        """(phi + scale * rhs(f) on the interior and phi on the boundary, in
        ``dst``; its max |phi|)."""
        dst = np.empty_like(v) if dst is None else dst
        return dst, stencil_rhs(f, None if vel is None else vel.components, h, eps, well, dst, v, scale, m)

    f = v
    if scheme != "euler":
        f, top = update(v, u, m, 0.5 * dt, mid)
        if not math.isfinite(top):
            raise _abort(state, f, state.t + 0.5 * dt, midpoint=True)
        u = u_mid if u_mid is not None else u
        m = m_mid if m_mid is not None else m
    new, top = update(f, u, m, dt, out)
    if not top <= PHI_ABORT:  # also catches nan and inf
        raise _abort(state, new, state.t + dt, midpoint=False)
    return SimState(state.t + dt, ScalarField.from_checked(state.phi.spec, new), state.step_index + 1, top)


@dataclass
class RunResult:
    cfg: ScenarioConfig
    solver: SolverConfig
    dt: float
    n_steps: int
    trajectory: Trajectory
    rows: list[measures.DiagnosticsRow]
    probe: measures.HuiskenProbe

    @property
    def final_phi(self) -> ScalarField:
        return self.trajectory.frames[-1]


def read_trajectory(paths, cfg: ScenarioConfig) -> Trajectory:
    """The snapshot files ``paths`` as a trajectory, ordered by time (files of
    equal time keep their order); an unreadable file, or one whose grid (dim,
    lo, hi, cells) is not ``cfg.grid``, raises ``GridError`` or ``OSError``
    naming it."""
    snaps = []
    for path in paths:
        snaps.append(read_field(path))
        spec = snaps[-1][0].spec
        if spec != cfg.grid:
            grids = (f"(cells {g.cells}, lo {g.lo}, hi {g.hi})" for g in (spec, cfg.grid))
            raise GridError("{}: snapshot grid {} is not the config's {}".format(path, *grids))
    snaps.sort(key=lambda snap: snap[1])
    return Trajectory(cfg, [t for _, t in snaps], [f for f, _ in snaps])


def load_trajectory(art_dir: str, cfg: ScenarioConfig) -> Trajectory:
    """The trajectory in an artifact directory's snapshot files; a file not
    named like a snapshot raises ``GridError`` naming it."""
    snap_dir = os.path.join(art_dir, "snapshots")
    paths = [os.path.join(snap_dir, name) for name in sorted(os.listdir(snap_dir))]
    for path in paths:
        if re.fullmatch(r"step_\d+\.afld", os.path.basename(path)) is None:
            raise GridError(f"{path}: not a snapshot file (expected step_<digits>.afld)")
    return read_trajectory(paths, cfg)


def probe_at(cfg: ScenarioConfig, y) -> measures.HuiskenProbe:
    """Standard probe at y (pulled inside the box so its ball fits), s = T + 0.01."""
    d = measures.probe_radius(cfg.inset_prime)
    y = [min(max(float(v), lo + d), hi - d) for v, lo, hi in zip(y, cfg.grid.lo, cfg.grid.hi)]
    return measures.HuiskenProbe.standard(y, cfg.t_end + 0.01, cfg.inset_prime)


def ratio_radii(cfg: ScenarioConfig) -> list[float]:
    """The density-ratio radius ladder of the rows; ``ConfigError`` if it is empty
    (2h above the cap min(inset_prime/2, 1/4))."""
    radii = measures.ratio_lattice_radii(cfg.grid, cfg.inset_prime)
    if not radii:
        raise ConfigError(
            f"density-ratio radius ladder is empty: 2h = {2 * cfg.grid.h:g} exceeds the cap "
            f"min(inset_prime/2, 1/4) = {measures.probe_radius(cfg.inset_prime):g}"
        )
    return radii


class RowBuilder:
    """``(phi, t, max_abs_phi) -> (DiagnosticsRow, InterfaceSet)`` for the frames
    of one scenario in time order, with ``radii`` from ``ratio_radii``.

    The first frame places the default ``probe`` at its strongest energy node;
    a later row's ``monotonicity_residual`` is the trapezoid surplus of that
    probe's kernel terms since the previous frame. The Groenwall weight
    exp(-m G) is formed once if static, else at every row.

    A row needs one field besides phi, which the caller may lend and which the
    builder otherwise allocates once: ``run`` lends the step's spare field,
    ``actx diagnose`` one of its team's fields, so that the block sweeps over
    phi and it split among the team's processes. The field holds in turn the
    drive, whose window ``velocity_sq`` packs to its front (``grid.pack``),
    and the density, which ``measures.frame_fields`` writes while it reduces
    xi on Omega' (``sup_xi``, ``pos_xi_integral``), so that xi never becomes
    a field. On the density the first row places the probe (its argmax), then
    come the kernel terms (xi on the probe's box from ``measures.box_fields``),
    the density ratio and the interface; last, ``measures.energy_totals``
    halves its faces in place for the total and multiplies it by the
    Groenwall weight. Besides phi and the field, a row's temporaries are the
    size of a block, a slab, a probe's box or the interface, one part at a
    time: the block sweeps' scratch rows, ``box_fields``' padded copy of a
    face strip (``frame_fields`` redoes the faces with it) or of the probe's
    box, ``ball_masses``' prefix-sum slab of columns, ``extract_interface``'s node
    mask of one slab, its active cells and a piece of their elements, and
    ``radius_estimate``'s distances. At 97^3 that peaks at 0.07 of a field
    above the row's inputs and the interface it returns.
    """

    def __init__(self, cfg: ScenarioConfig, radii: list[float]):
        self.cfg = cfg
        self.radii = radii
        self.probe: measures.HuiskenProbe | None = None
        self.kernel: tuple[float, ...] | None = None  # (t, i_rho, i_u, i_xi) of the last frame
        self.weight: np.ndarray | None = None  # exp(-m G) of the last row
        self.center = tuple(0.5 * (lo + hi) for lo, hi in zip(cfg.grid.lo, cfg.grid.hi))
        self.omega_p = cfg.omega_prime()
        self.box_p = cfg.grid.box_slices(self.omega_p)
        self.own: np.ndarray | None = None  # the builder's field, if a call lends none

    def __call__(self, phi: ScalarField, t: float, max_abs_phi: float,
                 field: np.ndarray | None = None) -> tuple[measures.DiagnosticsRow, InterfaceSet]:
        """The frame's row and interface; ``field`` is a C-contiguous field of
        phi's shape that shares no memory with phi, overwritten here."""
        cfg = self.cfg
        tr, spec = cfg.transport, cfg.grid
        if field is None:
            if self.own is None:
                self.own = np.empty(spec.nodes)
            field = self.own
        vel = measures.velocity_sq(phi, cfg.epsilon, cfg.well, self.omega_p, out=field)
        ff = measures.frame_fields(phi, cfg.epsilon, cfg.well, out=field, window=self.box_p)
        if self.probe is None:
            idx = np.unravel_index(int(np.argmax(field)), spec.nodes)
            self.probe = probe_at(cfg, [ax[i] for ax, i in zip(spec.axes(), idx)])
        if self.weight is None or tr.time_dependent:  # without G it stays None, at no cost
            self.weight = measures.gronwall_weight(tr, spec, t)
        i_rho, i_u, i_xi = measures.kernel_terms(ff, self.probe, t, tr)
        resid = 0.0
        if self.kernel is not None:
            t0, rho0, u0, xi0 = self.kernel
            resid = (i_rho - rho0) - 0.5 * (t - t0) * (i_u + u0 + i_xi + xi0)
        self.kernel = (t, i_rho, i_u, i_xi)
        ratio = measures.density_ratio(ff, region=self.omega_p, stride=4, radii=self.radii)
        iset = extract_interface(phi)
        radius = -1.0
        if not iset.is_empty:
            radius = radius_estimate(iset, self.center)[0]
        total, gronwall = measures.energy_totals(field, spec.h, self.weight)  # overwrites the density
        row = measures.DiagnosticsRow(
            t=t,
            total_energy=total,
            density_ratio_max=ratio.max_ratio,
            sup_xi=ff.sup_xi,
            sup_xi_pos=max(ff.sup_xi, 0.0),
            pos_xi_integral=ff.pos_xi_integral,
            interface_radius=radius,
            monotonicity_residual=resid,
            gronwall_factor=gronwall,
            velocity_sq=vel,
            max_abs_phi=max_abs_phi,
        )
        return row, iset


def run(
    cfg: ScenarioConfig,
    solver: SolverConfig | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Integrate the scenario from 0 to T with scheduled diagnostics.

    The step count is rounded up to a whole number of diagnostics intervals,
    so the row count is n_steps / diag_every + 1 and the final time lands
    exactly on T; where that takes dt below half the stable dt, one
    ``warning:`` line on stderr names both before the first step. The
    result's trajectory holds the final field only; the earlier fields are
    in the snapshot files. On abort, partial outputs are flushed before the
    exception propagates (carrying the rows computed so far). Before the
    first step, a shape too close to the cutoff collar (``MarginError``) or
    an empty density-ratio radius ladder raises ``ConfigError``.

    The transport u = m(t) U: every step reads the grid's cached U
    (``scenario.transport_field``), or its copy among the team's fields, and
    scales its transport sum by m at the step's start and rk2 midpoint; no
    velocity field is formed.

    The run's fields come from ``grid.open_team``, opened before the build, so
    that its helper processes, forked then, inherit little of the caller's
    memory (the benchmark's peak RSS is the largest of the process tree). The
    team is closed, and its helpers reaped, on every way out of the run.
    """
    solver = solver or SolverConfig()
    tr, spec = cfg.transport, cfg.grid
    u_field = transport_field(tr, spec).u
    # phi0 and the spare field, which the steps write in turn, rk2's midpoint and
    # U: made before the first step, and shared with the block sweeps' helpers
    # (opened before the build, so that they inherit little)
    fields = 2 + (solver.scheme == "rk2") + (0 if u_field is None else spec.dim)
    with open_team(spec.nodes, fields) as team:
        phi0 = build_initial_phase(cfg, out=team.field())
        build_row = RowBuilder(cfg, ratio_radii(cfg))
        # U, or its copy in the arena, component-major as the block sweep reads it
        u = None if u_field is None else VectorField.from_components(spec, team.share(u_field))
        u_max = tr.sup_speed(spec, 0.0, cfg.t_end)
        dt0 = stable_dt(spec.h, cfg.epsilon, u_max, cfg.well, spec.dim, solver.cfl)
        d = solver.diag_every
        n_steps = d * math.ceil(cfg.t_end / (dt0 * d))
        dt = cfg.t_end / n_steps
        if n_steps > math.ceil(cfg.t_end / dt0) and dt < 0.5 * dt0:  # the rounding, not T, shrank dt
            print(f"warning: diag_every = {d} rounds the run up to {n_steps} steps of dt = {dt:.4g}, "
                  f"below half the stable dt {dt0:.4g}", file=sys.stderr)

        if out_dir is not None:
            os.makedirs(os.path.join(out_dir, "snapshots"), exist_ok=True)

        def snapshot(state: SimState) -> None:
            if out_dir is None:
                return
            path = os.path.join(out_dir, "snapshots", f"step_{state.step_index:08d}.afld")
            write_field(path, state.phi, state.t)

        # the steps write into phi0's array and the spare field in turn, rk2's
        # midpoint into a third; the rows borrow the field the last step left free
        spare = team.field()
        mid = team.field() if solver.scheme == "rk2" else None
        state = SimState(0.0, phi0, 0)
        running_max = max(float(np.max(phi0.values)), -float(np.min(phi0.values)))  # max |phi0|, no |phi0| field
        row, iset = build_row(phi0, 0.0, running_max, spare)
        rows = [row]
        snapshot(state)

        try:
            for k in range(1, n_steps + 1):
                prev = state.phi.values
                state = step(state, cfg, dt, u=u, scheme=solver.scheme, out=spare, mid=mid,
                             m=tr.m(state.t), m_mid=tr.m(state.t + 0.5 * dt))
                spare = prev
                running_max = max(running_max, state.max_abs_phi)
                if k % d == 0:
                    iset = None  # only the last row's interface is written: never two at once
                    row, iset = build_row(state.phi, state.t, running_max, spare)
                    rows.append(row)
                    running_max = state.max_abs_phi
                if (solver.snap_every and k % solver.snap_every == 0) or k == n_steps:
                    snapshot(state)
        except SolverAbort as exc:
            exc.dt, exc.n_steps = dt, n_steps
            raise
        finally:  # an abort flushes the rows computed so far
            if out_dir is not None:
                _write_rows(out_dir, rows)
    if out_dir is not None:
        _write_interface(out_dir, iset)
    return RunResult(cfg, solver, dt, n_steps, Trajectory(cfg, [state.t], [state.phi]), rows, build_row.probe)


def _write_rows(out_dir: str, rows: list[measures.DiagnosticsRow]) -> None:
    path = os.path.join(out_dir, "diagnostics.csv")
    with open(path, "w") as fh:
        fh.write(measures.DiagnosticsRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_line() + "\n")


def _write_interface(out_dir: str, iset: InterfaceSet) -> None:
    path = os.path.join(out_dir, "interface_final.csv")
    with open(path, "w") as fh:
        fh.write("x0,y0,x1,y1\n" if iset.dim == 2 else "x0,y0,z0,x1,y1,z1,x2,y2,z2\n")
        # a segment (2D) or a triangle (3D) per line: dim points of dim coordinates,
        # each distinct value's repr taken once per chunk (by its bits, so 0.0 and
        # -0.0 keep their own)
        for lo in range(0, len(iset.elements), INTERFACE_CHUNK):
            values = iset.elements[lo : lo + INTERFACE_CHUNK].reshape(-1)
            bits, which = np.unique(values.view(np.uint64), return_inverse=True)
            texts = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
            which = which.reshape(-1, iset.dim * iset.dim)
            for i in range(0, len(which), 512):
                fh.write("\n".join(map(",".join, texts[which[i : i + 512]].tolist())) + "\n")
