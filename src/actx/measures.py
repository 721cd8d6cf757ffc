"""Geometric-measure diagnostics for diffuse-interface energies.

Everything here is a pure function of phase-field snapshots: the energy
measure (density eps |grad phi|^2 / 2 + W(phi)/eps), the discrepancy between
its two halves, ball density ratios, truncated backward heat kernels and the
near-monotonicity of their energy integrals, transport/velocity space-time
integrals, a Meyers-Ziemer ratio probe, and weighted-energy growth checks.

Per-frame quantities are computed once: ``frame_fields`` (one gradient, one
well evaluation, the Laplacian only for the drive) plus the per-frame scalars
built on it. The rows of ``solver.run``, ``actx diagnose`` and the windowed
checks (trapezoids over retained frames) all share this computation.

Ball-mass sweeps over node lattices run through FFT convolution with hard
disk kernels, which reproduces the direct node-counting ball integral up to
rounding; inequality checks report fitted constants instead of asserting
universal ones, and acceptance pins the stability of those fits across
refinement.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.signal import fftconvolve

from .grid import GridSpec, ScalarField, ball_integrate, gradient, integrate, laplacian
from .potential import DoubleWell, _smoothstep

if TYPE_CHECKING:
    from .scenario import Transport
    from .solver import Trajectory


class MeasureError(ValueError):
    """Raised for empty sample sets, bad probes, or invalid windows."""


# ---------------------------------------------------------------------------
# Per-frame fields: energy density, discrepancy, drive
# ---------------------------------------------------------------------------


@dataclass
class FrameFields:
    """Pointwise fields of one frame.

    density = eps |grad phi|^2/2 + W(phi)/eps, xi = eps |grad phi|^2/2 - W(phi)/eps
    and, when requested, the drive lap phi - W'(phi)/eps^2.
    """

    eps: float
    density: ScalarField
    xi: ScalarField
    drive: np.ndarray | None = None

    def measure(self) -> "EnergyMeasure":
        return EnergyMeasure(self.density.spec, self.density, integrate(self.density))


def frame_fields(
    phi: ScalarField, eps: float, well: DoubleWell, drive: bool = False
) -> FrameFields:
    """One gradient and one well evaluation; the Laplacian only with ``drive``.

    The gradient and the two halves are released before the Laplacian runs.
    """
    grad_half = 0.5 * eps * np.sum(gradient(phi, None).values**2, axis=-1)
    w, wp = well.eval(phi.values)[:2]
    well_half = w / eps
    del w
    out = FrameFields(
        eps,
        ScalarField(phi.spec, grad_half + well_half),
        ScalarField(phi.spec, grad_half - well_half),
    )
    if drive:
        del grad_half, well_half
        out.drive = laplacian(phi, -1.0).values - wp / eps**2
    return out


@dataclass
class EnergyMeasure:
    """Diffuse interface energy: density field and its integral."""

    spec: GridSpec
    density: ScalarField
    total: float

    @classmethod
    def from_phase(cls, phi: ScalarField, eps: float, well: DoubleWell) -> "EnergyMeasure":
        return frame_fields(phi, eps, well).measure()


def discrepancy_field(phi: ScalarField, eps: float, well: DoubleWell) -> ScalarField:
    """xi = eps |grad phi|^2 / 2 - W(phi)/eps; vanishes on the exact 1D profile."""
    return frame_fields(phi, eps, well).xi


def velocity_sq(fields: FrameFields, region: tuple[Sequence[float], Sequence[float]]) -> float:
    """int_region eps (lap phi - W'(phi)/eps^2)^2 dx; needs fields built with the drive."""
    return integrate(ScalarField(fields.density.spec, fields.eps * fields.drive**2), region)


def speed_sq(transport: "Transport", pts: np.ndarray, t: float) -> np.ndarray | None:
    """|u|^2 at the nodes ``pts`` (shape nodes + (dim,)) and time t; None if u vanishes."""
    u = transport.velocity(pts, t)
    return np.sum(u * u, axis=-1) if np.any(u) else None


def gronwall_weight(transport: "Transport", pts: np.ndarray, t: float) -> np.ndarray:
    """exp(-g) at the nodes, for a gradient transport u = grad g."""
    return np.exp(-transport.g(pts, t))


def weighted_energy(fields: FrameFields, weight) -> float:
    """int weight dmu; the Groenwall factor F(t) for weight = ``gronwall_weight``."""
    return integrate(ScalarField(fields.density.spec, weight * fields.density.values))


def discrepancy_sup(
    traj: "Trajectory",
    region: tuple[Sequence[float], Sequence[float]] | None = None,
    t_min: float | None = None,
) -> tuple[float, float]:
    """(sup xi, sup xi_+) over the region and retained times from t_min on."""
    cfg = traj.cfg
    region = region or cfg.omega_prime()
    t_min = cfg.tau if t_min is None else t_min
    mask = region_mask(cfg.grid, region)
    sup_xi = -math.inf
    for t, phi in zip(traj.times, traj.frames):
        if t < t_min - 1e-12:
            continue
        xi = discrepancy_field(phi, cfg.epsilon, cfg.well)
        sup_xi = max(sup_xi, float(np.max(xi.values[mask])))
    if sup_xi == -math.inf:
        raise MeasureError(f"no retained frames at or after t_min = {t_min:g}")
    return sup_xi, max(sup_xi, 0.0)


def region_mask(spec: GridSpec, box: tuple[Sequence[float], Sequence[float]]) -> np.ndarray:
    """Boolean node mask of the given closed sub-box."""
    lo, hi = box
    mesh = spec.meshgrid()
    tol = 1e-9 * spec.h
    m = np.ones(spec.nodes, dtype=bool)
    for k in range(spec.dim):
        m &= (mesh[k] >= lo[k] - tol) & (mesh[k] <= hi[k] + tol)
    return m


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


# ---------------------------------------------------------------------------
# Density ratios
# ---------------------------------------------------------------------------


@dataclass
class DensityRatioResult:
    max_ratio: float
    center: tuple[float, ...]
    radius: float
    n_samples: int
    modulus_estimate: float  # coarse bound on lattice-vs-continuum sup gap


def _disk_kernel(spec: GridSpec, radius: float) -> np.ndarray:
    m = int(math.ceil(radius / spec.h))
    offs = [np.arange(-m, m + 1) * spec.h for _ in range(spec.dim)]
    if spec.dim == 2:
        d2 = offs[0][:, None] ** 2 + offs[1][None, :] ** 2
    else:
        d2 = offs[0][:, None, None] ** 2 + offs[1][None, :, None] ** 2 + offs[2][None, None, :] ** 2
    # same boundary rule as ball_integrate: exact-radius nodes stay out
    return (d2 < radius**2 * (1.0 - 1e-12)).astype(np.float64)


def ball_masses(measure: EnergyMeasure, radius: float) -> np.ndarray:
    """mu(B_radius(x)) for every node x simultaneously (balls clipped at the box)."""
    kern = _disk_kernel(measure.spec, radius)
    conv = fftconvolve(measure.density.values, kern, mode="same")
    return conv * measure.spec.h**measure.spec.dim


def dyadic_radii(spec: GridSpec, r_max: float) -> list[float]:
    radii = []
    r = 2.0 * spec.h
    while r <= r_max + 1e-12:
        radii.append(r)
        r *= 2.0
    return radii


def ratio_lattice_radii(spec: GridSpec, inset: float) -> list[float]:
    """Default dyadic radius ladder for density-ratio sweeps over the inset box.

    Capped at min(inset/2, 1/4): large enough that the top radii dominate the
    interface width (so the sup is refinement-stable), small enough that balls
    at interface points stay inside the inset box.
    """
    return dyadic_radii(spec, min(inset / 2.0, 0.25))


def _stride_mask(spec: GridSpec, stride: int) -> np.ndarray:
    m = np.zeros(spec.nodes, dtype=bool)
    m[tuple(slice(None, None, stride) for _ in range(spec.dim))] = True
    return m


def _masked_node(mesh: tuple[np.ndarray, ...], m: np.ndarray, i: int) -> tuple[float, ...]:
    """Coordinates of the i-th selected node of the mask m."""
    where = tuple(np.argwhere(m)[i])
    return tuple(float(axis[where]) for axis in mesh)


def density_ratio(
    measure: EnergyMeasure,
    centers: np.ndarray | None = None,
    radii: Sequence[float] | None = None,
    region: tuple[Sequence[float], Sequence[float]] | None = None,
    stride: int = 4,
    require_fit: bool = True,
) -> DensityRatioResult:
    """Max of mu(B_r(x)) / r^{n-1} over a (center, radius) lattice.

    With explicit ``centers`` the balls are integrated directly; otherwise
    centers run over every ``stride``-th node of ``region`` (default the whole
    box), keeping only centers whose ball fits inside the region when
    ``require_fit``. Radii default to the dyadic ladder 2h, 4h, ... capped at
    a quarter of the region extent; radii below 2h are rejected as noise.
    """
    spec = measure.spec
    h = spec.h
    region = region or (spec.lo, spec.hi)
    ext = min(hi - lo for lo, hi in zip(*region))
    if radii is None:
        radii = dyadic_radii(spec, ext / 4.0 if require_fit else ext)
    radii = sorted(float(r) for r in radii)
    if not radii:
        raise MeasureError("density ratio needs at least one radius")
    if radii[0] < 2.0 * h - 1e-12:
        raise MeasureError(f"radii below 2h = {2 * h:g} are grid noise, got {radii[0]:g}")

    power = spec.dim - 1
    best = (-math.inf, (math.nan,) * spec.dim, math.nan)
    n_samples = 0
    per_radius_max: list[float] = []

    if centers is not None:
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, spec.dim)
        if centers.shape[0] == 0:
            raise MeasureError("empty center set")
        for r in radii:
            vals = np.array(
                [ball_integrate(measure.density, c, r, clip_ok=True) / r**power for c in centers]
            )
            n_samples += vals.size
            per_radius_max.append(float(np.max(vals)))
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), tuple(centers[i]), r)
    else:
        mesh = spec.meshgrid()
        for r in radii:
            masses = ball_masses(measure, r)
            pad = r if require_fit else 0.0
            fit = ([lo + pad for lo in region[0]], [hi - pad for hi in region[1]])
            m = _stride_mask(spec, stride) & region_mask(spec, fit)
            if not np.any(m):
                per_radius_max.append(-math.inf)
                continue
            vals = masses[m] / r**power
            n_samples += vals.size
            per_radius_max.append(float(np.max(vals)))
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), _masked_node(mesh, m, i), r)

    if n_samples == 0:
        raise MeasureError("no admissible (center, radius) samples in the region")
    finite = [v for v in per_radius_max if np.isfinite(v)]
    modulus = max(abs(a - b) for a, b in zip(finite, finite[1:])) if len(finite) > 1 else 0.0
    return DensityRatioResult(best[0], best[1], best[2], n_samples, modulus)


def scaled_density_ratio(
    traj: "Trajectory",
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
    mesh = spec.meshgrid()
    dist_inset = np.minimum.reduce(
        [mesh[k] - (spec.lo[k] + eps) for k in range(spec.dim)]
        + [(spec.hi[k] - eps) - mesh[k] for k in range(spec.dim)]
    )
    best = (-math.inf, (math.nan,) * spec.dim, math.nan, math.nan)
    found = False
    for t, phi in zip(traj.times, traj.frames):
        if t <= eps * eps:
            continue
        mu = EnergyMeasure.from_phase(phi, eps, cfg.well)
        l_time = math.sqrt(t - eps * eps)
        l_field = np.minimum(dist_inset, l_time)
        for r in radii:
            masses = ball_masses(mu, r)
            m = (dist_inset >= 2.0 * r - 1e-12) & _stride_mask(spec, stride)
            if not np.any(m):
                continue
            found = True
            vals = np.maximum(l_field[m], 0.0) ** (spec.dim - 1) * masses[m] / r ** (spec.dim - 1)
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), _masked_node(mesh, m, i), r, t)
    if not found:
        raise MeasureError("no admissible (center, radius, time) samples for the scaled ratio")
    return best


# ---------------------------------------------------------------------------
# Truncated backward heat kernel and near-monotonicity
# ---------------------------------------------------------------------------


@dataclass
class HuiskenProbe:
    """Backward-kernel probe anchored at (y, s) with a C^2 radial cutoff.

    The cutoff is 1 on B_{r_inner}(y) and 0 off B_{r_outer}(y); the standard
    choice is r_inner = d/2, r_outer = d with d = min(inset/2, 1/4).
    """

    y: tuple[float, ...]
    s: float
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0.0 < self.r_inner < self.r_outer:
            raise MeasureError(
                f"need 0 < r_inner < r_outer, got {self.r_inner:g}, {self.r_outer:g}"
            )

    @classmethod
    def standard(cls, y: Sequence[float], s: float, inset: float) -> "HuiskenProbe":
        d = min(inset / 2.0, 0.25)
        return cls(tuple(float(v) for v in y), float(s), d / 2.0, d)

    def validate(self, spec: GridSpec) -> None:
        r = self.r_outer
        if not spec.contains_box([v - r for v in self.y], [v + r for v in self.y]):
            raise MeasureError(f"probe ball B_{self.r_outer:g}({self.y}) leaves the domain box")

    def cutoff(self, dist: np.ndarray) -> np.ndarray:
        t = (dist - self.r_inner) / (self.r_outer - self.r_inner)
        return 1.0 - _smoothstep(t)


def _kernel(probe: HuiskenProbe, r2, t: float, n: int):
    """Truncated backward codimension-one Gaussian at squared distance r2 from y."""
    if t >= probe.s:
        raise MeasureError(f"kernel needs t < s, got t={t:g}, s={probe.s:g}")
    tau = probe.s - t
    amp = (4.0 * math.pi * tau) ** (-(n - 1) / 2.0)
    return amp * np.exp(-r2 / (4.0 * tau)) * probe.cutoff(np.sqrt(r2))


def heat_kernel(probe: HuiskenProbe, x: Sequence[float], t: float, n: int) -> float:
    """The truncated kernel at a single point."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(probe.y)
    return float(_kernel(probe, np.sum(d * d), t, n))


def kernel_field(probe: HuiskenProbe, spec: GridSpec, t: float) -> ScalarField:
    """The truncated kernel sampled on the node lattice."""
    mesh = spec.meshgrid()
    r2 = sum((mesh[k] - probe.y[k]) ** 2 for k in range(spec.dim))
    return ScalarField(spec, _kernel(probe, r2, t, spec.dim))


def kernel_terms(
    fields: FrameFields, probe: HuiskenProbe, t: float, u2: np.ndarray | None
) -> tuple[float, float, float]:
    """The probe-weighted scalars of one frame at time t.

    (int rho dmu, 1/2 int rho |u|^2 dmu, int xi rho / (2(s - t))) for the probe's
    kernel rho; ``u2`` is ``speed_sq`` at t (None: no transport).
    """
    spec = fields.density.spec
    rho = kernel_field(probe, spec, t).values
    dens = fields.density.values
    i_rho = integrate(ScalarField(spec, rho * dens))
    i_u = 0.0 if u2 is None else 0.5 * integrate(ScalarField(spec, rho * u2 * dens))
    i_xi = integrate(ScalarField(spec, fields.xi.values * rho)) / (2.0 * (probe.s - t))
    return i_rho, i_u, i_xi


@dataclass
class MonotonicityReport:
    """Windowed check of the kernel-energy inequality.

    lhs is the change of the kernel-weighted energy over [t0, t1]; transport
    and discrepancy are the time quadratures of the two structural terms;
    tail_factor multiplies the unknown constant of the cutoff-boundary term.
    fitted_c is the smallest constant making lhs <= rhs.
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
        self.fitted_c = max(0.0, self.residual / self.tail_factor) if self.tail_factor > 0 else 0.0

    def holds_with(self, c: float, slack: float = 0.05) -> bool:
        return self.residual <= c * self.tail_factor + slack * abs(self.scale)


def _window_series(traj: "Trajectory", t0: float, t1: float, per_frame, drive: bool = False):
    """(times, values): ``per_frame(t, frame fields)`` at each retained frame in [t0, t1]."""
    idx = [i for i, t in enumerate(traj.times) if t0 - 1e-12 <= t <= t1 + 1e-12]
    if len(idx) < 2:
        raise MeasureError(
            f"window [{t0:g}, {t1:g}] covers {len(idx)} retained frames; need at least 2"
        )
    cfg = traj.cfg
    vals = [
        per_frame(traj.times[i], frame_fields(traj.frames[i], cfg.epsilon, cfg.well, drive))
        for i in idx
    ]
    return np.asarray([traj.times[i] for i in idx]), np.asarray(vals)


def monotonicity_check(
    traj: "Trajectory", probe: HuiskenProbe, t0: float, t1: float
) -> MonotonicityReport:
    """Evaluate the kernel-energy inequality over [t0, t1] for one probe.

    Trapezoid quadrature of ``kernel_terms`` on the retained-frame schedule;
    the discrepancy term uses the signed discrepancy, and the tail term is
    the kernel-cutoff leakage factor integral exp(-1/(128(s-t))) mu_t(B_{1/4}(y)) dt.
    """
    cfg = traj.cfg
    probe.validate(cfg.grid)
    if not t0 < t1 < probe.s:
        raise MeasureError(f"need t0 < t1 < s, got {t0:g}, {t1:g}, {probe.s:g}")
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)

    def per_frame(t, ff):
        leak = math.exp(-1.0 / (128.0 * (probe.s - t)))
        mass = ball_integrate(ff.density, probe.y, 0.25, clip_ok=True)
        return kernel_terms(ff, probe, t, speed_sq(cfg.transport, pts, t)) + (leak * mass,)

    times, vals = _window_series(traj, t0, t1, per_frame)
    return MonotonicityReport(
        t0=float(times[0]),
        t1=float(times[-1]),
        lhs=float(vals[-1, 0] - vals[0, 0]),
        transport_term=float(np.trapezoid(vals[:, 1], times)),
        discrepancy_term=float(np.trapezoid(vals[:, 2], times)),
        tail_factor=float(np.trapezoid(vals[:, 3], times)),
        scale=float(np.max(vals[:, 0])),
    )


def transport_kernel_integral(
    traj: "Trajectory", probe: HuiskenProbe, t0: float, t1: float
) -> float:
    """Space-time integral of the kernel against |u|^2 dmu over [t0, t1]."""
    cfg = traj.cfg
    probe.validate(cfg.grid)
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)
    times, vals = _window_series(  # kernel_terms carries half of this integrand
        traj, t0, t1, lambda t, ff: kernel_terms(ff, probe, t, speed_sq(cfg.transport, pts, t))[1]
    )
    return float(2.0 * np.trapezoid(vals, times))


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


def velocity_l2(
    traj: "Trajectory",
    t0: float,
    t1: float,
    region: tuple[Sequence[float], Sequence[float]] | None = None,
) -> float:
    """Time integral of ``velocity_sq`` over [t0, t1] (region default Omega')."""
    region = region or traj.cfg.omega_prime()
    times, vals = _window_series(traj, t0, t1, lambda t, ff: velocity_sq(ff, region), drive=True)
    return float(np.trapezoid(vals, times))


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
    generator, so the result is reproducible.
    """
    spec = measure.spec
    if k_density is None:
        k_density = density_ratio(measure, stride=1, require_fit=False).max_ratio
    if k_density <= 0.0:
        return MeyersZiemerReport(0.0, k_density, trials, seed)
    rng = np.random.default_rng(seed)
    mesh = spec.meshgrid()
    ext = min(hi - lo for lo, hi in zip(spec.lo, spec.hi))
    r_lo, r_hi = 8.0 * spec.h, ext / 4.0
    best = 0.0
    for _ in range(trials):
        rho = rng.uniform(r_lo, r_hi)
        c = [rng.uniform(spec.lo[k] + rho, spec.hi[k] - rho) for k in range(spec.dim)]
        r = np.sqrt(sum((mesh[k] - c[k]) ** 2 for k in range(spec.dim)))
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


@dataclass
class GronwallReport:
    f0: float
    times: np.ndarray
    values: np.ndarray
    sup_dt_g: float
    max_step_increase: float  # max per-step increase of F, normalized by F(0)
    growth_rate: float  # max over t > 0 of log(F(t)/F(0)) / t

    def rate_bound_ok(self, slack: float = 0.05) -> bool:
        return self.growth_rate <= self.sup_dt_g + slack


def gronwall_check(traj: "Trajectory", steps_between: int | None = None) -> GronwallReport:
    """Track F(t) = integral exp(-g) dmu_t along the trajectory.

    Requires a gradient transport (g available); with static g the report's
    max_step_increase is the largest per-step gain of F relative to F(0).
    """
    cfg = traj.cfg
    if not cfg.transport.is_gradient:
        raise MeasureError("weighted-energy check needs a gradient transport (u = grad g)")
    spec = cfg.grid
    pts = np.stack(spec.meshgrid(), axis=-1)
    times = np.asarray(traj.times)
    vals = np.empty(times.size)
    for i, (t, phi) in enumerate(zip(traj.times, traj.frames)):
        ff = frame_fields(phi, cfg.epsilon, cfg.well)
        vals[i] = weighted_energy(ff, gronwall_weight(cfg.transport, pts, t))
    f0 = vals[0]
    if steps_between is None:
        steps_between = getattr(traj, "steps_between", 1)
    diffs = np.diff(vals) / max(steps_between, 1)
    max_step_inc = float(np.max(diffs) / f0) if diffs.size else 0.0
    with np.errstate(divide="ignore"):
        rates = np.log(vals[1:] / f0) / times[1:]
    growth = float(np.max(rates)) if rates.size else 0.0
    sup_dtg = cfg.transport.sup_dt_g(spec, float(times[0]), float(times[-1]))
    return GronwallReport(f0, times, vals, sup_dtg, max_step_inc, growth)


# ---------------------------------------------------------------------------
# Per-time diagnostics record
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsRow:
    """One scheduled diagnostics sample; every field is finite.

    interface_radius is -1.0 when no interface exists; monotonicity_residual
    is the incremental kernel-energy surplus for the run's default probe.
    """

    t: float
    total_energy: float
    density_ratio_max: float
    sup_xi: float
    sup_xi_pos: float
    pos_xi_integral: float
    interface_radius: float
    monotonicity_residual: float
    gronwall_factor: float
    velocity_sq: float
    max_abs_phi: float

    CSV_HEADER = (
        "t,total_energy,density_ratio_max,sup_xi,sup_xi_pos,pos_xi_integral,"
        "interface_radius,monotonicity_residual,gronwall_factor,velocity_sq,max_abs_phi"
    )

    def to_csv_line(self) -> str:
        return ",".join(repr(float(v)) for v in astuple(self))

    @classmethod
    def from_csv_line(cls, line: str) -> "DiagnosticsRow":
        parts = [float(v) for v in line.strip().split(",")]
        return cls(*parts)
