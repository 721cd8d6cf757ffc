"""Geometric-measure diagnostics for diffuse-interface energies.

Everything here is a pure function of phase-field snapshots or of the rows
a run wrote: the energy measure (density eps |grad phi|^2 / 2 + W(phi)/eps),
the discrepancy between its two halves, ball density ratios, truncated
backward heat kernels and the near-monotonicity of their energy integrals, a
Meyers-Ziemer ratio probe, and the weighted-energy growth check.

Per-frame quantities are computed once: ``frame_fields`` (|grad phi|^2 and
W) plus the per-frame scalars built on it and ``velocity_sq`` (whose drive
is the step's own ``grid.stencil_rhs``). ``solver.RowBuilder`` assembles
them into the diagnostics row, which ``solver.run`` writes and ``actx
diagnose`` prints. The rows are the record of every per-frame diagnostic:
the growth check (``gronwall_report``) reads them. Snapshot frames are read
back only for what the rows cannot hold: ``monotonicity_check`` for probes
chosen after the run (it builds each frame's fields once for all its
probes), the scaled density ratio and the Meyers-Ziemer probe.

The truncated backward kernel of a probe vanishes off B_{r_outer}(y), so it
and the integrals it weights are evaluated on the probe's bounding sub-box
only. Each probe's geometry on a grid (the sub-box, r^2 and the cutoff on it,
and the B_{1/4}(y) window of the tail term) is built once and cached; per
frame only amp exp(-r^2/(4(s - t))) is computed. A transport m(t) U enters
as |U|^2 on that box, with m(t)^2 scaling its integral.

Ball masses over a lattice of centres are exact lattice sums: after a
prefix sum along the first axis (built one slab of columns at a time), the
mass of a ball is the sum of one chord
difference per offset line of the ball (a summed-area table), so it counts
exactly the nodes that the direct ``ball_integrate`` counts and differs from
it only by rounding; only the centres asked for are computed. Inequality
checks report fitted constants instead of asserting universal ones, and
acceptance pins the stability of those fits across refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import (
    GridError,
    SLAB_NODES,
    GridSpec,
    ScalarField,
    _check_finite,
    _sweep,
    ball_integrate,
    ball_window,
    integrate,
    outer_sum_sq,
    pack,
    stencil_rhs,
    sum_sq,
    trapezoid,
    window_integral,
)
from .potential import DoubleWell, _smoothstep
from .scenario import Transport, transport_field

if TYPE_CHECKING:
    from .solver import Trajectory


class MeasureError(ValueError):
    """Raised for empty sample sets, bad probes, or invalid windows."""


# ---------------------------------------------------------------------------
# Per-frame fields: energy density, discrepancy, drive
# ---------------------------------------------------------------------------


@dataclass
class FrameFields:
    """Pointwise fields of one frame: density = eps |grad phi|^2/2 + W(phi)/eps
    and xi = eps |grad phi|^2/2 - W(phi)/eps."""

    density: ScalarField
    xi: ScalarField

    def measure(self) -> "EnergyMeasure":
        return EnergyMeasure.of(self.density)


def frame_fields(phi: ScalarField, eps: float, well: DoubleWell,
                 out: tuple[np.ndarray, np.ndarray] | None = None) -> FrameFields:
    """|grad phi|^2 and W in one sweep over the flattened frame, in the blocks of
    ``grid.stencil_rhs`` (``grid._sweep``: split among a team's processes when
    phi and ``out`` are its fields), each through every term before the next:
    density and xi are written straight into their two fields, fresh ones or
    the (density, xi) arrays ``out`` (C-contiguous, of phi's shape, sharing no
    memory with phi or each other).

    |grad phi|^2 is sum_k ((up_k - dn_k) / 2h)^2 in axis order, where a face
    node takes the ghost node 2 f_face - f_inner along the face's axis. The
    sweep covers the nodes off the two axis-0 faces, as ``stencil_rhs`` does,
    and wraps around on the faces of the other axes; every face is then
    redone (``_faces_2d``, ``_faces_by_axis``). A non-finite node, found from
    the blocks' sums, raises ``GridError`` with its index.
    """
    v, h = phi.values, phi.spec.h
    density, xi = (np.empty(v.shape), np.empty(v.shape)) if out is None else out
    s0 = v.strides[0] // v.itemsize
    # the sums of each block's density and xi, then of the faces'
    sums = _sweep(_fields_blocks, s0, v.size - s0, s0, (v, density, xi), (h, eps, well))
    sums[-2:] = (_faces_2d if v.ndim == 2 else _faces_by_axis)(v, h, eps, well, density, xi), 0.0
    if not np.all(np.isfinite(sums)):  # a non-finite node, or only an overflowing sum or wrapped face
        _check_finite(density, "scalar field")
        _check_finite(xi, "scalar field")
    return FrameFields(ScalarField.from_checked(phi.spec, density), ScalarField.from_checked(phi.spec, xi))


def _fields_blocks(blocks, arrays: tuple, scalars: tuple, sums: np.ndarray) -> None:
    """``frame_fields``'s sweep over ``blocks`` (index, start, end) of the arrays
    (phi, density, xi) with the scalars (h, eps, well): each block's density
    and xi, and their sums into ``sums``. A ``grid._sweep`` kernel, which runs
    in a helper process too."""
    v, density, xi = arrays
    h, eps, well = scalars
    flat, dens_flat, xi_flat = v.reshape(-1), density.reshape(-1), xi.reshape(-1)
    steps = [st // v.itemsize for st in v.strides]
    scratch = np.empty(max(b - a for _, a, b in blocks))
    for i, a, b in blocks:
        work = scratch[: b - a]
        diffs = (np.subtract(flat[a + st : b + st], flat[a - st : b - st], out=work) for st in steps)
        _fields_into(diffs, flat[a:b], h, eps, well, dens_flat[a:b], xi_flat[a:b], work)
        sums[i] = dens_flat[a:b].sum(), xi_flat[a:b].sum()


def _fields_into(diffs, f: np.ndarray, h: float, eps: float, well: DoubleWell,
                 density: np.ndarray, xi: np.ndarray, work: np.ndarray) -> None:
    """density = eps |grad|^2/2 + W(f)/eps and xi = eps |grad|^2/2 - W(f)/eps into
    the two arrays, from the values ``f`` and ``diffs``, which yields up_k - dn_k
    for each axis k in turn, in an array the sum may overwrite. ``work`` is an
    array of f's shape, which may hold the diffs; W goes there, while xi holds
    1 - f^2 until it gets its value."""
    for k, g in enumerate(diffs):
        g /= 2.0 * h
        if k == 0:
            np.multiply(g, g, out=density)
        else:
            g *= g
            density += g
    density *= 0.5 * eps
    well_half = well.w(f, out=work, work=xi)
    well_half /= eps
    np.subtract(density, well_half, out=xi)
    density += well_half


@functools.lru_cache(maxsize=8)
def _boundary_2d(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """The boundary nodes of a 2D field by flat index, c, and per axis k (rows of
    (2, len(c)) arrays) the flat indices of their two neighbours along k, up and
    dn, with the masks ``first`` and ``last`` of the nodes on the axis's first
    and last face: there dn (first) or up (last) names the inner neighbour."""
    mask = np.ones(shape, dtype=bool)
    mask[1:-1, 1:-1] = False
    c = np.flatnonzero(mask)
    pos = np.unravel_index(c, shape)
    first = np.array([p == 0 for p in pos])
    last = np.array([p == n - 1 for p, n in zip(pos, shape)])
    up = np.array([c + shape[1], c + 1])
    dn = np.array([c - shape[1], c - 1])
    up[last], dn[first] = dn[last], up[first]
    return c, up, dn, first, last


def _faces_2d(v: np.ndarray, h: float, eps: float, well: DoubleWell,
              density: np.ndarray, xi: np.ndarray) -> float:
    """Density and xi on every boundary node of a 2D frame, in a few calls over one
    gather of those nodes (``_boundary_2d``); returns the sum of both there. On
    a face the difference is f_in - (2 f - f_in) or (2 f - f_in) - f_in, as
    ``_end_diff`` forms it."""
    c, up, dn, first, last = _boundary_2d(v.shape)
    flat = v.reshape(-1)
    f = flat[c]
    f2 = f * 2.0
    g_up, g_dn = flat[up], flat[dn]
    np.subtract(f2, g_dn, out=g_up, where=last)
    np.subtract(f2, g_up, out=g_dn, where=first)
    np.subtract(g_up, g_dn, out=g_up)
    dens_b, xi_b = np.empty(f.shape), np.empty(f.shape)
    _fields_into(iter(g_up), f, h, eps, well, dens_b, xi_b, np.empty(f.shape))
    density.reshape(-1)[c], xi.reshape(-1)[c] = dens_b, xi_b
    return dens_b.sum() + xi_b.sum()


def _faces_by_axis(v: np.ndarray, h: float, eps: float, well: DoubleWell,
                   density: np.ndarray, xi: np.ndarray) -> float:
    """Density and xi on every face of a frame, one face at a time and axis by
    axis (where faces meet, the last axis's value stays); returns the sum of
    both there. A face takes five arrays of its size: its copy, its density
    and xi, W and its differences along each axis in turn. In 3D a gather like
    ``_faces_2d``'s was slower (97^3: 2.4 against 1.8 ms) and would keep index
    arrays of all 55 Ki boundary nodes."""
    total = 0.0
    buf = np.empty((5, max(v.size // n for n in v.shape)))
    for ax in range(v.ndim):
        planes = [a.swapaxes(0, ax) for a in (v, density, xi)]
        shape = planes[0].shape[1:]  # v's axes but ax, with axis 0 in ax's place
        f, g, work, dens_face, xi_face = (b[: math.prod(shape)].reshape(shape) for b in buf)
        for e, inner in ((0, 1), (-1, -2)):
            # the face and its inner neighbours copied (a face of the last axes
            # is strided), the latter into work, which W takes after the diffs
            np.copyto(f, planes[0][e])
            np.copyto(work, planes[0][inner])
            diffs = (_end_diff(f, work, e == 0, g) if k == ax
                     else _ghost_diff(f, (ax if k == 0 else k) - 1, g) for k in range(v.ndim))
            _fields_into(diffs, f, h, eps, well, dens_face, xi_face, work)
            planes[1][e], planes[2][e] = dens_face, xi_face
            total += dens_face.sum() + xi_face.sum()
    return total


def _end_diff(f: np.ndarray, f_in: np.ndarray, first: bool, out: np.ndarray) -> np.ndarray:
    """up - dn into ``out`` at end nodes f of an axis (its first end if
    ``first``) with inner neighbours f_in, the ghost node 2 f - f_in standing
    in for the missing neighbour."""
    np.multiply(f, 2.0, out=out)
    out -= f_in
    return np.subtract(f_in, out, out=out) if first else np.subtract(out, f_in, out=out)


def _ghost_diff(s: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """up - dn along ``axis`` at every node of ``s``, into ``out`` (both
    C-contiguous, of one shape): one flat run of differences st apart, st the
    axis's stride, then the nodes on either end by ``_end_diff``. A slice off
    the last axis would be buffered by numpy (97^2: 2.6 arrays of s's size)."""
    st = s.strides[axis] // s.itemsize
    np.subtract(s.reshape(-1)[2 * st :], s.reshape(-1)[: -2 * st], out=out.reshape(-1)[st:-st])
    for sl, inner, first in ((slice(None, 1), slice(1, 2), True), (slice(-1, None), slice(-2, -1), False)):
        ends = (slice(None),) * axis + (sl,)
        _end_diff(s[ends], s[(slice(None),) * axis + (inner,)], first, out[ends])
    return out


@dataclass
class EnergyMeasure:
    """Diffuse interface energy: density field and its integral."""

    spec: GridSpec
    density: ScalarField
    total: float

    @classmethod
    def of(cls, density: ScalarField, scratch: np.ndarray | None = None) -> "EnergyMeasure":
        """The measure with this density: the field and its ``grid.integrate``,
        which copies the density into ``scratch`` when given."""
        return cls(density.spec, density, integrate(density, out=scratch))

    @classmethod
    def from_phase(cls, phi: ScalarField, eps: float, well: DoubleWell) -> "EnergyMeasure":
        return frame_fields(phi, eps, well).measure()


def discrepancy_field(phi: ScalarField, eps: float, well: DoubleWell) -> ScalarField:
    """xi = eps |grad phi|^2 / 2 - W(phi)/eps; vanishes on the exact 1D profile."""
    return frame_fields(phi, eps, well).xi


def velocity_sq(
    phi: ScalarField, eps: float, well: DoubleWell, region: tuple[Sequence[float], Sequence[float]],
    out: np.ndarray | None = None,
) -> float:
    """int_region eps (lap phi - W'(phi)/eps^2)^2 dx, with the drive formed by the
    step's own ``grid.stencil_rhs`` without transport. The drive is not formed
    on the box faces, so a region reaching them raises.

    The drive goes into a fresh field or into ``out`` (C-contiguous, of phi's
    shape, not phi's memory), which then holds eps drive^2 on the region's
    window, packed to its front (``grid.pack``) for the trapezoid."""
    spec = phi.spec
    window = spec.box_slices(region)
    if any(sl.start == 0 or sl.stop == n for sl, n in zip(window, spec.nodes)):
        lo, hi = (tuple(c) for c in region)
        raise MeasureError(f"region {lo}..{hi} reaches the box faces, where the drive is not formed")
    drive = np.empty(spec.nodes) if out is None else out
    stencil_rhs(phi.values, None, spec.h, eps, well, drive)
    vals = drive[window]
    np.square(vals, out=vals)
    vals *= eps
    return trapezoid(pack(drive, window), spec.h)


def gronwall_weight(transport: Transport, spec: GridSpec, t: float) -> np.ndarray | None:
    """exp(-g) = exp(-m(t) G) at the nodes of ``spec`` from the grid's cached G,
    for a gradient transport u = grad g; None (weight 1) for one without G."""
    g = transport_field(transport, spec).g
    return None if g is None else np.exp(-(transport.m(t) * g))


def weighted_energy(mu: EnergyMeasure, weight: np.ndarray | None, out: np.ndarray | None = None) -> float:
    """int weight dmu, the Groenwall factor F(t) for weight = ``gronwall_weight``;
    ``mu.total`` for weight None. The product is formed in a fresh field or in
    ``out`` (of the density's shape) and summed there."""
    if weight is None:
        return mu.total
    prod = ScalarField(mu.spec, np.multiply(weight, mu.density.values, out=out))
    return trapezoid(prod.values, mu.spec.h)


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


def _ball_lines(spec: GridSpec, radius: float) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """(m, lines): the ball of lattice offsets k h with |k h|^2 < r^2 (1 - 1e-12),
    m = ceil(r/h), as one (half-length along axis 0, offset on the other axes)
    pair per offset line that meets it.

    The squared distances are summed axis by axis from the offsets k h, and
    nodes at exactly the radius stay out, as in ``ball_integrate``.
    """
    m = int(math.ceil(radius / spec.h))
    d2 = outer_sum_sq([np.arange(-m, m + 1) * spec.h] * spec.dim)
    # nodes per offset line; the ball is symmetric along axis 0, so 2a + 1
    count = np.count_nonzero(d2 < radius**2 * (1.0 - 1e-12), axis=0)
    return m, [(int(count[off]) // 2, tuple(int(i) - m for i in off)) for off in zip(*np.nonzero(count))]


def ball_masses(measure: EnergyMeasure, radius: float, centres: Sequence[slice]) -> np.ndarray:
    """mu(B_radius(x)) at the nodes x of the sub-lattice ``centres`` (one index
    slice per axis); balls are clipped at the box.

    A prefix sum along axis 0, padded by m = ceil(r/h) rows clamped to its end
    values and m zero columns on the other axes, turns the ball mass into a
    sum of chord differences, one per offset line of the ball, added in the
    order of ``_ball_lines``. The prefix sum is built for one slab of axis-1
    centre columns at a time, with the m columns on either side that its
    balls reach: a slab holds about ``SLAB_NODES`` nodes, or 2m + 1 columns
    (one centre column) where that is more, so that the slab stays near
    ``SLAB_NODES`` on a 97^3 grid too (at least 4m + 1 columns took 0.1 of a
    field there). A column's prefix sum and a centre's chords do not depend
    on the slab, so the masses have the bits of one whole-box prefix sum.
    """
    spec = measure.spec
    vals = measure.density.values
    m, lines = _ball_lines(spec, radius)
    sub = [range(*sl.indices(n)) for sl, n in zip(centres, vals.shape)]
    out = np.zeros(tuple(len(r) for r in sub))
    if out.size == 0:
        return out
    n0, n1 = vals.shape[:2]
    rest = tuple(slice(m, m + n) for n in vals.shape[2:])
    column = (n0 + 2 * m + 1) * math.prod(n + 2 * m for n in vals.shape[2:])
    span = max(SLAB_NODES // column, 2 * m + 1) - 2 * m  # centre columns' extent per slab
    per = max(1, (span - 1) // sub[1].step + 1)  # centres per slab
    width = (min(len(sub[1]), per) - 1) * sub[1].step + 2 * m + 1  # the widest slab's columns
    cum = np.zeros((n0 + 2 * m + 1, width) + tuple(n + 2 * m for n in vals.shape[2:]))

    def shifted(r: range, by: int) -> slice:
        return slice(r.start + by, r.start + by + (len(r) - 1) * r.step + 1, r.step)

    for s in range(0, len(sub[1]), per):
        cols = sub[1][s : s + per]
        lo = cols.start - m  # the slab's first column; columns off the box are zero
        a, b = max(lo, 0), min(cols[-1] + m + 1, n1)
        cum[:, : a - lo] = 0.0
        cum[:, b - lo :] = 0.0
        np.cumsum(vals[:, a:b], axis=0, out=cum[(slice(m + 1, m + 1 + n0), slice(a - lo, b - lo)) + rest])
        cum[m + 1 + n0 :] = cum[m + n0]
        local = [sub[0], range(0, len(cols) * cols.step, cols.step)] + sub[2:]
        dst = out[:, s : s + per]
        chord = np.empty(dst.shape)
        for a_len, off in lines:
            offs = tuple(shifted(r, m + k) for r, k in zip(local[1:], off))
            np.subtract(cum[(shifted(local[0], m + a_len + 1),) + offs],
                        cum[(shifted(local[0], m - a_len),) + offs], out=chord)
            dst += chord
    return out * spec.h**spec.dim


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
    at interface points stay inside the inset box; the standard probe's radius.
    """
    return dyadic_radii(spec, probe_radius(inset))


def _index_slice(sl: slice, stride: int) -> slice | None:
    """The indices of the step-1 slice ``sl`` that are multiples of ``stride``,
    as a slice, or None if there are none."""
    start = -(-sl.start // stride) * stride
    return slice(start, sl.stop, stride) if start < sl.stop else None


def _lattice_argmax(vals: np.ndarray, axes: Sequence[np.ndarray], centres: Sequence[slice]):
    """(max of vals, coordinates of its first node) on the sub-lattice ``centres``."""
    i = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[i]), tuple(float(ax[sl][j]) for ax, sl, j in zip(axes, centres, i))


def density_ratio(
    measure: EnergyMeasure,
    radii: Sequence[float] | None = None,
    region: tuple[Sequence[float], Sequence[float]] | None = None,
    stride: int = 4,
    require_fit: bool = True,
) -> DensityRatioResult:
    """Max of mu(B_r(x)) / r^{n-1} over a (center, radius) lattice.

    Centers run over every ``stride``-th node of ``region`` (default the whole
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
    sampled = False
    axes = spec.axes()
    for r in radii:
        pad = r if require_fit else 0.0
        fit = ([lo + pad for lo in region[0]], [hi - pad for hi in region[1]])
        centres = [_index_slice(sl, stride) for sl in spec.box_slices(fit)]
        if None in centres:
            continue
        vals = ball_masses(measure, r, centres) / r**power
        sampled = True
        val, center = _lattice_argmax(vals, axes, centres)
        if val > best[0]:
            best = (val, center, r)

    if not sampled:
        raise MeasureError("no admissible (center, radius) samples in the region")
    return DensityRatioResult(*best)


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


# ---------------------------------------------------------------------------
# Truncated backward heat kernel and near-monotonicity
# ---------------------------------------------------------------------------


def probe_radius(inset: float) -> float:
    """d = min(inset/2, 1/4), the outer radius of the standard probe."""
    return min(inset / 2.0, 0.25)


@dataclass(frozen=True)
class HuiskenProbe:
    """Backward-kernel probe anchored at (y, s) with a C^2 radial cutoff.

    The cutoff is 1 on B_{r_inner}(y) and 0 off B_{r_outer}(y); the standard
    choice is r_inner = d/2, r_outer = d with d = ``probe_radius(inset)``.
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
        d = probe_radius(inset)
        return cls(tuple(float(v) for v in y), float(s), d / 2.0, d)

    def validate(self, spec: GridSpec) -> None:
        if len(self.y) != spec.dim:
            raise MeasureError(f"probe centre {self.y} needs {spec.dim} coordinates")
        r = self.r_outer
        if not spec.contains_box([v - r for v in self.y], [v + r for v in self.y]):
            raise MeasureError(f"probe ball B_{self.r_outer:g}({self.y}) leaves the domain box")

    def cutoff(self, dist: np.ndarray) -> np.ndarray:
        t = (dist - self.r_inner) / (self.r_outer - self.r_inner)
        return 1.0 - _smoothstep(t)


TAIL_RADIUS = 0.25  # the ball B_{1/4}(y) of the monotonicity check's tail term
MONOTONICITY_SLACK = 0.05  # share of the kernel-energy scale the residual may exceed c * tail by


@dataclass(frozen=True, eq=False)
class ProbeGeometry:
    """The time-independent part of a probe's kernel on one grid.

    ``box`` is the index sub-box of the nodes within r_outer of y along every
    axis: it holds every node where the kernel can be nonzero, and a probe
    that passes ``validate`` has none of those on the box faces, so sums over
    it need no trapezoid edge weights. ``r2`` and ``cutoff`` are the squared
    distance to y and the C^2 cutoff on it; ``tail`` is the ``ball_window`` of
    B_{1/4}(y). The arrays are shared and read-only.
    """

    box: tuple[slice, ...]
    r2: np.ndarray
    cutoff: np.ndarray
    tail: tuple[tuple[slice, ...], np.ndarray]


@functools.lru_cache(maxsize=32)
def probe_geometry(probe: HuiskenProbe, spec: GridSpec) -> ProbeGeometry:
    """The probe's ``ProbeGeometry`` on ``spec``, built once per (probe, grid);
    a probe whose ball leaves the box raises ``MeasureError``."""
    probe.validate(spec)
    box = []
    for ax, y in zip(spec.axes(), probe.y):
        # r >= |x_k - y_k| at every node, so the kernel vanishes off these nodes
        idx = np.nonzero(np.abs(ax - y) < probe.r_outer)[0]
        box.append(slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0))
    r2 = outer_sum_sq([ax[sl] - y for ax, sl, y in zip(spec.axes(), box, probe.y)])
    cutoff = probe.cutoff(np.sqrt(r2))
    tail = ball_window(spec, probe.y, TAIL_RADIUS)
    for arr in (r2, cutoff, tail[1]):
        arr.flags.writeable = False
    return ProbeGeometry(tuple(box), r2, cutoff, tail)


def _kernel(probe: HuiskenProbe, r2, cutoff, t: float, n: int):
    """Truncated backward codimension-one Gaussian at squared distance r2 from y,
    where the probe's cutoff is ``cutoff``."""
    if t >= probe.s:
        raise MeasureError(f"kernel needs t < s, got t={t:g}, s={probe.s:g}")
    tau = probe.s - t
    amp = (4.0 * math.pi * tau) ** (-(n - 1) / 2.0)
    return amp * np.exp(-r2 / (4.0 * tau)) * cutoff


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


def _box_integral(values: np.ndarray, geo: ProbeGeometry, spec: GridSpec) -> float:
    """Node sum of ``values`` on the probe's box times h^n; a non-finite entry
    raises ``GridError`` with its node index on the whole grid."""
    total = np.sum(values)
    if not np.isfinite(total) and not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        node = tuple(int(i) + sl.start for i, sl in zip(bad, geo.box))
        raise GridError(f"kernel-weighted field contains a non-finite entry at node index {node}")
    return float(total * spec.h**spec.dim)


def kernel_terms(
    fields: FrameFields, probe: HuiskenProbe, t: float, transport: Transport
) -> tuple[float, float, float]:
    """The probe-weighted scalars of one frame at time t.

    (int rho dmu, 1/2 int rho |u|^2 dmu, int xi rho / (2(s - t))) for the probe's
    kernel rho and the transport u = m(t) U. The products are formed and summed
    on the probe's box only; |U|^2 is the sum over the leading (component)
    axis of the grid's cached U (``scenario.transport_field``) and m(t)^2
    scales its integral.
    """
    spec = fields.density.spec
    geo = probe_geometry(probe, spec)
    rho = _kernel(probe, geo.r2, geo.cutoff, t, spec.dim)
    dens = fields.density.values[geo.box]
    i_rho = _box_integral(rho * dens, geo, spec)
    u, m = transport_field(transport, spec).u, transport.m(t)
    i_u = 0.0
    if u is not None:  # U is component-major: the box indexes the axes behind the components
        i_u = 0.5 * m * m * _box_integral(rho * sum_sq(u[(slice(None),) + geo.box], axis=0) * dens, geo, spec)
    i_xi = _box_integral(fields.xi.values[geo.box] * rho, geo, spec) / (2.0 * (probe.s - t))
    return i_rho, i_u, i_xi


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
    traj: "Trajectory", probes: Sequence[HuiskenProbe], t0: float, t1: float
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
    rows: Sequence["DiagnosticsRow"], sup_dt_g: float, diag_every: int
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
        if len(parts) != len(fields(cls)):
            raise ValueError(f"expected {len(fields(cls))} values, got {len(parts)}")
        return cls(*parts)
