"""Geometric-measure diagnostics for diffuse-interface energies: the per-frame
formulas of the diagnostics rows.

Everything here is a pure function of phase-field snapshots: the energy
measure (density eps |grad phi|^2 / 2 + W(phi)/eps), the discrepancy between
its two halves, ball masses and density ratios, the Groenwall weight, and
the truncated backward heat kernels of the probes with their kernel terms.
The offline inequality checks built on them (the near-monotonicity of the
kernel energy, the scaled density ratio, the Meyers-Ziemer probe, the
weighted-energy growth check) live in ``checks``, which a run never loads.

Per-frame quantities are computed once: ``frame_fields`` (|grad phi|^2 and
W in one sweep, which writes the density and reduces the discrepancy xi on
a window as it goes, so that xi never becomes a field there) plus the
per-frame scalars built on it, ``box_fields`` (both fields on a box of
nodes, with the same bits: the one place where a box face's ghost node is
formed) and ``velocity_sq`` (whose drive is the step's own
``grid.stencil_rhs``). ``solver.RowBuilder`` assembles them into the
diagnostics row, which ``solver.run`` writes and ``actx diagnose`` prints.
The rows are the record of every per-frame diagnostic: the growth check
(``checks.gronwall_report``) reads them. Snapshot frames are read back only
for what the rows cannot hold: ``checks.monotonicity_check`` for probes
chosen after the run (it builds each frame's density once for all its
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
it only by rounding; only the centres asked for are computed.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .grid import (
    CHUNK,
    GridError,
    SLAB_NODES,
    GridSpec,
    ScalarField,
    _check_finite,
    _sweep,
    ball_window,
    integrate,
    outer_sum_sq,
    pack,
    stencil_rhs,
    sum_sq,
    trapezoid,
)
from ._frame import _fields_blocks
from .potential import DoubleWell, _smoothstep
from .scenario import Transport, transport_field


class MeasureError(ValueError):
    """Raised for empty sample sets, bad probes, or invalid windows."""


# ---------------------------------------------------------------------------
# Per-frame fields: energy density, discrepancy, drive
# ---------------------------------------------------------------------------


@dataclass
class FrameFields:
    """What one sweep over the frame phi made: the field density = eps |grad
    phi|^2/2 + W(phi)/eps, and of the discrepancy xi = eps |grad phi|^2/2 -
    W(phi)/eps on a window its max and the trapezoid integral of its positive
    part (nan without a window). ``eps`` and ``well`` are the frame's, for
    ``box_fields`` on phi."""

    phi: ScalarField
    eps: float
    well: DoubleWell
    density: ScalarField
    sup_xi: float = math.nan
    pos_xi_integral: float = math.nan

    def measure(self) -> "EnergyMeasure":
        return EnergyMeasure.of(self.density)


def frame_fields(phi: ScalarField, eps: float, well: DoubleWell, out: np.ndarray | None = None,
                 window: tuple[slice, ...] | None = None) -> FrameFields:
    """|grad phi|^2 and W in one sweep over the flattened frame, in the blocks of
    ``grid.stencil_rhs`` (``grid._sweep``: split among a team's processes when
    phi and ``out`` are its fields), each through every term before the
    next: the density goes into a fresh field or into ``out`` (C-contiguous,
    of phi's shape, not phi's memory), and xi only into each block's scratch.

    With a ``window`` (index slices of step 1, holding no face node), each
    block also reduces xi on its part of the window: its max, and per axis-0
    slab the sum of xi^+ = max(xi, 0) with half weights on the edges of axes
    >= 1, over the slab's trailing axes in one call. A block is whole slabs,
    so every slab's sum is made in one process; ``pos_xi_integral`` is the
    sum of the slab sums in slab order, the window's two end slabs at half
    weight, times h^n: the trapezoid rule of ``grid.trapezoid``, with the
    same bits at any process count.

    |grad phi|^2 is sum_k ((up_k - dn_k) / 2h)^2 in axis order, where a face
    node takes the ghost node 2 f_face - f_inner along the face's axis. The
    sweep covers the nodes off the two axis-0 faces, as ``stencil_rhs`` does,
    and wraps around on the faces of the other axes; every face is then
    redone by ``box_fields`` on strips of about ``grid.CHUNK // 4`` face
    nodes (an axis-0 face cut along axis 1, every other face along axis 0):
    at 97^3 a row then peaks at 0.066 of a field above its inputs, against
    0.110 with a whole face at a time. A non-finite density, found from the
    blocks' and strips' sums, raises ``GridError`` with its first node.
    """
    v, h = phi.values, phi.spec.h
    density = np.empty(v.shape) if out is None else out
    if window is not None:
        if any(sl.start < 1 or sl.stop > n - 1 for sl, n in zip(window, v.shape)):
            raise MeasureError(f"window {window} reaches the box faces")
        if any(sl.stop <= sl.start for sl in window):
            raise MeasureError(f"window {window} holds no node")
    s0 = v.strides[0] // v.itemsize
    # per block its density sum and the max of xi on its part of the window; per slab its xi^+ sum
    rows, slabs = _sweep(_fields_blocks, s0, v.size - s0, s0, (v, density, None), (h, eps, well, window), slabs=True)
    faces = 0.0
    for k, n in enumerate(v.shape):
        c = 1 if k == 0 else 0  # the axis the face is cut along
        per = max(1, CHUNK // 4 // (v.size // n // v.shape[c]))  # indices along c per strip
        for e in (0, n - 1):
            for a in range(0, v.shape[c], per):
                strip = tuple(slice(e, e + 1) if j == k else slice(a, a + per) if j == c else slice(None)
                              for j in range(v.ndim))
                part = box_fields(phi, strip, eps, well)[0]
                density[strip] = part
                faces += part.sum()
    rows[-2:] = (faces, -math.inf), (0.0, -math.inf)  # the caller's two rows: the faces' density sum
    if not np.all(np.isfinite(rows[:, 0])):  # a non-finite node, or only an overflowing sum or wrapped face
        _check_finite(density, "scalar field")
    ff = FrameFields(phi, eps, well, ScalarField.from_checked(phi.spec, density))
    if window is not None:
        ff.sup_xi = float(np.max(rows[:, 1]))
        ff.pos_xi_integral = 0.0
        if min(sl.stop - sl.start for sl in window) > 1:  # else 0.0 with a warning, as grid.trapezoid gives
            sums = slabs[window[0].start - 1 : window[0].stop - 1, 0].copy()
            sums[[0, -1]] *= 0.5
            ff.pos_xi_integral = float(np.sum(sums) * h**v.ndim)
        else:
            warnings.warn("integration region contains no grid nodes (or a zero-volume slice)", stacklevel=2)
    return ff


def box_fields(phi: ScalarField, box: tuple[slice, ...], eps: float, well: DoubleWell) -> tuple[np.ndarray, np.ndarray]:
    """(density, xi) on the index sub-box ``box`` of phi's nodes (step-1
    slices), with the bits of the whole field's: the box with one more node
    on either side along every axis is copied, where the box meets a face
    the ghost node 2 f_face - f_inner takes the missing node's place, and
    ``frame_fields``' block kernel sweeps the copy. The only place where the
    ghost node is formed: ``frame_fields`` takes its faces from here, and
    ``checks.discrepancy_field`` the whole xi field. Its temporaries are the
    size of the box."""
    v = phi.values
    idx = [range(*sl.indices(n)) for sl, n in zip(box, v.shape)]
    pad = np.zeros(tuple(len(r) + 2 for r in idx))
    src = tuple(slice(max(r.start - 1, 0), min(r.stop + 1, n)) for r, n in zip(idx, v.shape))
    pad[tuple(slice(s.start - r.start + 1, s.stop - r.start + 1) for s, r in zip(src, idx))] = v[src]
    for k, (r, n) in enumerate(zip(idx, v.shape)):
        lead = (slice(None),) * k
        for ghost, face, inner, on_face in ((0, 1, 2, r.start == 0), (-1, -2, -3, r.stop == n)):
            if on_face:
                np.multiply(pad[lead + (face,)], 2.0, out=pad[lead + (ghost,)])
                pad[lead + (ghost,)] -= pad[lead + (inner,)]
    out = np.empty((2,) + pad.shape)  # density and xi; the copy's own faces are left unset
    s0 = pad.size // pad.shape[0]
    _fields_blocks(((0, s0, pad.size - s0),), (pad, out[0], out[1]), (phi.spec.h, eps, well, None), np.empty((1, 2)))
    core = (slice(1, -1),) * v.ndim
    return out[0][core], out[1][core]


@dataclass
class EnergyMeasure:
    """Diffuse interface energy: density field and its integral."""

    spec: GridSpec
    density: ScalarField
    total: float

    @classmethod
    def of(cls, density: ScalarField) -> "EnergyMeasure":
        """The measure with this density: the field and its ``grid.integrate``."""
        return cls(density.spec, density, integrate(density))

    @classmethod
    def from_phase(cls, phi: ScalarField, eps: float, well: DoubleWell) -> "EnergyMeasure":
        return frame_fields(phi, eps, well).measure()


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


def energy_totals(density: np.ndarray, h: float, weight: np.ndarray | None) -> tuple[float, float]:
    """(int dmu, int weight dmu) from the density's node values on the whole box,
    which are overwritten: ``grid.trapezoid`` halves its face slices in place
    and sums it, the bits of ``integrate``; the halved density is then
    multiplied by the weight in place and summed. Halving commutes with
    rounding, so the second has the bits of ``weighted_energy``. Weight None
    stands for 1."""
    total = trapezoid(density, h)
    if weight is None:
        return total, total
    density *= weight
    return total, float(np.sum(density) * h**density.ndim)


def weighted_energy(mu: EnergyMeasure, weight: np.ndarray | None) -> float:
    """int weight dmu, the Groenwall factor F(t) for weight = ``gronwall_weight``,
    as the trapezoid of the product field; ``mu.total`` for weight None. The
    rows take it from ``energy_totals``, with the same bits."""
    if weight is None:
        return mu.total
    return trapezoid(weight * mu.density.values, mu.spec.h)


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


def ball_masses(measure: EnergyMeasure | FrameFields, radius: float, centres: Sequence[slice]) -> np.ndarray:
    """mu(B_radius(x)) at the nodes x of the sub-lattice ``centres`` (one index
    slice per axis), for the density of ``measure``; balls are clipped at the box.

    A prefix sum along axis 0, padded by m = ceil(r/h) rows clamped to its end
    values and m zero columns on the other axes, turns the ball mass into a
    sum of chord differences, one per offset line of the ball, added in the
    order of ``_ball_lines``. The prefix sum is built for one slab of axis-1
    centre columns at a time, with the m columns on either side that its
    balls reach: a slab holds about ``SLAB_NODES`` nodes, or, where that is
    more, 2m + 1 columns (one centre column) for sampled centres and 4m + 1
    (2m + 1 centre columns) when the centres are every node along axis 1. A
    strided slab thus stays near ``SLAB_NODES`` on a 97^3 grid too (at least
    4m + 1 columns took 0.1 of a field there), while a stride-1 slab sums at
    most about twice its centre columns, instead of 2m + 1 columns for each
    one. A column's prefix sum and a centre's chords do not depend on the
    slab, so the masses have the bits of one whole-box prefix sum.
    """
    spec = measure.density.spec
    vals = measure.density.values
    m, lines = _ball_lines(spec, radius)
    sub = [range(*sl.indices(n)) for sl, n in zip(centres, vals.shape)]
    out = np.zeros(tuple(len(r) for r in sub))
    if out.size == 0:
        return out
    n0, n1 = vals.shape[:2]
    rest = tuple(slice(m, m + n) for n in vals.shape[2:])
    column = (n0 + 2 * m + 1) * math.prod(n + 2 * m for n in vals.shape[2:])
    least = (4 if sub[1].step == 1 else 2) * m + 1  # a slab's fewest columns
    span = max(SLAB_NODES // column, least) - 2 * m  # centre columns' extent per slab
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
    measure: EnergyMeasure | FrameFields,
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
    mu is the density of ``measure`` (``ball_masses``).
    """
    spec = measure.density.spec
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


@dataclass(frozen=True, eq=False)
class ProbeGeometry:
    """The time-independent part of a probe's kernel on one grid.

    ``box`` is the index sub-box of the nodes within r_outer of y along every
    axis: it holds every node where the kernel can be nonzero, and a probe
    that passes ``validate`` has none of those on the box faces but within
    rounding of r_outer (where the kernel is at most rounding), so sums over
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
    on the probe's box only: the density is read from ``fields``, and xi there
    is ``box_fields`` of the frame; |U|^2 is the sum over the leading
    (component) axis of the grid's cached U (``scenario.transport_field``) and
    m(t)^2 scales its integral.
    """
    spec = fields.density.spec
    geo = probe_geometry(probe, spec)
    xi = box_fields(fields.phi, geo.box, fields.eps, fields.well)[1]  # first: its temporaries are the most
    rho = _kernel(probe, geo.r2, geo.cutoff, t, spec.dim)
    i_xi = _box_integral(xi * rho, geo, spec) / (2.0 * (probe.s - t))
    del xi
    dens = fields.density.values[geo.box]
    i_rho = _box_integral(rho * dens, geo, spec)
    u, m = transport_field(transport, spec).u, transport.m(t)
    i_u = 0.0
    if u is not None:  # U is component-major: the box indexes the axes behind the components
        i_u = 0.5 * m * m * _box_integral(rho * sum_sq(u[(slice(None),) + geo.box], axis=0) * dens, geo, spec)
    return i_rho, i_u, i_xi


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
