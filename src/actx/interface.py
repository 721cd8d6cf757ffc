"""Zero-level-set extraction and exact radial flow oracles.

Extraction places vertices on cell edges whose endpoint values straddle zero
(linear interpolation). One table-driven extractor serves both dimensions, the
square being the cube's z = 0 face; each cell edge's crossing is computed once
per active cell, and 2D saddle cells are resolved by the cell-average sign. A
node value of exactly zero counts as the non-negative side, so fields like
``x - 0.5`` reproduce their level line through the nodes exactly.

The radial oracle integrates dR/dt = -(n-1)/R + c R through the substitution
y = R^2, whose evolution y' = 2c y - 2(n-1) is linear: the RK4 iteration then
has a closed per-step affine form, which this module evaluates directly. That
keeps the nominal step t_end * 1e-6 while making extinction times exact to
rounding instead of blowing up in the 1/R singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mc_tables import EDGE_VERTICES, TRIANGLE_TABLE
from .grid import SLAB_NODES, ScalarField


class InterfaceError(ValueError):
    """Raised for empty-set misuse or bad oracle parameters."""


@dataclass
class InterfaceSet:
    """Discrete interface: segment soup (n=2) or triangle soup (n=3).

    ``elements`` has shape (m, 2, 2) for segments or (m, 3, 3) for triangles.
    Endpoints shared between neighboring cells appear once per incident
    element; ``vertices`` therefore contains near-duplicates, which the
    distance-based consumers tolerate.
    """

    dim: int
    elements: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.elements.shape[0] == 0

    @property
    def vertices(self) -> np.ndarray:
        return self.elements.reshape(-1, self.dim)

    def total_measure(self) -> float:
        """Total polyline length (n=2) or triangle area (n=3)."""
        if self.is_empty:
            return 0.0
        if self.dim == 2:
            d = self.elements[:, 1] - self.elements[:, 0]
            return float(np.sum(np.sqrt(np.sum(d * d, axis=-1))))
        a = self.elements[:, 1] - self.elements[:, 0]
        b = self.elements[:, 2] - self.elements[:, 0]
        return float(0.5 * np.sum(np.linalg.norm(np.cross(a, b), axis=-1)))


# Offset of corner k from a cell's lowest node. The square's corners are the
# cube's z = 0 face, so in both dimensions cell edge e joins the corners
# EDGE_VERTICES[e]; the square's edges are the first four.
_CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)

# Marching-squares segments per corner code (bit k set where corner k is
# negative) as pairs of cell edges, in output order. The saddle codes 5 and 10
# gain bit 4 (21, 26) when their cell average is not negative.
_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 4: ((1, 2),), 8: ((2, 3),),
    3: ((3, 1),), 6: ((0, 2),), 12: ((1, 3),), 9: ((2, 0),),
    7: ((3, 2),), 11: ((2, 1),), 13: ((1, 0),), 14: ((0, 3),),
    5: ((0, 1), (2, 3)), 21: ((3, 0), (1, 2)),
    10: ((3, 0), (1, 2)), 26: ((0, 1), (2, 3)),
}


def _case_table(cases: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(cell edge of each element vertex per code, -1 padded; output rank per
    code) from ``cases``: each code's elements' edges, flat, in output order."""
    rows = [[] for _ in range(max(cases) + 1)]
    rank = [0] * len(rows)
    for r, (code, edges) in enumerate(cases.items()):
        rows[code], rank[code] = list(edges), r
    width = max(map(len, rows))
    padded = [row + [-1] * (width - len(row)) for row in rows]
    return np.reshape(np.array(padded, dtype=np.intp), (len(rows), -1, dim)), np.array(rank)


_TABLES = {
    2: _case_table({code: sum(pairs, ()) for code, pairs in _SEGMENTS.items()}, 2),
    3: _case_table({code: row[: row.index(-1)] for code, row in enumerate(TRIANGLE_TABLE)}, 3),
}


def extract_interface(phi: ScalarField) -> InterfaceSet:
    """Zero level set of phi; an empty set is the valid 'vanished' outcome.

    Elements are ordered by code (in table order), place in the code's entry
    and cell (row-major).
    """
    spec, v, n = phi.spec, phi.values, phi.spec.dim
    offsets = [o[:n] for o in _CORNERS[: 2**n]]
    # a cell is active if some corner is negative and not all are: one bool
    # pass over the nodes, reduced axis by axis with | and &, for one axis-0
    # slab of cells (and its nodes) at a time, so no mask is field-sized
    per_slab = math.prod(spec.cells[1:])  # cells per axis-0 slab
    rows = max(1, SLAB_NODES // per_slab)
    active = []
    for i in range(0, spec.cells[0], rows):
        some = every = v[i : i + rows + 1] < 0.0
        for k in range(n):
            lo, hi = (slice(None),) * k + (slice(None, -1),), (slice(None),) * k + (slice(1, None),)
            some, every = some[lo] | some[hi], every[lo] & every[hi]
        active.append(np.flatnonzero(some ^ every) + i * per_slab)  # every implies some
    cells = np.unravel_index(np.concatenate(active), spec.cells)
    # corner values and codes at the active cells only, from flat node indices
    base = np.ravel_multi_index(cells, spec.nodes)
    steps = [st // v.itemsize for st in v.strides]
    corner = [base + sum(o * st for o, st in zip(off, steps)) for off in offsets]
    f = [v.reshape(-1)[idx] for idx in corner]
    codes = np.zeros(base.size, dtype=np.int16)
    for bit, fk in enumerate(f):
        codes |= (fk < 0.0).astype(np.int16) << bit
    if n == 2:
        avg = 0.25 * (f[0] + f[1] + f[2] + f[3])
        codes[((codes == 5) | (codes == 10)) & ~(avg < 0.0)] |= 16
    axes = spec.axes()
    pairs = [ab for ab in EDGE_VERTICES if max(ab) < len(offsets)]
    pts = np.empty((codes.size, len(pairs), n))  # the crossing on every cell edge
    with np.errstate(divide="ignore", invalid="ignore"):  # edges without a sign change
        for e, (a, b) in enumerate(pairs):
            t = f[a] / (f[a] - f[b])
            for k in range(n):
                xa = axes[k][cells[k] + offsets[a][k]]
                xb = axes[k][cells[k] + offsets[b][k]]
                pts[:, e, k] = xa + t * (xb - xa)
    edges, rank = _TABLES[n]
    table = edges[codes]
    cell, m = np.nonzero(table[:, :, 0] >= 0)
    order = np.argsort(rank[codes[cell]] * table.shape[1] + m, kind="stable")
    cell, m = cell[order], m[order]
    return InterfaceSet(n, pts[cell[:, None], table[cell, m]])


def radius_estimate(s: InterfaceSet, center) -> tuple[float, float]:
    """(mean vertex distance from center, spread = max - min distance).

    A large spread flags a non-circular interface; a square of half-width a
    spreads by (sqrt(2)-1) a.
    """
    if s.is_empty:
        raise InterfaceError("radius estimate of an empty interface")
    d = np.sqrt(np.sum((s.vertices - np.asarray(center)) ** 2, axis=-1))
    return float(np.mean(d)), float(np.max(d) - np.min(d))


# ---------------------------------------------------------------------------
# Radial mean-curvature-flow oracle
# ---------------------------------------------------------------------------


@dataclass
class RadiusTrajectory:
    times: np.ndarray
    radii: np.ndarray  # NaN after extinction
    extinction_time: float | None

    def radius(self, t: float) -> float:
        """Radius at the sample time closest to t."""
        i = int(np.argmin(np.abs(self.times - t)))
        return float(self.radii[i])


def mcf_oracle(r0: float, c: float, n: int, t_end: float, n_samples: int = 257) -> RadiusTrajectory:
    """Radial curvature flow with quadratic-potential forcing: dR/dt = -(n-1)/R + cR.

    Solved as the RK4 sequence for y = R^2 with step 1e-6 * t_end; sample
    times snap to the step lattice (off by at most half a step). Extinction
    (y reaching 0) is reported and later radii are NaN. An r0 or t_end that
    is not positive, n below 2 or fewer than 2 samples raises ``InterfaceError``.
    """
    if n < 2:
        raise InterfaceError(f"dimension n must be at least 2, got {n}")
    if n_samples < 2:
        raise InterfaceError(f"need at least 2 samples, got {n_samples}")
    if not r0 > 0.0:
        raise InterfaceError(f"initial radius must be positive, got {r0}")
    if not t_end > 0.0:
        raise InterfaceError(f"t_end must be positive, got {t_end}")
    a = 2.0 * c
    b = -2.0 * (n - 1)
    h = 1e-6 * t_end
    nsteps = round(t_end / h)
    z = a * h
    s_poly = 1.0 + z / 2.0 + z * z / 6.0 + z**3 / 24.0
    pm1 = z * s_poly  # p_amp - 1, formed directly to avoid cancellation
    p_amp = 1.0 + pm1
    q_off = b * h * s_poly
    y0 = r0 * r0

    ks = np.round(np.linspace(0.0, nsteps, n_samples)).astype(np.int64)
    times = ks * h
    if a == 0.0:
        y = y0 + ks * q_off
        ext_k = -y0 / q_off if q_off < 0 else math.inf
    else:
        yf = q_off / pm1
        y = (y0 + yf) * np.power(p_amp, ks.astype(np.float64)) - yf
        # zero of (y0 + yf) P^k - yf, if it lies at positive k
        ext_k = math.inf
        if y0 + yf != 0.0:
            ratio = yf / (y0 + yf)
            if ratio > 0.0:
                k_root = math.log(ratio) / math.log(p_amp)
                if k_root > 0.0:
                    ext_k = k_root
    extinct = ext_k <= nsteps
    radii = np.where(y > 0, np.sqrt(np.maximum(y, 0.0)), np.nan)
    if extinct:
        radii[ks >= ext_k] = np.nan
    return RadiusTrajectory(times, radii, ext_k * h if extinct else None)


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
