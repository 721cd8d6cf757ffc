"""Zero-level-set extraction and exact radial flow oracles.

Extraction places vertices on cell edges whose endpoint values straddle zero
(linear interpolation). One table-driven extractor serves both dimensions, the
square being the cube's z = 0 face; a crossing is computed for each element
vertex, on the cell edge it lies on, and 2D saddle cells are resolved by the
cell-average sign. The field is read one slab at a time and the active cells
a piece at a time, so that no temporary is field-sized. A node value of
exactly zero counts as the non-negative side, so fields like ``x - 0.5``
reproduce their level line through the nodes exactly.

The radial oracle integrates dR/dt = -(n-1)/R + c R through the substitution
y = R^2, whose evolution y' = 2c y - 2(n-1) is linear: the RK4 iteration then
has a closed per-step affine form, which this module evaluates directly. That
keeps the nominal step t_end * 1e-6 while making extinction times exact to
rounding instead of blowing up in the 1/R singularity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


# Offset of corner k from a cell's lowest node. The square's corners are the
# cube's z = 0 face, so in both dimensions cell edge e joins the corners
# EDGE_VERTICES[e]; the square's edges are the first four.
_CORNERS = np.array([
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
], dtype=np.int8)
_EDGES = np.array(EDGE_VERTICES, dtype=np.int8)
_BITS = 1 << np.arange(8, dtype=np.uint8)  # corner k's bit of a code

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


class _Cases(NamedTuple):
    """A dimension's extraction table. An element is a code's ``place``-th in the
    code's entry; its id is code * places + place."""

    used: np.ndarray  # (codes, places): whether the element exists
    runs: np.ndarray  # the ids of the elements that exist, in output order
    ends: np.ndarray  # (ids, vertex, a|b): the corners of each vertex's cell edge
    sides: np.ndarray  # (ids, vertex, axis, a|b): their offsets from the cell's lowest node


@functools.cache
def _cases(dim: int) -> _Cases:
    """The extraction table of a dimension, from each code's elements' edges,
    flat, in output order. It is built by the first extraction: building both
    at import raised every invocation's RSS by 0.4 MiB."""
    if dim == 2:
        cases = {code: sum(pairs, ()) for code, pairs in _SEGMENTS.items()}
    else:
        cases = {code: row[: row.index(-1)] for code, row in enumerate(TRIANGLE_TABLE)}
    rows = [list(cases.get(code, ())) for code in range(max(cases) + 1)]
    width = max(map(len, rows))
    padded = [row + [-1] * (width - len(row)) for row in rows]
    edges = np.reshape(np.array(padded, dtype=np.intp), (-1, dim))  # by element id
    used = edges[:, 0] >= 0
    places = width // dim
    runs = [code * places + m for code in cases for m in range(len(cases[code]) // dim)]
    ends = _EDGES[np.maximum(edges, 0)]  # edge 0 for the padding
    sides = _CORNERS[:, :dim][ends].swapaxes(-1, -2)
    return _Cases(used.reshape(len(rows), places), np.array(runs, dtype=np.intp), ends, sides)


# Active cells per piece of ``extract_interface``'s second pass, whose
# temporaries take about 0.7 KiB per cell in 3D.
_CELLS = 512


@functools.lru_cache(maxsize=8)
def _corner_offsets(dim: int, steps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The flat offset of each cell corner from the cell's lowest node in a
    C-contiguous field of ``steps`` (its strides in elements), and of the
    corners ``ends`` of each element id's vertices."""
    corner_at = _CORNERS[: 2**dim, :dim] @ steps
    return corner_at, corner_at[_cases(dim).ends]


def _active_cells(phi: ScalarField, corner_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi's active cells (some corner negative, not all) in row-major order,
    by the flat index of their lowest node, and their corner codes (bit k set
    where corner k, at flat offset ``corner_at[k]``, is negative; a 2D saddle
    whose cell average is not negative gains bit 4). One axis-0 slab of about
    ``SLAB_NODES`` nodes at a time: the negative corners are counted axis by
    axis from the slab's node mask, and the count less one is taken modulo
    256, so that 0 wraps round to 255."""
    spec, v, n = phi.spec, phi.values, phi.spec.dim
    per_slab = math.prod(spec.cells[1:])  # cells per axis-0 slab
    rows = max(1, SLAB_NODES // per_slab)
    nodes, codes = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.uint8)]
    for i in range(0, spec.cells[0], rows):
        neg = v[i : i + rows + 1] < 0.0
        count = neg.view(np.uint8)
        for k in range(n):
            count = count[(slice(None),) * k + (slice(None, -1),)] + count[(slice(None),) * k + (slice(1, None),)]
        count -= 1
        active = np.flatnonzero(count < 2**n - 1)
        if active.size == 0:
            continue
        # each active cell's lowest node in the slab: its cell index plus, for
        # each axis k but the last, one node run of the axes after k + 1 per
        # whole cell run of the axes after k
        node = active.copy()
        for k in range(n - 1):
            node += active // math.prod(count.shape[k + 1 :]) * math.prod(neg.shape[k + 2 :])
        code = neg.reshape(-1)[node[:, None] + corner_at].view(np.uint8) @ _BITS[: 2**n]
        node += i * (v.strides[0] // v.itemsize)
        if n == 2:
            saddle = np.flatnonzero((code == 5) | (code == 10))
            if saddle.size:
                f = v.reshape(-1)[node[saddle, None] + corner_at]
                code[saddle[~(0.25 * (f[:, 0] + f[:, 1] + f[:, 2] + f[:, 3]) < 0.0)]] |= 16
        nodes.append(node)
        codes.append(code)
    return np.concatenate(nodes), np.concatenate(codes)


def extract_interface(phi: ScalarField) -> InterfaceSet:
    """Zero level set of phi; an empty set is the valid 'vanished' outcome.

    Elements are ordered by code (in table order), place in the code's entry
    and cell (row-major).

    Two passes, so that no temporary is field-sized: ``_active_cells`` goes
    through the field by slabs, and a count per code then gives each (code,
    place) its run of the output. The second pass goes through the active
    cells ``_CELLS`` at a time: it forms the crossings of the element vertices
    only, on the cell edges they use, and places each element in its run
    after those of the cells of the same code before it.
    """
    spec, v, n = phi.spec, phi.values, phi.spec.dim
    cases = _cases(n)
    places = cases.used.shape[1]
    corner_at, at = _corner_offsets(n, tuple(st // v.itemsize for st in v.strides))
    node, codes = _active_cells(phi, corner_at)
    # the first element of each (code, place)'s run, by element id, and each
    # cell's rank among the cells of its code
    counts = np.bincount(codes, minlength=cases.used.shape[0])
    size = counts[cases.runs // places]
    start = np.empty(cases.used.size, dtype=np.intp)
    start[cases.runs] = np.cumsum(size) - size
    order = np.argsort(codes, kind="stable")
    ahead = np.empty_like(node)
    ahead[order] = np.arange(node.size) - (np.cumsum(counts) - counts)[codes[order]]
    del order
    out = np.empty((int(size.sum()), n, n))
    flat, axes = v.reshape(-1), spec.axes()
    for lo in range(0, node.size, _CELLS):
        cs = codes[lo : lo + _CELLS]
        slot = np.flatnonzero(cases.used[cs])  # cell * places + place
        cell = slot // places
        e = slot + (cs[cell] - cell) * places  # the element id
        cell += lo
        dst = start[e] + ahead[cell]
        cell = node[cell]  # each element's cell, by its lowest node
        fab = flat[at[e] + cell[:, None, None]]  # (element, vertex, a|b)
        t = fab[..., 0] / (fab[..., 0] - fab[..., 1])
        del fab
        pts = np.empty((e.size, n, n))
        sides = cases.sides[e]
        for k, i in enumerate(np.unravel_index(cell, spec.nodes)):
            x = axes[k][sides[:, :, k] + i[:, None, None]]  # the grid lines of the ends a and b
            np.subtract(x[..., 1], x[..., 0], out=pts[..., k])
            pts[..., k] *= t
            pts[..., k] += x[..., 0]  # xa + t (xb - xa)
        out[dst] = pts
    return InterfaceSet(n, out)


def radius_estimate(s: InterfaceSet, center) -> tuple[float, float]:
    """(mean vertex distance from center, spread = max - min distance).

    A large spread flags a non-circular interface; a square of half-width a
    spreads by (sqrt(2)-1) a. The distances are formed ``_CELLS`` elements at
    a time into one array, whose mean has the bits of a whole-set pass.
    """
    if s.is_empty:
        raise InterfaceError("radius estimate of an empty interface")
    pts, c = s.vertices, np.asarray(center)
    d = np.empty(len(pts))
    step = _CELLS * s.dim
    for lo in range(0, len(pts), step):
        diff = pts[lo : lo + step] - c
        diff *= diff
        np.sqrt(np.sum(diff, axis=-1, out=d[lo : lo + step]), out=d[lo : lo + step])
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
