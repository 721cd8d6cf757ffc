"""Uniform Cartesian node grids with second-order finite-difference operators.

The domain is an axis-aligned box discretized by nodes (cells+1 per axis,
boundary nodes sit exactly on the box faces). Fields are sampled at nodes and
stored row-major.

The finite differences are stride shifts of the flattened field: the
neighbours of a contiguous run of nodes along axis k are the same run moved
by +-stride_k, so every stencil term is one contiguous 1D operation and no
padded copy is built. ``stencil_rhs`` is the explicit step's update on the
interior nodes in a folded, division-free form (the neighbour sum times one
constant plus one polynomial in f), swept in cache-sized blocks into a
caller's array; it returns max |out|, taken block by block in the same
sweep. ``measures.frame_fields`` sweeps the same blocks.

The node geometry lives on ``GridSpec`` and is separable: the cached 1D
node coordinates per axis (``axes``), the same as an open mesh that
broadcasts to the node shape (``coords``, axis k shaped (1,...,N_k,...,1);
``meshgrid`` broadcasts it without copying), and one rule for the nodes of a
closed box (``box_slices``, faces moved out by 1e-9 h). No (nodes, dim)
coordinate array is ever built: geometry on the grid is summed axis by axis
over ``coords``.

Reductions rely on numpy's pairwise summation, so repeated evaluation of the
same reduction is bit-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

# Node-count guard: grids above this are almost certainly a typo'd config.
MAX_NODES = 1 << 25


class GridError(ValueError):
    """Raised for invalid grid specifications or field/operator misuse."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with a uniform node lattice.

    ``dim`` must be 2 or 3, the cell size h must agree across axes to 1e-12
    relative (anisotropic grids are rejected), and the total node count must
    stay below ``MAX_NODES``.
    """

    dim: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GridError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.lo) != self.dim or len(self.hi) != self.dim or len(self.cells) != self.dim:
            raise GridError("lo, hi and cells must each have length dim")
        ext = [h - l for l, h in zip(self.lo, self.hi)]
        if any(e <= 0 for e in ext):
            raise GridError(f"box extents must be positive, got {ext}")
        if any(c < 1 for c in self.cells):
            raise GridError(f"cells must be positive, got {self.cells}")
        hs = [e / c for e, c in zip(ext, self.cells)]
        h0 = hs[0]
        if any(abs(h - h0) > 1e-12 * abs(h0) for h in hs):
            raise GridError(f"cell size must be uniform across axes, got {hs}")
        n_nodes = 1
        for c in self.cells:
            n_nodes *= c + 1
        if n_nodes >= MAX_NODES:
            raise GridError(f"node count {n_nodes} exceeds cap {MAX_NODES}")

    @property
    def h(self) -> float:
        return (self.hi[0] - self.lo[0]) / self.cells[0]

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cells)

    @property
    def n_nodes(self) -> int:
        n = 1
        for c in self.cells:
            n *= c + 1
        return n

    def axes(self) -> tuple[np.ndarray, ...]:
        """1D node coordinate arrays, one per axis; shared and read-only."""
        return _axes_cached(self)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates as an open mesh, like ``np.ix_``: read-only views of
        ``axes()``, axis k shaped (1,...,N_k,...,1), broadcasting to ``nodes``."""
        return tuple(
            ax.reshape((1,) * k + (-1,) + (1,) * (self.dim - 1 - k)) for k, ax in enumerate(self.axes())
        )

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays of shape ``nodes``, 'ij' indexing: read-only
        broadcasts of ``coords()``, without a copy."""
        return tuple(np.broadcast_to(c, self.nodes) for c in self.coords())

    def box_slices(self, box: tuple[Sequence[float], Sequence[float]]) -> tuple[slice, ...]:
        """Index slices of the nodes in the closed box (lo, hi), with its faces
        moved out by 1e-9 h; an axis without such nodes gets an empty slice."""
        tol = 1e-9 * self.h
        out = []
        for ax, lo, hi in zip(self.axes(), *box):
            i0 = int(np.searchsorted(ax, lo - tol, side="left"))
            i1 = int(np.searchsorted(ax, hi + tol, side="right"))
            out.append(slice(i0, max(i0, i1)))
        return tuple(out)

    def contains_box(self, lo: Sequence[float], hi: Sequence[float], tol: float = 1e-12) -> bool:
        return all(
            l >= self.lo[k] - tol and h <= self.hi[k] + tol
            for k, (l, h) in enumerate(zip(lo, hi))
        )


@lru_cache(maxsize=8)
def _axes_cached(spec: GridSpec) -> tuple[np.ndarray, ...]:
    axes = tuple(np.linspace(spec.lo[k], spec.hi[k], spec.cells[k] + 1) for k in range(spec.dim))
    for ax in axes:
        ax.flags.writeable = False
    return axes


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(values)):
        bad = tuple(int(v) for v in np.argwhere(~np.isfinite(values))[0])
        raise GridError(f"{name} contains a non-finite entry at node index {bad}")


@dataclass
class ScalarField:
    """One float64 per node, shape ``spec.nodes``, row-major."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != self.spec.nodes:
            raise GridError(
                f"field shape {self.values.shape} does not match grid nodes {self.spec.nodes}"
            )
        _check_finite(self.values, "scalar field")

    @classmethod
    def sample(cls, spec: GridSpec, fn: Callable[..., np.ndarray]) -> "ScalarField":
        """Sample ``fn(x1, x2[, x3])`` on the node lattice."""
        mesh = spec.meshgrid()
        return cls(spec, np.asarray(fn(*mesh), dtype=np.float64) + np.zeros(spec.nodes))

    @classmethod
    def from_checked(cls, spec: GridSpec, values: np.ndarray) -> "ScalarField":
        """Wrap a C-contiguous float64 array of shape ``spec.nodes`` that the
        caller has already scanned for non-finite entries, without rescanning."""
        f = cls.__new__(cls)
        f.spec = spec
        f.values = values
        return f

    @classmethod
    def full(cls, spec: GridSpec, value: float) -> "ScalarField":
        return cls(spec, np.full(spec.nodes, float(value)))


@dataclass
class VectorField:
    """dim float64 components per node, shape ``spec.nodes + (dim,)``."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        want = self.spec.nodes + (self.spec.dim,)
        if self.values.shape != want:
            raise GridError(f"vector field shape {self.values.shape} != {want}")

    @classmethod
    def sample(cls, spec: GridSpec, fn: Callable[..., Sequence[np.ndarray]]) -> "VectorField":
        mesh = spec.meshgrid()
        comps = fn(*mesh)
        out = np.stack([np.asarray(c, dtype=np.float64) + np.zeros(spec.nodes) for c in comps], axis=-1)
        return cls(spec, out)


def sum_sq(v: np.ndarray) -> np.ndarray:
    """Sum of squares over the last (component) axis, one component at a time.

    The same bits as ``np.sum(v * v, axis=-1)``, without numpy's reduction
    loop over a length-2 or length-3 inner axis, which costs several times
    the arithmetic.
    """
    out = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        out += v[..., k] * v[..., k]
    return out


def outer_sum_sq(offsets: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k offsets[k]^2 over the outer product of the 1D offset arrays, shape
    (len(offsets[0]), len(offsets[1]), ...): the squared distances on a sub-box,
    summed axis by axis in axis order, so every caller gets the same bits."""
    d2 = offsets[0] ** 2
    for off in offsets[1:]:
        d2 = d2[..., None] + off**2
    return d2


# Nodes per block of ``stencil_rhs`` and ``measures.frame_fields``: a block's
# ~10 operands stay in L2, where whole-field passes stream each field through
# it once per operation. 16-64 Ki nodes measured best at both 97^3 and 257^2.
CHUNK = 32 * 1024


def _fold_coeffs(wprime: Sequence[float], h: float, eps: float, n: int, scale: float) -> tuple[float, ...]:
    """Ascending coefficients of q(s) = -(scale/eps^2) W'(s) - (2n scale/h^2) s,
    from W'(s)'s ascending ``wprime`` (at least two of them); zero coefficients
    above degree 1 are dropped from the top, so ``_horner`` starts at the highest
    non-zero one (or at degree 1)."""
    k = scale / (eps * eps)
    q = [-k * c for c in wprime]
    q[1] -= 2 * n * (scale / h**2)
    while len(q) > 2 and not q[-1]:
        q.pop()
    return tuple(q)


def _horner(q: Sequence[float], s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j q_j s^j into ``out`` by Horner's rule, ((q_top s + ...) s + q_1) s
    + q_0, skipping the additions of zero coefficients."""
    np.multiply(s, q[-1], out=out)
    for c in q[-2:0:-1]:
        if c:
            out += c
        out *= s
    if q[0]:
        out += q[0]
    return out


def _restore_faces(out: np.ndarray, base: np.ndarray | None, slabs: slice) -> None:
    """The faces of axes >= 1 in the axis-0 slabs ``slabs`` of ``out``: base's there, or 0."""
    for ax in range(1, out.ndim):
        for e in (0, -1):
            face = (slabs,) + (slice(None),) * (ax - 1) + (e,)
            out[face] = 0.0 if base is None else base[face]


def stencil_rhs(
    f: np.ndarray,
    u: np.ndarray | None,
    h: float,
    eps: float,
    well,
    out: np.ndarray,
    base: np.ndarray | None = None,
    scale: float = 1.0,
    m: float = 1.0,
) -> float:
    """Into ``out``: base + scale (lap f - W'(f)/eps^2 - m u . grad f) at the
    interior nodes (W' from the ``DoubleWell`` ``well``) and base on the faces;
    without ``base``, scale times that inside and 0 on the faces. Returns max
    |out| over every node, nan if any node is nan. ``out`` shares no memory
    with ``f`` or ``base``. For a velocity m(t) U, ``u`` is U and ``m`` is m(t).

    The update is folded and division free: per node,
    c1 sum_k (up_k + dn_k) + q(f) + cu sum_k u_k (up_k - dn_k) + base, with
    c1 = scale/h^2, cu = -scale m/(2h) and the centre's -2n c1 f folded into
    the polynomial q(s) = -(scale/eps^2) W'(s) - 2n c1 s (``_fold_coeffs``),
    evaluated by ``_horner``. The sums run in axis order and the terms are
    added left to right.

    ``f[1:-1]`` (every node off the two axis-0 faces) is one contiguous run
    of the flattened field, and its neighbours along axis k are the run
    shifted by +-stride_k. The run is swept in blocks of ``CHUNK`` nodes,
    each through every term before the next, with q and the transport
    products in two block-sized scratch arrays: the same bits whatever the
    blocks. The faces of axes >= 1 get wrapped-around neighbours in the
    sweep; each block restores them in the axis-0 slabs it touched and then
    takes its own max and min, so the extrema need no pass of their own.
    """
    flat, dst = f.reshape(-1), out.reshape(-1)
    n = f.ndim
    steps = [st // f.itemsize for st in f.strides]
    s0 = steps[0]
    lo, hi = s0, flat.size - s0
    c1, cu = scale / h**2, -scale * m / (2.0 * h)
    q = _fold_coeffs(well.wprime_coeffs(), h, eps, n, scale)
    scratch = np.empty((2, min(CHUNK, hi - lo)))
    starts = range(lo, hi, CHUNK)
    ext = np.empty((len(starts) + 2, 2))  # (max, min) of each block, then of the two axis-0 faces
    for i, a in enumerate(starts):
        b = min(a + CHUNK, hi)
        r, w1, w2 = dst[a:b], scratch[0, : b - a], scratch[1, : b - a]
        np.add(flat[a + s0 : b + s0], flat[a - s0 : b - s0], out=r)
        for st in steps[1:]:
            r += flat[a + st : b + st]
            r += flat[a - st : b - st]
        r *= c1
        r += _horner(q, flat[a:b], w1)
        if u is not None:
            for ax, st in enumerate(steps):
                g = w1 if ax == 0 else w2
                np.subtract(flat[a + st : b + st], flat[a - st : b - st], out=g)
                g *= u.reshape(-1, n)[a:b, ax]
                if ax:
                    w1 += g
            w1 *= cu
            r += w1
        if base is not None:
            r += base.reshape(-1)[a:b]
        _restore_faces(out, base, slice(a // s0, (b - 1) // s0 + 1))
        ext[i] = r.max(), r.min()
    for i, e in ((-2, 0), (-1, -1)):
        out[e] = 0.0 if base is None else base[e]
        ext[i] = out[e].max(), out[e].min()
    return float(np.max(np.abs(ext)))  # numpy's max keeps a nan, where Python's max() may drop it


def integrate(f: ScalarField, region: tuple[Sequence[float], Sequence[float]] | None = None) -> float:
    """Trapezoid-consistent integral: node sum x h^n, half-weights on region edges.

    ``region=(lo, hi)`` restricts to the nodes of ``spec.box_slices(region)``.
    A region with fewer than two nodes along an axis integrates to 0.0 with a
    warning.
    """
    spec = f.spec
    window = (slice(None),) * spec.dim
    if region is not None:
        lo, hi = region
        if not spec.contains_box(lo, hi, tol=1e-9 * spec.h):
            raise GridError(f"region {lo}..{hi} is not contained in the domain box")
        window = spec.box_slices(region)
    return trapezoid(f.values[window].copy(), spec.h)


def trapezoid(values: np.ndarray, h: float) -> float:
    """``integrate``'s rule on the node values of one box window: their sum x h^n
    with half weights on the two edge slices of every axis. ``values`` must be
    a fresh array; it is halved in place. A window with fewer than two nodes
    along an axis integrates to 0.0 with a warning."""
    if any(n <= 1 for n in values.shape):
        warnings.warn(
            "integration region contains no grid nodes (or a zero-volume slice)",
            stacklevel=3,
        )
        return 0.0
    for k in range(values.ndim):
        for edge in (0, -1):  # halve the two edge slices of this axis in place
            values[(slice(None),) * k + (edge,)] *= 0.5
    return float(np.sum(values) * h**values.ndim)


def ball_integrate(
    f: ScalarField,
    center: Sequence[float],
    radius: float,
    clip_ok: bool = False,
) -> float:
    """Sum of f over nodes with |node - center| < radius, times h^n.

    Balls poking through the domain boundary are clipped to the box (with a
    warning unless ``clip_ok``); a ball entirely outside integrates to 0.0
    with a warning. Radii below the node spacing may capture no nodes.
    """
    if radius <= 0:
        raise GridError(f"ball radius must be positive, got {radius}")
    spec = f.spec
    c = np.asarray(center, dtype=np.float64)
    if c.shape != (spec.dim,):
        raise GridError(f"center must have {spec.dim} components")
    inside_any = all(
        c[k] + radius > spec.lo[k] and c[k] - radius < spec.hi[k] for k in range(spec.dim)
    )
    if not inside_any:
        warnings.warn("ball lies entirely outside the domain box", stacklevel=2)
        return 0.0
    clipped = any(
        c[k] - radius < spec.lo[k] - 1e-12 or c[k] + radius > spec.hi[k] + 1e-12
        for k in range(spec.dim)
    )
    if clipped and not clip_ok:
        warnings.warn("ball clipped to the domain box", stacklevel=2)
    return window_integral(f, ball_window(spec, c, radius))


def ball_window(
    spec: GridSpec, center: Sequence[float], radius: float
) -> tuple[tuple[slice, ...], np.ndarray]:
    """(index slices of the ball's bounding sub-box, clipped to the box; mask of
    the sub-box nodes with |node - center| < radius): the nodes ``ball_integrate``
    sums."""
    axes = spec.axes()
    sl = []
    for k in range(spec.dim):
        i0 = int(np.searchsorted(axes[k], center[k] - radius, side="left"))
        i1 = int(np.searchsorted(axes[k], center[k] + radius, side="right"))
        sl.append(slice(max(i0, 0), min(i1, spec.cells[k] + 1)))
    d2 = outer_sum_sq([axes[k][sl[k]] - center[k] for k in range(spec.dim)])
    # strict inequality with a relative guard band, so nodes at exactly the
    # radius resolve the same way regardless of coordinate rounding
    return tuple(sl), d2 < radius**2 * (1.0 - 1e-12)


def window_integral(f: ScalarField, window: tuple[tuple[slice, ...], np.ndarray]) -> float:
    """Sum of f over the nodes of a ``ball_window``, times h^n."""
    sl, mask = window
    return float(np.sum(f.values[sl][mask]) * f.spec.h**f.spec.dim)


# ---------------------------------------------------------------------------
# Field snapshot files ("AFLD")
#
# Layout: b"AFLD\n", one ASCII header line
#   dim <n> cells <c1> [<c2> <c3>] lo <...> hi <...> time <t>
# a newline, then the raw little-endian float64 node values, row-major.
# Floats are written with repr() so the round-trip is bit-exact.
# ---------------------------------------------------------------------------

_MAGIC = b"AFLD\n"


def write_field(path, f: ScalarField, time: float) -> None:
    spec = f.spec
    parts = [f"dim {spec.dim}", "cells " + " ".join(str(c) for c in spec.cells)]
    parts.append("lo " + " ".join(repr(float(v)) for v in spec.lo))
    parts.append("hi " + " ".join(repr(float(v)) for v in spec.hi))
    parts.append(f"time {float(time)!r}")
    header = (" ".join(parts)).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header)
        fh.write(b"\n")
        # the array's own buffer: no copy of a contiguous little-endian field
        fh.write(memoryview(np.ascontiguousarray(f.values, dtype="<f8")).cast("B"))


def read_field(path) -> tuple[ScalarField, float]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise GridError(f"{path}: not a field snapshot (bad magic {magic!r})")
        header = b""
        while not header.endswith(b"\n"):
            ch = fh.read(1)
            if not ch:
                raise GridError(f"{path}: truncated header")
            header += ch
        data = fh.read()
    try:
        return _decode_field(header, data)
    except ValueError as exc:  # GridError, bad numbers and non-ASCII headers alike
        raise GridError(f"{path}: {exc}") from None


def _decode_field(header: bytes, data: bytes) -> tuple[ScalarField, float]:
    toks = header.decode("ascii").split()

    def take(key: str, count: int) -> list[str]:
        if key not in toks:
            raise GridError(f"header has no {key!r} entry")
        i = toks.index(key)
        vals = toks[i + 1 : i + 1 + count]
        if len(vals) != count:
            raise GridError(f"header entry {key!r} needs {count} values, got {len(vals)}")
        return vals

    dim = int(take("dim", 1)[0])
    cells = tuple(int(v) for v in take("cells", dim))
    lo = tuple(float(v) for v in take("lo", dim))
    hi = tuple(float(v) for v in take("hi", dim))
    time = float(take("time", 1)[0])
    spec = GridSpec(dim, lo, hi, cells)
    want = 8 * spec.n_nodes
    if len(data) != want:
        kind = "truncated" if len(data) < want else "trailing bytes in"
        raise GridError(f"{kind} payload: {len(data)} bytes, expected {want}")
    values = np.frombuffer(data, dtype="<f8").reshape(spec.nodes)
    return ScalarField(spec, values.copy()), time
