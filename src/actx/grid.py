"""Uniform Cartesian node grids with second-order finite-difference operators.

The domain is an axis-aligned box discretized by nodes (cells+1 per axis,
boundary nodes sit exactly on the box faces). Fields are sampled at nodes and
stored row-major.

The finite differences are stride shifts of the flattened field: the
neighbours of a contiguous run of nodes along axis k are the same run moved
by +-stride_k, so every stencil term is one contiguous 1D operation and no
padded copy is built. A vector field, such as a transport's U, is stored
component-major, shape (n,) + nodes (``VectorField.components``), so a block
of one component is a contiguous run too. ``stencil_rhs`` is the explicit
step's update on the interior nodes in a folded, division-free form (the
neighbour sum times one constant plus one polynomial in f), swept in
cache-sized blocks into a caller's array; it returns max |out|, taken block
by block in the same sweep. ``measures.frame_fields`` sweeps the same blocks,
whole axis-0 slabs each, and reduces the discrepancy in them per slab.

A block sweep of at least ``PROC_NODES`` interior nodes (24 Ki: 161^2 or
31^3 and up) splits its blocks among the processes of an open ``team.Team``,
the caller and forked helpers, when every array it reads or writes is a
field of the team (``_sweep``); each process takes a run of whole axis-0
slabs, and the outputs have the serial bits at any process count.

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

import math
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

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


class VectorField:
    """dim float64 components per node, stored component-major: ``components``
    has shape ``(dim,) + spec.nodes``, one C-contiguous field per component, so
    that a block sweep reads each component as one contiguous run. The
    constructor takes the node-major stack, shape ``spec.nodes + (dim,)``, and
    ``values`` is that view of the components; ``from_components`` wraps
    component-major data as it is."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        want = spec.nodes + (spec.dim,)
        if values.shape != want:
            raise GridError(f"vector field shape {values.shape} != {want}")
        self.spec = spec
        self.components = np.ascontiguousarray(np.moveaxis(values, -1, 0))

    @classmethod
    def from_components(cls, spec: GridSpec, components: np.ndarray) -> "VectorField":
        """Wrap a C-contiguous float64 array of shape ``(dim,) + spec.nodes``
        without a copy."""
        want = (spec.dim,) + spec.nodes
        if components.shape != want:
            raise GridError(f"vector field components shape {components.shape} != {want}")
        f = cls.__new__(cls)
        f.spec = spec
        f.components = components
        return f

    @property
    def values(self) -> np.ndarray:
        """The node-major view of the components, shape ``spec.nodes + (dim,)``."""
        return np.moveaxis(self.components, 0, -1)

    @classmethod
    def sample(cls, spec: GridSpec, fn: Callable[..., Sequence[np.ndarray]]) -> "VectorField":
        mesh = spec.meshgrid()
        comps = fn(*mesh)
        out = np.stack([np.asarray(c, dtype=np.float64) + np.zeros(spec.nodes) for c in comps])
        return cls.from_components(spec, out)


def sum_sq(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum of squares over the component axis ``axis`` (U's leading one, a
    node-major stack's last), one component at a time.

    The same bits as ``np.sum(v * v, axis=axis)``, without numpy's reduction
    loop over a length-2 or length-3 inner axis, which costs several times
    the arithmetic.
    """
    comps = np.moveaxis(v, axis, 0)
    out = comps[0] * comps[0]
    for c in comps[1:]:
        out += c * c
    return out


def outer_sum_sq(offsets: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k offsets[k]^2 over the outer product of the 1D offset arrays, shape
    (len(offsets[0]), len(offsets[1]), ...): the squared distances on a sub-box,
    summed axis by axis in axis order, so every caller gets the same bits."""
    d2 = offsets[0] ** 2
    for off in offsets[1:]:
        d2 = d2[..., None] + off**2
    return d2


# Nodes per block of ``stencil_rhs`` and ``measures.frame_fields``, rounded to
# whole axis-0 slabs: a block's ~10 operands stay in L2, where whole-field
# passes stream each field through it once per operation. 16-64 Ki nodes
# measured best at both 97^3 and 257^2.
CHUNK = 32 * 1024

# Nodes per slab of the passes that go through a whole field one axis-0 slab
# (or, in ``measures.ball_masses``, one column slab) at a time: the initial
# phase, the ball masses' prefix sums and the interface's cell search. Their
# temporaries stay small next to the fields themselves.
SLAB_NODES = 64 * 1024

# A sweep of at least PROC_NODES interior nodes (the run off the two axis-0
# faces) splits its blocks among the processes of an open ``team.Team``; see
# the docstring of ``team`` for the measurements behind it.
PROC_NODES = 24 * 1024


def cpu_budget() -> int:
    """The CPUs one invocation may use: ``ACTX_THREADS``, or the CPUs this
    process may run on when it is unset. A value that is not a positive
    integer raises ``GridError``."""
    raw = os.environ.get("ACTX_THREADS")
    if raw is None:
        return len(os.sched_getaffinity(0))
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise GridError(f"ACTX_THREADS must be a positive integer, got {raw!r}")
    return n


class BlockPlan(NamedTuple):
    """The blocks of one sweep: per process, its blocks (index, start, end) in
    order; the number of blocks."""

    parts: tuple[tuple[tuple[int, int, int], ...], ...]
    blocks: int


def _procs(nodes: int, s0: int, procs: int) -> int:
    """The processes among which a sweep of ``nodes`` nodes in axis-0 slabs of
    ``s0`` nodes splits: one below ``PROC_NODES`` nodes, else up to ``procs``,
    each with at least one slab and half of PROC_NODES nodes."""
    return 1 if nodes < PROC_NODES else min(procs, nodes // s0, 2 * nodes // PROC_NODES)


def _block_plan(lo: int, hi: int, s0: int, procs: int = 1) -> BlockPlan:
    """The blocks of about ``CHUNK`` nodes, whole slabs each, of one sweep over
    the nodes [lo, hi) of a flattened field whose axis-0 slabs hold ``s0``
    nodes, split among up to ``procs`` processes (``_procs``): each takes a run
    of whole slabs, so no two processes write in the same slab."""
    return _plan(lo, hi, s0, _procs(hi - lo, s0, procs), CHUNK)


@lru_cache(maxsize=32)
def _plan(lo: int, hi: int, s0: int, procs: int, size: int) -> BlockPlan:
    """``_block_plan``'s blocks for a given process count and block size: each
    block is whole axis-0 slabs, round(size / s0) of them (at least one), so
    that a kernel reducing per slab makes each slab's value in one block."""
    slabs = (hi - lo) // s0
    step = max(1, round(size / s0)) * s0
    cuts = [lo + slabs * t // procs * s0 for t in range(procs)] + [hi]
    parts, i = [], 0
    for a0, b0 in zip(cuts, cuts[1:]):
        starts = list(range(a0, b0, step))
        if len(starts) > 1 and b0 - starts[-1] < step // 16:
            # a last block this short costs more in its ~15 numpy calls than in
            # arithmetic, so it joins the one before: at 257^2 on two processes,
            # the second part's last block of 128 nodes took 8 us of its 89
            starts.pop()
        parts.append(tuple((i + j, a, b) for j, (a, b) in enumerate(zip(starts, starts[1:] + [b0]))))
        i += len(parts[-1])
    return BlockPlan(tuple(parts), i)


def helper_count() -> int:
    """The helper processes a team plans for a sweep of many slabs: one for each
    CPU of ``cpu_budget()`` besides the calling process, and no more than the
    other CPUs this process may run on."""
    return min(cpu_budget(), len(os.sched_getaffinity(0))) - 1


class FieldSet:
    """The fields of a run's block sweeps without helper processes: numpy's own
    arrays, swept by the calling process alone. ``team.Team`` adds forked
    helpers over shared memory; ``open_team`` picks one of the two."""

    def __init__(self, nodes: tuple[int, ...]):
        self.nodes = tuple(nodes)

    def field(self, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """A new float64 array of ``shape`` (default: the nodes)."""
        return np.empty(self.nodes if shape is None else shape)

    def share(self, values: np.ndarray) -> np.ndarray:
        """``values`` as a field the sweeps can split: here ``values`` itself."""
        return values

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_team(nodes: tuple[int, ...], fields: int, helpers: int | None = None) -> FieldSet:
    """The fields of ``fields`` float64 fields of shape ``nodes`` (a vector field
    of n components counts n): a ``team.Team`` with ``helpers`` forked helper
    processes, by default as many as a sweep over such a field can use
    (``helper_count()`` from ``PROC_NODES`` interior nodes on), or a
    ``FieldSet`` when that is none. Use it as a context manager: leaving it
    reaps the helpers."""
    if helpers is None:
        n = math.prod(nodes)
        s0 = n // nodes[0]
        helpers = _procs(n - 2 * s0, s0, 1 + helper_count()) - 1
    if helpers < 1:
        return FieldSet(nodes)
    from .team import Team  # imported only to fork: see its docstring

    return Team(nodes, fields, helpers)


# The open ``team.Team``s, which add and remove themselves; the sweeps use the
# last, and a forked child forgets them (``team._forget``). Kept here, so that
# a sweep needs no import of ``team``.
_teams: list = []


def _sweep(kernel, lo: int, hi: int, s0: int, arrays: tuple, scalars: tuple, slabs: bool = False):
    """``kernel(blocks, arrays, scalars, rows)`` over the blocks of ``_block_plan``
    for the nodes [lo, hi) of flattened fields with axis-0 slabs of ``s0``
    nodes: the kernel writes block i's row of two floats into ``rows[i]`` and,
    with ``slabs``, the row of the sweep's k-th slab into ``rows[S + 2 + k]``,
    S = (hi - lo) // s0 the slabs swept (no plan has more blocks than slabs).
    With the last open ``team.Team``, if every array is one of its fields, each of
    its processes takes a part of the plan; otherwise the calling process takes
    every block. Returns the block rows, with two more after them for the
    caller, and with ``slabs`` the S slab rows too; with a team they are its
    shared rows, valid until its next sweep. The kernel computes every node
    and every row on its own, so the bits are the same whatever the split."""
    team = _teams[-1] if _teams else None
    refs = None if team is None else team.refs(arrays)
    plan_args = (lo, hi, s0, _procs(hi - lo, s0, 1 if refs is None else 1 + len(team.procs)), CHUNK)
    plan = _plan(*plan_args)
    n = (hi - lo) // s0
    if len(plan.parts) == 1:
        rows = np.empty((2 * n + 2 if slabs else plan.blocks + 2, 2))
        kernel(plan.parts[0], arrays, scalars, rows)
    else:
        team.sweep(kernel, plan_args, refs, arrays, scalars)
        rows = team.results
    return (rows[: plan.blocks + 2], rows[n + 2 : 2 * n + 2]) if slabs else rows[: plan.blocks + 2]


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
    with ``f`` or ``base``. For a velocity m(t) U, ``u`` is U, component-major
    (shape (n,) + f.shape, as ``VectorField.components``; any other shape
    raises ``GridError``), and ``m`` is m(t).

    The update is folded and division free: per node,
    c1 sum_k (up_k + dn_k) + q(f) + cu sum_k u_k (up_k - dn_k) + base, with
    c1 = scale/h^2, cu = -scale m/(2h) and the centre's -2n c1 f folded into
    the polynomial q(s) = -(scale/eps^2) W'(s) - 2n c1 s (``_fold_coeffs``),
    evaluated by ``_horner``. The sums run in axis order and the terms are
    added left to right.

    ``f[1:-1]`` (every node off the two axis-0 faces) is one contiguous run
    of the flattened field, and its neighbours along axis k are the run
    shifted by +-stride_k. The run is swept in the blocks of ``_block_plan``
    (``_sweep``: split among a ``team.Team``'s processes when f, u, base and out
    are its fields), each through every term before the next, with q and
    the transport products in one block-sized scratch array per process, two
    with a transport: the same bits whatever the blocks and processes. The
    faces of axes >= 1 get wrapped-around neighbours in the sweep; each block
    restores them in the axis-0 slabs it touched and then takes its own max
    and min, so the extrema need no pass of their own.
    """
    if u is not None and u.shape != (f.ndim,) + f.shape:
        # a node-major U has the same size, and its columns would be read as components
        raise GridError(f"velocity shape {u.shape} != {(f.ndim,) + f.shape} (component-major)")
    s0 = f.strides[0] // f.itemsize
    q = _fold_coeffs(well.wprime_coeffs(), h, eps, f.ndim, scale)
    ext = _sweep(_rhs_blocks, s0, f.size - s0, s0, (f, u, base, out), (scale / h**2, -scale * m / (2.0 * h), q))
    for i, e in ((-2, 0), (-1, -1)):  # the two axis-0 faces take the caller's two rows
        out[e] = 0.0 if base is None else base[e]
        ext[i] = out[e].max(), out[e].min()
    return float(np.max(np.abs(ext)))  # numpy's max keeps a nan, where Python's max() may drop it


def _rhs_blocks(blocks, arrays: tuple, scalars: tuple, ext: np.ndarray) -> None:
    """``stencil_rhs``'s sweep over ``blocks`` (index, start, end) of the arrays
    (f, u, base, out) with the scalars (c1, cu, q): each block's nodes into
    out, its faces restored, and its (max, min) into ``ext``. A ``_sweep``
    kernel, which runs in a helper process too."""
    f, u, base, out = arrays
    c1, cu, q = scalars
    flat, dst = f.reshape(-1), out.reshape(-1)
    steps = [st // f.itemsize for st in f.strides]
    s0 = steps[0]
    uf = None if u is None else u.reshape(f.ndim, -1)
    bf = None if base is None else base.reshape(-1)
    scratch = np.empty((1 if uf is None else 2, max(b - a for _, a, b in blocks)))
    for i, a, b in blocks:
        r, w1 = dst[a:b], scratch[0, : b - a]
        np.add(flat[a + s0 : b + s0], flat[a - s0 : b - s0], out=r)
        for st in steps[1:]:
            r += flat[a + st : b + st]
            r += flat[a - st : b - st]
        r *= c1
        r += _horner(q, flat[a:b], w1)
        if uf is not None:
            for ax, st in enumerate(steps):
                g = w1 if ax == 0 else scratch[1, : b - a]
                np.subtract(flat[a + st : b + st], flat[a - st : b - st], out=g)
                g *= uf[ax, a:b]
                if ax:
                    w1 += g
            w1 *= cu
            r += w1
        if bf is not None:
            r += bf[a:b]
        _restore_faces(out, base, slice(a // s0, (b - 1) // s0 + 1))
        ext[i] = r.max(), r.min()


def integrate(f: ScalarField, region: tuple[Sequence[float], Sequence[float]] | None = None) -> float:
    """Trapezoid-consistent integral: node sum x h^n, half-weights on region edges.

    ``region=(lo, hi)`` restricts to the nodes of ``spec.box_slices(region)``.
    A region with fewer than two nodes along an axis integrates to 0.0 with a
    warning. The window's values are copied into a fresh array and halved
    there by ``trapezoid``.
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
    a C-contiguous array the caller may overwrite (a fresh one, or ``pack``'s);
    it is halved in place. A window with fewer than two nodes along an axis
    integrates to 0.0 with a warning."""
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


def pack(buf: np.ndarray, window: tuple[slice, ...]) -> np.ndarray:
    """``buf[window]`` moved to the front of the C-contiguous ``buf``: returns the
    C-contiguous array of the window's shape on buf's first elements, the same
    values that a copy of the window holds (so its ``np.sum`` has a copy's
    bits), with no array of the window's size allocated.

    The window's axis-0 slabs are copied in order, in runs whose destination
    ends at or below the run's first source element. Packed slab j ends at
    element (j + 1) W, W the elements of a window slab, and window slab j
    starts at element (a0 + j) S or later, S >= W the elements of an axis-0
    slab of buf and a0 the window's first one, so no copy overwrites a value
    still to be read. A run of one slab may overlap itself when a0 is 0, and
    numpy then copies it through a slab-sized buffer. Every slice's step must
    be 1.
    """
    src = buf[window]
    dst = buf.reshape(-1)[: src.size].reshape(src.shape)
    if src.size == 0:
        return dst
    a0 = range(*window[0].indices(buf.shape[0])).start
    per_slab, packed_slab = buf.size // buf.shape[0], src.size // src.shape[0]
    j = 0
    while j < src.shape[0]:
        end = min(src.shape[0], max(j + 1, (a0 + j) * per_slab // packed_slab))
        np.copyto(dst[j:end], src[j:end])
        j = end
    return dst


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
