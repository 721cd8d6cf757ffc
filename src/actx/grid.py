"""Uniform Cartesian node grids with second-order finite-difference operators.

The domain is an axis-aligned box discretized by nodes (cells+1 per axis,
boundary nodes sit exactly on the box faces). Fields are sampled at nodes and
stored row-major. All operators are pure: inputs are never mutated and every
call returns a fresh field. Dirichlet boundaries are handled through ghost
nodes extrapolated as ``ghost = 2*boundary_value - interior_neighbor``, which
is second-order accurate about the boundary node.

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
        """1D node coordinate arrays, one per axis."""
        return tuple(
            np.linspace(self.lo[k], self.hi[k], self.cells[k] + 1) for k in range(self.dim)
        )

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays of shape ``nodes``, 'ij' indexing."""
        return _meshgrid_cached(self)

    def contains_box(self, lo: Sequence[float], hi: Sequence[float], tol: float = 1e-12) -> bool:
        return all(
            l >= self.lo[k] - tol and h <= self.hi[k] + tol
            for k, (l, h) in enumerate(zip(lo, hi))
        )


@lru_cache(maxsize=8)
def _meshgrid_cached(spec: GridSpec) -> tuple[np.ndarray, ...]:
    return tuple(np.meshgrid(*spec.axes(), indexing="ij"))


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

    def copy(self) -> "ScalarField":
        return ScalarField(self.spec, self.values.copy())


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

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values**2, axis=-1))


def _padded(f: ScalarField, boundary_value: float | None) -> np.ndarray:
    """Field extended by one ghost layer per face.

    Ghosts are filled with ``2*boundary_value - interior_neighbor`` along each
    axis (second-order about the Dirichlet datum). ``boundary_value=None``
    uses the field's own boundary nodes as the datum, which makes the central
    differences degenerate to one-sided ones on the boundary. Corner ghosts
    are never read by the 2n+1-point stencils.
    """
    v = f.values
    pad = np.zeros(tuple(s + 2 for s in v.shape))
    core = tuple(slice(1, -1) for _ in v.shape)
    pad[core] = v
    for ax in range(v.ndim):
        lo_ghost = [slice(1, -1)] * v.ndim
        lo_inner = [slice(1, -1)] * v.ndim
        lo_face = [slice(1, -1)] * v.ndim
        lo_ghost[ax] = slice(0, 1)
        lo_inner[ax] = slice(2, 3)
        lo_face[ax] = slice(1, 2)
        datum = pad[tuple(lo_face)] if boundary_value is None else boundary_value
        pad[tuple(lo_ghost)] = 2.0 * datum - pad[tuple(lo_inner)]
        hi_ghost = [slice(1, -1)] * v.ndim
        hi_inner = [slice(1, -1)] * v.ndim
        hi_face = [slice(1, -1)] * v.ndim
        hi_ghost[ax] = slice(-1, None)
        hi_inner[ax] = slice(-3, -2)
        hi_face[ax] = slice(-2, -1)
        datum = pad[tuple(hi_face)] if boundary_value is None else boundary_value
        pad[tuple(hi_ghost)] = 2.0 * datum - pad[tuple(hi_inner)]
    return pad


def laplacian(f: ScalarField, boundary_value: float | None) -> ScalarField:
    """Second-order central Laplacian (2n+1-point stencil) at every node."""
    _check_finite(f.values, "laplacian input")
    h2 = f.spec.h**2
    pad = _padded(f, boundary_value)
    ndim = f.values.ndim
    core = tuple(slice(1, -1) for _ in range(ndim))
    out = -2.0 * ndim * pad[core]
    for ax in range(ndim):
        up = list(core)
        dn = list(core)
        up[ax] = slice(2, None)
        dn[ax] = slice(0, -2)
        out = out + pad[tuple(up)] + pad[tuple(dn)]
    return ScalarField(f.spec, out / h2)


def gradient(f: ScalarField, boundary_value: float | None) -> VectorField:
    """Second-order central gradient at every node."""
    _check_finite(f.values, "gradient input")
    two_h = 2.0 * f.spec.h
    pad = _padded(f, boundary_value)
    ndim = f.values.ndim
    core = tuple(slice(1, -1) for _ in range(ndim))
    comps = []
    for ax in range(ndim):
        up = list(core)
        dn = list(core)
        up[ax] = slice(2, None)
        dn[ax] = slice(0, -2)
        comps.append((pad[tuple(up)] - pad[tuple(dn)]) / two_h)
    return VectorField(f.spec, np.stack(comps, axis=-1))


def advection_term(u: VectorField, f: ScalarField, boundary_value: float = -1.0) -> ScalarField:
    """Pointwise u . grad(f) with the central-difference gradient.

    The default boundary value matches the solver's Dirichlet convention
    (phase pinned at -1); it only affects the values on boundary nodes.
    """
    if u.spec != f.spec:
        raise GridError(
            f"advection shape mismatch: velocity on {u.spec.nodes}, scalar on {f.spec.nodes}"
        )
    g = gradient(f, boundary_value)
    return ScalarField(f.spec, np.sum(u.values * g.values, axis=-1))


def integrate(f: ScalarField, region: tuple[Sequence[float], Sequence[float]] | None = None) -> float:
    """Trapezoid-consistent integral: node sum x h^n, half-weights on region edges.

    ``region=(lo, hi)`` restricts to the node-aligned sub-box inside the given
    bounds (bounds are snapped inward to the node lattice). An empty region
    integrates to 0.0 with a warning.
    """
    spec = f.spec
    h = spec.h
    axes = spec.axes()
    if region is None:
        windows = [(0, spec.cells[k]) for k in range(spec.dim)]
    else:
        lo, hi = region
        if not spec.contains_box(lo, hi, tol=1e-9 * h):
            raise GridError(f"region {lo}..{hi} is not contained in the domain box")
        windows = []
        for k in range(spec.dim):
            tol = 1e-9 * h
            idx = np.nonzero((axes[k] >= lo[k] - tol) & (axes[k] <= hi[k] + tol))[0]
            if idx.size <= 1:
                warnings.warn(
                    "integration region contains no grid nodes (or a zero-volume slice)",
                    stacklevel=2,
                )
                return 0.0
            windows.append((int(idx[0]), int(idx[-1])))
    total = f.values[tuple(slice(a, b + 1) for a, b in windows)].copy()
    for k, (a, b) in enumerate(windows):
        if b == a:
            continue
        w = np.ones(b - a + 1)
        w[0] = 0.5
        w[-1] = 0.5
        shape = [1] * spec.dim
        shape[k] = w.size
        total = total * w.reshape(shape)
    return float(np.sum(total) * h**spec.dim)


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
    # restrict to the bounding sub-box before forming the distance mask
    axes = spec.axes()
    sl = []
    for k in range(spec.dim):
        i0 = int(np.searchsorted(axes[k], c[k] - radius, side="left"))
        i1 = int(np.searchsorted(axes[k], c[k] + radius, side="right"))
        sl.append(slice(max(i0, 0), min(i1, spec.cells[k] + 1)))
    sub_axes = [axes[k][sl[k]] - c[k] for k in range(spec.dim)]
    if any(a.size == 0 for a in sub_axes):
        return 0.0
    d2 = sub_axes[0][:, None] ** 2 + sub_axes[1][None, :] ** 2
    if spec.dim == 3:
        d2 = d2[:, :, None] + sub_axes[2][None, None, :] ** 2
    # strict inequality with a relative guard band, so nodes at exactly the
    # radius resolve the same way regardless of coordinate rounding
    mask = d2 < radius**2 * (1.0 - 1e-12)
    return float(np.sum(f.values[tuple(sl)][mask]) * spec.h**spec.dim)


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
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


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
