"""Constructive solid geometry over signed distance functions.

Sign convention: negative inside, positive outside, zero on the boundary.
Primitives (ball, box, half-space) are exact 1-Lipschitz distances; min/max
composites may under-estimate the true distance but never flip the sign,
which is all the phase construction needs.

``sdf(x)`` takes the coordinates as a sequence indexed by axis: a grid's open
mesh (``GridSpec.coords()``, entries that broadcast against each other) or a
single point (entries that are scalars). Every primitive works one axis at a
time and sums the per-axis terms in axis order, so the bits equal the forms
that broadcast over a trailing component axis and reduce it with ``np.sum``
or ``np.max`` (kept as references in ``tests/reference_ops.py``), while only
the last sum is as large as the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _out(a):
    """``a`` as a ufunc's output when it is an array (the caller's fresh result);
    None, a new result, when it is a scalar from a single point."""
    return a if isinstance(a, np.ndarray) else None


class Shape:
    """Base class; subclasses implement sdf(x) for a coordinate sequence x."""

    def sdf(self, x) -> np.ndarray:
        raise NotImplementedError


@dataclass
class Ball(Shape):
    center: tuple[float, ...]
    radius: float

    def sdf(self, x):
        d = [x[k] - c for k, c in enumerate(self.center)]
        dist = d[0] * d[0]
        for dk in d[1:]:
            dist = dist + dk * dk
        dist = np.sqrt(dist, out=_out(dist))
        dist -= self.radius
        return dist


@dataclass
class Box(Shape):
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def sdf(self, x):
        q = [
            np.abs(x[k] - 0.5 * (lo + hi)) - 0.5 * (hi - lo)
            for k, (lo, hi) in enumerate(zip(self.lo, self.hi))
        ]
        outside = np.maximum(q[0], 0.0) ** 2
        for qk in q[1:]:
            outside = outside + np.maximum(qk, 0.0) ** 2
        inside = functools.reduce(np.maximum, q)
        inside = np.minimum(inside, 0.0, out=_out(inside))
        outside = np.sqrt(outside, out=_out(outside))
        outside += inside
        return outside


@dataclass
class HalfSpace(Shape):
    """Points with normal . x <= offset are inside."""

    normal: tuple[float, ...]
    offset: float

    def sdf(self, x):
        n = np.asarray(self.normal, dtype=np.float64)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValueError("half-space normal must be nonzero")
        s = x[0] * n[0]
        for k in range(1, n.size):
            s = s + x[k] * n[k]
        s -= self.offset
        s /= norm
        return s


@dataclass
class Union(Shape):
    parts: tuple[Shape, ...]

    def __init__(self, *parts: Shape):
        self.parts = tuple(parts)

    def sdf(self, x):
        return functools.reduce(np.minimum, (p.sdf(x) for p in self.parts))


@dataclass
class Intersection(Shape):
    parts: tuple[Shape, ...]

    def __init__(self, *parts: Shape):
        self.parts = tuple(parts)

    def sdf(self, x):
        return functools.reduce(np.maximum, (p.sdf(x) for p in self.parts))


@dataclass
class Complement(Shape):
    part: Shape

    def sdf(self, x):
        return -self.part.sdf(x)
