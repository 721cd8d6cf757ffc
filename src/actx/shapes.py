"""Constructive solid geometry over signed distance functions.

Sign convention: negative inside, positive outside, zero on the boundary.
Primitives (ball, box, half-space) are exact 1-Lipschitz distances; min/max
composites may under-estimate the true distance but never flip the sign,
which is all the phase construction needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class Shape:
    """Base class; subclasses implement sdf(points) for (..., n) arrays."""

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class Ball(Shape):
    center: tuple[float, ...]
    radius: float

    def sdf(self, pts):
        d = pts - np.asarray(self.center)
        return np.sqrt(np.sum(d * d, axis=-1)) - self.radius


@dataclass
class Box(Shape):
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def sdf(self, pts):
        # one axis at a time, like grid.sum_sq: the same bits as broadcasting
        # over the component axis and reducing it with np.sum and np.max
        q = [
            np.abs(pts[..., k] - 0.5 * (lo + hi)) - 0.5 * (hi - lo)
            for k, (lo, hi) in enumerate(zip(self.lo, self.hi))
        ]
        outside = np.maximum(q[0], 0.0) ** 2
        for qk in q[1:]:
            outside = outside + np.maximum(qk, 0.0) ** 2
        return np.sqrt(outside) + np.minimum(functools.reduce(np.maximum, q), 0.0)


@dataclass
class HalfSpace(Shape):
    """Points with normal . x <= offset are inside."""

    normal: tuple[float, ...]
    offset: float

    def sdf(self, pts):
        n = np.asarray(self.normal, dtype=np.float64)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValueError("half-space normal must be nonzero")
        return (np.sum(pts * n, axis=-1) - self.offset) / norm


@dataclass
class Union(Shape):
    parts: tuple[Shape, ...]

    def __init__(self, *parts: Shape):
        self.parts = tuple(parts)

    def sdf(self, pts):
        vals = [p.sdf(pts) for p in self.parts]
        return np.minimum.reduce(vals)


@dataclass
class Intersection(Shape):
    parts: tuple[Shape, ...]

    def __init__(self, *parts: Shape):
        self.parts = tuple(parts)

    def sdf(self, pts):
        vals = [p.sdf(pts) for p in self.parts]
        return np.maximum.reduce(vals)


@dataclass
class Complement(Shape):
    part: Shape

    def sdf(self, pts):
        return -self.part.sdf(pts)
