"""Constructive solid geometry over signed distance functions.

Sign convention: negative inside, positive outside, zero on the boundary.
Primitives (ball, box, half-space) are exact 1-Lipschitz distances; min/max
composites may under-estimate the true distance but never flip the sign,
which is all the phase construction needs.
"""

from __future__ import annotations

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
        c = 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))
        half = 0.5 * (np.asarray(self.hi) - np.asarray(self.lo))
        q = np.abs(pts - c) - half
        outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=-1))
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside


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
