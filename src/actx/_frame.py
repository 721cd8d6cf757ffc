"""The kernels of the per-frame sweep: what ``measures.frame_fields`` and
``measures.box_fields`` run per block of nodes (``_fields_blocks``, a
``grid._sweep`` kernel, so it runs in the block sweeps' helper processes
too) and per box face (``_faces_2d``, ``_faces_by_axis``), all through one
pointwise formula (``_fields_into``).

They live apart from ``measures``, whose formulas they serve, so that no
module that ``import actx.cli`` compiles (without bytecode files, every
invocation compiles its imports) takes much more memory to compile than the
others: with them, ``measures`` took 2.1 MB of compile temporaries
(``tracemalloc``), against 1.9 MB for ``grid``, the next largest, and set
the import's peak; circle-2d's own peak RSS read 35.9 MiB with them there
and 35.4 MiB without (``scripts/peak_rss.py``, 2-core Xeon host).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .potential import DoubleWell


def _fields_blocks(blocks, arrays: tuple, scalars: tuple, rows: np.ndarray) -> None:
    """``frame_fields``'s sweep over ``blocks`` (index, start, end: whole axis-0
    slabs) of the arrays (phi, density, xi or None) with the scalars (h, eps,
    well, window or None): each block's density and xi, its row (the density's
    sum, the max of xi on its part of the window or -inf) into ``rows[i]`` and
    the row of each window slab j it holds (xi^+ summed with half weights on
    the edges of axes >= 1) into ``rows[n0 + j - 1]``, n0 the slabs of phi.
    A ``grid._sweep`` kernel, which runs in a helper process too."""
    v, density, xi = arrays
    h, eps, well, window = scalars
    flat, dens_flat = v.reshape(-1), density.reshape(-1)
    steps = [st // v.itemsize for st in v.strides]
    s0, n0, trailing = steps[0], v.shape[0], tuple(range(1, v.ndim))
    scratch = np.empty((1 if xi is not None else 2, max(b - a for _, a, b in blocks)))
    for i, a, b in blocks:
        work = scratch[0, : b - a]
        xi_blk = xi.reshape(-1)[a:b] if xi is not None else scratch[1, : b - a]
        diffs = (np.subtract(flat[a + st : b + st], flat[a - st : b - st], out=work) for st in steps)
        _fields_into(diffs, flat[a:b], h, eps, well, dens_flat[a:b], xi_blk, work)
        top = -math.inf
        j0, j1 = (0, 0) if window is None else (max(window[0].start, a // s0), min(window[0].stop, b // s0))
        if j0 < j1:
            part = xi_blk.reshape((-1,) + v.shape[1:])[(slice(j0 - a // s0, j1 - a // s0),) + window[1:]]
            top = part.max()
            pos = np.maximum(part, 0.0, out=work[: part.size].reshape(part.shape))
            for k in trailing:
                for e in (0, -1):
                    pos[(slice(None),) * k + (e,)] *= 0.5
            rows[n0 + j0 - 1 : n0 + j1 - 1, 0] = pos.sum(axis=trailing)
        rows[i] = dens_flat[a:b].sum(), top


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
              density: np.ndarray, xi: np.ndarray | None) -> float:
    """Density and xi (if an array is given) on every boundary node of a 2D frame,
    in a few calls over one gather of those nodes (``_boundary_2d``); returns the
    density's sum there. On
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
    density.reshape(-1)[c] = dens_b
    if xi is not None:
        xi.reshape(-1)[c] = xi_b
    return dens_b.sum()


def _faces_by_axis(v: np.ndarray, h: float, eps: float, well: DoubleWell,
                   density: np.ndarray, xi: np.ndarray | None) -> float:
    """Density and xi (if an array is given) on every face of a frame, one face
    at a time and axis by axis (where faces meet, the last axis's value stays);
    returns the density's sum there. A face takes five arrays of its size: its copy, its density
    and xi, W and its differences along each axis in turn. In 3D a gather like
    ``_faces_2d``'s was slower (97^3: 2.4 against 1.8 ms) and would keep index
    arrays of all 55 Ki boundary nodes."""
    total = 0.0
    buf = np.empty((5, max(v.size // n for n in v.shape)))
    for ax in range(v.ndim):
        planes = [None if a is None else a.swapaxes(0, ax) for a in (v, density, xi)]
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
            planes[1][e] = dens_face
            if xi is not None:
                planes[2][e] = xi_face
            total += dens_face.sum()
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
