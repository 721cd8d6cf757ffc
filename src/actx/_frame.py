"""The kernel of the per-frame sweep: what ``measures.frame_fields`` and
``measures.box_fields`` run per block of nodes (``_fields_blocks``, a
``grid._sweep`` kernel, so it runs in the block sweeps' helper processes
too), through one pointwise formula (``_fields_into``). The ghost node of
the box faces is formed in ``box_fields`` alone, which pads its box with it
before this kernel sweeps the copy; ``frame_fields`` redoes its faces with
``box_fields``.

They live apart from ``measures``, whose formulas they serve. They moved
here, together with two face passes since folded into ``box_fields``, so
that no module that ``import actx.cli`` compiles (without bytecode files,
every invocation compiles its imports) takes much more memory to compile
than the others: with all of it, ``measures`` took 2.1 MB of compile
temporaries (``tracemalloc``), against 1.9 MB for ``grid``, the next
largest, and set the import's peak; circle-2d's own peak RSS read 35.9 MiB
with them there and 35.4 MiB without (``scripts/peak_rss.py``, 2-core Xeon
host). With these two functions alone it would take 1.9 MB, against 2.0 MB
for ``grid``.
"""

from __future__ import annotations

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
