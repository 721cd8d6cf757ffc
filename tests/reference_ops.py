"""Reference operators for the tests: a padded copy with one ghost layer per
face, the Laplacian, gradient and advection term built on it, the explicit
step's folded update as one whole-field expression, and the shapes' signed
distances and the transports' spatial parts over stacked points.

The program forms these stencils by stride shifts in blocks
(``grid.stencil_rhs``, ``measures.frame_fields``) and its geometry one axis
at a time over an open mesh (``GridSpec.coords``); the tests hold those to
the forms here, bit for bit where the arithmetic is the same. ``grad_sq``
is |grad f|^2 by whole-field stride shifts, the frame fields' reference.
``whole_field_cutoff``, ``whole_field_phase`` and ``whole_box_ball_masses``
build the cutoff, the initial phase and the ball masses over the whole
field at once, where the program goes slab by slab.
"""

import math

import numpy as np

from actx.grid import GridError, ScalarField, VectorField, _check_finite, outer_sum_sq
from actx.potential import _smoothstep, profile_psi
from actx.scenario import MarginError
from actx.shapes import Ball, Box, Complement, HalfSpace, Intersection, Union


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


def folded_update(
    f: ScalarField,
    u: VectorField | None,
    eps: float,
    well,
    scale: float = 1.0,
    base: np.ndarray | None = None,
    m: float = 1.0,
) -> np.ndarray:
    """base + scale (lap f - W'(f)/eps^2 - m u . grad f) at every node, in the
    folded, division-free form of ``grid.stencil_rhs``:

        c1 sum_k (up_k + dn_k) + q(f) + cu sum_k u_k (up_k - dn_k) + base,

    c1 = scale/h^2, cu = -scale m/(2h), q(s) = -(scale/eps^2) W'(s) - 2n c1 s by
    Horner's rule from the top non-zero coefficient (degree 1 at least), with
    additions of zero coefficients skipped. Sums run in axis order and terms
    are added left to right, whole field at a time on the padded copy (ghosts
    at -1): the interior nodes are those of the program; the faces are not.
    """
    h, n = f.spec.h, f.values.ndim
    pad = _padded(f, -1.0)
    core = tuple(slice(1, -1) for _ in range(n))

    def shifted(ax, by):
        sl = list(core)
        sl[ax] = slice(1 + by, pad.shape[ax] - 1 + by)
        return pad[tuple(sl)]

    c1, cu = scale / h**2, -scale * m / (2.0 * h)
    q = [-(scale / (eps * eps)) * c for c in well.wprime_coeffs()]
    q[1] -= 2 * n * c1
    top = max([1] + [j for j, c in enumerate(q) if c])
    s = f.values
    poly = s * q[top]
    for j in range(top - 1, 0, -1):
        if q[j]:
            poly = poly + q[j]
        poly = poly * s
    if q[0]:
        poly = poly + q[0]

    total = shifted(0, 1) + shifted(0, -1)
    for ax in range(1, n):
        total = total + shifted(ax, 1) + shifted(ax, -1)
    out = c1 * total + poly
    if u is not None:
        adv = (shifted(0, 1) - shifted(0, -1)) * u.values[..., 0]
        for ax in range(1, n):
            adv = adv + (shifted(ax, 1) - shifted(ax, -1)) * u.values[..., ax]
        out = out + cu * adv
    if base is not None:
        out = out + base
    return out


def grad_sq(f: ScalarField) -> np.ndarray:
    """|grad f|^2 at every node from second-order central differences.

    Along each axis one contiguous subtraction of the flattened field
    shifted by +-stride gives every node's difference; the two faces, where
    the shift wraps around, are redone with the ghost node ``2 f_face -
    f_inner``. The squares are summed in axis order.
    """
    v, h = f.values, f.spec.h
    flat, out, g = v.reshape(-1), np.empty(v.shape), np.empty(v.shape)
    for ax, st in enumerate(st // v.itemsize for st in v.strides):
        np.subtract(flat[2 * st :], flat[: flat.size - 2 * st], out=g.reshape(-1)[st : flat.size - st])
        va, ga = np.moveaxis(v, ax, 0), np.moveaxis(g, ax, 0)
        np.subtract(va[1], 2.0 * va[0] - va[1], out=ga[0])
        np.subtract(2.0 * va[-1] - va[-2], va[-2], out=ga[-1])
        g /= 2.0 * h
        if ax == 0:
            np.multiply(g, g, out=out)
        else:
            g *= g
            out += g
    return out


def stacked_sdf(shape, pts: np.ndarray) -> np.ndarray:
    """The shape's signed distance at stacked points (..., n): each primitive
    broadcast over the component axis and reduced over it with np.sum or
    np.max, the composites reduced over a stack of their parts' distances."""
    if isinstance(shape, Ball):
        d = pts - np.asarray(shape.center)
        return np.sqrt(np.sum(d * d, axis=-1)) - shape.radius
    if isinstance(shape, Box):
        lo, hi = np.asarray(shape.lo), np.asarray(shape.hi)
        q = np.abs(pts - 0.5 * (lo + hi)) - 0.5 * (hi - lo)
        return np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=-1)) + np.minimum(np.max(q, axis=-1), 0.0)
    if isinstance(shape, HalfSpace):
        n = np.asarray(shape.normal, dtype=np.float64)
        return (np.sum(pts * n, axis=-1) - shape.offset) / np.linalg.norm(n)
    if isinstance(shape, Union):
        return np.minimum.reduce([stacked_sdf(p, pts) for p in shape.parts])
    if isinstance(shape, Intersection):
        return np.maximum.reduce([stacked_sdf(p, pts) for p in shape.parts])
    if isinstance(shape, Complement):
        return -stacked_sdf(shape.part, pts)
    raise TypeError(f"no stacked form for {shape!r}")


def stacked_spatial(form: str, pts: np.ndarray):
    """(U, G) of the transport a config form such as ``(radial 16 0.8 0.8)``
    describes, from its head and numbers, at stacked points (..., n), broadcast
    over the component axis; None where the entry has no such part."""
    head, *nums = form.strip("()").split()
    vals = [float(v) for v in nums]
    if head == "zero":
        return None, None
    if head == "constant":
        a = np.asarray(vals)
        return np.broadcast_to(a, pts.shape).copy(), np.sum(pts * a, axis=-1)
    if head == "rotation":
        d = pts - np.asarray(vals[1:])
        return vals[0] * np.stack([d[..., 1], -d[..., 0]], axis=-1), None
    if head in ("radial", "radial-pulsed"):
        d = pts - np.asarray(vals[-pts.shape[-1]:])
        return d, 0.5 * np.sum(d * d, axis=-1)
    raise ValueError(f"no stacked form for {form!r}")


def whole_field_cutoff(cfg) -> np.ndarray:
    """The C^2 cutoff on the whole grid: 1, the quintic ramp of the two box
    distances on the collar, 0 on and off the outer box's faces."""
    x = cfg.grid.coords()
    dp = Box(*cfg.omega_prime()).sdf(x)
    dd = Box(*cfg.omega_dprime()).sdf(x)
    l = np.ones(cfg.grid.nodes)
    collar = (dp > 0) & (dd < 0)
    l[collar] = 1.0 - _smoothstep(dp[collar] / (dp[collar] - dd[collar]))
    l[dd >= 0] = 0.0
    return l


def whole_field_phase(cfg) -> ScalarField:
    """phi0 = l psi(-d/eps) + l - 1 with the shape's distance d, the cutoff l and
    the collar margin each formed on the whole grid at once; ``MarginError``
    with the smallest d where l < 1 when it is below 4 eps."""
    d = cfg.shape.sdf(cfg.grid.coords())
    l = whole_field_cutoff(cfg)
    off_core = l < 1.0
    if np.any(off_core):
        margin = float(np.min(d[off_core]))
        if margin < 4.0 * cfg.epsilon:
            raise MarginError(
                f"shape must clear the cutoff collar by 4*eps = {4 * cfg.epsilon:g}; "
                f"measured margin {margin:g}"
            )
    return ScalarField(cfg.grid, l * profile_psi(cfg.well, d / -cfg.epsilon) + l - 1.0)


def whole_box_ball_masses(measure, radius: float, centres) -> np.ndarray:
    """mu(B_radius(x)) at the sub-lattice ``centres`` from one prefix sum along
    axis 0 over the whole box, padded by m = ceil(r/h) rows clamped to its end
    values and m zero columns on the other axes: one chord difference per
    offset line of the ball (|k h|^2 < r^2 (1 - 1e-12)), the lines in the order
    of their offsets on axes 1.. (row-major), as the program adds them."""
    spec, vals = measure.spec, measure.density.values
    m = int(math.ceil(radius / spec.h))
    d2 = outer_sum_sq([np.arange(-m, m + 1) * spec.h] * spec.dim)
    count = np.count_nonzero(d2 < radius**2 * (1.0 - 1e-12), axis=0)
    lines = [(int(count[off]) // 2, tuple(int(i) - m for i in off)) for off in zip(*np.nonzero(count))]
    cum = np.zeros((vals.shape[0] + 2 * m + 1,) + tuple(n + 2 * m for n in vals.shape[1:]))
    inner = tuple(slice(m, m + n) for n in vals.shape[1:])
    np.cumsum(vals, axis=0, out=cum[(slice(m + 1, m + 1 + vals.shape[0]),) + inner])
    cum[m + 1 + vals.shape[0] :] = cum[m + vals.shape[0]]
    sub = [range(*sl.indices(n)) for sl, n in zip(centres, vals.shape)]
    out = np.zeros(tuple(len(r) for r in sub))

    def shifted(axis, by):
        r = sub[axis]
        return slice(r.start + by, r.start + by + (len(r) - 1) * r.step + 1, r.step)

    for a, off in lines:
        rest = tuple(shifted(k + 1, m + b) for k, b in enumerate(off))
        out += cum[(shifted(0, m + a + 1),) + rest] - cum[(shifted(0, m - a),) + rest]
    return out * spec.h**spec.dim
