"""Reference stencil operators for the tests: a padded copy with one ghost
layer per face, and the Laplacian, gradient and advection term built on it.

The program forms these stencils by stride shifts (``grid.stencil_rhs``,
``grid.grad_sq``); the tests hold those to the operators here, bit for bit
where the arithmetic is the same.
"""

import numpy as np

from actx.grid import GridError, ScalarField, VectorField, _check_finite


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
