"""Shapes, initial data construction, transport catalog, and config parsing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actx.grid import GridSpec, ScalarField, integrate
from actx.potential import DoubleWell, surface_tension
from actx.scenario import (
    ConfigError,
    MarginError,
    ScenarioConfig,
    Transport,
    _cutoff,
    build_initial_phase,
    exponent_condition,
    parse_config,
    parse_sexpr,
    scenario_from_config,
    shape_from_sexpr,
    transport_field,
    transport_report,
)
from actx.shapes import Ball, Box, Complement, HalfSpace, Intersection, Union

from conftest import CENTER, INSET, PULSED, L, at, circle_config, form_transport

pts = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(np.array)


class TestShapes:
    def test_ball_center_and_boundary(self):
        b = Ball((0.0, 0.0), 0.25)
        assert b.sdf(np.array([0.0, 0.0])) == pytest.approx(-0.25)
        assert b.sdf(np.array([0.25, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_union_is_min_of_distances(self):
        b1 = Ball((0.0, 0.0), 0.1)
        b2 = Ball((1.0, 0.0), 0.2)
        u = Union(b1, b2)
        mid = np.array([0.5, 0.0])
        # brute-force oracle: distance to densely sampled boundary points
        ang = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        bnd = np.concatenate(
            [
                np.stack([0.1 * np.cos(ang), 0.1 * np.sin(ang)], axis=-1),
                np.stack([1.0 + 0.2 * np.cos(ang), 0.2 * np.sin(ang)], axis=-1),
            ]
        )
        brute = np.min(np.sqrt(np.sum((bnd - mid) ** 2, axis=-1)))
        assert u.sdf(mid) == pytest.approx(brute, abs=1e-6)
        assert u.sdf(mid) == pytest.approx(min(b1.sdf(mid), b2.sdf(mid)))

    def test_box_inside_outside(self):
        bx = Box((0.0, 0.0), (1.0, 2.0))
        assert bx.sdf(np.array([0.5, 1.0])) == pytest.approx(-0.5)
        assert bx.sdf(np.array([2.0, 1.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_box_sdf_same_bits_as_broadcast_form(self, dim):
        # the per-axis form against the broadcast over the component axis
        lo, hi = (-0.3, 0.1, 0.25)[:dim], (0.7, 1.3, 0.5)[:dim]
        pts = np.random.default_rng(dim).uniform(-1.0, 2.0, (40, 30, dim))
        c = 0.5 * (np.asarray(lo) + np.asarray(hi))
        q = np.abs(pts - c) - 0.5 * (np.asarray(hi) - np.asarray(lo))
        ref = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=-1)) + np.minimum(np.max(q, axis=-1), 0.0)
        got = Box(lo, hi).sdf(np.moveaxis(pts, -1, 0))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_halfspace(self):
        hs = HalfSpace((1.0, 0.0), 0.3)
        assert hs.sdf(np.array([0.0, 5.0])) == pytest.approx(-0.3)
        assert hs.sdf(np.array([0.8, -1.0])) == pytest.approx(0.5)

    def test_complement_flips_sign(self):
        b = Ball((0.0, 0.0), 0.5)
        c = Complement(b)
        p = np.array([0.1, 0.1])
        assert c.sdf(p) == pytest.approx(-b.sdf(p))

    @given(p=pts, q=pts)
    @settings(max_examples=100, deadline=None)
    def test_primitives_are_1_lipschitz(self, p, q):
        for s in (Ball((0.2, -0.1), 0.4), Box((-1, -1), (0.5, 1.0)), HalfSpace((3, 4), 0.1)):
            assert abs(s.sdf(p) - s.sdf(q)) <= np.linalg.norm(p - q) + 1e-12

    @given(p=pts)
    @settings(max_examples=100, deadline=None)
    def test_composites_never_flip_sign(self, p):
        # intersection of overlapping balls: inside iff inside both
        b1, b2 = Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0)
        inter = Intersection(b1, b2)
        truly_inside = b1.sdf(p) < 0 and b2.sdf(p) < 0
        assert (inter.sdf(p) < 0) == truly_inside


_coord = st.floats(-1.0, 2.0)


@st.composite
def _open_mesh(draw):
    """(spec, its coords(), the same nodes stacked (..., n)) on a small random lattice."""
    dim = draw(st.sampled_from([2, 3]))
    cells = tuple(draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    h = draw(st.floats(0.05, 0.4))
    lo = tuple(draw(st.lists(st.floats(-1.0, 0.5), min_size=dim, max_size=dim)))
    spec = GridSpec(dim, lo, tuple(l + c * h for l, c in zip(lo, cells)), cells)
    return spec, spec.coords(), np.stack(spec.meshgrid(), axis=-1)


def _shapes(dim):
    point = st.tuples(*[_coord] * dim)
    ball = st.builds(Ball, point, st.floats(0.01, 1.5))
    box = st.builds(lambda a, b: Box(tuple(map(min, a, b)), tuple(map(max, a, b))), point, point)
    normal = point.filter(lambda n: np.linalg.norm(n) > 0)
    half = st.builds(HalfSpace, normal, _coord)
    return st.recursive(
        st.one_of(ball, box, half),
        lambda parts: st.one_of(
            st.lists(parts, min_size=1, max_size=3).map(lambda ps: Union(*ps)),
            st.lists(parts, min_size=1, max_size=3).map(lambda ps: Intersection(*ps)),
            parts.map(Complement),
        ),
        max_leaves=5,
    )


def _form(head, *nums):
    return f"({head} {at(nums)})"


def _transports(dim):
    """Config forms of every catalog entry; repr writes each drawn number with
    all its bits, -0.0 included."""
    point = st.tuples(*[_coord] * dim)
    amount = st.floats(-20.0, 20.0)
    forms = [
        st.just("(zero)"),
        point.map(lambda b: _form("constant", *b)),
        st.tuples(amount, point).map(lambda a: _form("radial", a[0], *a[1])),
        st.tuples(amount, amount, amount, point).map(lambda a: _form("radial-pulsed", *a[:3], *a[3])),
    ]
    if dim == 2:
        forms.append(st.tuples(amount, point).map(lambda a: _form("rotation", a[0], *a[1])))
    return st.one_of(*forms)


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _node_major(parts):
    """``spatial``'s (U, G) with U's component axis moved last, as the stacked forms have it."""
    u, g = parts
    return (None if u is None else np.moveaxis(u, 0, -1)), g


class TestOpenMeshGeometry:
    """Shapes and transports on ``coords()`` against the stacked forms of reference_ops."""

    @given(mesh=_open_mesh(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_sdf_same_bits_as_stacked_form(self, mesh, data):
        from reference_ops import stacked_sdf

        spec, x, pts = mesh
        shape = data.draw(_shapes(spec.dim))
        assert _same_bits(shape.sdf(x), stacked_sdf(shape, pts))

    @given(mesh=_open_mesh(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_spatial_same_bits_as_stacked_form(self, mesh, data):
        from reference_ops import stacked_spatial

        spec, x, pts = mesh
        form = data.draw(_transports(spec.dim))
        tr = form_transport(form, spec.dim)
        for got, want in zip(_node_major(tr.spatial(x)), stacked_spatial(form, pts), strict=True):
            assert (got is None) == (want is None)
            if got is not None:
                assert _same_bits(got, want)

    @pytest.mark.parametrize("vector", [(-0.0, -0.0), (-0.0, -0.5)])
    def test_signed_zero_potential_same_bits_as_stacked_form(self, vector):
        # a potential whose terms are all -0.0 at a node sums to +0.0 in the stacked form
        from reference_ops import stacked_spatial

        dim = len(vector)
        spec = GridSpec(dim, (0.0,) * dim, (0.25,) * dim, (1,) * dim)
        form = _form("constant", *vector)
        pts = np.stack(spec.meshgrid(), axis=-1)
        tr = form_transport(form, dim)
        for got, want in zip(_node_major(tr.spatial(spec.coords())), stacked_spatial(form, pts), strict=True):
            assert _same_bits(got, want)


WELL4 = DoubleWell.from_coeffs([2.0, 0.0, -4.0, 0.0, 2.0], kappa=4.0)


def _slab_config(dim: int, kind: str) -> ScenarioConfig:
    """A scenario on a box of unequal sides, h = 1/48 and eps = 4h, whose shape
    of the given kind clears the collar: a ball, a box less a ball joined with
    a smaller ball, a ball cut by a half-space, or a ball under a polynomial
    well (the RK4 profile table)."""
    cells = (48, 45, 42)[:dim]
    lo, hi = (0.38,) * dim, (0.62, 0.56, 0.49)[:dim]
    c = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
    n = (1.0, 0.5, -0.25)[:dim]  # the half-space's plane passes through c
    shape = {
        "ball": Ball(c, 0.06),
        "union-complement": Union(Intersection(Box(lo, hi), Complement(Ball(c, 0.05))), Ball(c, 0.02)),
        "halfspace": Intersection(Ball(c, 0.06), HalfSpace(n, sum(a * b for a, b in zip(n, c)))),
        "poly": Ball(c, 0.06),
    }[kind]
    spec = GridSpec(dim, (0.0,) * dim, tuple(k / 48 for k in cells), cells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps = 4h is marginally resolved, which is fine here
        return ScenarioConfig(grid=spec, shape=shape, transport=Transport(), epsilon=4.0 / 48,
                              t_end=0.01, tau=0.005, inset_prime=0.04, inset_dprime=0.02,
                              **({"well": WELL4} if kind == "poly" else {}))


class TestSlabBuild:
    """``build_initial_phase`` goes by axis-0 slabs; the whole-field form is
    ``reference_ops.whole_field_phase``."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["ball", "union-complement", "halfspace", "poly"])
    @pytest.mark.parametrize("rows", [1, 3, 5, None])
    def test_same_bits_as_whole_field(self, dim, kind, rows, monkeypatch):
        # 49 nodes on axis 0: slabs of 3 or 5 rows leave a shorter last one;
        # None keeps the default slab, which holds the whole of these grids
        import actx.scenario
        from reference_ops import whole_field_phase

        cfg = _slab_config(dim, kind)
        if rows is not None:
            monkeypatch.setattr(actx.scenario, "SLAB_NODES", rows * cfg.grid.n_nodes // 49)
        phi = build_initial_phase(cfg).values
        want = whole_field_phase(cfg).values
        assert phi.shape == want.shape and np.array_equal(phi.view(np.uint64), want.view(np.uint64))
        assert np.any(phi > 0.0)  # the shape is there

    @pytest.mark.filterwarnings("ignore:epsilon=.* interface marginally resolved")
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("shape", ["halfspace", "ball"])
    def test_margin_error_reports_the_same_margin(self, dim, shape, monkeypatch):
        # a plane through the box, and a ball too large for the collar
        import dataclasses

        import actx.scenario
        from reference_ops import whole_field_phase

        cfg = _slab_config(dim, "ball")
        c = (0.5,) * dim
        cfg = dataclasses.replace(cfg, shape=HalfSpace((1.0,) + (0.0,) * (dim - 1), 0.5) if shape == "halfspace"
                                  else Ball(c, 0.2))
        monkeypatch.setattr(actx.scenario, "SLAB_NODES", 3 * cfg.grid.n_nodes // 49)
        with pytest.raises(MarginError) as got:
            build_initial_phase(cfg)
        with pytest.raises(MarginError) as want:
            whole_field_phase(cfg)
        assert str(got.value) == str(want.value)

    def test_cutoff_field_same_bits_as_whole_field(self):
        from reference_ops import whole_field_cutoff

        cfg = _slab_config(3, "ball")
        assert np.array_equal(_cutoff(cfg, cfg.grid.coords()), whole_field_cutoff(cfg))


class TestInitialPhase:
    def test_3d_build_peaks_below_two_fields(self):
        # phi0 is built slab by slab: beside the one field, only a slab's
        # distances, cutoff and profile are live (64 Ki nodes, 0.23 of a field
        # here); the peak read 1.80 fields
        import tracemalloc

        spec = GridSpec(3, (0.0,) * 3, (1.6,) * 3, (64,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # eps = 4h is marginally resolved, which is fine here
            cfg = ScenarioConfig(grid=spec, shape=Ball((0.8,) * 3, 0.25), transport=Transport(),
                                 epsilon=0.1, t_end=0.01, tau=0.005, inset_prime=0.12, inset_dprime=0.06)
        tracemalloc.start()
        try:
            phi = build_initial_phase(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * phi.values.nbytes

    def test_values_stay_in_range(self):
        cfg = circle_config(128, 16)
        phi = build_initial_phase(cfg)
        assert phi.values.min() >= -1.0 - 1e-12
        assert phi.values.max() <= 1.0 + 1e-12
        x, y = cfg.grid.meshgrid()
        # off the outer inset box: exactly -1
        edge = np.maximum(np.abs(x - CENTER[0]), np.abs(y - CENTER[1])) >= L / 2 - INSET / 2
        assert np.all(phi.values[edge] == -1.0)

    def test_plateaus_on_resolved_shape(self):
        # ball large enough that points 8 eps from the interface exist
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = circle_config(128, 8, radius=0.45)
        phi = build_initial_phase(cfg)
        x, y = cfg.grid.meshgrid()
        r = np.sqrt((x - CENTER[0]) ** 2 + (y - CENTER[1]) ** 2)
        deep = r < 0.45 - 8 * cfg.epsilon
        assert np.all(np.abs(phi.values[deep] - 1.0) < 1e-6)
        far = (r > 0.45 + 8 * cfg.epsilon) & (
            np.maximum(np.abs(x - CENTER[0]), np.abs(y - CENTER[1])) < L / 2 - INSET
        )
        assert np.all(np.abs(phi.values[far] + 1.0) < 1e-6)

    def test_margin_violation_reports_measured_margin(self):
        cfg = circle_config(128, 16, radius=0.52)
        with pytest.raises(MarginError, match="measured margin"):
            build_initial_phase(cfg)

    def test_initial_energy_matches_perimeter_oracle(self):
        cfg = circle_config(256, 8)
        from actx.measures import EnergyMeasure

        mu = EnergyMeasure.from_phase(build_initial_phase(cfg), cfg.epsilon, cfg.well)
        target = surface_tension(cfg.well) * 2 * np.pi * 0.25
        assert mu.total == pytest.approx(target, rel=0.05)
        # the cap from the initial-surface oracle
        assert mu.total <= 1.2 * target

    def test_cutoff_is_one_on_inner_box_zero_outside(self):
        cfg = circle_config(128, 16)
        l = _cutoff(cfg, cfg.grid.coords())
        x, y = cfg.grid.meshgrid()
        d_inf = np.maximum(np.abs(x - CENTER[0]), np.abs(y - CENTER[1]))
        assert np.all(l[d_inf <= L / 2 - INSET - 1e-9] == 1.0)
        assert np.all(l[d_inf >= L / 2 - INSET / 2 - 1e-9] == 0.0)
        assert np.all((l >= 0) & (l <= 1))

    def test_construction_discrepancy_bounds(self):
        # construction-side: the profile identity is exact on the inner box;
        # on the grid, away from the interface core, xi stays under 1e-3/eps
        from actx.checks import discrepancy_field

        cfg = circle_config(256, 8)
        phi = build_initial_phase(cfg)
        xi = discrepancy_field(phi, cfg.epsilon, cfg.well)
        x, y = cfg.grid.meshgrid()
        d = np.sqrt((x - CENTER[0]) ** 2 + (y - CENTER[1]) ** 2) - 0.25
        box = cfg.grid.box_slices(cfg.omega_prime())
        core = np.abs(xi.values[box])[np.abs(d[box]) >= 2 * cfg.epsilon]
        assert np.max(core) <= 1e-3 / cfg.epsilon
        # in the cutoff collar the distortion stays under 0.02/eps
        l = _cutoff(cfg, cfg.grid.coords())
        collar = (l > 0) & (l < 1)
        assert np.max(np.abs(xi.values[collar])) <= 0.02 / cfg.epsilon


def _nodes(cfg):
    return np.stack(cfg.grid.meshgrid(), axis=-1)


def _old_bounds(cfg, times):
    """(sup|u|, sup|grad u|, first violation) as the separate bounds scan computed them."""
    pts = _nodes(cfg)
    cap_u = cfg.epsilon ** (-cfg.beta)
    cap_ju = cfg.epsilon ** (-(cfg.beta + 1.0))
    sup_u = sup_ju = 0.0
    first = None
    for t in times:
        u = cfg.transport.velocity(pts, float(t))
        jac = cfg.transport.m(float(t)) * cfg.transport.spatial_jacobian(pts.shape[-1])
        su = float(np.max(np.sqrt(np.sum(u * u, axis=-1))))
        sj = float(np.max(np.sqrt(np.sum(jac * jac, axis=(-2, -1)))))
        sup_u, sup_ju = max(sup_u, su), max(sup_ju, sj)
        if first is None and (su > cap_u or sj > cap_ju):
            first = float(t)
    return sup_u, sup_ju, first


class TestTransport:
    def test_radial_gradient_is_exact(self):
        cfg = circle_config(128, 16, transport=form_transport("(radial 16.0 0.8 0.8)"))
        u = cfg.transport.velocity(_nodes(cfg), 0.0)
        x, y = cfg.grid.meshgrid()
        assert np.array_equal(u[..., 0], 16.0 * (x - CENTER[0]))
        assert np.array_equal(u[..., 1], 16.0 * (y - CENTER[1]))

    def test_zero_catalog_entry(self):
        cfg = circle_config(128, 16)
        assert not np.any(cfg.transport.velocity(_nodes(cfg), 0.0))
        rep = transport_report(cfg)
        assert (rep.norm, rep.sup_u, rep.sup_grad_u, rep.first_violation) == (0.0, 0.0, 0.0, None)

    def test_rotation_is_divergence_free(self):
        from reference_ops import gradient

        cfg = circle_config(128, 16, transport=form_transport("(rotation 1.5 0.8 0.8)"))
        u = cfg.transport.velocity(_nodes(cfg), 0.0)
        dux = gradient(ScalarField(cfg.grid, u[..., 0]), 0.0).values[..., 0]
        duy = gradient(ScalarField(cfg.grid, u[..., 1]), 0.0).values[..., 1]
        div = dux[1:-1, 1:-1] + duy[1:-1, 1:-1]
        assert np.max(np.abs(div)) < 1e-12

    def test_bound_violation_warns_not_clamps(self):
        # the report flags the static violation at t = 0 (the run warns from it)
        cfg = circle_config(128, 16, transport=form_transport("(radial 50.0 0.8 0.8)"))
        rep = transport_report(cfg)
        assert rep.first_violation == 0.0
        assert rep.sup_u > rep.cap_u and rep.sup_grad_u > rep.cap_grad_u
        assert rep.sup_u == pytest.approx(50.0 * 0.8 * math.sqrt(2), rel=1e-12)  # unclamped

    def test_bounds_report_flags_first_violation(self):
        tr = form_transport("(radial-pulsed 0.5 40.0 200.0 0.8 0.8)")
        cfg = circle_config(128, 16, transport=tr)
        rep = transport_report(cfg)
        assert rep.first_violation is not None and rep.first_violation > 0.0
        sup_u, sup_ju, first = _old_bounds(cfg, np.linspace(0.0, cfg.t_end, 65))
        assert rep.sup_u == pytest.approx(sup_u, rel=1e-13)
        assert rep.sup_grad_u == pytest.approx(sup_ju, rel=1e-13)
        assert rep.first_violation == first
        assert (rep.cap_u, rep.cap_grad_u) == (cfg.epsilon**-0.25, cfg.epsilon**-1.25)
        assert transport_report(circle_config(128, 16)).first_violation is None

    def test_gradient_cap_alone_flags_violation(self):
        # on a small box |u| stays under eps^-beta while |grad u|_F = sqrt(2) m exceeds eps^-(beta+1)
        spec = GridSpec(2, (0.0, 0.0), (0.4, 0.4), (64, 64))
        cfg = ScenarioConfig(grid=spec, shape=Ball((0.2, 0.2), 0.1),
                             transport=form_transport("(radial 4.0 0.2 0.2)"), epsilon=0.3, t_end=0.05, tau=0.01)
        rep = transport_report(cfg)
        assert rep.sup_u <= rep.cap_u and rep.sup_grad_u > rep.cap_grad_u
        assert rep.first_violation == 0.0
        sup_u, sup_ju, first = _old_bounds(cfg, [0.0])
        assert rep.sup_u == pytest.approx(sup_u, rel=1e-13)
        assert rep.sup_grad_u == pytest.approx(sup_ju, rel=1e-13)
        assert rep.first_violation == first


def _old_jacobian_field(form, pts, t):
    """The Jacobian of a config form's transport as the catalog built it node by
    node before it became a broadcast value."""
    head, *nums = form.strip("()").split()
    vals = [float(v) for v in nums]
    n = pts.shape[-1]
    if head.startswith("radial"):
        c, amp, freq = vals[:3] if head == "radial-pulsed" else (vals[0], 0.0, 0.0)
        m = c + amp * math.sin(freq * t)
        return m * np.broadcast_to(np.eye(n), pts.shape[:-1] + (n, n)).copy()
    j = np.zeros(pts.shape[:-1] + (n, n))
    if head == "rotation":
        j[..., 0, 1] = vals[0]
        j[..., 1, 0] = -vals[0]
    return j


def _lattice(dim, cells=24):
    spec = GridSpec(dim, (0.0,) * dim, (1.6,) * dim, (cells,) * dim)
    return spec, np.stack(spec.meshgrid(), axis=-1)


class TestRadialGradientBits:
    """The per-axis forms against the expressions over the (..., dim) point array."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.0123, 0.31])
    def test_velocity_g_dt_g(self, dim, t):
        spec, pts = _lattice(dim)
        c = (0.8, 0.7, 0.75)[:dim]
        for form, (strength, amp, freq) in ((f"(radial 16.0 {at(c)})", (16.0, 0.0, 0.0)),
                                            (f"(radial-pulsed 1.2 0.3125 5.0 {at(c)})", (1.2, 0.3125, 5.0))):
            tr = form_transport(form, dim)
            d = pts - np.asarray(c)
            m = strength + amp * math.sin(freq * t)
            assert np.array_equal(tr.velocity(pts, t), m * d)
            pot = tr.spatial(spec.coords())[1]  # G, with g = m G
            assert np.array_equal(tr.m(t) * pot, 0.5 * m * np.sum(d * d, axis=-1))

    def test_center_must_match_dim(self):
        _spec, pts = _lattice(3, 4)
        with pytest.raises(ConfigError, match="center"):
            form_transport("(radial 1.0 0.5 0.5)").velocity(pts, 0.0)


class TestTransportField:
    def test_spatial_part_once_per_grid(self, monkeypatch):
        # a pulsed rk2 run and the manifest's transport report share one evaluation of U and G
        from actx import scenario
        from actx.solver import SolverConfig, run

        calls = []
        spatial = Transport.spatial

        def counted(self, x):
            calls.append(tuple(np.shape(xk) for xk in x))
            return spatial(self, x)

        monkeypatch.setattr(Transport, "spatial", counted)
        scenario._transport_field_cached.cache_clear()
        tr = form_transport(PULSED)
        cfg = circle_config(96, 16, t_end=0.002, tau=0.001, transport=tr)
        run(cfg, SolverConfig(scheme="rk2", diag_every=10))
        transport_report(cfg)
        assert calls == [tuple(xk.shape for xk in cfg.grid.coords())]
        for arr in transport_field(tr, cfg.grid):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0

    @pytest.mark.parametrize("forms", [("(rotation 0.0 0.5 0.5)", "(rotation -0.0 0.5 0.5)"),
                                       ("(constant 0.0 1.0)", "(constant -0.0 1.0)")], ids=["rotation", "constant"])
    def test_signed_zero_forms_keep_their_own_field(self, forms):
        # the two forms compare equal, but their U (and G) differ in the signs of zeros
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
        plus, minus = (form_transport(form) for form in forms)
        assert plus == minus
        for tr in (plus, minus, plus):
            for got, want in zip(transport_field(tr, spec), tr.spatial(spec.coords())):
                assert (got is None and want is None) or np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.array_equal(*(transport_field(tr, spec).u.view(np.uint64) for tr in (plus, minus)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_transport_holds_no_array(self, dim):
        spec = GridSpec(dim, (0.0,) * dim, (1.0,) * dim, (8,) * dim)
        assert tuple(transport_field(Transport(), spec)) == (None, None)


class TestTransportNorm:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_jacobian_broadcasts_to_old_field(self, dim):
        _spec, pts = _lattice(dim, 8)
        c = (0.8,) * dim
        forms = ["(zero)", _form("constant", *(0.3,) * dim), f"(radial-pulsed 1.2 0.3 5.0 {at(c)})"]
        if dim == 2:
            forms.append(f"(rotation 1.5 {at(c)})")
        for form in forms:
            tr = form_transport(form, dim)
            jac = tr.m(0.2) * tr.spatial_jacobian(dim)
            assert jac.shape == (dim, dim)
            assert np.array_equal(np.broadcast_to(jac, pts.shape[:-1] + (dim, dim)),
                                  _old_jacobian_field(form, pts, 0.2))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [None, 2.5, 3.0, 4.5])
    def test_same_bits_as_jacobian_field_form(self, dim, p):
        # the norm from |m(t)| times one spatial norm against the per-sample (nodes, n, n)
        # field form it replaced: the same up to rounding, the same first violation
        spec, pts = _lattice(dim)
        c = (0.8,) * dim
        forms = [
            "(zero)",
            _form("constant", *(0.4, -0.1, 0.2)[:dim]),
            f"(radial 16.0 {at(c)})",
            f"(radial-pulsed 1.2 0.3125 5.0 {at(c)})",
            f"(radial -16.0 {at(c)})",  # m < 0: the bounds and the norm take |m|
            f"(radial-pulsed -0.2 1.5 80.0 {at(c)})",  # m changes sign
        ]
        if dim == 2:
            forms.append(f"(rotation 1.5 {at(c)})")
        for form in forms:
            tr = form_transport(form, dim)
            cfg = ScenarioConfig(grid=spec, shape=Ball(c, 0.5), transport=tr, epsilon=0.45,
                                 t_end=0.05, tau=0.01, p=p)

            def spatial(t):
                u = tr.velocity(pts, t)
                jac = _old_jacobian_field(form, pts, t)
                dens = (np.sqrt(np.sum(u * u, axis=-1)) ** cfg.p
                        + np.sqrt(np.sum(jac * jac, axis=(-2, -1))) ** cfg.p)
                return integrate(ScalarField(spec, dens)) ** (1.0 / cfg.p)

            if tr.time_dependent:
                times = np.linspace(0.0, cfg.t_end, 65)
                norms = np.array([spatial(float(t)) for t in times])
                ref = float(np.trapezoid(norms**cfg.q, times) ** (1.0 / cfg.q))
            else:
                times = [0.0]
                ref = float(spatial(0.0) * cfg.t_end ** (1.0 / cfg.q))
            rep = transport_report(cfg)
            sup_u, sup_ju, first = _old_bounds(cfg, times)
            assert rep.norm == pytest.approx(ref, rel=1e-13), tr
            assert rep.sup_u == pytest.approx(sup_u, rel=1e-13), tr
            assert rep.sup_grad_u == pytest.approx(sup_ju, rel=1e-13), tr
            assert rep.first_violation == first, tr

    def test_zero_field(self):
        assert transport_report(circle_config(128, 16)).norm == 0.0

    @pytest.mark.parametrize("tr", [form_transport("(radial 16.0 0.8 0.8)"), form_transport(PULSED)],
                             ids=["static", "pulsed"])
    def test_one_spatial_integral(self, monkeypatch, tr):
        # m(t) scales the numbers of one spatial norm, whatever the number of sample times
        from actx import scenario

        calls = []

        def counted(f, region=None):
            calls.append(f.values.shape)
            return integrate(f, region)

        monkeypatch.setattr(scenario, "integrate", counted)
        cfg = circle_config(128, 16, transport=tr)
        assert transport_report(cfg).norm > 0.0
        assert calls == [cfg.grid.nodes]

    def test_zero_field_forms_no_field(self):
        import tracemalloc

        cfg = circle_config(128, 16)
        tracemalloc.start()
        try:
            rep = transport_report(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cfg.grid.n_nodes
        assert [repr(v) for v in (rep.norm, rep.sup_u, rep.sup_grad_u)] == ["0.0"] * 3
        assert rep.first_violation is None

    def test_constant_field_closed_form(self):
        # |Omega|^{1/p} * T^{1/q} with |Omega| = 1, T = 1, p = 2, q = 4
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (64, 64))
        cfg = ScenarioConfig(
            grid=spec, shape=Ball((0.5, 0.5), 0.2), transport=form_transport("(constant 1.0 0.0)"),
            epsilon=8 / 64, t_end=1.0, p=2.0, q=4.0,
        )
        assert transport_report(cfg).norm == pytest.approx(1.0, abs=1e-3)

    def test_homogeneity(self):
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (64, 64))

        def cfg_with(vec):
            return ScenarioConfig(
                grid=spec, shape=Ball((0.5, 0.5), 0.2), transport=form_transport(_form("constant", *vec)),
                epsilon=8 / 64, t_end=0.5, p=2.5, q=3.0,
            )

        n1 = transport_report(cfg_with((0.4, 0.1))).norm
        n2 = transport_report(cfg_with((0.8, 0.2))).norm
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_time_reparametrization_invariance(self):
        # constant-in-time field: the norm depends on T only through T^{1/q}
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (64, 64))

        def norm_at(t_end):
            cfg = ScenarioConfig(
                grid=spec, shape=Ball((0.5, 0.5), 0.2), transport=form_transport("(constant 1.0 0.0)"),
                epsilon=8 / 64, t_end=t_end, p=2.0, q=4.0,
            )
            return transport_report(cfg).norm / t_end ** (1 / 4)

        assert norm_at(0.5) == pytest.approx(norm_at(2.0), rel=1e-12)

    def test_exponent_condition(self):
        # n = 2, q = 3: need p > 6/4 = 1.5 (and p >= 4/3)
        assert exponent_condition(2, 0.7, 3.0) is not None
        assert exponent_condition(2, 2.0, 3.0) is None
        assert exponent_condition(2, 2.0, 1.5) is not None
        assert exponent_condition(3, 1.9, 4.0) is not None  # need p > 2


class TestConfigParsing:
    GOOD = """
dim = 2
cells = 64
epsilon = 0.125
shape = (ball 0.5 0.5 0.2)
T = 0.01
tau = 0.005
"""

    def test_round_trip(self):
        cfg = scenario_from_config(parse_config(self.GOOD))
        assert cfg.epsilon == 0.125
        assert isinstance(cfg.shape, Ball)

    # seed and m0 were once accepted and then ignored; they are unknown keys now
    @pytest.mark.parametrize("key", ["frobnicate", "seed", "m0"])
    def test_unknown_key_names_key_and_line(self, key):
        with pytest.raises(ConfigError, match=rf"line 2.*'{key}'"):
            parse_config(f"dim = 2\n{key} = 3\n")

    def test_duplicate_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'dim'"):
            parse_config("dim = 2\n# comment\ndim = 3\n")

    def test_default_p_valid_in_3d(self):
        # p = 2 fails the 3D exponent condition (p > 2); the default is p = n
        text = self.GOOD.replace("dim = 2", "dim = 3").replace("0.5 0.5 0.2", "0.5 0.5 0.5 0.2")
        cfg = scenario_from_config(parse_config(text))
        assert cfg.grid.dim == 3 and cfg.p == 3.0
        assert scenario_from_config(parse_config(self.GOOD)).p == 2.0

    @pytest.mark.parametrize("transport", ["(rotation 1.5 0.5 0.5)", "(rotation 1.5 0.5 0.5 0.5)"])
    def test_3d_rotation_rejected_at_load(self, transport):
        text = self.GOOD.replace("dim = 2", "dim = 3").replace("0.5 0.5 0.2", "0.5 0.5 0.5 0.2")
        with pytest.raises(ConfigError, match="rotation transport is 2D only"):
            scenario_from_config(parse_config(text + f"transport = {transport}\n"))

    def test_rotation_needs_its_center(self):
        # the (rotation w) short form, centred at (0.5, 0.5), fitted the unit box alone
        with pytest.raises(ConfigError, match=r"\(rotation omega cx cy\) needs 3 numbers"):
            scenario_from_config(parse_config(self.GOOD + "transport = (rotation 1.5)\n"))

    def test_missing_required_key(self):
        conf = parse_config(self.GOOD.replace("epsilon = 0.125", ""))
        with pytest.raises(ConfigError, match="'epsilon'"):
            scenario_from_config(conf)

    def test_exponent_violation_cited(self):
        conf = parse_config(self.GOOD + "p = 0.7\nq = 3\n")
        with pytest.raises(ConfigError, match="exponent condition"):
            scenario_from_config(conf)

    @pytest.mark.parametrize("line, match", [
        ("transport = (radial (1) 0.5 0.5)", r"\(radial \.\.\.\) takes numbers, got the form \(1\)"),
        ("shape = (ball (0.5) 0.5 0.2)", r"\(ball \.\.\.\) takes numbers, got the form \(0\.5\)"),
        ("transport = (zero 5)", r"\(zero\) takes no arguments, got 1"),
        ("shape = (ball 0.8 0.8x 0.25)", r"^\(ball \.\.\.\) takes numbers, got '0\.8x' in shape$"),
        ("transport = (radial 1 0.5 .5.)", r"^\(radial \.\.\.\) takes numbers, got '\.5\.' in transport$"),
        ("potential = poly 0.25 0 -0.5x 0 0.25", r"^\(poly \.\.\.\) takes numbers, got '-0\.5x' in potential$"),
    ], ids=["nested-transport-arg", "nested-shape-arg", "zero-with-arg", "shape-bad-number",
            "transport-bad-number", "potential-bad-number"])
    def test_malformed_form_rejected(self, line, match):
        key = line.split()[0]
        text = "\n".join(ln for ln in self.GOOD.splitlines() if not ln.startswith(key))
        with pytest.raises(ConfigError, match=match):
            scenario_from_config(parse_config(text + "\n" + line + "\n"))

    def test_nested_shape_sexpr(self):
        node = parse_sexpr("(union (ball 0 0 0.25) (intersection (box 0 0 1 1) (halfspace 1 0 0.5)))")
        shape = shape_from_sexpr(node, 2)
        assert isinstance(shape, Union)
        assert isinstance(shape.parts[1], Intersection)

    def test_unbalanced_sexpr(self):
        with pytest.raises(ConfigError, match="parenthes"):
            parse_sexpr("(ball 0 0 0.25")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ndim = 2  # trailing\ncells = 32\nepsilon = 0.25\nshape = (ball 0.5 0.5 0.2)\nT = 0.01\ntau = 0.004\n"
        cfg = scenario_from_config(parse_config(text))
        assert cfg.grid.cells == (32, 32)

    def test_invalid_beta_and_margin_rules(self):
        with pytest.raises(ConfigError, match="beta"):
            circle_config_bad = ScenarioConfig(
                grid=GridSpec(2, (0, 0), (1, 1), (64, 64)),
                shape=Ball((0.5, 0.5), 0.2),
                transport=Transport(),
                epsilon=0.125, t_end=0.01, beta=0.7,
            )

    def test_under_resolved_epsilon_rejected(self):
        with pytest.raises(ConfigError, match="under-resolved"):
            ScenarioConfig(
                grid=GridSpec(2, (0, 0), (1, 1), (32, 32)),
                shape=Ball((0.5, 0.5), 0.2),
                transport=Transport(),
                epsilon=0.06, t_end=0.01, tau=0.001,
            )
