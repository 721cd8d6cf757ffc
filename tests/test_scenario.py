"""Shapes, initial data construction, transport catalog, and config parsing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actx.grid import GridSpec
from actx.potential import surface_tension
from actx.scenario import (
    ConfigError,
    ConstantTransport,
    MarginError,
    RadialGradient,
    RotationTransport,
    ScenarioConfig,
    TransportBoundWarning,
    ZeroTransport,
    build_initial_phase,
    build_transport,
    cutoff_field,
    exponent_condition,
    parse_config,
    parse_sexpr,
    scenario_from_config,
    shape_from_sexpr,
    transport_bounds_report,
    transport_norm,
)
from actx.shapes import Ball, Box, Complement, HalfSpace, Intersection, Union

from conftest import CENTER, INSET, L, circle_config

pts = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(np.array)


class TestShapes:
    def test_ball_center_and_boundary(self):
        b = Ball((0.0, 0.0), 0.25)
        assert b(np.array([0.0, 0.0])) == pytest.approx(-0.25)
        assert b(np.array([0.25, 0.0])) == pytest.approx(0.0, abs=1e-15)

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
        assert u(mid) == pytest.approx(brute, abs=1e-6)
        assert u(mid) == pytest.approx(min(b1(mid), b2(mid)))

    def test_box_inside_outside(self):
        bx = Box((0.0, 0.0), (1.0, 2.0))
        assert bx(np.array([0.5, 1.0])) == pytest.approx(-0.5)
        assert bx(np.array([2.0, 1.0])) == pytest.approx(1.0)

    def test_halfspace(self):
        hs = HalfSpace((1.0, 0.0), 0.3)
        assert hs(np.array([0.0, 5.0])) == pytest.approx(-0.3)
        assert hs(np.array([0.8, -1.0])) == pytest.approx(0.5)

    def test_complement_flips_sign(self):
        b = Ball((0.0, 0.0), 0.5)
        c = Complement(b)
        p = np.array([0.1, 0.1])
        assert c(p) == pytest.approx(-b(p))

    @given(p=pts, q=pts)
    @settings(max_examples=100, deadline=None)
    def test_primitives_are_1_lipschitz(self, p, q):
        for s in (Ball((0.2, -0.1), 0.4), Box((-1, -1), (0.5, 1.0)), HalfSpace((3, 4), 0.1)):
            assert abs(s(p) - s(q)) <= np.linalg.norm(p - q) + 1e-12

    @given(p=pts)
    @settings(max_examples=100, deadline=None)
    def test_composites_never_flip_sign(self, p):
        # intersection of overlapping balls: inside iff inside both
        b1, b2 = Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0)
        inter = Intersection(b1, b2)
        truly_inside = b1(p) < 0 and b2(p) < 0
        assert (inter(p) < 0) == truly_inside


class TestInitialPhase:
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
        l = cutoff_field(cfg).values
        x, y = cfg.grid.meshgrid()
        d_inf = np.maximum(np.abs(x - CENTER[0]), np.abs(y - CENTER[1]))
        assert np.all(l[d_inf <= L / 2 - INSET - 1e-9] == 1.0)
        assert np.all(l[d_inf >= L / 2 - INSET / 2 - 1e-9] == 0.0)
        assert np.all((l >= 0) & (l <= 1))

    def test_construction_discrepancy_bounds(self):
        # construction-side: the profile identity is exact on the inner box;
        # on the grid, away from the interface core, xi stays under 1e-3/eps
        from actx.measures import discrepancy_field, region_mask

        cfg = circle_config(256, 8)
        phi = build_initial_phase(cfg)
        xi = discrepancy_field(phi, cfg.epsilon, cfg.well)
        x, y = cfg.grid.meshgrid()
        d = np.sqrt((x - CENTER[0]) ** 2 + (y - CENTER[1]) ** 2) - 0.25
        mask = region_mask(cfg.grid, cfg.omega_prime()) & (np.abs(d) >= 2 * cfg.epsilon)
        assert np.max(np.abs(xi.values[mask])) <= 1e-3 / cfg.epsilon
        # in the cutoff collar the distortion stays under 0.02/eps
        l = cutoff_field(cfg).values
        collar = (l > 0) & (l < 1)
        assert np.max(np.abs(xi.values[collar])) <= 0.02 / cfg.epsilon


class TestTransport:
    def test_radial_gradient_is_exact(self):
        cfg = circle_config(128, 16, transport=RadialGradient(16.0, CENTER))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransportBoundWarning)
            u = build_transport(cfg, 0.0)
        x, y = cfg.grid.meshgrid()
        assert np.array_equal(u.values[..., 0], 16.0 * (x - CENTER[0]))
        assert np.array_equal(u.values[..., 1], 16.0 * (y - CENTER[1]))

    def test_zero_catalog_entry(self):
        cfg = circle_config(128, 16)
        assert not np.any(build_transport(cfg, 0.0).values)

    def test_rotation_is_divergence_free(self):
        from actx.grid import gradient

        cfg = circle_config(128, 16, transport=RotationTransport(1.5, CENTER))
        u = build_transport(cfg, 0.0)
        from actx.grid import ScalarField

        dux = gradient(ScalarField(cfg.grid, u.values[..., 0]), 0.0).values[..., 0]
        duy = gradient(ScalarField(cfg.grid, u.values[..., 1]), 0.0).values[..., 1]
        div = dux[1:-1, 1:-1] + duy[1:-1, 1:-1]
        assert np.max(np.abs(div)) < 1e-12

    def test_bound_violation_warns_not_clamps(self):
        cfg = circle_config(128, 16, transport=RadialGradient(50.0, CENTER))
        with pytest.warns(TransportBoundWarning):
            u = build_transport(cfg, 0.0)
        assert np.max(np.abs(u.values)) > 10  # unclamped

    def test_bounds_report_flags_first_violation(self):
        tr = RadialGradient(0.5, CENTER, mod_amp=40.0, mod_freq=200.0)
        cfg = circle_config(128, 16, transport=tr)
        rep = transport_bounds_report(cfg, n_samples=33)
        assert rep.first_violation is not None and rep.first_violation > 0.0
        clean = transport_bounds_report(circle_config(128, 16), n_samples=5)
        assert clean.first_violation is None


class TestTransportNorm:
    def test_zero_field(self):
        assert transport_norm(circle_config(128, 16)) == 0.0

    def test_constant_field_closed_form(self):
        # |Omega|^{1/p} * T^{1/q} with |Omega| = 1, T = 1, p = 2, q = 4
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (64, 64))
        cfg = ScenarioConfig(
            grid=spec, shape=Ball((0.5, 0.5), 0.2), transport=ConstantTransport((1.0, 0.0)),
            epsilon=8 / 64, t_end=1.0, p=2.0, q=4.0,
        )
        assert transport_norm(cfg) == pytest.approx(1.0, abs=1e-3)

    def test_homogeneity(self):
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (64, 64))

        def cfg_with(vec):
            return ScenarioConfig(
                grid=spec, shape=Ball((0.5, 0.5), 0.2), transport=ConstantTransport(vec),
                epsilon=8 / 64, t_end=0.5, p=2.5, q=3.0,
            )

        n1 = transport_norm(cfg_with((0.4, 0.1)))
        n2 = transport_norm(cfg_with((0.8, 0.2)))
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_time_reparametrization_invariance(self):
        # constant-in-time field: the norm depends on T only through T^{1/q}
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (64, 64))

        def norm_at(t_end):
            cfg = ScenarioConfig(
                grid=spec, shape=Ball((0.5, 0.5), 0.2), transport=ConstantTransport((1.0, 0.0)),
                epsilon=8 / 64, t_end=t_end, p=2.0, q=4.0,
            )
            return transport_norm(cfg) / t_end ** (1 / 4)

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

    def test_default_p_valid_in_3d(self):
        # p = 2 fails the 3D exponent condition (p > 2); the default is p = n
        text = self.GOOD.replace("dim = 2", "dim = 3").replace("0.5 0.5 0.2", "0.5 0.5 0.5 0.2")
        cfg = scenario_from_config(parse_config(text))
        assert cfg.grid.dim == 3 and cfg.p == 3.0
        assert scenario_from_config(parse_config(self.GOOD)).p == 2.0

    def test_missing_required_key(self):
        conf = parse_config(self.GOOD.replace("epsilon = 0.125", ""))
        with pytest.raises(ConfigError, match="'epsilon'"):
            scenario_from_config(conf)

    def test_exponent_violation_cited(self):
        conf = parse_config(self.GOOD + "p = 0.7\nq = 3\n")
        with pytest.raises(ConfigError, match="exponent condition"):
            scenario_from_config(conf)

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
                transport=ZeroTransport(),
                epsilon=0.125, t_end=0.01, beta=0.7,
            )

    def test_under_resolved_epsilon_rejected(self):
        with pytest.raises(ConfigError, match="under-resolved"):
            ScenarioConfig(
                grid=GridSpec(2, (0, 0), (1, 1), (32, 32)),
                shape=Ball((0.5, 0.5), 0.2),
                transport=ZeroTransport(),
                epsilon=0.06, t_end=0.01, tau=0.001,
            )
