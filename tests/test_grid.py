"""Grid operators against stencil-exact cases, analytic oracles, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actx.grid import (
    GridError,
    GridSpec,
    ScalarField,
    VectorField,
    advection_term,
    ball_integrate,
    gradient,
    integrate,
    laplacian,
    read_field,
    write_field,
)

SPEC = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (64, 64))


def interior(values: np.ndarray) -> np.ndarray:
    return values[1:-1, 1:-1]


class TestLaplacian:
    def test_quadratic_is_stencil_exact(self):
        f = ScalarField.sample(SPEC, lambda x, y: x**2 + y**2)
        lap = laplacian(f, 0.0)
        assert np.allclose(interior(lap.values), 4.0, atol=1e-9)

    def test_linear_gives_zero(self):
        f = ScalarField.sample(SPEC, lambda x, y: 2.0 * x - 3.0 * y)
        lap = laplacian(f, 0.0)
        assert np.allclose(interior(lap.values), 0.0, atol=1e-9)

    def test_second_order_on_sine(self):
        # oracle: exact laplacian of sin(2 pi x); error must drop ~4x under h -> h/2
        errs = []
        for cells in (32, 64):
            spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (cells, cells))
            f = ScalarField.sample(spec, lambda x, y: np.sin(2 * np.pi * x))
            exact = ScalarField.sample(spec, lambda x, y: -4 * np.pi**2 * np.sin(2 * np.pi * x))
            lap = laplacian(f, 0.0)
            errs.append(np.max(np.abs(interior(lap.values) - interior(exact.values))))
        ratio = errs[0] / errs[1]
        assert abs(ratio - 4.0) < 0.3

    def test_rejects_non_finite(self):
        vals = np.zeros(SPEC.nodes)
        vals[3, 7] = np.nan
        with pytest.raises(GridError, match=r"\(3, 7\)"):
            laplacian(ScalarField(SPEC, vals), 0.0)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        f = ScalarField(SPEC, rng.standard_normal(SPEC.nodes))
        g = ScalarField(SPEC, rng.standard_normal(SPEC.nodes))
        combo = ScalarField(SPEC, a * f.values + b * g.values)
        lhs = laplacian(combo, 0.0).values
        rhs = a * laplacian(f, 0.0).values + b * laplacian(g, 0.0).values
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_integration_by_parts_symmetry(self, seed):
        # fields vanishing near the boundary: <f, lap g> = <g, lap f>
        rng = np.random.default_rng(seed)
        x, y = SPEC.meshgrid()
        bump = np.sin(np.pi * x) ** 4 * np.sin(np.pi * y) ** 4
        f = ScalarField(SPEC, rng.standard_normal(SPEC.nodes) * bump)
        g = ScalarField(SPEC, rng.standard_normal(SPEC.nodes) * bump)
        lhs = integrate(ScalarField(SPEC, f.values * laplacian(g, 0.0).values))
        rhs = integrate(ScalarField(SPEC, g.values * laplacian(f, 0.0).values))
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestGradient:
    def test_linear_gives_constant(self):
        f = ScalarField.sample(SPEC, lambda x, y: 2.0 * x + 3.0 * y)
        g = gradient(f, 0.0)
        assert np.allclose(interior(g.values[..., 0]), 2.0, atol=1e-9)
        assert np.allclose(interior(g.values[..., 1]), 3.0, atol=1e-9)

    def test_constant_gives_zero(self):
        g = gradient(ScalarField.full(SPEC, 0.7), 0.7)
        assert np.allclose(g.values, 0.0, atol=1e-12)

    def test_tanh_profile_accuracy(self):
        eps = 8 * SPEC.h
        f = ScalarField.sample(SPEC, lambda x, y: np.tanh((x - 0.5) / eps))
        g = gradient(f, 0.0)
        exact = ScalarField.sample(
            SPEC, lambda x, y: (1 - np.tanh((x - 0.5) / eps) ** 2) / eps
        )
        err = np.max(np.abs(interior(g.values[..., 0]) - interior(exact.values)))
        assert err <= 0.02 / eps


class TestAdvection:
    def test_unit_velocity_on_coordinate(self):
        u = VectorField.sample(SPEC, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        f = ScalarField.sample(SPEC, lambda x, y: x)
        adv = advection_term(u, f)
        assert np.allclose(interior(adv.values), 1.0, atol=1e-9)

    def test_zero_velocity(self):
        u = VectorField.sample(SPEC, lambda x, y: (0 * x, 0 * x))
        f = ScalarField.sample(SPEC, lambda x, y: np.cos(x * y))
        assert np.allclose(advection_term(u, f).values, 0.0, atol=1e-15)

    def test_rotation_tangent_to_level_sets(self):
        # u = (y, -x) is tangent to circles, so u . grad(x^2 + y^2) = 0
        u = VectorField.sample(SPEC, lambda x, y: (y, -x))
        f = ScalarField.sample(SPEC, lambda x, y: x**2 + y**2)
        assert np.max(np.abs(interior(advection_term(u, f).values))) < 1e-12

    def test_shape_mismatch_names_fields(self):
        other = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (32, 32))
        u = VectorField.sample(other, lambda x, y: (x, y))
        f = ScalarField.full(SPEC, 1.0)
        with pytest.raises(GridError, match="velocity.*scalar"):
            advection_term(u, f)


class TestIntegrate:
    def test_constant_over_unit_box(self):
        assert integrate(ScalarField.full(SPEC, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_over_half_box(self):
        val = integrate(ScalarField.full(SPEC, 1.0), region=((0, 0), (0.5, 1)))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_linear_over_unit_square(self):
        val = integrate(ScalarField.sample(SPEC, lambda x, y: x))
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_empty_region_warns(self):
        f = ScalarField.full(SPEC, 1.0)
        with pytest.warns(UserWarning, match="no grid nodes"):
            val = integrate(f, region=((0.501 / 64, 0.0), (0.502 / 64, 1.0)))
        assert val == 0.0

    def test_region_outside_domain_rejected(self):
        with pytest.raises(GridError):
            integrate(ScalarField.full(SPEC, 1.0), region=((0, 0), (2, 1)))


class TestBallIntegrate:
    def test_disk_area(self):
        # oracle: area pi r^2, error bounded by a perimeter band of width ~h
        r = 0.25
        val = ball_integrate(ScalarField.full(SPEC, 1.0), (0.5, 0.5), r)
        assert abs(val - np.pi * r**2) <= 3 * SPEC.h * 2 * np.pi * r

    def test_tiny_radius_captures_no_nodes(self):
        center = (0.5 + SPEC.h / 2, 0.5 + SPEC.h / 2)
        assert ball_integrate(ScalarField.full(SPEC, 1.0), center, SPEC.h / 2 * 0.9) == 0.0

    def test_ball_containing_domain_saturates(self):
        f = ScalarField.sample(SPEC, lambda x, y: 1.0 + x * y)
        with pytest.warns(UserWarning, match="clipped"):
            val = ball_integrate(f, (0.5, 0.5), 5.0)
        plain = float(np.sum(f.values) * SPEC.h**2)
        assert val == pytest.approx(plain, rel=1e-12)

    def test_outside_domain_warns_zero(self):
        with pytest.warns(UserWarning, match="outside"):
            assert ball_integrate(ScalarField.full(SPEC, 1.0), (5.0, 5.0), 0.1) == 0.0

    @given(
        r1=st.floats(0.05, 0.2),
        r2=st.floats(0.2, 0.45),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_radius_for_nonnegative(self, r1, r2, seed):
        rng = np.random.default_rng(seed)
        f = ScalarField(SPEC, np.abs(rng.standard_normal(SPEC.nodes)))
        v1 = ball_integrate(f, (0.5, 0.5), min(r1, r2), clip_ok=True)
        v2 = ball_integrate(f, (0.5, 0.5), max(r1, r2), clip_ok=True)
        assert v1 <= v2 + 1e-14


class TestSnapshotIO:
    @given(seed=st.integers(0, 2**31 - 1), time=st.floats(0, 10, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_bit_exact(self, tmp_path_factory, seed, time):
        spec = GridSpec(2, (0.0, -1.0), (0.5, -0.5), (12, 12))
        rng = np.random.default_rng(seed)
        f = ScalarField(spec, rng.standard_normal(spec.nodes))
        path = tmp_path_factory.mktemp("afld") / "snap.afld"
        write_field(path, f, time)
        f2, t2 = read_field(path)
        assert np.array_equal(f.values, f2.values)
        assert t2 == time
        assert f2.spec == spec

    def test_3d_round_trip(self, tmp_path):
        spec = GridSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (8, 8, 8))
        f = ScalarField.sample(spec, lambda x, y, z: x * y + z)
        write_field(tmp_path / "f.afld", f, 0.25)
        f2, t2 = read_field(tmp_path / "f.afld")
        assert np.array_equal(f.values, f2.values) and t2 == 0.25

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.afld"
        p.write_bytes(b"JUNK\nwhatever\n")
        with pytest.raises(GridError, match="magic"):
            read_field(p)

    @staticmethod
    def _snapshot_bytes(tmp_path_factory) -> bytes:
        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (6, 6))
        path = tmp_path_factory.mktemp("afld") / "good.afld"
        write_field(path, ScalarField.sample(spec, lambda x, y: x - y), 0.5)
        return path.read_bytes()

    @staticmethod
    def _rejects(tmp_path_factory, blob: bytes, reason: str) -> None:
        path = tmp_path_factory.mktemp("afld") / "corrupt.afld"
        path.write_bytes(blob)
        with pytest.raises(GridError, match=reason) as info:
            read_field(path)
        assert str(path) in str(info.value)

    @given(cut=st.integers(1, 7 * 7 * 8))
    @settings(max_examples=20, deadline=None)
    def test_truncated_payload_names_file(self, tmp_path_factory, cut):
        blob = self._snapshot_bytes(tmp_path_factory)
        self._rejects(tmp_path_factory, blob[:-cut], "truncated payload")

    @given(extra=st.binary(min_size=1, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_trailing_bytes_name_file(self, tmp_path_factory, extra):
        blob = self._snapshot_bytes(tmp_path_factory)
        self._rejects(tmp_path_factory, blob + extra, "trailing bytes")

    @given(key=st.sampled_from(["dim", "cells", "lo", "hi", "time"]))
    @settings(max_examples=10, deadline=None)
    def test_missing_header_key_names_file(self, tmp_path_factory, key):
        blob = self._snapshot_bytes(tmp_path_factory)
        head, sep, payload = blob[len(b"AFLD\n"):].partition(b"\n")
        head = head.replace(key.encode() + b" ", b"")
        self._rejects(tmp_path_factory, b"AFLD\n" + head + sep + payload, f"no '{key}'")


class TestGridSpec:
    def test_anisotropic_rejected(self):
        with pytest.raises(GridError, match="uniform"):
            GridSpec(2, (0.0, 0.0), (1.0, 2.0), (64, 64))

    def test_node_cap_enforced(self):
        with pytest.raises(GridError, match="cap"):
            GridSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (512, 512, 512))

    def test_refinement_reduces_stencil_error(self):
        # interior error on a smooth field drops by 4 +- 15% per refinement
        errs = []
        for cells in (24, 48):
            spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (cells, cells))
            f = ScalarField.sample(spec, lambda x, y: np.exp(x) * np.cos(2 * y))
            exact = ScalarField.sample(spec, lambda x, y: -3 * np.exp(x) * np.cos(2 * y))
            err = laplacian(f, 0.0).values - exact.values
            errs.append(np.max(np.abs(err[1:-1, 1:-1])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
