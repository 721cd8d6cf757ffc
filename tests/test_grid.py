"""Grid operators against stencil-exact cases, analytic oracles, and invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actx.grid import (
    GridError,
    GridSpec,
    ScalarField,
    VectorField,
    ball_integrate,
    integrate,
    outer_sum_sq,
    pack,
    read_field,
    sum_sq,
    write_field,
)

from reference_ops import advection_term, grad_sq, gradient, laplacian

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

    @staticmethod
    def _weight_vector_form(f, region):
        """The former integrate: the sub-box times [1/2, 1, ..., 1, 1/2] along each axis."""
        spec = f.spec
        axes = spec.axes()
        if region is None:
            windows = [(0, c) for c in spec.cells]
        else:
            windows = []
            for k in range(spec.dim):
                tol = 1e-9 * spec.h
                idx = np.nonzero((axes[k] >= region[0][k] - tol) & (axes[k] <= region[1][k] + tol))[0]
                if idx.size <= 1:
                    return 0.0
                windows.append((int(idx[0]), int(idx[-1])))
        total = f.values[tuple(slice(a, b + 1) for a, b in windows)].copy()
        for k, (a, b) in enumerate(windows):
            w = np.ones(b - a + 1)
            w[0] = 0.5
            w[-1] = 0.5
            shape = [1] * spec.dim
            shape[k] = w.size
            total = total * w.reshape(shape)
        return float(np.sum(total) * spec.h**spec.dim)

    @given(
        cells=st.lists(st.integers(1, 24), min_size=2, max_size=3),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        full=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_weight_vector_form(self, cells, fracs, full, seed):
        # in-place halving of the edge slices against the per-axis weight vectors,
        # over the full box and over sub-boxes, in 2D and 3D
        h = 0.1
        dim = len(cells)
        spec = GridSpec(dim, (-0.3,) * dim, tuple(-0.3 + c * h for c in cells), tuple(cells))
        f = ScalarField(spec, np.random.default_rng(seed).standard_normal(spec.nodes))
        region = None
        if not full:
            ends = [sorted(fracs[2 * k : 2 * k + 2]) for k in range(dim)]
            region = tuple(
                tuple(spec.lo[k] + e[j] * (spec.hi[k] - spec.lo[k]) for k, e in enumerate(ends))
                for j in (0, 1)
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regions without two nodes per axis integrate to 0.0
            want = self._weight_vector_form(f, region)
            assert integrate(f, region) == want
            assert integrate(f, region, out=np.full(spec.nodes, np.nan)) == want  # the copy in a kept buffer


class TestPack:
    @given(
        cells=st.lists(st.integers(1, 12), min_size=2, max_size=3),
        ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_array_as_a_copy_of_the_window(self, cells, ends, seed):
        # windows anywhere in the field, the first axis-0 slab included (where a
        # slab's copy overlaps itself), empty ones too
        shape = tuple(c + 1 for c in cells)
        buf = np.random.default_rng(seed).standard_normal(shape)
        window = tuple(slice(int(min(e) * n), int(max(e) * n)) for (e, n) in zip(ends, shape))
        want = buf[window].copy()
        got = pack(buf, window)
        assert got.flags.c_contiguous and got.shape == want.shape and np.array_equal(got, want)
        assert got.size == 0 or np.shares_memory(got, buf.reshape(-1)[:1])  # at the front
        if got.ndim and all(n > 1 for n in got.shape):
            assert np.sum(got) == np.sum(want)  # a copy's pairwise sum

    @pytest.mark.parametrize("start", [0, 1, 7])
    def test_allocates_no_window(self, start):
        import tracemalloc

        buf = np.random.default_rng(start).standard_normal((60, 61, 62))
        window = (slice(start, start + 50), slice(3, 58), slice(1, 60))
        want = buf[window].copy()
        tracemalloc.start()
        try:
            got = pack(buf, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 0.05 * want.nbytes  # at most one slab, when the first one overlaps itself


class TestSumSq:
    @pytest.mark.parametrize("shape", [(7, 2), (33, 17, 2), (9, 8, 7, 3)])
    def test_same_bits_as_numpy_sum(self, shape):
        v = np.random.default_rng(len(shape)).standard_normal(shape) * 1e3
        assert np.array_equal(sum_sq(v), np.sum(v * v, axis=-1))


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

    def test_write_makes_no_copy_of_the_field(self, tmp_path):
        import tracemalloc

        spec = GridSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (64, 64, 64))
        f = ScalarField(spec, np.random.default_rng(3).standard_normal(spec.nodes))
        path = tmp_path / "f.afld"
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                write_field(path, f, 0.5)
                assert tracemalloc.get_traced_memory()[1] - base < 0.1 * f.values.nbytes
        finally:
            tracemalloc.stop()
        blob = path.read_bytes()
        assert blob.endswith(f.values.astype("<f8").tobytes())
        assert len(blob) == blob.index(b"\n", 5) + 1 + f.values.nbytes

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


def _window_mask(spec, box):
    """Reference for ``box_slices``: the nodes within 1e-9 h of the closed box
    along every axis, as a mask built from one boolean window per axis."""
    tol = 1e-9 * spec.h
    m = np.ones(spec.nodes, dtype=bool)
    for k, ax in enumerate(spec.axes()):
        keep = (ax >= box[0][k] - tol) & (ax <= box[1][k] + tol)
        m &= keep.reshape((-1,) + (1,) * (spec.dim - 1 - k))
    return m


# a box face at node index i plus a fraction of h: on the node, on either side of
# the 1e-9 h band and half a cell away, measured from lo + i h or from the node's
# own coordinate (where face -+ 1e-9 h can round back onto the node); indices
# past either end give clipped or empty boxes, unordered faces empty ones
_FACE = st.tuples(
    st.integers(-3, 27),
    st.sampled_from([0.0, 1e-12, -1e-12, 0.999e-9, -0.999e-9, 1e-9, -1e-9, 1.001e-9, -1.001e-9,
                     0.5, -0.5]),
    st.booleans(),
)


class TestNodeGeometry:
    SPEC3 = GridSpec(3, (-0.5, -0.5, -0.5), (0.25, 0.25, 0.25), (6, 6, 6))

    @pytest.mark.parametrize("spec", [SPEC, SPEC3])
    def test_coords_shared_and_read_only(self, spec):
        x = spec.coords()
        axes = GridSpec(spec.dim, spec.lo, spec.hi, spec.cells).axes()
        assert len(x) == spec.dim
        for k, (xk, ax) in enumerate(zip(x, axes, strict=True)):
            assert xk.shape == tuple(n if j == k else 1 for j, n in enumerate(spec.nodes))
            assert np.array_equal(xk.ravel(), ax)
            assert np.shares_memory(xk, ax)
            assert not xk.flags.writeable
            with pytest.raises(ValueError):
                xk[(0,) * spec.dim] = 1.0
        mesh = spec.meshgrid()
        for got, xk, want in zip(mesh, x, np.meshgrid(*spec.axes(), indexing="ij"), strict=True):
            assert got.shape == spec.nodes
            assert np.array_equal(got, want)
            assert np.shares_memory(got, xk)
            assert not got.flags.writeable

    @given(
        cells=st.lists(st.integers(1, 24), min_size=2, max_size=3),
        origin=st.floats(-2.0, 2.0),
        faces=st.lists(_FACE, min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_box_slices_select_the_window_nodes(self, cells, origin, faces):
        h = 0.1
        dim = len(cells)
        spec = GridSpec(dim, (origin,) * dim, tuple(origin + c * h for c in cells), tuple(cells))
        axes = spec.axes()

        def face(k, i, frac, on_node):
            if on_node:
                return float(axes[k][min(max(i, 0), spec.cells[k])]) + frac * spec.h
            return spec.lo[k] + (i + frac) * spec.h

        box = tuple(tuple(face(k, *f) for k, f in enumerate(faces[j::2][:dim])) for j in (0, 1))
        slices = spec.box_slices(box)
        assert all(sl.step is None and 0 <= sl.start <= sl.stop <= n
                   for sl, n in zip(slices, spec.nodes))
        got = np.zeros(spec.nodes, dtype=bool)
        got[slices] = True
        assert np.array_equal(got, _window_mask(spec, box))

    def test_outer_sum_sq_same_bits_as_broadcast_sum(self):
        rng = np.random.default_rng(3)
        a, b, c = (rng.standard_normal(n) for n in (5, 7, 4))
        assert np.array_equal(outer_sum_sq([a, b]), a[:, None] ** 2 + b[None, :] ** 2)
        want = (a[:, None] ** 2 + b[None, :] ** 2)[:, :, None] + c[None, None, :] ** 2
        assert np.array_equal(outer_sum_sq([a, b, c]), want)


class TestStencilRhs:
    """The folded kernel's faces and its max |out|, taken block by block."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, 10**6])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("with_base", [True, False], ids=["base", "drive"])
    def test_max_over_every_node_with_spikes_on_faces(self, dim, chunk, with_base, monkeypatch):
        # 50 on the axis >= 1 faces of slab 5 makes the sweep's wrapped-around
        # value there the largest by far; each block restores the faces of the
        # slabs it touched before taking its extrema
        import actx.grid
        from actx.grid import stencil_rhs
        from actx.potential import DoubleWell

        monkeypatch.setattr(actx.grid, "CHUNK", chunk)
        shape = (21, 20) if dim == 2 else (10, 9, 8)
        f = np.random.default_rng(dim).uniform(-1.0, 1.0, shape)
        for ax in range(1, dim):
            for e in (0, -1):
                f[(5,) + (slice(None),) * (ax - 1) + (e,)] = 50.0
        base = f.copy() if with_base else None
        out = np.empty(shape)
        m = stencil_rhs(f, None, 0.1, 0.4, DoubleWell.quartic(), out, base, 1e-3)
        assert m == float(np.max(np.abs(out)))
        for ax in range(dim):
            for e in (0, -1):
                face = (slice(None),) * ax + (e,)
                assert np.array_equal(out[face], f[face] if with_base else np.zeros(shape[:ax] + shape[ax + 1 :]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_velocity_must_be_component_major(self, dim):
        # a node-major U has the same size as a component-major one, and its
        # columns would be read as components without any error
        from actx.grid import stencil_rhs
        from actx.potential import DoubleWell

        shape = (21, 20) if dim == 2 else (10, 9, 8)
        f, out = np.random.default_rng(dim).uniform(-1.0, 1.0, shape), np.empty(shape)
        u = np.random.default_rng(dim + 1).uniform(-1.0, 1.0, (dim,) + shape)
        for bad in (np.moveaxis(u, 0, -1).copy(), u[:1], u.reshape(-1)):
            with pytest.raises(GridError, match=r"velocity shape .* != \(%d, " % dim):
                stencil_rhs(f, bad, 0.1, 0.4, DoubleWell.quartic(), out)
        # the step's form: VectorField's components, which its constructor lays out
        vel = VectorField(GridSpec(dim, (0.0,) * dim, tuple(0.1 * (n - 1) for n in shape),
                                   tuple(n - 1 for n in shape)), np.moveaxis(u, 0, -1))
        assert vel.components.flags.c_contiguous and np.array_equal(vel.components, u)
        assert vel.values.shape == shape + (dim,) and np.shares_memory(vel.values, vel.components)
        top = stencil_rhs(f, vel.components, 0.1, 0.4, DoubleWell.quartic(), out)
        assert top == float(np.max(np.abs(out)))


class TestThreadedSweep:
    """Block sweeps whose blocks are split among the processes of a ``team.Team``
    (``grid._sweep``, with PROC_NODES patched low and blocks of a few hundred
    nodes): the same bits, the same max |out| and the same non-finite node at
    1, 2 and 3 processes, the caller and 0, 1 or 2 forked helpers. On a 2-CPU
    host the three processes of the last take turns."""

    # 67 and 25 slabs: 3 processes take 22/22/23 and 8/8/9 of them, in 2/2/3
    # blocks, and 2 processes 3/4 blocks
    SHAPES = {2: (69, 64), 3: (27, 12, 12)}
    BLOCK = {2: 700, 3: 600}
    PLANTED = {2: (30, 3), 3: (12, 3, 4)}  # in the second of three processes' slabs

    @staticmethod
    def _field(dim, planted):
        # 50 on the axis >= 1 faces of slab 5, so the sweep's wrapped-around values
        # there are the largest unless each process restores its own slabs' faces
        shape = TestThreadedSweep.SHAPES[dim]
        f = np.random.default_rng(dim).uniform(-1.05, 1.05, shape)
        for ax in range(1, dim):
            for e in (0, -1):
                f[(5,) + (slice(None),) * (ax - 1) + (e,)] = 50.0
        if planted:
            f[TestThreadedSweep.PLANTED[dim]] = np.nan
        return f

    @staticmethod
    def _team(monkeypatch, procs, shape, fields):
        """An open team of ``procs`` processes over ``fields`` fields of ``shape``,
        whose sweeps split among all of them, in blocks that do not divide evenly."""
        import actx.grid

        monkeypatch.setattr(actx.grid, "PROC_NODES", 2)  # a process takes at least one node
        monkeypatch.setattr(actx.grid, "CHUNK", TestThreadedSweep.BLOCK[len(shape)])
        s0 = int(np.prod(shape[1:]))
        parts = actx.grid._block_plan(s0, int(np.prod(shape)) - s0, s0, procs).parts
        assert len(parts) == procs
        if procs > 1:
            assert len({len(part) for part in parts}) == 2
        team = actx.grid.open_team(shape, fields, helpers=procs - 1)
        assert len(getattr(team, "procs", ())) == procs - 1
        return team

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("transport", [False, True], ids=["zero", "transport"])
    @pytest.mark.parametrize("style", ["drive", "euler", "rk2"])
    @pytest.mark.parametrize("planted", [False, True], ids=["finite", "nan"])
    def test_stencil_rhs_same_at_1_2_3_threads(self, dim, transport, style, planted, monkeypatch):
        from actx.grid import stencil_rhs
        from actx.potential import DoubleWell

        f = self._field(dim, planted)
        rng = np.random.default_rng(10 + dim)
        u = rng.uniform(-1.0, 1.0, (dim,) + f.shape) if transport else None  # component-major U
        # the drive; an euler step (base f); rk2's second update (f the midpoint, base phi)
        base, scale = {"drive": (None, 1.0), "euler": (f, 1e-3),
                       "rk2": (rng.uniform(-1.0, 1.0, f.shape), 1e-3)}[style]
        got = []
        for procs in (1, 2, 3):
            with self._team(monkeypatch, procs, f.shape, 3 + dim) as team:
                shared = [None if a is None else team.share(a) for a in (f, u, base)]
                if style == "euler":
                    shared[2] = shared[0]
                out = team.field()
                top = stencil_rhs(shared[0], shared[1], 0.1, 0.4, DoubleWell.quartic(), out, shared[2], scale, m=0.7)
                got.append((np.ascontiguousarray(out).view(np.uint64).copy(), top))
        (ref, top1), rest = got[0], got[1:]
        for bits, top in rest:
            assert np.array_equal(bits, ref)
            assert top == top1 or (planted and np.isnan(top) and np.isnan(top1))
        assert np.isnan(top1) if planted else top1 == float(np.max(np.abs(ref.view(np.float64))))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("family", ["quartic", "poly"])
    def test_frame_fields_same_at_1_2_3_threads(self, dim, family, monkeypatch):
        from actx.measures import frame_fields
        from actx.potential import DoubleWell

        well = DoubleWell.quartic() if family == "quartic" else \
            DoubleWell.from_coeffs([2.0, 0.0, -4.0, 0.0, 2.0], kappa=4.0)
        f = self._field(dim, False)
        spec = GridSpec(dim, (0.0,) * dim, tuple(0.1 * (n - 1) for n in f.shape), tuple(n - 1 for n in f.shape))
        planted = self._field(dim, True)
        got, errors = [], []
        for procs in (1, 2, 3):
            with self._team(monkeypatch, procs, f.shape, 4) as team:
                phi, out = team.field(), (team.field(), team.field())
                np.copyto(phi, f)
                ff = frame_fields(ScalarField(spec, phi), 0.4, well, out=out)
                got.append([np.ascontiguousarray(a.values).view(np.uint64).copy() for a in (ff.density, ff.xi)])
                np.copyto(phi, planted)
                with pytest.raises(GridError) as exc:
                    frame_fields(ScalarField.from_checked(spec, phi), 0.4, well, out=out)
                errors.append(str(exc.value))
        for bits in got[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(bits, got[0]))
        # the first non-finite node, row-major, is the planted one's axis-0 neighbour before it
        ref = grad_sq(ScalarField.from_checked(spec, planted))
        first = tuple(int(i) for i in np.argwhere(~np.isfinite(ref))[0])
        assert first == (self.PLANTED[dim][0] - 1,) + self.PLANTED[dim][1:]
        assert errors == [f"scalar field contains a non-finite entry at node index {first}"] * 3

    @pytest.mark.parametrize("budget, sizes", [
        ("2", (((153, 153), 1), ((161, 161), 2), ((257, 257), 2), ((29, 29, 29), 1), ((97, 97, 97), 2))),
        ("64", (((153, 153), 1), ((161, 161), 2), ((257, 257), 5), ((513, 513), 21), ((97, 97, 97), 64))),
    ])
    def test_size_rule(self, monkeypatch, budget, sizes):
        # 257^2 (circle-2d) takes both CPUs, 153^2 stays serial; no process gets
        # fewer than PROC_NODES / 2 interior nodes. The processes a sweep may use
        # are counted here with as many helpers as the budget asks for
        from actx.grid import _block_plan, cpu_budget

        monkeypatch.setenv("ACTX_THREADS", budget)
        for nodes, procs in sizes:
            s0 = int(np.prod(nodes[1:]))
            assert len(_block_plan(s0, int(np.prod(nodes)) - s0, s0, cpu_budget()).parts) == procs

    def test_plans_at_most_one_helper_per_further_cpu(self, monkeypatch):
        # a budget above the CPUs this process may run on plans no more helpers
        # than those CPUs, and none on a grid below PROC_NODES; nothing is started
        import os

        from actx.grid import PROC_NODES, helper_count

        cpus = len(os.sched_getaffinity(0))
        for budget, want in (("64", cpus - 1), ("1", 0), ("2", min(2, cpus) - 1)):
            monkeypatch.setenv("ACTX_THREADS", budget)
            assert helper_count() == want
        assert PROC_NODES > 95 * 97  # the 97^2 interior, where two processes were slower


class TestTeamLifecycle:
    """A ``team.Team``'s helpers: forgotten by a forked child, reaped by ``close``,
    and a helper that died makes the next sweep raise. Each test ends with no
    child process left (``conftest.no_child_left``)."""

    SHAPE = (129, 130)

    @staticmethod
    def _sweep(team, f):
        from actx.grid import stencil_rhs
        from actx.potential import DoubleWell

        out = team.field()
        return stencil_rhs(f, None, 0.1, 0.4, DoubleWell.quartic(), out), out

    def test_forked_child_forgets_the_team(self, monkeypatch):
        # the child closes its copies of the pipe ends at the fork, so it never
        # talks to the helper and the helper still leaves when the parent closes
        import os

        import actx.grid

        from conftest import live_children

        monkeypatch.setattr(actx.grid, "PROC_NODES", 2)
        with actx.grid.open_team(self.SHAPE, 3, helpers=1) as team:
            f = team.share(np.random.default_rng(3).uniform(-1.0, 1.0, self.SHAPE))
            top, ref = self._sweep(team, f)
            (helper,) = team.procs
            assert live_children() == {helper.pid}
            pid = os.fork()
            if pid == 0:
                ok = actx.grid._teams == [] and team.procs == []
                for fd in (helper.cmd, helper.ack):
                    try:
                        os.fstat(fd)
                        ok = False
                    except OSError:
                        pass
                # without a team, the sweep runs in the child alone, with the same bits
                got = self._sweep(team, f) if ok else None
                os._exit(0 if ok and got[0] == top and np.array_equal(got[1], ref) else 1)
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            assert self._sweep(team, f)[0] == top  # the parent's team still works
        assert actx.grid._teams == [] and team.procs == []

    def test_killed_helper_makes_the_next_sweep_raise(self, monkeypatch):
        import os
        import signal

        import actx.grid

        monkeypatch.setattr(actx.grid, "PROC_NODES", 2)
        with actx.grid.open_team(self.SHAPE, 4, helpers=1) as team:
            f = team.share(np.random.default_rng(4).uniform(-1.0, 1.0, self.SHAPE))
            self._sweep(team, f)
            os.kill(team.procs[0].pid, signal.SIGKILL)
            with pytest.raises(GridError, match="block sweep helper"):
                self._sweep(team, f)

    def test_team_below_the_threshold_starts_nothing(self, monkeypatch):
        from actx.grid import FieldSet, open_team

        from conftest import live_children

        monkeypatch.setenv("ACTX_THREADS", "64")
        for nodes in ((97, 97), (153, 153), (29, 29, 29)):
            with open_team(nodes, 2) as team:
                assert type(team) is FieldSet and live_children() == set()
                assert type(team.field()) is np.ndarray


class TestFrames:
    """The frames of ``team``'s pipes (``_send``, ``_recv``): a 4-byte length
    and the bytes, read whole however many reads they take, and None at EOF,
    also in mid-frame."""

    @staticmethod
    def _received(write):
        """What ``_recv`` reads from a new pipe while a thread runs ``write(w)``
        on its write end and then closes it."""
        import os
        import threading

        from actx.team import _recv

        r, w = os.pipe()

        def write_and_close():
            try:
                write(w)
            finally:
                os.close(w)

        writer = threading.Thread(target=write_and_close)
        writer.start()
        try:
            return _recv(r)
        finally:
            os.close(r)  # a writer that _recv left blocked fails instead of waiting forever
            writer.join()

    def test_long_frame_arrives_whole(self):
        # 320 KiB: five times what one read takes, more than a pipe holds
        from actx.team import _send

        data = np.random.default_rng(5).bytes(320 * 1024)
        assert self._received(lambda w: _send(w, data)) == data
        assert self._received(lambda w: _send(w, b"")) == b""

    @pytest.mark.parametrize("cut", [0, 3, 4 + 160 * 1024], ids=["empty", "in-length", "in-bytes"])
    def test_eof_mid_frame_gives_none(self, cut):
        import os

        data = np.random.default_rng(6).bytes(320 * 1024)
        frame = (len(data).to_bytes(4, "little") + data)[:cut]

        def write_part(w):
            view = memoryview(frame)
            while view:
                view = view[os.write(w, view):]

        assert self._received(write_part) is None
