"""Level-set extraction, radius estimates, the radial oracle, Hausdorff distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actx._mc_tables import EDGE_VERTICES, TRIANGLE_TABLE
from actx.checks import hausdorff_distance
from actx.grid import GridSpec, ScalarField
from actx.interface import (
    InterfaceError,
    InterfaceSet,
    extract_interface,
    mcf_oracle,
    radius_estimate,
)

from reference_ops import interface_measure

SPEC = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (128, 128))


def circle_field(R, eps=8 / 128, center=(0.5, 0.5), spec=SPEC):
    return ScalarField.sample(
        spec,
        lambda x, y: np.tanh((R - np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2)) / eps),
    )


class TestExtract:
    def test_linear_field_gives_exact_line(self):
        f = ScalarField.sample(SPEC, lambda x, y: x - 0.5)
        iset = extract_interface(f)
        assert not iset.is_empty
        assert np.max(np.abs(iset.vertices[:, 0] - 0.5)) < 1e-12
        assert interface_measure(iset) == pytest.approx(1.0, abs=1e-12)

    def test_circle_perimeter(self):
        R = 0.25
        iset = extract_interface(circle_field(R))
        assert abs(interface_measure(iset) - 2 * np.pi * R) <= 2 * SPEC.h

    def test_constant_field_empty(self):
        assert extract_interface(ScalarField.full(SPEC, -1.0)).is_empty

    def test_vertices_on_sign_change_edges(self):
        iset = extract_interface(circle_field(0.3))
        f = circle_field(0.3)
        # every vertex must lie within one cell of the zero level
        r = np.sqrt(np.sum((iset.vertices - 0.5) ** 2, axis=-1))
        assert np.max(np.abs(r - 0.3)) < 3 * SPEC.h

    def test_saddle_cells_resolved_by_average(self):
        # quadrant checkerboard: x*y - like saddle at the center
        f = ScalarField.sample(SPEC, lambda x, y: (x - 0.5) * (y - 0.5) + 1e-9)
        iset = extract_interface(f)
        assert not iset.is_empty

    def test_marching_cubes_sphere_area(self):
        spec3 = GridSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (48, 48, 48))
        R = 0.3
        f = ScalarField.sample(
            spec3,
            lambda x, y, z: np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2) - R,
        )
        iset = extract_interface(f)
        assert iset.dim == 3 and not iset.is_empty
        assert interface_measure(iset) == pytest.approx(4 * np.pi * R**2, rel=0.02)

    def test_marching_cubes_plane_exact(self):
        spec3 = GridSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (16, 16, 16))
        f = ScalarField.sample(spec3, lambda x, y, z: z - 0.5)
        iset = extract_interface(f)
        assert np.max(np.abs(iset.vertices[:, 2] - 0.5)) < 1e-12
        assert interface_measure(iset) == pytest.approx(1.0, abs=1e-10)



# ---------------------------------------------------------------------------
# Reference: the separate marching-squares and marching-cubes extractors that
# the table-driven extractor replaced; it must reproduce their elements bit
# for bit and in the same order.
# ---------------------------------------------------------------------------

_MS_SEGMENTS = {
    0: (), 15: (),
    1: ((3, 0),), 2: ((0, 1),), 4: ((1, 2),), 8: ((2, 3),),
    3: ((3, 1),), 6: ((0, 2),), 12: ((1, 3),), 9: ((2, 0),),
    7: ((3, 2),), 11: ((2, 1),), 13: ((1, 0),), 14: ((0, 3),),
}


def _edge_crossing(xa, ya, fa, xb, yb, fb):
    t = fa / (fa - fb)
    return xa + t * (xb - xa), ya + t * (yb - ya)


def _marching_squares(phi):
    v = phi.values
    x, y = phi.spec.axes()
    c0, c1, c2, c3 = v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]
    inside = lambda a: (a < 0.0).astype(np.int8)
    code = inside(c0) + 2 * inside(c1) + 4 * inside(c2) + 8 * inside(c3)
    segs = []

    def crossings(ii, jj, edge):
        if edge == 0:
            fa, fb = v[ii, jj], v[ii + 1, jj]
            xa, ya, xb, yb = x[ii], y[jj], x[ii + 1], y[jj]
        elif edge == 1:
            fa, fb = v[ii + 1, jj], v[ii + 1, jj + 1]
            xa, ya, xb, yb = x[ii + 1], y[jj], x[ii + 1], y[jj + 1]
        elif edge == 2:
            fa, fb = v[ii + 1, jj + 1], v[ii, jj + 1]
            xa, ya, xb, yb = x[ii + 1], y[jj + 1], x[ii], y[jj + 1]
        else:
            fa, fb = v[ii, jj + 1], v[ii, jj]
            xa, ya, xb, yb = x[ii], y[jj + 1], x[ii], y[jj]
        return np.stack(_edge_crossing(xa, ya, fa, xb, yb, fb), axis=-1)

    for case, pairs in _MS_SEGMENTS.items():
        ii, jj = np.nonzero(code == case)
        if not pairs or ii.size == 0:
            continue
        for ea, eb in pairs:
            segs.append(np.stack([crossings(ii, jj, ea), crossings(ii, jj, eb)], axis=1))
    for case in (5, 10):
        ii, jj = np.nonzero(code == case)
        if ii.size == 0:
            continue
        center_in = 0.25 * (c0[ii, jj] + c1[ii, jj] + c2[ii, jj] + c3[ii, jj]) < 0.0
        if case == 5:
            joined = (((0, 1), (2, 3)), ((3, 0), (1, 2)))
        else:
            joined = (((3, 0), (1, 2)), ((0, 1), (2, 3)))
        for sel, pairs in zip((center_in, ~center_in), joined):
            si, sj = ii[sel], jj[sel]
            if si.size == 0:
                continue
            for ea, eb in pairs:
                segs.append(np.stack([crossings(si, sj, ea), crossings(si, sj, eb)], axis=1))
    return np.concatenate(segs, axis=0) if segs else np.zeros((0, 2, 2))


_MC_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)


def _marching_cubes(phi):
    spec, v = phi.spec, phi.values
    x, y, z = spec.axes()
    corner = [v[o[0]:, o[1]:, o[2]:][: spec.cells[0], : spec.cells[1], : spec.cells[2]]
              for o in _MC_OFFSETS]
    code = np.zeros(tuple(spec.cells), dtype=np.int16)
    for bit, c in enumerate(corner):
        code |= ((c < 0.0).astype(np.int16)) << bit
    active = np.nonzero((code != 0) & (code != 255))
    if active[0].size == 0:
        return np.zeros((0, 3, 3))
    codes_active = code[active]
    ii, jj, kk = active

    def edge_points(sel, edge):
        a, b = EDGE_VERTICES[edge]
        oa, ob = _MC_OFFSETS[a], _MC_OFFSETS[b]
        ia, ja, ka = ii[sel] + oa[0], jj[sel] + oa[1], kk[sel] + oa[2]
        ib, jb, kb = ii[sel] + ob[0], jj[sel] + ob[1], kk[sel] + ob[2]
        fa, fb = v[ia, ja, ka], v[ib, jb, kb]
        t = fa / (fa - fb)
        px = x[ia] + t * (x[ib] - x[ia])
        py = y[ja] + t * (y[jb] - y[ja])
        pz = z[ka] + t * (z[kb] - z[ka])
        return np.stack([px, py, pz], axis=-1)

    tris = []
    for case in np.unique(codes_active):
        sel = codes_active == case
        row = TRIANGLE_TABLE[case]
        for m in range(0, 16, 3):
            if row[m] < 0:
                break
            tris.append(np.stack([edge_points(sel, row[m + d]) for d in range(3)], axis=1))
    return np.concatenate(tris, axis=0) if tris else np.zeros((0, 3, 3))


def _field(dim, cells, kind, seed):
    """A test field: normal noise, noise rounded to exact zeros, a sign
    checkerboard (every square cell a saddle, code 5 or 10), a shifted saddle
    x y (z), or a constant (empty interface)."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(dim, (0.0,) * dim, (1.0,) * dim, (cells,) * dim)
    if kind == "normal":
        vals = rng.normal(size=spec.nodes)
    elif kind == "zeros":
        vals = np.round(rng.normal(size=spec.nodes))
    elif kind == "checker":
        parity = np.indices(spec.nodes).sum(axis=0) % 2
        vals = np.where(parity == 0, 1.0, -1.0) * rng.uniform(0.1, 2.0, spec.nodes)
    elif kind == "saddle":
        vals = np.prod(np.stack(spec.meshgrid()) - 0.5, axis=0) + rng.choice([-1e-9, 0.0, 1e-9])
    else:
        vals = np.full(spec.nodes, rng.choice([-1.0, 0.0, 1.0]))
    return ScalarField(spec, vals)


def test_triangle_table_unpacks_to_the_tabulated_cases():
    # the sha256 of the tuple literals' repr that the packed string replaced
    import hashlib

    assert len(TRIANGLE_TABLE) == 256 and {len(row) for row in TRIANGLE_TABLE} == {16}
    digest = hashlib.sha256(repr(TRIANGLE_TABLE).encode()).hexdigest()
    assert digest == "7315c99a0fb313cb250ff30e3363052e87603c57bc2ee31cb5db1aaf7e4e2ce4"


class TestAgainstReference:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        dim=st.sampled_from([2, 3]),
        cells=st.integers(1, 9),
        kind=st.sampled_from(["normal", "zeros", "checker", "saddle", "empty"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_elements_bit_identical_in_order(self, dim, cells, kind, seed):
        f = _field(dim, cells, kind, seed)
        want = (_marching_squares if dim == 2 else _marching_cubes)(f)
        got = extract_interface(f).elements
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("cells", [(9, 7), (9, 7, 5), (2, 2), (2, 2, 2)])
    def test_active_cells_on_every_face(self, cells):
        # a sphere about the box centre that crosses every face but passes no
        # corner, on boxes of unequal sides: the active cells reach every face
        dim, h = len(cells), 0.1
        hi = tuple(h * c for c in cells)
        spec = GridSpec(dim, (0.0,) * dim, hi, cells)
        r2 = (0.5 * max(hi) + 0.25 * h) ** 2
        f = ScalarField.sample(spec, lambda *x: sum((c - 0.5 * b) ** 2 for c, b in zip(x, hi)) - r2)
        got = extract_interface(f).elements
        want = (_marching_squares if dim == 2 else _marching_cubes)(f)
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))
        pts = got.reshape(-1, dim)
        for k in range(dim):
            assert pts[:, k].min() <= h and pts[:, k].max() >= hi[k] - h

    @pytest.mark.parametrize("dim, cells", [(2, 9), (3, 7)])
    @pytest.mark.parametrize("kind", ["normal", "checker", "saddle"])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_cell_slabs_keep_the_elements(self, dim, cells, kind, rows, monkeypatch):
        # the active cells found one axis-0 slab of ``rows`` cell rows at a time
        # (4 leaves a shorter last slab) against the reference
        import actx.interface

        monkeypatch.setattr(actx.interface, "SLAB_NODES", rows * cells ** (dim - 1))
        f = _field(dim, cells, kind, 7)
        got = extract_interface(f).elements
        want = (_marching_squares if dim == 2 else _marching_cubes)(f)
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_all_saddle_cases_covered(self):
        # the checkerboard gives codes 5 and 10 with cell averages of both signs
        f = _field(2, 9, "checker", 0)
        v = f.values
        avg = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[1:, 1:] + v[:-1, 1:])
        code5 = v[:-1, :-1] < 0
        assert {(bool(c), bool(a)) for c, a in zip(code5.ravel(), (avg < 0).ravel())} == {
            (True, True), (True, False), (False, True), (False, False)}
        assert np.array_equal(extract_interface(f).elements, _marching_squares(f))


class TestRadiusEstimate:
    def test_exact_circle_vertices(self):
        ang = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        pts = 0.5 + 0.2 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        segs = np.stack([pts, np.roll(pts, -1, axis=0)], axis=1)
        mean, spread = radius_estimate(InterfaceSet(2, segs), (0.5, 0.5))
        assert mean == pytest.approx(0.2, abs=1e-12)
        assert spread <= 1e-12

    def test_tanh_circle(self):
        mean, spread = radius_estimate(extract_interface(circle_field(0.25)), (0.5, 0.5))
        assert abs(mean - 0.25) <= SPEC.h
        assert spread <= 2 * SPEC.h

    def test_square_flags_non_circularity(self):
        a = 0.3
        f = ScalarField.sample(
            SPEC, lambda x, y: np.maximum(np.abs(x - 0.5), np.abs(y - 0.5)) - a
        )
        mean, spread = radius_estimate(extract_interface(f), (0.5, 0.5))
        assert spread == pytest.approx((np.sqrt(2) - 1) * a, abs=3 * SPEC.h)

    def test_empty_rejected(self):
        with pytest.raises(InterfaceError):
            radius_estimate(InterfaceSet(2, np.zeros((0, 2, 2))), (0.5, 0.5))


class TestOracle:
    def test_pure_curvature_closed_form(self):
        traj = mcf_oracle(0.25, 0.0, 2, 0.01)
        assert traj.radius(0.01) == pytest.approx(np.sqrt(0.0625 - 0.02), abs=1e-9)

    def test_equilibrium_radius_is_stationary(self):
        traj = mcf_oracle(0.25, 16.0, 2, 0.05, n_samples=21)
        assert np.max(np.abs(traj.radii - 0.25)) < 1e-12
        assert traj.extinction_time is None

    def test_extinction_time_closed_form(self):
        traj = mcf_oracle(0.25, 0.0, 2, 0.04)
        assert traj.extinction_time == pytest.approx(0.25**2 / 2, abs=1e-8)
        assert np.isnan(traj.radius(0.04))

    def test_three_dimensions(self):
        # n = 3: R^2 = R0^2 - 4t
        traj = mcf_oracle(0.3, 0.0, 3, 0.01)
        assert traj.radius(0.01) == pytest.approx(np.sqrt(0.09 - 0.04), abs=1e-9)

    def test_energy_consistency(self):
        # c = 0, n = 2: R dR/dt = -1 at all sampled times (y = R^2 is linear)
        traj = mcf_oracle(0.25, 0.0, 2, 0.02, n_samples=101)
        y = traj.radii**2
        slopes = np.diff(y) / np.diff(traj.times)
        assert np.max(np.abs(slopes / 2 + 1.0)) < 1e-8

    def test_growth_with_transport(self):
        # c > 0 from above the equilibrium: closed form y = 1/c + (y0 - 1/c) e^{2ct}
        c, r0, t = 16.0, 0.3, 0.03
        traj = mcf_oracle(r0, c, 2, t)
        want = np.sqrt(1 / c + (r0**2 - 1 / c) * np.exp(2 * c * t))
        assert traj.radius(t) == pytest.approx(want, rel=1e-9)

    def test_bad_parameters(self):
        with pytest.raises(InterfaceError):
            mcf_oracle(-0.1, 0.0, 2, 0.01)
        with pytest.raises(InterfaceError):
            mcf_oracle(0.1, 0.0, 2, -1.0)


class TestHausdorff:
    def test_identical_sets(self):
        iset = extract_interface(circle_field(0.25))
        assert hausdorff_distance(iset, iset) == 0.0

    def test_concentric_circles(self):
        delta = 0.04
        a = extract_interface(circle_field(0.21))
        b = extract_interface(circle_field(0.25))
        assert hausdorff_distance(a, b) == pytest.approx(delta, abs=2 * SPEC.h)

    def test_translation(self):
        v = np.array([0.05, 0.02])
        a = extract_interface(circle_field(0.2, center=(0.45, 0.5)))
        b = extract_interface(circle_field(0.2, center=(0.45 + v[0], 0.5 + v[1])))
        assert hausdorff_distance(a, b) == pytest.approx(np.linalg.norm(v), abs=2 * SPEC.h)

    def test_extraction_recovers_shape_within_2h(self):
        # profile of an exact circle: extraction stays within 2h Hausdorff
        ang = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        pts = 0.5 + 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        exact = InterfaceSet(2, np.stack([pts, np.roll(pts, -1, axis=0)], axis=1))
        approx = extract_interface(circle_field(0.25, eps=4 * SPEC.h))
        assert hausdorff_distance(approx, exact) <= 2 * SPEC.h

    def test_empty_rejected(self):
        iset = extract_interface(circle_field(0.25))
        with pytest.raises(InterfaceError):
            hausdorff_distance(iset, InterfaceSet(2, np.zeros((0, 2, 2))))
