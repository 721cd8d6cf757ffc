"""Diagnostics: discrepancy, density ratios, kernels, inequalities, weighted energy."""

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actx.checks import (
    discrepancy_field,
    hat_p,
    heat_kernel,
    kernel_field,
    meyers_ziemer_check,
    monotonicity_check,
    positive_discrepancy_ball,
    scaled_density_ratio,
)
from actx.grid import GridSpec, ScalarField, ball_integrate, integrate
from actx.measures import (
    EnergyMeasure,
    HuiskenProbe,
    MeasureError,
    ball_masses,
    density_ratio,
    frame_fields,
    gronwall_weight,
    velocity_sq,
    weighted_energy,
)
from actx.potential import DoubleWell, surface_tension
from actx.scenario import Transport
from actx.solver import Trajectory

from conftest import (CENTER, PULSED, L, circle_config, form_transport, row_gronwall,
                      row_velocity_l2, run_with_frames)

WELL = DoubleWell.quartic()
SPEC = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (128, 128))
EPS = 8.0 / 128


def flat_field(eps=EPS, spec=SPEC):
    return ScalarField.sample(spec, lambda x, y: np.tanh((x - 0.5) / eps))


class TestDiscrepancy:
    def test_standing_wave_nearly_zero(self):
        xi = discrepancy_field(flat_field(), EPS, WELL)
        assert np.max(np.abs(xi.values[1:-1, 1:-1])) <= 5e-3 / EPS * 1.2

    def test_pure_phase_exactly_zero(self):
        xi = discrepancy_field(ScalarField.full(SPEC, 1.0), EPS, WELL)
        assert np.all(xi.values == 0.0)

    def test_well_midpoint_value(self):
        xi = discrepancy_field(ScalarField.full(SPEC, 0.0), EPS, WELL)
        assert np.allclose(xi.values, -0.5 / EPS)

    def test_trajectory_sup_matches_rows(self, ladder):
        # the run's rows and the per-frame primitives on the reloaded snapshots
        # share one per-frame computation
        cfg, res, traj, _ = ladder[128]
        assert traj.times == [r.t for r in res.rows]
        box = cfg.grid.box_slices(cfg.omega_prime())
        sups = []
        for row, t, phi in zip(res.rows, traj.times, traj.frames):
            ff = frame_fields(phi, cfg.epsilon, cfg.well)
            sups.append(float(np.max(ff.xi.values[box])))
            assert row.sup_xi == sups[-1]
            assert row.velocity_sq == velocity_sq(phi, cfg.epsilon, cfg.well, cfg.omega_prime())
            assert row.gronwall_factor == weighted_energy(
                ff.measure(), gronwall_weight(cfg.transport, cfg.grid, t))
        tail = [i for i, r in enumerate(res.rows) if r.t >= cfg.tau - 1e-12]
        assert max(sups[i] for i in tail) == max(res.rows[i].sup_xi for i in tail)

        for prev, row in zip(res.rows, res.rows[1:]):
            (rep,) = monotonicity_check(traj, [res.probe], prev.t, row.t)
            assert (rep.t0, rep.t1) == (prev.t, row.t)
            assert rep.residual == pytest.approx(row.monotonicity_residual, rel=1e-12)

    def test_gradient_saturation_bound(self, ladder):
        # eps |grad phi| <= 1.2 max sqrt(2W) on the inner box, along the flow
        cfg, res, traj, _ = ladder[128]
        from reference_ops import gradient

        box = cfg.grid.box_slices(cfg.omega_prime())
        for phi in traj.frames:
            g = gradient(phi, None)
            mag = cfg.epsilon * np.sqrt(np.sum(g.values**2, axis=-1))
            assert np.max(mag[box]) <= 1.2 * 1.0


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFrameFields:
    """The stride-shifted frame fields against the padded reference operators."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("well", [WELL, DoubleWell.from_coeffs([2.0, 0.0, -4.0, 0.0, 2.0], kappa=4.0)],
                             ids=["quartic", "poly"])
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_matches_padded_reference(self, dim, well, chunk, monkeypatch):
        import actx.grid
        from actx.grid import stencil_rhs, sum_sq, trapezoid
        from actx.measures import frame_fields
        from reference_ops import folded_update, grad_sq, gradient

        if chunk is not None:
            monkeypatch.setattr(actx.grid, "CHUNK", chunk)
        cells = (23, 20) if dim == 2 else (13, 11, 10)
        spec = GridSpec(dim, (0.0,) * dim, tuple(0.1 * c for c in cells), cells)
        eps = 0.4
        phi = ScalarField(spec, np.random.default_rng(dim).uniform(-1.05, 1.05, spec.nodes))
        ff = frame_fields(phi, eps, well)

        # every node, the faces and edges among them, against both references
        well_half = well.w(phi.values) / eps
        for grad_half in (0.5 * eps * sum_sq(gradient(phi, None).values), grad_sq(phi) * (0.5 * eps)):
            assert np.array_equal(_bits(ff.density.values), _bits(grad_half + well_half))
            assert np.array_equal(_bits(ff.xi.values), _bits(grad_half - well_half))
        # the drive velocity_sq forms (stencil_rhs without transport) at every
        # interior node, and velocity_sq as its window trapezoid of eps drive^2 over
        # a window of every interior node
        drive = folded_update(phi, None, eps, well)
        out = np.empty(spec.nodes)
        stencil_rhs(phi.values, None, spec.h, eps, well, out)
        core = (slice(1, -1),) * dim
        assert np.array_equal(_bits(out[core]), _bits(drive[core]))
        region = ((0.1,) * dim, tuple(0.1 * (c - 1) for c in cells))
        window = spec.box_slices(region)
        assert all(sl.start == 1 and sl.stop == n - 1 for sl, n in zip(window, spec.nodes))
        assert velocity_sq(phi, eps, well, region) == trapezoid(eps * drive[window] ** 2, spec.h)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("where", ["interior", "face", "corner"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_names_the_first_non_finite_node(self, dim, where, monkeypatch):
        import actx.grid
        from actx.grid import GridError
        from reference_ops import grad_sq

        monkeypatch.setattr(actx.grid, "CHUNK", 7)
        spec = GridSpec(dim, (0.0,) * dim, (1.0,) * dim, (9,) * dim)
        vals = np.random.default_rng(dim).uniform(-1.0, 1.0, spec.nodes)
        node = {"interior": (4, 5, 3), "face": (3, 9, 6), "corner": (9, 0, 9)}[where][:dim]
        vals[node] = 1e200  # finite, but W and |grad|^2 overflow around it
        phi = ScalarField(spec, vals)
        density = grad_sq(phi) * (0.5 * 0.3) + WELL.w(vals) / 0.3
        first = tuple(int(i) for i in np.argwhere(~np.isfinite(density))[0])
        with pytest.raises(GridError, match=re.escape(f"non-finite entry at node index {first}")):
            frame_fields(phi, 0.3, WELL)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_velocity_sq_rejects_a_region_on_the_faces(self, dim):
        spec = GridSpec(dim, (0.0,) * dim, (1.0,) * dim, (16,) * dim)
        phi = ScalarField.sample(spec, lambda *x: np.tanh((x[0] - 0.5) / 0.25))
        inner = ((0.1,) * dim, (0.9,) * dim)
        assert velocity_sq(phi, 0.25, WELL, inner) > 0.0
        for lo, hi in (((0.0,) * dim, (0.9,) * dim), ((0.1,) * dim, (0.9,) * (dim - 1) + (1.0,))):
            with pytest.raises(MeasureError, match="region .* reaches the box faces"):
                velocity_sq(phi, 0.25, WELL, (lo, hi))


class TestPositiveDiscrepancyBall:
    def test_constant_phase_zero(self):
        assert positive_discrepancy_ball(ScalarField.full(SPEC, 0.3), EPS, WELL, (0.5, 0.5), 0.2) == 0.0

    def test_standing_wave_small(self):
        for eps_mult in (8, 16):
            eps = eps_mult / 128
            val = positive_discrepancy_ball(flat_field(eps), eps, WELL, (0.5, 0.5), 0.25)
            assert val <= 1e-2 * 0.25

    def test_ball_must_fit(self):
        with pytest.raises(MeasureError):
            positive_discrepancy_ball(flat_field(), EPS, WELL, (0.9, 0.5), 0.2)

    def test_refinement_ladder_non_increasing(self, ladder):
        # integrated positive discrepancy shrinks (or ties) as eps refines
        vals = {}
        for cells in (128, 192, 256):
            cfg, res, _, _ = ladder[cells]
            tail = [r for r in res.rows if r.t >= cfg.tau - 1e-12]
            vals[cells] = max(r.pos_xi_integral for r in tail)
        assert vals[192] <= vals[128] + 1e-12
        assert vals[256] <= vals[192] + 1e-12


class TestDensityRatio:
    def test_flat_interface_chord_value(self):
        mu = EnergyMeasure.from_phase(flat_field(), EPS, WELL)
        res = density_ratio(mu, region=((0.1, 0.1), (0.9, 0.9)), stride=4,
                            radii=[0.0625, 0.125])
        assert res.max_ratio == pytest.approx(2 * surface_tension(WELL), rel=0.10)

    def test_circle_local_flatness(self):
        # small balls on a large circle see the flat chord value
        R = 0.35
        f = ScalarField.sample(
            SPEC, lambda x, y: np.tanh((R - np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)) / EPS)
        )
        mu = EnergyMeasure.from_phase(f, EPS, WELL)
        ratio = ball_integrate(mu.density, (0.5 + R, 0.5), 0.125, clip_ok=True) / 0.125
        assert ratio == pytest.approx(2 * surface_tension(WELL), rel=0.10)

    def test_zero_measure(self):
        mu = EnergyMeasure.from_phase(ScalarField.full(SPEC, 1.0), EPS, WELL)
        res = density_ratio(mu, region=((0.1, 0.1), (0.9, 0.9)), stride=4)
        assert res.max_ratio == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dim, cells", [(2, 128), (3, 32)])
    @pytest.mark.parametrize("stride", [1, 4])
    def test_ball_masses_match_ball_integrate(self, dim, cells, stride):
        from actx.measures import dyadic_radii

        spec = GridSpec(dim, (0.0,) * dim, (1.0,) * dim, (cells,) * dim)
        eps = 6.0 / cells
        phi = ScalarField.sample(
            spec, lambda *x: np.tanh((0.3 - np.sqrt(sum((c - 0.45) ** 2 for c in x))) / eps)
        )
        mu = EnergyMeasure.from_phase(phi, eps, WELL)
        if stride == 4:  # the whole lattice: both faces of every axis
            centres = [slice(None, None, 4)] * dim
        elif dim == 2:  # every node of axis 0 and a band along the upper face of axis 1
            centres = [slice(None), slice(-29, None)]
        else:
            centres = [slice(None), slice(-13, None), slice(-8, None)]
        axes = spec.axes()
        radii = dyadic_radii(spec, 0.5)
        assert radii[0] == 2.0 * spec.h and radii[-1] == 0.5  # clipped balls included
        for r in radii:
            masses = ball_masses(mu, r, centres)
            for i in np.ndindex(masses.shape):
                c = [float(ax[sl][j]) for ax, sl, j in zip(axes, centres, i)]
                direct = ball_integrate(mu.density, c, r, clip_ok=True)
                assert abs(masses[i] - direct) <= 1e-13 * mu.total, (r, c)

    @pytest.mark.parametrize("dim, cells", [(2, (40, 33)), (3, (21, 18, 14))])
    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("slab", [1, 5, None])
    def test_ball_masses_same_bits_as_whole_box_prefix_sum(self, dim, cells, stride, slab, monkeypatch):
        # column slabs against reference_ops.whole_box_ball_masses: centres on
        # every face (halos past the box) and on an inner band, radii from 2h
        # to past the box; ``slab`` asks for slabs about that many columns
        # wide (None: the default, one slab on these grids)
        import actx.measures
        from reference_ops import whole_box_ball_masses

        spec = GridSpec(dim, (0.0,) * dim, tuple(c / 40 for c in cells), cells)
        rng = np.random.default_rng(dim * 10 + stride)
        mu = EnergyMeasure.of(ScalarField(spec, rng.uniform(0.0, 3.0, spec.nodes)))
        bands = [[slice(None, None, stride)] * dim,
                 [slice(3, None, stride), slice(2, -4, stride)] + [slice(None, None, stride)] * (dim - 2)]
        for r in (2 * spec.h, 3.5 * spec.h, 7 * spec.h, 0.6):
            m = math.ceil(r / spec.h)
            if slab is not None:
                column = (cells[0] + 2 * m + 2) * math.prod(c + 1 + 2 * m for c in cells[2:])
                monkeypatch.setattr(actx.measures, "SLAB_NODES", (slab + 2 * m) * column)
            for centres in bands:
                got, want = ball_masses(mu, r, centres), whole_box_ball_masses(mu, r, centres)
                assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_stride_one_prefix_sums_each_column_about_twice(self, monkeypatch):
        # every node of a 257^2 box a centre: the slabs of one radius prefix-sum
        # at most twice the box's columns (2m + 1 columns per centre column were
        # up to 257 times them); counted at np.cumsum, which only the slabs call
        from actx.measures import dyadic_radii

        spec = GridSpec(2, (0.0, 0.0), (1.0, 1.0), (256, 256))
        mu = EnergyMeasure.of(ScalarField(spec, np.random.default_rng(0).uniform(0.0, 1.0, spec.nodes)))
        cumsum, summed = np.cumsum, []

        def counting(a, *args, **kwargs):
            summed.append(a.shape[1])
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting)
        for r in dyadic_radii(spec, 1.0):
            summed.clear()
            density_ratio(mu, [r], stride=1, require_fit=False)
            assert 257 <= sum(summed) <= 2 * 257, (r, summed)

    def test_small_radii_rejected(self):
        mu = EnergyMeasure.from_phase(flat_field(), EPS, WELL)
        with pytest.raises(MeasureError, match="2h"):
            density_ratio(mu, radii=[SPEC.h])


class TestScaledDensityRatio:
    def test_pure_phase_zero(self, ladder):
        cfg, _res, _, _ = ladder[128]
        traj = Trajectory(cfg)
        traj.append(cfg.tau + 0.001, ScalarField.full(cfg.grid, 1.0))
        val, _, _, _ = scaled_density_ratio(traj)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_saturates_to_distance_weight_for_late_times(self, ladder):
        # when sqrt(t - eps^2) exceeds the box scale, only the distance matters:
        # the scaled ratio then equals dist^{n-1} mass / r^{n-1} computed by hand
        cfg, res, _, _ = ladder[128]
        late = 10.0 + cfg.epsilon**2  # sqrt(t - eps^2) > diam
        traj = Trajectory(cfg)
        traj.append(late, res.final_phi)
        val, center, radius, t = scaled_density_ratio(traj, stride=4, radii=[0.05])
        mu = EnergyMeasure.from_phase(res.final_phi, cfg.epsilon, cfg.well)
        dist = min(
            center[0] - cfg.epsilon, center[1] - cfg.epsilon,
            L - cfg.epsilon - center[0], L - cfg.epsilon - center[1],
        )
        by_hand = dist * ball_integrate(mu.density, center, 0.05, clip_ok=True) / 0.05
        assert val == pytest.approx(by_hand, rel=1e-9)

    def test_cross_epsilon_stability(self, ladder):
        # matched comparison: identical radius lattice on every rung (the
        # parabolic weight sqrt(t - eps^2) still differs by design)
        radii = [0.025, 0.05, 0.1, 0.2]
        vals = {}
        for cells in (128, 192, 256):
            cfg, res, traj, _ = ladder[cells]
            vals[cells], _, _, _ = scaled_density_ratio(traj, radii=radii)
        assert max(vals.values()) / min(vals.values()) < 2.0


class TestHeatKernel:
    PROBE = HuiskenProbe((0.5, 0.5), 0.05, 0.125, 0.25)

    def test_center_value(self):
        tau = 0.05 - 0.01
        want = (4 * math.pi * tau) ** (-0.5)
        assert heat_kernel(self.PROBE, (0.5, 0.5), 0.01, 2) == pytest.approx(want, rel=1e-12)

    def test_outside_cutoff_support(self):
        assert heat_kernel(self.PROBE, (0.8, 0.5), 0.01, 2) == 0.0

    def test_time_ordering_enforced(self):
        with pytest.raises(MeasureError):
            heat_kernel(self.PROBE, (0.5, 0.5), 0.06, 2)

    @pytest.mark.parametrize("gap", [1e-3, 1e-2])
    def test_mass_bound(self, gap):
        # quadrature check: kernel integral never exceeds sqrt(4 pi (s-t))
        probe = HuiskenProbe((0.5, 0.5), 0.05, 0.125, 0.25)
        rho = kernel_field(probe, SPEC, 0.05 - gap)
        assert integrate(rho) <= math.sqrt(4 * math.pi * gap) + 1e-12

    def test_probe_ball_must_fit(self):
        probe = HuiskenProbe((0.05, 0.5), 0.05, 0.125, 0.25)
        with pytest.raises(MeasureError, match="leaves the domain"):
            probe.validate(SPEC)


def _whole_grid_kernel(probe, spec, t):
    """The truncated kernel evaluated on every node of the grid."""
    mesh = spec.meshgrid()
    r2 = sum((mesh[k] - probe.y[k]) ** 2 for k in range(spec.dim))
    tau = probe.s - t
    amp = (4.0 * math.pi * tau) ** (-(spec.dim - 1) / 2.0)
    return amp * np.exp(-r2 / (4.0 * tau)) * probe.cutoff(np.sqrt(r2))


@dataclass(frozen=True, eq=False)  # hashed by identity, as the transport_field cache needs
class _ArrayTransport:
    """u = factor U for a given node-major array U (nodes + (dim,)); ``spatial``
    gives it component-major, as ``scenario.Transport.spatial`` does."""

    u: np.ndarray
    factor: float = 1.0

    def m(self, t):
        return self.factor

    def spatial(self, x):
        return np.moveaxis(self.u, -1, 0).copy(), None


def _whole_grid_terms(ff, probe, t, u2):
    """``kernel_terms`` as whole-grid trapezoid integrals, with the scale of each
    (the integral of the absolute integrand).

    The constant divisors 2 and 2(s - t) divide the integrals, as in
    ``kernel_terms``: close to s the kernel underflows, the integrals are
    subnormal, and there the place of a constant factor decides more than
    the last digits."""
    spec = ff.density.spec
    rho = _whole_grid_kernel(probe, spec, t)
    dens = ff.density.values
    u2 = np.zeros(spec.nodes) if u2 is None else u2
    parts = [(1.0, rho * dens), (2.0, rho * u2 * dens), (2.0 * (probe.s - t), ff.xi.values * rho)]
    return [
        (integrate(ScalarField(spec, p)) / d, integrate(ScalarField(spec, np.abs(p))) / d)
        for d, p in parts
    ]


class TestProbeLocalKernel:
    """``kernel_field`` and ``kernel_terms`` on the probe's box against the whole grid."""

    @given(
        dim=st.sampled_from([2, 3]),
        cells=st.integers(12, 40),
        r_outer=st.floats(0.05, 0.3),
        faces=st.lists(st.sampled_from(["lo", "mid", "hi"]), min_size=3, max_size=3),
        gap=st.sampled_from([1e-9, 1e-4, 3e-3, 0.04]),
        with_u=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(  # the kernel underflows: every integral is subnormal
        dim=2, cells=12, r_outer=0.06836268243879358, faces=["hi", "mid", "lo"],
        gap=1e-9, with_u=False, seed=12,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_whole_grid(self, dim, cells, r_outer, faces, gap, with_u, seed):
        from actx.measures import frame_fields, kernel_terms, probe_geometry

        if dim == 3:
            cells = min(cells, 20)
        spec = GridSpec(dim, (0.0,) * dim, (0.8,) * dim, (cells,) * dim)
        rng = np.random.default_rng(seed)
        # the probe ball at the box centre or touching a face, per axis
        y = tuple({"lo": r_outer, "mid": 0.4, "hi": 0.8 - r_outer}[f] for f in faces[:dim])
        probe = HuiskenProbe(y, 0.05, 0.5 * r_outer, r_outer)
        ff = frame_fields(ScalarField(spec, rng.uniform(-1.2, 1.2, spec.nodes)), 0.1, WELL)
        transport, u2 = Transport(), None
        if with_u:  # the reference takes the field |m U|^2, kernel_terms m^2 times the sum of |U|^2
            transport = _ArrayTransport(rng.uniform(-2.0, 2.0, spec.nodes + (dim,)), rng.uniform(-3.0, 3.0))
            u = transport.factor * transport.u
            u2 = np.sum(u * u, axis=-1)
        box = probe_geometry(probe, spec).box
        outside = np.ones(spec.nodes, dtype=bool)
        outside[box] = False
        # two times per probe and grid: nothing time-dependent is kept between calls
        for t in (probe.s - gap, probe.s - 0.5 * gap):
            ref = _whole_grid_kernel(probe, spec, t)
            assert np.all(ref[outside] == 0.0)
            assert np.array_equal(kernel_field(probe, spec, t).values, ref)
            got = kernel_terms(ff, probe, t, transport)
            for value, (want, scale) in zip(got, _whole_grid_terms(ff, probe, t, u2)):
                assert abs(value - want) <= 1e-13 * scale, (t, value, want)

    def test_transport_term_forms_no_whole_grid_field(self):
        # |U|^2 is formed on the probe's box and m(t)^2 scales its integral
        import tracemalloc

        import actx.measures
        from actx.measures import frame_fields, kernel_terms

        assert not hasattr(actx.measures, "speed_sq")
        ff = frame_fields(flat_field(), EPS, WELL)
        probe = HuiskenProbe((0.5, 0.5), 0.05, 0.1, 0.2)
        tr = form_transport("(radial-pulsed 1.2 0.3125 5.0 0.5 0.5)")
        kernel_terms(ff, probe, 0.01, tr)  # the grid's U is cached from here on
        tracemalloc.start()
        try:
            i_u = kernel_terms(ff, probe, 0.02, tr)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert i_u > 0.0 and peak < 8 * SPEC.n_nodes

    def test_probe_leaving_box_raises_before_evaluation(self):
        from actx.measures import frame_fields, kernel_terms

        ff = frame_fields(flat_field(), EPS, WELL)
        probe = HuiskenProbe((0.1, 0.5), 0.05, 0.1, 0.2)
        with pytest.raises(MeasureError, match="leaves the domain"):
            kernel_terms(ff, probe, 0.06, Transport())  # t > s as well: the ball is checked first
        with pytest.raises(MeasureError, match="leaves the domain"):
            kernel_field(probe, SPEC, 0.01)

    def test_time_ordering_enforced(self):
        from actx.measures import frame_fields, kernel_terms

        ff = frame_fields(flat_field(), EPS, WELL)
        probe = HuiskenProbe((0.5, 0.5), 0.05, 0.1, 0.2)
        for t in (0.05, 0.06):
            with pytest.raises(MeasureError, match="t < s"):
                kernel_terms(ff, probe, t, Transport())

    def test_non_finite_product_raises(self):
        from actx.grid import GridError
        from actx.measures import frame_fields, kernel_terms, probe_geometry

        ff = frame_fields(flat_field(), EPS, WELL)
        probe = HuiskenProbe((0.5, 0.5), 0.05, 0.1, 0.2)
        u = np.ones(SPEC.nodes + (2,))
        u[64, 70, 1] = np.nan
        with pytest.raises(GridError, match=r"non-finite entry at node index \(64, 70\)"):
            kernel_terms(ff, probe, 0.01, _ArrayTransport(u))
        box = probe_geometry(probe, SPEC).box
        u[64, 70, 1] = 1.0
        u[box[0].stop, 64, 0] = np.inf  # off the box: not a node of the kernel's support
        assert np.isfinite(kernel_terms(ff, probe, 0.01, _ArrayTransport(u))[1])


class TestMonotonicity:
    @pytest.mark.parametrize("lhs, scale, want", [(0.5, 2.0, 1 / 3), (0.05, 2.0, 0.0), (0.5, -2.0, 1 / 3)])
    def test_fitted_c_absorbs_the_residual_beyond_the_slack(self, lhs, scale, want):
        from actx.checks import MONOTONICITY_SLACK, MonotonicityReport

        # residual = lhs - 0.1 - 0.1, slack 0.05 |scale| = 0.1, tail factor 0.6
        rep = MonotonicityReport(0.0, 1.0, lhs, 0.1, 0.1, 0.6, scale)
        assert rep.fitted_c == max(0.0, (rep.residual - MONOTONICITY_SLACK * abs(scale)) / 0.6)
        assert rep.fitted_c == pytest.approx(want, abs=1e-15)
        assert rep.holds_with(rep.fitted_c)
        assert not rep.holds_with(rep.fitted_c - 0.01) or rep.fitted_c == 0.0

    def test_pure_phase_trivial(self, ladder):
        cfg, _res, _, _ = ladder[128]
        traj = Trajectory(cfg)
        for t in (cfg.tau, cfg.tau + 0.002, cfg.tau + 0.004):
            traj.append(t, ScalarField.full(cfg.grid, 1.0))
        probe = HuiskenProbe(CENTER, cfg.tau + 0.02, 0.0875, 0.175)
        (rep,) = monotonicity_check(traj, [probe], cfg.tau, cfg.tau + 0.004)
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.residual == pytest.approx(0.0, abs=1e-14)

    def test_standing_wave_near_monotone(self, ladder):
        # relaxed flat profile: the kernel energy barely moves once the probe
        # horizon is short enough that the Gaussian sits inside the cutoff
        from actx.solver import SimState, stable_dt, step

        cfg, _res, _, _ = ladder[128]
        phi = ScalarField.sample(cfg.grid, lambda x, y: np.tanh((x - CENTER[0]) / cfg.epsilon))
        dt = stable_dt(cfg.grid.h, cfg.epsilon, 0.0, WELL, 2, 0.5)
        st = SimState(0.0, phi, 0)
        traj = Trajectory(cfg)
        traj.append(0.0, st.phi)
        for k in range(400):
            st = step(st, cfg, dt)
            if (k + 1) % 100 == 0:
                traj.append(st.t, st.phi)
        probe = HuiskenProbe((CENTER[0], CENTER[1]), st.t + 3e-4, 0.175, 0.35)
        (rep,) = monotonicity_check(traj, [probe], st.t - 0.0016, st.t)
        assert rep.lhs <= 0.01 * rep.scale

    def test_shrinking_circle_probes(self, ladder):
        cfg, res, traj, _ = ladder[256]
        probe = HuiskenProbe((CENTER[0] + 0.25, CENTER[1]), cfg.t_end + 0.01, 0.0875, 0.175)
        (rep,) = monotonicity_check(traj, [probe], cfg.tau, cfg.t_end)
        # the kernel-energy inequality holds with the fitted constant by construction;
        # the content is that the residual per unit of tail factor is small against
        # the 5%-of-scale floor
        floor_c = 0.05 * abs(rep.scale) / rep.tail_factor
        assert rep.residual / rep.tail_factor <= 10 * max(floor_c, 1e-12)
        assert rep.holds_with(rep.fitted_c)

    def test_window_validation(self, ladder):
        cfg, res, traj, _ = ladder[128]
        probe = HuiskenProbe(CENTER, cfg.t_end + 0.01, 0.0875, 0.175)
        with pytest.raises(MeasureError):
            monotonicity_check(traj, [probe], cfg.t_end, cfg.tau)

    @pytest.fixture(scope="class")
    def pulsed(self, tmp_path_factory):
        """A short pulsed-transport rk2 run and the 10 interface probes of its first frame."""
        from actx.checks import interface_probes
        from actx.solver import SolverConfig

        tr = form_transport(PULSED)
        cfg = circle_config(96, 16, t_end=0.004, tau=0.001, transport=tr)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _res, traj = run_with_frames(tmp_path_factory, cfg, SolverConfig(scheme="rk2", diag_every=25))
        return cfg, traj, interface_probes(traj, 10)

    @staticmethod
    def _one_probe_reference(traj, probe, t0, t1):
        """One probe's report, built frame by frame as a single-probe check does."""
        from actx.checks import MonotonicityReport
        from actx.measures import frame_fields, kernel_terms

        cfg = traj.cfg
        idx = [i for i, t in enumerate(traj.times) if t0 - 1e-12 <= t <= t1 + 1e-12]
        vals = []
        for i in idx:
            t = traj.times[i]
            ff = frame_fields(traj.frames[i], cfg.epsilon, cfg.well)
            leak = math.exp(-1.0 / (128.0 * (probe.s - t)))
            mass = ball_integrate(ff.density, probe.y, 0.25, clip_ok=True)
            vals.append(kernel_terms(ff, probe, t, cfg.transport) + (leak * mass,))
        times = np.asarray([traj.times[i] for i in idx])
        vals = np.asarray(vals)
        return MonotonicityReport(
            t0=float(times[0]),
            t1=float(times[-1]),
            lhs=float(vals[-1, 0] - vals[0, 0]),
            transport_term=float(np.trapezoid(vals[:, 1], times)),
            discrepancy_term=float(np.trapezoid(vals[:, 2], times)),
            tail_factor=float(np.trapezoid(vals[:, 3], times)),
            scale=float(np.max(vals[:, 0])),
        )

    def test_probe_list_matches_per_probe_reference(self, pulsed):
        # one pass over the frames for all probes gives each probe's own report, bit for bit
        from dataclasses import fields

        cfg, traj, probes = pulsed
        assert len(probes) == 10 and len(traj.times) >= 5
        reps = monotonicity_check(traj, probes, cfg.tau, cfg.t_end)
        assert len(reps) == len(probes)
        for probe, rep in zip(probes, reps):
            ref = self._one_probe_reference(traj, probe, cfg.tau, cfg.t_end)
            for f in fields(rep):
                assert getattr(rep, f.name) == getattr(ref, f.name), (probe.y, f.name)
        assert any(rep.transport_term > 0.0 for rep in reps)  # the pulse enters the check

    @pytest.mark.parametrize("where", [0, 4, 9])
    @pytest.mark.parametrize(
        "bad, match",
        [
            (HuiskenProbe((0.05, 0.8), 1.0, 0.03, 0.06), "leaves the domain"),
            (HuiskenProbe(CENTER, 0.003, 0.03, 0.06), "t0 < t1 < s"),
        ],
    )
    def test_bad_probe_anywhere_raises(self, pulsed, where, bad, match):
        cfg, traj, probes = pulsed
        probes = list(probes)
        probes[where] = bad
        with pytest.raises(MeasureError, match=match):
            monotonicity_check(traj, probes, cfg.tau, cfg.t_end)

    def test_empty_probe_list_rejected(self, pulsed):
        cfg, traj, _ = pulsed
        with pytest.raises(MeasureError, match="at least one probe"):
            monotonicity_check(traj, [], cfg.tau, cfg.t_end)


class TestTransportKernel:
    def test_zero_velocity(self, ladder):
        cfg, res, traj, _ = ladder[128]
        probe = HuiskenProbe(CENTER, cfg.t_end + 0.01, 0.0875, 0.175)
        # the space-time integral of the kernel against |u|^2 dmu: twice the transport term
        assert 2 * monotonicity_check(traj, [probe], cfg.tau, cfg.t_end)[0].transport_term == 0.0

    def test_hat_p_closed_form(self):
        assert hat_p(2.0, 4.0, 2) == pytest.approx(0.5)
        # p < n branch: (2pq - 2p - nq)/(pq) with p=2.5, q=4, n=3
        assert hat_p(2.5, 4.0, 3) == pytest.approx((20 - 5 - 12) / 10.0)
        # p > n branch
        assert hat_p(5.0, 4.0, 2) == pytest.approx(0.5)
        # p = n exposes the margin
        assert hat_p(3.0, 4.0, 3, margin=0.01) == pytest.approx(0.49)

    def test_hat_p_rejects_inadmissible_exponents(self):
        # p = 2, n = 3 sits below the admissible range, so hat-p degenerates
        with pytest.raises(MeasureError):
            hat_p(2.0, 4.0, 3)

    def test_envelope_scaling(self, gronwall_runs):
        # the double integral over a window shrinks at least like the window length
        cfg, _res, traj = gronwall_runs["static"]
        probe = HuiskenProbe((CENTER[0] + 0.25, CENTER[1]), cfg.t_end + 0.01, 0.0875, 0.175)
        t1 = cfg.t_end
        full = 2 * monotonicity_check(traj, [probe], cfg.tau, t1)[0].transport_term
        half = 2 * monotonicity_check(traj, [probe], (cfg.tau + t1) / 2, t1)[0].transport_term
        phat = hat_p(cfg.p, cfg.q, 2)
        window_ratio = (t1 - (cfg.tau + t1) / 2) / (t1 - cfg.tau)
        assert half <= full * window_ratio**phat * 1.5 + 1e-12


def _frames_velocity_l2(traj, t0, t1):
    """Trapezoid over the frames in [t0, t1] of ``velocity_sq`` on Omega', the
    row column, recomputed frame by frame."""
    cfg = traj.cfg
    window = [(t, phi) for t, phi in zip(traj.times, traj.frames) if t0 - 1e-12 <= t <= t1 + 1e-12]
    vals = [velocity_sq(phi, cfg.epsilon, cfg.well, cfg.omega_prime()) for _, phi in window]
    return float(np.trapezoid(vals, [t for t, _ in window]))


class TestVelocityL2:
    def test_pure_phase_zero(self, ladder):
        cfg, _res, _, _ = ladder[128]
        traj = Trajectory(cfg)
        for t in (cfg.tau, cfg.tau + 0.002):
            traj.append(t, ScalarField.full(cfg.grid, 1.0))
        assert _frames_velocity_l2(traj, cfg.tau, cfg.tau + 0.002) == 0.0

    def test_standing_wave_noise_floor(self, standing):
        cfg, phi0, state, dt, _secs = standing
        # continue from the relaxed state and collect a short trajectory
        from actx.solver import SimState, step

        traj = Trajectory(cfg)
        st = state
        traj.append(0.0, st.phi)
        for k in range(40):
            st = step(st, cfg, dt)
            if (k + 1) % 20 == 0:
                traj.append((k + 1) * dt, st.phi)
        mu_prime = integrate(
            EnergyMeasure.from_phase(state.phi, cfg.epsilon, cfg.well).density,
            cfg.omega_prime(),
        )
        val = _frames_velocity_l2(traj, 0.0, 40 * dt)
        assert val <= 1e-4 * (40 * dt) * mu_prime

    def test_cross_epsilon_stability(self, ladder):
        vals = {}
        for cells in (128, 192, 256):
            cfg, res, _traj, _ = ladder[cells]
            vals[cells] = row_velocity_l2(res.rows, cfg.tau, cfg.t_end) / (cfg.t_end - cfg.tau)
        assert max(vals.values()) / min(vals.values()) < 2.0

    def test_region_on_the_faces_named(self, ladder):
        cfg, _res, traj, _ = ladder[128]
        box = (cfg.grid.lo, cfg.grid.hi)
        with pytest.raises(MeasureError, match=r"region \(0\.0, 0\.0\)\.\.\(1\.6, 1\.6\) reaches"):
            velocity_sq(traj.frames[0], cfg.epsilon, cfg.well, box)


class TestMeyersZiemer:
    def test_zero_measure(self):
        mu = EnergyMeasure.from_phase(ScalarField.full(SPEC, 1.0), EPS, WELL)
        rep = meyers_ziemer_check(mu, trials=10, seed=0)
        assert rep.max_ratio == pytest.approx(0.0, abs=1e-9)

    def test_lebesgue_measure_bounded_by_one(self):
        mu = EnergyMeasure(SPEC, ScalarField.full(SPEC, 1.0), 1.0)
        rep = meyers_ziemer_check(mu, trials=50, seed=0)
        assert 0 < rep.max_ratio <= 1.0

    def test_small_grid_rejected(self):
        # 20 cells across: 8h = 0.4 >= ext/4 = 0.25 leaves no bump radius
        spec = GridSpec(3, (0.0,) * 3, (1.0,) * 3, (20,) * 3)
        phi = ScalarField.sample(spec, lambda x, y, z: np.tanh(
            (0.3 - np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)) / 0.2))
        mu = EnergyMeasure.from_phase(phi, 0.2, WELL)
        with pytest.raises(MeasureError, match=r"8h = 0\.4 >= ext/4 = 0\.25"):
            meyers_ziemer_check(mu, trials=10, seed=0, k_density=1.0)

    def test_flat_interface_seed_stability(self):
        mu = EnergyMeasure.from_phase(flat_field(), EPS, WELL)
        vals = [meyers_ziemer_check(mu, trials=100, seed=s).max_ratio for s in (0, 1, 2)]
        assert (max(vals) - min(vals)) / max(vals) < 0.2


class TestGronwall:
    def test_static_weight_non_increasing(self, gronwall_runs):
        cfg, res, _traj = gronwall_runs["static"]
        rep = row_gronwall(cfg, res)
        assert rep.sup_dt_g == 0.0
        assert rep.max_step_increase <= 1e-9

    def test_zero_weight_reduces_to_energy(self, ladder):
        cfg, res, _traj, _ = ladder[128]
        rep = row_gronwall(cfg, res)
        assert list(rep.values) == [r.total_energy for r in res.rows]
        assert rep.max_step_increase <= 1e-9

    def test_modulated_rate_bound(self, gronwall_runs):
        cfg, res, _traj = gronwall_runs["modulated"]
        rep = row_gronwall(cfg, res)
        assert rep.sup_dt_g == pytest.approx(1.0, abs=0.01)
        assert rep.rate_bound_ok()
        # pairwise form of the growth bound between consecutive samples
        for (t0, f0), (t1, f1) in zip(
            zip(rep.times, rep.values), zip(rep.times[1:], rep.values[1:])
        ):
            assert f1 <= f0 * math.exp((rep.sup_dt_g + 0.05) * (t1 - t0)) + 1e-12


class TestEnergyCap:
    def test_weighted_cap_on_all_scenarios(self, ladder, gronwall_runs):
        # sup_t mu_t <= 1.25 mu_0 exp((sup|dt g| + 0.05) T)
        cases = [ladder[c][:2] for c in (128, 256)] + [v[:2] for v in gronwall_runs.values()]
        for cfg, res in cases:
            mu0 = res.rows[0].total_energy
            sup_dtg = cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end)
            cap = 1.25 * mu0 * math.exp((sup_dtg + 0.05) * cfg.t_end)
            assert max(r.total_energy for r in res.rows) <= cap


class TestEnergyMeasure:
    def test_density_nonnegative_and_total(self, ladder):
        cfg, res, traj, _ = ladder[128]
        for phi in traj.frames[:3]:
            mu = EnergyMeasure.from_phase(phi, cfg.epsilon, cfg.well)
            assert np.all(mu.density.values >= 0)
            assert mu.total == pytest.approx(integrate(mu.density), rel=1e-14)

    def test_discrepancy_below_density(self, ladder):
        cfg, res, _, _ = ladder[128]
        phi = res.final_phi
        mu = EnergyMeasure.from_phase(phi, cfg.epsilon, cfg.well)
        xi = discrepancy_field(phi, cfg.epsilon, cfg.well)
        assert np.all(xi.values <= mu.density.values + 1e-15)
