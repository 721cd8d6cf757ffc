"""Time stepping: stability rule, fixed points, dissipation, determinism."""

import warnings

import numpy as np
import pytest

from actx.grid import ScalarField, read_field
from actx.potential import DoubleWell
from actx.solver import SimState, SolverAbort, SolverConfig, run, stable_dt, step

from conftest import PULSED, at, circle_config, form_transport

WELL = DoubleWell.quartic()


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs, match", [
        ({"scheme": "rk4"}, "unknown scheme"),
        ({"cfl": 0.0}, "cfl safety factor"),
        ({"cfl": 1.5}, "cfl safety factor"),
        ({"diag_every": 0}, "diag_every must be >= 1"),
        ({"snap_every": -3}, "snap_every must be >= 0, got -3"),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**kwargs)

    def test_defaults_are_valid(self):
        assert SolverConfig() == SolverConfig("euler", 0.5, 50, 0)


class TestStableDt:
    def test_diffusive_branch_dominates(self):
        # n = 2, h = 1/256, eps = 8h, u = 0: dt = cfl * h^2/8
        h = 1.0 / 256
        dt = stable_dt(h, 8 * h, 0.0, WELL, 2, cfl=0.5)
        assert dt == pytest.approx(0.5 * h * h / 8.0, rel=1e-6)
        # all three branches evaluated: reactive branch is much larger here
        assert (8 * h) ** 2 / WELL.wpp_max(1.1) > h * h / 8.0

    def test_advective_branch_takes_over(self):
        h = 1.0 / 256
        assert stable_dt(h, 8 * h, 1e9, WELL, 2) < 1e-11

    def test_halving_h_quarters_dt(self):
        h = 1.0 / 128
        a = stable_dt(h, 8 * h, 0.0, WELL, 2)
        b = stable_dt(h / 2, 4 * h, 0.0, WELL, 2)
        assert a / b == pytest.approx(4.0, rel=1e-12)


class TestStep:
    def setup_method(self):
        self.cfg = circle_config(128, 16)
        self.dt = stable_dt(self.cfg.grid.h, self.cfg.epsilon, 0.0, WELL, 2, 0.5)

    def test_pure_phase_is_fixed_point(self):
        state = SimState(0.0, ScalarField.full(self.cfg.grid, 1.0), 0)
        out = step(state, self.cfg, self.dt)
        assert np.array_equal(out.phi.values, state.phi.values)

    def test_unstable_equilibrium_survives_one_step(self):
        state = SimState(0.0, ScalarField.full(self.cfg.grid, 0.0), 0)
        out = step(state, self.cfg, self.dt)
        assert np.all(out.phi.values[1:-1, 1:-1] == 0.0)

    def test_abort_on_runaway(self):
        vals = np.full(self.cfg.grid.nodes, 1.0)
        vals[40, 40] = 1.09
        state = SimState(0.0, ScalarField(self.cfg.grid, vals), 7)
        with pytest.raises(SolverAbort) as exc_info:
            # a huge dt drives the perturbed node past the abort threshold
            st = state
            for _ in range(200):
                st = step(st, self.cfg, 100 * self.dt)
        assert exc_info.value.location is not None

    def test_rk2_matches_euler_to_first_order(self):
        rng = np.random.default_rng(3)
        x, y = self.cfg.grid.meshgrid()
        bump = np.sin(np.pi * x / 1.6) ** 2 * np.sin(np.pi * y / 1.6) ** 2
        phi0 = ScalarField(self.cfg.grid, 0.5 * bump)
        a = step(SimState(0.0, phi0, 0), self.cfg, self.dt, scheme="euler")
        b = step(SimState(0.0, phi0, 0), self.cfg, self.dt, scheme="rk2")
        diff = np.max(np.abs(a.phi.values - b.phi.values))
        scale = np.max(np.abs(a.phi.values - phi0.values))
        assert diff < 0.5 * scale  # schemes agree at leading order
        assert diff > 0  # but are genuinely different


class TestStandingWave:
    def test_tanh_is_discrete_steady_state(self, standing):
        cfg, phi0, state, dt, _secs = standing
        drift = np.max(np.abs(state.phi.values - phi0.values))
        assert drift <= 1e-3

    def test_boundary_pinned_to_trace(self, standing):
        cfg, phi0, state, dt, _secs = standing
        assert np.array_equal(state.phi.values[0, :], phi0.values[0, :])
        assert np.array_equal(state.phi.values[-1, :], phi0.values[-1, :])


class TestRun:
    def test_zero_horizon_single_snapshot(self, tmp_path):
        from actx.scenario import build_initial_phase

        cfg = circle_config(128, 16, t_end=1e-9, tau=1e-10)
        run(cfg, SolverConfig(diag_every=50), out_dir=str(tmp_path))
        first, t = read_field(tmp_path / "snapshots" / "step_00000000.afld")
        assert t == 0.0
        assert np.array_equal(first.values, build_initial_phase(cfg).values)

    @pytest.mark.parametrize("diag_every, snap_every", [(10, 0), (10, 10), (20, 30)])
    def test_keeps_only_the_final_field(self, tmp_path, diag_every, snap_every):
        cfg = circle_config(96, 16, t_end=0.002, tau=0.001)
        res = run(cfg, SolverConfig(diag_every=diag_every, snap_every=snap_every), out_dir=str(tmp_path))
        assert len(res.rows) > 2 and len(res.trajectory.frames) == 1
        last, t = read_field(tmp_path / "snapshots" / f"step_{res.n_steps:08d}.afld")
        assert res.trajectory.times == [res.rows[-1].t] == [t]
        assert res.final_phi is res.trajectory.frames[0]
        assert np.array_equal(res.final_phi.values.view(np.uint64), last.values.view(np.uint64))

    def test_shrinking_circle_tracks_oracle(self, ladder):
        from actx.interface import mcf_oracle

        cfg, res, _, _ = ladder[256]
        oracle = mcf_oracle(0.25, 0.0, 2, cfg.t_end)
        row_t = np.array([r.t for r in res.rows])
        for t in np.linspace(cfg.tau, cfg.t_end, 10):
            i = int(np.argmin(np.abs(row_t - t)))
            want = oracle.radius(res.rows[i].t)
            assert abs(res.rows[i].interface_radius - want) / want <= 0.05

    def test_transport_equilibrium_hold_at_rstar(self):
        # starting exactly at R* = 1/sqrt(c), the radius stays within 5% to T = 0.02
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = circle_config(192, 8, radius=0.25, t_end=0.02, tau=0.01,
                                transport=form_transport("(radial 16.0 0.8 0.8)"))
            res = run(cfg, SolverConfig(diag_every=100))
        for row in res.rows:
            if row.t >= cfg.tau:
                assert abs(row.interface_radius - 0.25) / 0.25 <= 0.05

    def test_energy_dissipates_without_transport(self, ladder):
        cfg, res, _traj, _ = ladder[128]
        mu0 = res.rows[0].total_energy
        for a, b in zip(res.rows, res.rows[1:]):
            steps = res.solver.diag_every
            assert b.total_energy <= a.total_energy + 1e-9 * mu0 * steps

    def test_near_maximum_principle(self, ladder):
        for cells in (128, 256):
            cfg, res, _, _ = ladder[cells]
            cap = 1.0 + 10.0 * res.dt
            assert all(r.max_abs_phi <= cap for r in res.rows)

    def test_row_count_matches_schedule(self, ladder):
        cfg, res, _, _ = ladder[128]
        assert len(res.rows) == res.n_steps // res.solver.diag_every + 1

    def test_deterministic_rows(self):
        cfg1 = circle_config(128, 16, t_end=0.002, tau=0.001)
        cfg2 = circle_config(128, 16, t_end=0.002, tau=0.001)
        r1 = run(cfg1, SolverConfig(diag_every=50))
        r2 = run(cfg2, SolverConfig(diag_every=50))
        assert [r.to_csv_line() for r in r1.rows] == [r.to_csv_line() for r in r2.rows]
        assert np.array_equal(r1.final_phi.values, r2.final_phi.values)

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    @pytest.mark.parametrize("tr", [form_transport("(radial 16.0 0.8 0.8)"),
                                    form_transport(PULSED)],
                             ids=["static", "pulsed"])
    def test_steps_read_the_cached_transport(self, monkeypatch, scheme, tr):
        # m(t) scales the transport sum: every update gets the grid's cached U itself,
        # read-only, with the time factor at its own time; no velocity field is formed
        import actx.solver
        from actx.grid import stencil_rhs
        from actx.scenario import transport_field

        seen = []

        def spy(f, u, h, eps, well, out, base, scale, m):
            seen.append((u, m))
            return stencil_rhs(f, u, h, eps, well, out, base, scale, m)

        monkeypatch.setattr(actx.solver, "stencil_rhs", spy)
        cfg = circle_config(96, 16, t_end=0.002, tau=0.001, transport=tr)
        res = run(cfg, SolverConfig(scheme=scheme, diag_every=10))
        u = transport_field(tr, cfg.grid).u
        assert not u.flags.writeable
        assert all(arr is u for arr, _ in seen)
        per_step = 1 if scheme == "euler" else 2  # the update at t, then rk2's at t + dt/2
        want = [tr.m((k + 0.5 * j) * res.dt) for k in range(res.n_steps) for j in range(per_step)]
        assert [m for _, m in seen] == pytest.approx(want, rel=1e-12)

    def test_one_extraction_per_row(self, tmp_path, monkeypatch):
        import actx.solver
        from actx.interface import extract_interface

        calls = []

        def counted(phi):
            calls.append(phi)
            return extract_interface(phi)

        monkeypatch.setattr(actx.solver, "extract_interface", counted)
        res = run(circle_config(96, 16, t_end=0.002, tau=0.001), SolverConfig(diag_every=10),
                  out_dir=str(tmp_path))
        assert len(res.rows) > 2 and len(calls) == len(res.rows)
        assert calls[-1] is res.final_phi
        lines = (tmp_path / "interface_final.csv").read_text().splitlines()
        assert len(lines) == 1 + extract_interface(res.final_phi).elements.shape[0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_interface_file_is_the_repr_of_every_coordinate(self, tmp_path, dim):
        # 0.0 and -0.0 compare equal but print apart; repeated values, the
        # extremes and a subnormal are there too
        from actx.interface import InterfaceSet
        from actx.solver import _write_interface

        rng = np.random.default_rng(dim)
        pool = np.array([0.0, -0.0, 0.1, -0.1, 1 / 3, 5e-324, -1.7976931348623157e308, 1e22, 0.30000000000000004])
        elements = np.concatenate([rng.choice(pool, size=(40, dim, dim)), rng.uniform(-2, 2, (10, dim, dim))])
        assert np.any(np.signbit(elements) & (elements == 0.0)) and np.any(~np.signbit(elements) & (elements == 0.0))
        _write_interface(str(tmp_path), InterfaceSet(dim, elements))
        header = "x0,y0,x1,y1" if dim == 2 else "x0,y0,z0,x1,y1,z1,x2,y2,z2"
        want = header + "\n" + "".join(",".join(repr(float(x)) for x in el.ravel()) + "\n" for el in elements)
        assert (tmp_path / "interface_final.csv").read_text() == want
        _write_interface(str(tmp_path), InterfaceSet(dim, np.zeros((0, dim, dim))))
        assert (tmp_path / "interface_final.csv").read_text() == header + "\n"

    def test_snapshots_bit_identical(self, tmp_path):
        cfg = circle_config(128, 16, t_end=0.002, tau=0.001)
        out = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run(circle_config(128, 16, t_end=0.002, tau=0.001),
                SolverConfig(diag_every=50, snap_every=100), out_dir=str(d))
            out.append((d / "snapshots").iterdir())
        for fa, fb in zip(sorted(out[0]), sorted(out[1])):
            assert fa.read_bytes() == fb.read_bytes()


class TestRowBuilder:
    def test_rebuilds_the_rows_from_the_snapshots(self, gronwall_runs):
        # fed a run's snapshot frames and each row's max_abs_phi outside the run,
        # a RowBuilder returns the run's rows and places its default probe
        from actx.solver import RowBuilder, ratio_radii

        for cfg, res, traj in gronwall_runs.values():
            build = RowBuilder(cfg, ratio_radii(cfg))
            assert traj.times == [r.t for r in res.rows]
            rows = [build(phi, t, r.max_abs_phi)[0] for t, phi, r in zip(traj.times, traj.frames, res.rows)]
            assert rows == res.rows
            assert build.probe == res.probe


class TestRowsAtAnyCpuCount:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_same_at_one_and_two_cpus(self, dim, monkeypatch):
        # grids whose block sweeps split between two processes (257^2 under the
        # pulsed radial transport, rk2; 65^3): the rows, pos_xi_integral's slab
        # sums among them, have the same bytes as on one CPU
        import os

        from actx.grid import GridSpec
        from actx.scenario import ScenarioConfig, Transport
        from actx.shapes import Ball

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a split needs a second CPU")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if dim == 2:
                cfg = circle_config(256, 8, t_end=0.0002, tau=0.0001, transport=form_transport(PULSED))
                sol = SolverConfig(scheme="rk2", diag_every=10)
            else:
                spec = GridSpec(3, (0.0,) * 3, (1.6,) * 3, (64,) * 3)
                cfg = ScenarioConfig(grid=spec, shape=Ball((0.8,) * 3, 0.25), transport=Transport(),
                                     epsilon=0.1, t_end=0.0006, tau=0.0003, p=3.0,
                                     inset_prime=0.12, inset_dprime=0.06)
                sol = SolverConfig(diag_every=4)
            lines = []
            for threads in ("1", "2"):
                monkeypatch.setenv("ACTX_THREADS", threads)
                lines.append([row.to_csv_line() for row in run(cfg, sol).rows])
        assert len(lines[0]) > 2 and lines[0] == lines[1]


class TestFieldBudget:
    @pytest.mark.parametrize("scheme, bound", [("euler", 2.64), ("rk2", 3.58)], ids=["euler", "rk2"])
    def test_3d_run_peaks_at_its_fields(self, scheme, bound, monkeypatch):
        # a 65^3 run holds phi, the step's spare field (lent to the rows, where
        # it holds the drive, then the density) and rk2's midpoint; the rest is
        # a slab or block at a time, and the last row's interface. On one CPU
        # the peak read 2.38 fields (3.32 with rk2), against 3.38 (4.32) when
        # the rows had a density field of their own
        import tracemalloc

        from actx.grid import GridSpec
        from actx.scenario import ScenarioConfig, Transport
        from actx.shapes import Ball

        # one CPU: no helper, so the run's fields are numpy's own, which tracemalloc
        # counts; a helper's team keeps them in a shared mmap, which it does not
        monkeypatch.setenv("ACTX_THREADS", "1")
        spec = GridSpec(3, (0.0,) * 3, (1.6,) * 3, (64,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # eps = 4h is marginally resolved, which is fine here
            cfg = ScenarioConfig(grid=spec, shape=Ball((0.8,) * 3, 0.25), transport=Transport(),
                                 epsilon=0.1, t_end=0.0006, tau=0.0003, p=3.0,
                                 inset_prime=0.12, inset_dprime=0.06)
        tracemalloc.start()
        try:
            res = run(cfg, SolverConfig(scheme=scheme, diag_every=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.rows) > 2
        assert peak < bound * res.final_phi.values.nbytes


class TestRowBudget:
    @pytest.mark.parametrize("dim, cells, bound", [(3, 96, 0.1), (2, 256, 1.2)])
    def test_a_later_row_allocates_little(self, dim, cells, bound, monkeypatch):
        # the second row of one builder, above its inputs (phi and the
        # builder's one field, made by the first row) and the interface it
        # returns: at 97^3 it read 0.066 of a field. At 257^2 a slab of
        # grid.SLAB_NODES nodes is about a field, and ball_masses' prefix sums,
        # one such slab, take 1.09 fields; the row peaks in frame_fields, whose
        # block (128 axis-0 slabs, half the field) takes xi and W in two
        # scratch rows (1.12 fields)
        import tracemalloc

        from actx.grid import GridSpec
        from actx.scenario import ScenarioConfig, Transport, build_initial_phase
        from actx.shapes import Ball
        from actx.solver import RowBuilder, ratio_radii

        monkeypatch.setenv("ACTX_THREADS", "1")
        spec = GridSpec(dim, (0.0,) * dim, (1.6,) * dim, (cells,) * dim)
        cfg = ScenarioConfig(grid=spec, shape=Ball((0.8,) * dim, 0.25), transport=Transport(),
                             epsilon=6 * spec.h, t_end=0.0006, tau=0.0003, p=3.0,
                             inset_prime=0.12, inset_dprime=0.06)
        phi = build_initial_phase(cfg)
        build_row = RowBuilder(cfg, ratio_radii(cfg))
        build_row(phi, 0.0, 1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            row, iset = build_row(phi, 0.0002, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert row.interface_radius == pytest.approx(0.25, abs=spec.h)
        assert peak - iset.elements.nbytes < bound * phi.values.nbytes


class TestThreeDimensions:
    def test_stepping_dissipates_energy(self):
        # diffuse ball in 3D, stepped directly on a synthetic profile
        from actx.grid import GridSpec
        from actx.measures import EnergyMeasure
        from actx.scenario import ScenarioConfig, Transport
        from actx.shapes import Ball

        spec = GridSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (48, 48, 48))
        eps = 6.0 / 48
        cfg = ScenarioConfig(
            grid=spec, shape=Ball((0.5, 0.5, 0.5), 0.3), transport=Transport(),
            epsilon=eps, t_end=1.0, tau=0.5, p=2.5, q=4.0,
            inset_prime=0.01, inset_dprime=0.005,
        )
        phi = ScalarField.sample(
            spec,
            lambda x, y, z: np.tanh(
                (0.3 - np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)) / eps
            ),
        )
        dt = stable_dt(spec.h, eps, 0.0, WELL, 3, 0.5)
        st = SimState(0.0, phi, 0)
        energies = [EnergyMeasure.from_phase(st.phi, eps, WELL).total]
        for _ in range(3):
            for _ in range(10):
                st = step(st, cfg, dt)
            energies.append(EnergyMeasure.from_phase(st.phi, eps, WELL).total)
        assert all(b <= a + 1e-9 * energies[0] * 10 for a, b in zip(energies, energies[1:]))
        assert np.max(np.abs(st.phi.values)) <= 1.0 + 10 * dt


# ---------------------------------------------------------------------------
# The fused step against the reference operators
# ---------------------------------------------------------------------------


def _reference_step(state, cfg, dt, u=None, u_mid=None, scheme="euler", rhs=None, m=1.0, m_mid=None):
    """The explicit step as whole-field expressions: the folded update of
    ``reference_ops.folded_update``, or phi + scale * rhs(f, u) with ``rhs``;
    ``m``/``m_mid`` are ``step``'s time factors of ``u``/``u_mid``."""
    from reference_ops import folded_update

    phi = state.phi

    def update(f, vel, scale, factor):
        if rhs is None:
            return folded_update(f, vel, cfg.epsilon, cfg.well, scale, phi.values, factor)
        return phi.values + scale * rhs(f, vel)

    bmask = np.ones(phi.values.shape, dtype=bool)
    bmask[(slice(1, -1),) * phi.values.ndim] = False
    if scheme == "euler":
        new = update(phi, u, dt, m)
    else:
        mid_vals = update(phi, u, 0.5 * dt, m)
        mid_vals[bmask] = phi.values[bmask]
        new = update(ScalarField(phi.spec, mid_vals), u_mid if u_mid is not None else u, dt,
                     m_mid if m_mid is not None else m)
    new[bmask] = phi.values[bmask]
    return new


def _unfolded_rhs(cfg):
    """lap f - W'(f)/eps^2 - u . grad f from the reference laplacian, gradient and
    ``DoubleWell.eval``: the expression before it was folded."""
    from reference_ops import gradient, laplacian

    def rhs(f, vel):
        out = laplacian(f, -1.0).values - cfg.well.eval(f.values)[1] / (cfg.epsilon * cfg.epsilon)
        if vel is not None:
            out -= np.sum(vel.values * gradient(f, -1.0).values, axis=-1)
        return out

    return rhs


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _step_case(dim, transport_kind):
    from actx.grid import GridSpec, VectorField
    from actx.scenario import ScenarioConfig, Transport
    from actx.shapes import Ball

    cells = 64 if dim == 2 else 24
    spec = GridSpec(dim, (0.0,) * dim, (1.6,) * dim, (cells,) * dim)
    c = (0.8,) * dim
    transport = {
        "zero": Transport(),
        "static": form_transport(f"(radial 16.0 {at(c)})", dim),
        "pulsed": form_transport(f"(radial-pulsed 1.2 0.3125 5.0 {at(c)})", dim),
    }[transport_kind]
    eps = 4 * spec.h
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps = 4h is marginally resolved, which is fine here
        cfg = ScenarioConfig(grid=spec, shape=Ball(c, 0.4), transport=transport, epsilon=eps,
                             t_end=0.01, tau=0.005, inset_prime=0.12, inset_dprime=0.06)
    pts = np.stack(spec.meshgrid(), axis=-1)
    r = np.sqrt(np.sum((pts - np.asarray(c)) ** 2, axis=-1))
    noise = np.random.default_rng(dim).uniform(-0.05, 0.05, spec.nodes)
    phi = ScalarField(spec, np.tanh((0.4 - r) / eps) + noise)

    def velocity(t):
        if transport_kind == "zero":
            return None
        return VectorField(spec, transport.velocity(pts, t))

    dt = stable_dt(spec.h, eps, cfg.transport.sup_speed(cfg.grid, 0.0, cfg.t_end), WELL, dim, 0.5)
    return cfg, phi, velocity, dt


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("transport_kind", ["zero", "static", "pulsed"])
@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_fused_step_bit_identical_to_reference(dim, transport_kind, scheme):
    cfg, phi, velocity, dt = _step_case(dim, transport_kind)
    state = SimState(0.0, phi, 0)
    for _ in range(30):
        u = velocity(state.t)
        u_mid = velocity(state.t + 0.5 * dt) if scheme == "rk2" else None
        before = state.phi.values.copy()
        want = _reference_step(state, cfg, dt, u, u_mid, scheme)
        out = step(state, cfg, dt, u=u, u_mid=u_mid, scheme=scheme)
        assert np.array_equal(_bits(out.phi.values), _bits(want))
        assert np.array_equal(_bits(state.phi.values), _bits(before))  # input untouched
        bmask = np.ones(before.shape, dtype=bool)
        bmask[(slice(1, -1),) * dim] = False
        assert np.array_equal(_bits(out.phi.values[bmask]), _bits(before[bmask]))
        assert out.max_abs_phi == float(np.max(np.abs(out.phi.values)))
        assert out.step_index == state.step_index + 1 and out.t == state.t + dt
        state = out
    assert np.max(np.abs(state.phi.values - phi.values)) > 0.01  # the steps did move phi


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("transport_kind", ["zero", "static", "pulsed"])
@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_folded_step_within_four_ulps_of_unfolded(dim, transport_kind, scheme):
    # one step from the same state, along 30 steps of the folded update
    cfg, phi, velocity, dt = _step_case(dim, transport_kind)
    state = SimState(0.0, phi, 0)
    rhs = _unfolded_rhs(cfg)
    for _ in range(30):
        u = velocity(state.t)
        u_mid = velocity(state.t + 0.5 * dt) if scheme == "rk2" else None
        out = step(state, cfg, dt, u=u, u_mid=u_mid, scheme=scheme)
        old = _reference_step(state, cfg, dt, u, u_mid, scheme, rhs=rhs)
        assert np.max(np.abs(out.phi.values - old)) <= 4 * np.spacing(out.max_abs_phi)
        state = out


def _chunk_case(dim, transport_kind, scheme):
    """(cfg, solver config, phi0) on a small box with uneven axes, so that
    chunk edges fall both mid-row and on faces; phi0 is noisy everywhere,
    faces included, so a face that is not restored shows."""
    from actx.grid import GridSpec
    from actx.scenario import ScenarioConfig, Transport
    from actx.shapes import Ball

    h = 0.1 if dim == 2 else 0.125
    cells = (20, 19) if dim == 2 else (16, 15, 14)
    spec = GridSpec(dim, (0.0,) * dim, tuple(h * c for c in cells), cells)
    c = tuple(0.5 * h * n for n in cells)
    transport = {
        "zero": Transport(),
        "static": form_transport(f"(radial 16.0 {at(c)})", dim),
        "pulsed": form_transport(f"(radial-pulsed 1.2 0.3125 5.0 {at(c)})", dim),
    }[transport_kind]
    eps = 4 * h
    dt0 = 0.5 * h * h / (4.0 * dim)  # the diffusive limit binds on this box
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps = 4h is marginally resolved, which is fine here
        cfg = ScenarioConfig(grid=spec, shape=Ball(c, 0.5), transport=transport, epsilon=eps,
                             t_end=3.5 * dt0, tau=dt0, inset_prime=4 * h, inset_dprime=2 * h)
    r = np.sqrt(sum((xk - ck) ** 2 for xk, ck in zip(spec.coords(), c)))
    noise = np.random.default_rng(dim).uniform(-0.05, 0.05, spec.nodes)
    phi0 = ScalarField(spec, np.tanh((0.5 - r) / eps) + noise)
    return cfg, SolverConfig(scheme=scheme, diag_every=2), phi0


def _chunk_edges(shape, chunk):
    """(on a face, mid-row) counts of the chunk edges inside the swept run."""
    nodes = np.arange(int(np.prod(shape))).reshape(shape)
    face = np.zeros(shape, dtype=bool)
    for ax in range(len(shape)):
        face[(slice(None),) * ax + (0,)] = face[(slice(None),) * ax + (-1,)] = True
    lo, hi = nodes[1].min(), nodes[-1].min()
    edges = np.arange(lo + chunk, hi, chunk)
    on_face = int(np.count_nonzero(face.reshape(-1)[edges]))
    return on_face, len(edges) - on_face


@pytest.mark.parametrize("transport_kind", ["zero", "static", "pulsed"])
@pytest.mark.parametrize("scheme", ["euler", "rk2"])
@pytest.mark.parametrize(  # one node per chunk only in 2D, where it stays fast
    "dim, chunk", [(2, 1), (2, 7), (2, 64), (2, 10**6), (3, 7), (3, 64), (3, 10**6)]
)
def test_run_buffered_steps_bit_identical_across_chunks(
    dim, chunk, transport_kind, scheme, tmp_path, monkeypatch
):
    import actx.grid
    import actx.solver

    cfg, sol, phi0 = _chunk_case(dim, transport_kind, scheme)
    if chunk in (7, 64):
        assert all(_chunk_edges(cfg.grid.nodes, chunk))  # edges on faces and mid-row
    monkeypatch.setattr(actx.grid, "CHUNK", chunk)
    monkeypatch.setattr(actx.solver, "build_initial_phase", lambda _cfg, out=None: phi0)
    seen = []

    def checked(state, cfg, dt, u=None, u_mid=None, scheme="euler", m=1.0, m_mid=None, **buffers):
        want = _reference_step(state, cfg, dt, u, u_mid, scheme, m=m, m_mid=m_mid)
        out = step(state, cfg, dt, u=u, u_mid=u_mid, scheme=scheme, m=m, m_mid=m_mid, **buffers)
        assert out.phi.values is buffers["out"]
        assert np.array_equal(_bits(out.phi.values), _bits(want))
        assert out.max_abs_phi == float(np.max(np.abs(out.phi.values)))  # the faces restored per block
        seen.append(out.phi.values)
        return out

    monkeypatch.setattr(actx.solver, "step", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run(cfg, sol, out_dir=str(tmp_path))
    assert res.n_steps == len(seen) == 4
    assert len({id(v) for v in seen}) == 2  # two fields, written in turn
    last, _ = read_field(tmp_path / "snapshots" / f"step_{res.n_steps:08d}.afld")
    assert np.array_equal(_bits(res.final_phi.values), _bits(last.values))


def _digests(cfg, sol, tmp_path):
    """sha256 of the run's diagnostics.csv and interface_final.csv."""
    import hashlib

    run(cfg, sol, out_dir=str(tmp_path))
    return tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("diagnostics.csv", "interface_final.csv"))


def test_diagnostics_digest_2d_rk2_pulsed(tmp_path):
    # recorded with the unfused step (reference_ops.laplacian/gradient + DoubleWell.eval)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = circle_config(96, 16, t_end=0.002, tau=0.001,
                            transport=form_transport(PULSED))
        got, interface = _digests(cfg, SolverConfig(scheme="rk2", diag_every=10), tmp_path)
    # re-pinned for the exact lattice ball sums: only density_ratio_max moved
    # (9 of 13 rows, at most 6.3e-16 relative); re-pinned for the probe-local
    # kernel sums: only monotonicity_residual moved (7 of 13 rows, at most
    # 1.3e-13 relative); re-pinned for the folded, division-free step, largest
    # relative moves per column: pos_xi_integral 1.7e-11 (12 of 13 rows),
    # sup_xi and sup_xi_pos 4.8e-12 (11), monotonicity_residual 7.6e-14 (12),
    # velocity_sq 3.2e-15 (13), density_ratio_max 1.1e-15 (9), gronwall_factor
    # 2.3e-16 (2), total_energy 2.2e-16 (2); re-pinned for m(t) scaling the transport
    # sums of the cached U: only velocity_sq moved (3 of 13 rows, at most 3.9e-16 relative);
    # re-pinned for xi reduced per slab in the frame sweep: only pos_xi_integral moved
    # (6 of 13 rows, at most 3.7e-16 relative)
    assert got == "5406e799baae0ac5597f7817edb3cd25f69de8e185078a047d3723c438600259"
    # recorded with the separate marching-squares extractor, run again on the final field;
    # re-pinned for the folded step: the same 116 segments, one coordinate moved by 1.1e-16;
    # re-pinned for m(t) scaling the transport sums: one x1 moved by 1.9e-16
    assert interface == "610fd8f613ec342caa0042892c8c45d826694f04caf14f1d016365c61530c41b"


def test_diagnostics_digest_3d_euler(tmp_path):
    from actx.grid import GridSpec
    from actx.scenario import ScenarioConfig, Transport
    from actx.shapes import Ball

    spec = GridSpec(3, (0.0,) * 3, (1.6,) * 3, (64,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = ScenarioConfig(grid=spec, shape=Ball((0.8, 0.8, 0.8), 0.25), transport=Transport(),
                             epsilon=4 * spec.h, t_end=0.0006, tau=0.0003,
                             inset_prime=0.12, inset_dprime=0.06)
        got, interface = _digests(cfg, SolverConfig(diag_every=10), tmp_path)
    # recorded with the unfused step (reference_ops.laplacian/gradient + DoubleWell.eval), re-pinned
    # for the exact lattice ball sums: only density_ratio_max moved (4 of 4 rows, at most
    # 5.8e-16 relative); the probe-local kernel sums left every column unchanged; re-pinned
    # for the folded, division-free step, largest relative moves per column: pos_xi_integral
    # 9.8e-13 (3 of 4 rows), sup_xi and sup_xi_pos 3.1e-13 (3), monotonicity_residual 2e-14
    # (3), velocity_sq 4.7e-15 (4), density_ratio_max 4.4e-16 (3), interface_radius 1.1e-16 (1);
    # re-pinned for xi reduced per slab in the frame sweep: only pos_xi_integral moved (2 of
    # 4 rows, at most 1.8e-16 relative)
    assert got == "596e84053410542156b790a347b3144a24e76bd39e9c1ac8c87250b97dda4942"
    # recorded with the separate marching-cubes extractor, run again on the final field;
    # re-pinned for the folded step: the same 3512 triangles, 171 coordinates moved by <= 2.2e-16
    assert interface == "a3d03eff5ad5b96e9c89c24d132dfaeeed435749e77803c22fc506e27ea55c0e"


class TestAbortParity:
    """Abort step, node and message as the unfused step reported them, except
    where the folded update's arithmetic differs (noted per test)."""

    def setup_method(self):
        self.cfg = circle_config(128, 16)
        self.dt = stable_dt(self.cfg.grid.h, self.cfg.epsilon, 0.0, WELL, 2, 0.5)

    def _abort(self, node, value, dt, scheme="euler"):
        vals = np.full(self.cfg.grid.nodes, 1.0)
        vals[node] = value
        state = SimState(0.25, ScalarField(self.cfg.grid, vals), 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolverAbort) as exc_info:
                step(state, self.cfg, dt, scheme=scheme)
        assert np.array_equal(state.phi.values, vals)
        return exc_info.value

    def test_nan(self):
        # the unfused step formed 0 * inf here (W'(-1e200) overflowed, dt = 0); at
        # dt = 0 every folded coefficient is 0, so the update is phi itself
        exc = self._abort((30, 70), -1e200, 0.0)
        assert (exc.step_index, exc.location) == (5, (30, 70))
        assert str(exc) == f"|phi| = {1e200:.4f} > 1.1 at node (30, 70) after step 5: stability lost"
        assert exc.value == 1e200 and exc.t == 0.25

    def test_positive_infinity(self):
        exc = self._abort((30, 70), -1e300, self.dt)
        assert (exc.step_index, exc.location) == (5, (30, 70))
        assert str(exc) == "non-finite value at node (30, 70) after step 5"
        assert exc.value == np.inf and exc.t == 0.25 + self.dt

    def test_runaway_past_threshold(self):
        # four neighbours reach |phi| = 1.5625; the folded rounding puts the first
        # largest at (39, 40), where the unfused step's was (40, 39)
        exc = self._abort((40, 40), 1.09, 100 * self.dt)
        assert (exc.step_index, exc.location) == (5, (39, 40))
        assert str(exc) == "|phi| = 1.5625 > 1.1 at node (39, 40) after step 5: stability lost"
        assert f"{exc.value:.4f}" == "1.5625" and exc.t == 0.25 + 100 * self.dt

    def test_non_finite_rk2_midpoint(self):
        exc = self._abort((50, 20), -1e300, self.dt, scheme="rk2")
        assert (exc.step_index, exc.location) == (5, (50, 20))
        assert str(exc) == "non-finite midpoint at node (50, 20)"
        assert exc.value == np.inf and exc.t == 0.25 + 0.5 * self.dt


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
@pytest.mark.parametrize("kind", ["nan", "+inf", "-inf"])
@pytest.mark.parametrize("chunk", [7, None])
def test_non_finite_update_aborts_at_its_node(kind, scheme, chunk, monkeypatch):
    # blocks of 7 nodes put (30, 70) in a middle block (the default CHUNK makes
    # one block); its nan or inf must survive the reduction of the per-block extrema
    import actx.grid

    if chunk is not None:
        monkeypatch.setattr(actx.grid, "CHUNK", chunk)
    cfg = circle_config(128, 16)
    dt = stable_dt(cfg.grid.h, cfg.epsilon, 0.0, WELL, 2, 0.5)
    vals = np.full(cfg.grid.nodes, 1.0)
    if kind == "nan":  # dt = 0: 0 * (1e308 + 1e308) at the node between the two
        vals[30, 69] = vals[30, 71] = 1e308
        dt = 0.0
    else:  # W' of a huge value overflows to -+inf
        vals[30, 70] = -1e300 if kind == "+inf" else 1e300
    state = SimState(0.25, ScalarField(cfg.grid, vals), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverAbort) as exc_info:
            step(state, cfg, dt, scheme=scheme)
    exc = exc_info.value
    want = "non-finite midpoint at node (30, 70)" if scheme == "rk2" else \
        "non-finite value at node (30, 70) after step 5"
    assert (exc.location, str(exc)) == ((30, 70), want)
    assert np.isnan(exc.value) if kind == "nan" else exc.value == np.inf


class TestSpeedBound:
    TRANSPORT = form_transport(PULSED)

    def test_bound_covers_every_time(self):
        cfg = circle_config(96, 16, t_end=0.002, tau=0.001, transport=self.TRANSPORT)
        pts = np.stack(cfg.grid.meshgrid(), axis=-1)
        sampled = max(
            float(np.max(np.linalg.norm(self.TRANSPORT.velocity(pts, t), axis=-1)))
            for t in np.linspace(0.0, 2 * np.pi / 5.0, 257)
        )
        bound = cfg.transport.sup_speed(cfg.grid, 0.0, cfg.t_end)
        assert bound == (1.2 + 0.3125) * np.sqrt(2 * 0.8**2)
        assert sampled <= bound <= sampled * (1 + 1e-9)

    def test_bound_catches_a_peak_between_samples(self):
        # sin(freq * t) vanishes at all 9 sample times of [0, T] and peaks between them
        t_end = 0.002
        tr = form_transport(f"(radial-pulsed 1.2 50.0 {8 * np.pi / t_end!r} 0.8 0.8)")
        cfg = circle_config(96, 16, t_end=t_end, tau=0.001, transport=tr)
        pts = np.stack(cfg.grid.meshgrid(), axis=-1)

        def speed(t):
            return float(np.max(np.linalg.norm(tr.velocity(pts, t), axis=-1)))

        nine = max(speed(float(t)) for t in np.linspace(0.0, t_end, 9))
        peak = speed(t_end / 16)
        assert nine < 1.01 * 1.2 * np.sqrt(2 * 0.8**2) < peak
        assert cfg.transport.sup_speed(cfg.grid, 0.0, cfg.t_end) >= peak

    @pytest.mark.parametrize("strength", [16.0, -16.0])
    def test_static_bound_is_the_node_maximum(self, strength):
        # |m(0)| max |U| against max |u| over the nodes, u formed whole
        tr = form_transport(f"(radial {strength!r} 0.8 0.8)")
        cfg = circle_config(96, 16, transport=tr)
        pts = np.stack(cfg.grid.meshgrid(), axis=-1)
        nodes = float(np.max(np.linalg.norm(tr.velocity(pts, 0.0), axis=-1)))
        assert tr.sup_speed(cfg.grid, 0.0, cfg.t_end) == pytest.approx(nodes, rel=1e-14)

    def test_diffusive_limit_still_binds_on_pulsed_runs(self, gronwall_runs):
        cfg, res, _ = gronwall_runs["modulated"]
        dt0 = stable_dt(cfg.grid.h, cfg.epsilon, 0.0, cfg.well, 2, 0.5)
        n = res.solver.diag_every * int(np.ceil(cfg.t_end / (dt0 * res.solver.diag_every)))
        assert res.n_steps == n and res.dt == cfg.t_end / n


class TestGronwallFactor:
    @pytest.mark.parametrize("kind", ["zero", "rotation"])
    def test_total_energy_without_potential(self, kind):
        # rotation has no potential G and zero transport has G = 0: the weight is 1
        transport = form_transport("(zero)" if kind == "zero" else "(rotation 1.5 0.8 0.8)")
        cfg = circle_config(96, 16, t_end=0.002, tau=0.001, transport=transport)
        rows = run(cfg, SolverConfig(diag_every=10)).rows
        assert len(rows) > 2
        assert np.array_equal(_bits(np.array([r.gronwall_factor for r in rows])),
                              _bits(np.array([r.total_energy for r in rows])))
