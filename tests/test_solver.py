"""Time stepping: stability rule, fixed points, dissipation, determinism."""

import warnings

import numpy as np
import pytest

from actx.grid import ScalarField
from actx.potential import DoubleWell
from actx.scenario import RadialGradient
from actx.solver import SimState, SolverAbort, SolverConfig, run, stable_dt, step

from conftest import CENTER, circle_config

WELL = DoubleWell.quartic()


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
    def test_zero_horizon_single_snapshot(self):
        cfg = circle_config(128, 16, t_end=1e-9, tau=1e-10)
        res = run(cfg, SolverConfig(diag_every=50))
        from actx.scenario import build_initial_phase

        assert len(res.trajectory.frames) >= 1
        assert np.array_equal(res.trajectory.frames[0].values, build_initial_phase(cfg).values)

    def test_shrinking_circle_tracks_oracle(self, ladder):
        from actx.interface import mcf_oracle

        cfg, res, _ = ladder[256]
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
                                transport=RadialGradient(16.0, CENTER))
            res = run(cfg, SolverConfig(diag_every=100))
        for row in res.rows:
            if row.t >= cfg.tau:
                assert abs(row.interface_radius - 0.25) / 0.25 <= 0.05

    def test_energy_dissipates_without_transport(self, ladder):
        cfg, res, _ = ladder[128]
        mu0 = res.rows[0].total_energy
        for a, b in zip(res.rows, res.rows[1:]):
            steps = res.trajectory.steps_between
            assert b.total_energy <= a.total_energy + 1e-9 * mu0 * steps

    def test_near_maximum_principle(self, ladder):
        for cells in (128, 256):
            cfg, res, _ = ladder[cells]
            cap = 1.0 + 10.0 * res.dt
            assert all(r.max_abs_phi <= cap for r in res.rows)

    def test_row_count_matches_schedule(self, ladder):
        cfg, res, _ = ladder[128]
        assert len(res.rows) == res.n_steps // res.solver.diag_every + 1

    def test_deterministic_rows(self):
        cfg1 = circle_config(128, 16, t_end=0.002, tau=0.001)
        cfg2 = circle_config(128, 16, t_end=0.002, tau=0.001)
        r1 = run(cfg1, SolverConfig(diag_every=50))
        r2 = run(cfg2, SolverConfig(diag_every=50))
        assert [r.to_csv_line() for r in r1.rows] == [r.to_csv_line() for r in r2.rows]
        assert np.array_equal(r1.final_phi.values, r2.final_phi.values)

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

    def test_retention_guard(self):
        cfg = circle_config(128, 16)
        with pytest.raises(ValueError, match="max_frames"):
            run(cfg, SolverConfig(diag_every=1, max_frames=10))


class TestThreeDimensions:
    def test_stepping_dissipates_energy(self):
        # diffuse ball in 3D, stepped directly on a synthetic profile
        from actx.grid import GridSpec
        from actx.measures import EnergyMeasure
        from actx.scenario import ScenarioConfig, ZeroTransport
        from actx.shapes import Ball

        spec = GridSpec(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (48, 48, 48))
        eps = 6.0 / 48
        cfg = ScenarioConfig(
            grid=spec, shape=Ball((0.5, 0.5, 0.5), 0.3), transport=ZeroTransport(),
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


def _reference_step(state, cfg, dt, u=None, u_mid=None, scheme="euler"):
    """The explicit step written with grid.laplacian, grid.gradient and DoubleWell.eval."""
    from actx.grid import gradient, laplacian

    def rhs(f, vel):
        out = laplacian(f, -1.0).values - cfg.well.eval(f.values)[1] / (cfg.epsilon * cfg.epsilon)
        if vel is not None:
            out -= np.sum(vel.values * gradient(f, -1.0).values, axis=-1)
        return out

    phi = state.phi
    bmask = np.ones(phi.values.shape, dtype=bool)
    bmask[(slice(1, -1),) * phi.values.ndim] = False
    if scheme == "euler":
        new = phi.values + dt * rhs(phi, u)
    else:
        mid_vals = phi.values + 0.5 * dt * rhs(phi, u)
        mid_vals[bmask] = phi.values[bmask]
        new = phi.values + dt * rhs(ScalarField(phi.spec, mid_vals), u_mid if u_mid is not None else u)
    new[bmask] = phi.values[bmask]
    return new


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _step_case(dim, transport_kind):
    from actx.grid import GridSpec, VectorField
    from actx.solver import _sup_speed
    from actx.scenario import ScenarioConfig, ZeroTransport
    from actx.shapes import Ball

    cells = 64 if dim == 2 else 24
    spec = GridSpec(dim, (0.0,) * dim, (1.6,) * dim, (cells,) * dim)
    c = (0.8,) * dim
    transport = {
        "zero": ZeroTransport(),
        "static": RadialGradient(16.0, c),
        "pulsed": RadialGradient(1.2, c, mod_amp=0.3125, mod_freq=5.0),
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

    dt = stable_dt(spec.h, eps, _sup_speed(cfg), WELL, dim, 0.5)
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


def _diagnostics_digest(cfg, sol, tmp_path):
    import hashlib

    run(cfg, sol, out_dir=str(tmp_path))
    return hashlib.sha256((tmp_path / "diagnostics.csv").read_bytes()).hexdigest()


def test_diagnostics_digest_2d_rk2_pulsed(tmp_path):
    # recorded with the unfused step (grid.laplacian/gradient + DoubleWell.eval)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = circle_config(96, 16, t_end=0.002, tau=0.001,
                            transport=RadialGradient(1.2, CENTER, mod_amp=0.3125, mod_freq=5.0))
        got = _diagnostics_digest(cfg, SolverConfig(scheme="rk2", diag_every=10), tmp_path)
    assert got == "4cd8dc948f94150edd7911aec41d795810b649062fbe9d1271b94eb01f761e77"


def test_diagnostics_digest_3d_euler(tmp_path):
    from actx.grid import GridSpec
    from actx.scenario import ScenarioConfig, ZeroTransport
    from actx.shapes import Ball

    spec = GridSpec(3, (0.0,) * 3, (1.6,) * 3, (64,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = ScenarioConfig(grid=spec, shape=Ball((0.8, 0.8, 0.8), 0.25), transport=ZeroTransport(),
                             epsilon=4 * spec.h, t_end=0.0006, tau=0.0003,
                             inset_prime=0.12, inset_dprime=0.06)
        got = _diagnostics_digest(cfg, SolverConfig(diag_every=10), tmp_path)
    # recorded with the unfused step (grid.laplacian/gradient + DoubleWell.eval)
    assert got == "0bc7c1f1f1275c78b03c0260416eac438a652a0a8f8b704a4ac224de5b45b4a1"


class TestAbortParity:
    """Abort step, node and message as the unfused step reported them."""

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
        # 0 * inf: W'(-1e200) overflows and dt = 0
        exc = self._abort((30, 70), -1e200, 0.0)
        assert (exc.step_index, exc.location) == (5, (30, 70))
        assert str(exc) == "non-finite value at node (30, 70) after step 5"
        assert np.isnan(exc.value) and exc.t == 0.25

    def test_positive_infinity(self):
        exc = self._abort((30, 70), -1e300, self.dt)
        assert (exc.step_index, exc.location) == (5, (30, 70))
        assert str(exc) == "non-finite value at node (30, 70) after step 5"
        assert exc.value == np.inf and exc.t == 0.25 + self.dt

    def test_runaway_past_threshold(self):
        exc = self._abort((40, 40), 1.09, 100 * self.dt)
        assert (exc.step_index, exc.location) == (5, (40, 39))
        assert str(exc) == "|phi| = 1.5625 > 1.1 at node (40, 39) after step 5: stability lost"
        assert f"{exc.value:.4f}" == "1.5625" and exc.t == 0.25 + 100 * self.dt

    def test_non_finite_rk2_midpoint(self):
        exc = self._abort((50, 20), -1e300, self.dt, scheme="rk2")
        assert (exc.step_index, exc.location) == (5, (50, 20))
        assert str(exc) == "non-finite midpoint at node (50, 20)"
        assert exc.value == np.inf and exc.t == 0.25 + 0.5 * self.dt


class TestSpeedBound:
    PULSED = RadialGradient(1.2, CENTER, mod_amp=0.3125, mod_freq=5.0)

    def test_bound_covers_every_time(self):
        from actx.solver import _sup_speed

        cfg = circle_config(96, 16, t_end=0.002, tau=0.001, transport=self.PULSED)
        pts = np.stack(cfg.grid.meshgrid(), axis=-1)
        sampled = max(
            float(np.max(np.linalg.norm(self.PULSED.velocity(pts, t), axis=-1)))
            for t in np.linspace(0.0, 2 * np.pi / 5.0, 257)
        )
        bound = _sup_speed(cfg)
        assert bound == (1.2 + 0.3125) * np.sqrt(2 * 0.8**2)
        assert sampled <= bound <= sampled * (1 + 1e-9)

    def test_bound_catches_a_peak_between_samples(self):
        from actx.solver import _sup_speed

        # sin(freq * t) vanishes at all 9 sample times of [0, T] and peaks between them
        t_end = 0.002
        tr = RadialGradient(1.2, CENTER, mod_amp=50.0, mod_freq=8 * np.pi / t_end)
        cfg = circle_config(96, 16, t_end=t_end, tau=0.001, transport=tr)
        pts = np.stack(cfg.grid.meshgrid(), axis=-1)

        def speed(t):
            return float(np.max(np.linalg.norm(tr.velocity(pts, t), axis=-1)))

        nine = max(speed(float(t)) for t in np.linspace(0.0, t_end, 9))
        peak = speed(t_end / 16)
        assert nine < 1.01 * 1.2 * np.sqrt(2 * 0.8**2) < peak
        assert _sup_speed(cfg) >= peak

    def test_diffusive_limit_still_binds_on_pulsed_runs(self, gronwall_runs):
        cfg, res = gronwall_runs["modulated"]
        dt0 = stable_dt(cfg.grid.h, cfg.epsilon, 0.0, cfg.well, 2, 0.5)
        n = res.solver.diag_every * int(np.ceil(cfg.t_end / (dt0 * res.solver.diag_every)))
        assert res.n_steps == n and res.dt == cfg.t_end / n
