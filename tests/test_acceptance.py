"""Acceptance gate: every quantitative claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 4 is expected to fail and is marked xfail(strict): the
radial forcing it prescribes balances curvature at an unstable equilibrium
(d/dR of (-1/R + cR) = 1/R^2 + c > 0), so trajectories leave R* from both
sides; the simulation faithfully tracks the reference ODE, which itself
never converges to R*. See /root/notes/decisions.md for the full analysis.
"""

import numpy as np
import pytest

from actx.grid import ScalarField
from actx.interface import extract_interface, mcf_oracle
from actx.measures import (
    EnergyMeasure,
    HuiskenProbe,
    density_ratio,
    discrepancy_field,
    meyers_ziemer_check,
    monotonicity_check,
    ratio_lattice_radii,
)
from actx.potential import surface_tension

from conftest import CENTER, L, row_gronwall, row_velocity_l2


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'} {name}: {detail}")


def matched_radius_errors(cfg, res, n_times: int = 10):
    oracle = mcf_oracle(0.25, 0.0, 2, cfg.t_end)
    row_t = np.array([r.t for r in res.rows])
    errs = []
    for t in np.linspace(cfg.tau, cfg.t_end, n_times):
        i = int(np.argmin(np.abs(row_t - t)))
        want = oracle.radius(res.rows[i].t)
        errs.append(abs(res.rows[i].interface_radius - want) / want)
    return errs


def probe_constants(cfg, traj, count: int = 10):
    """Per-probe constants needed beyond the 5%-of-scale slack, plus the slack floor."""
    iset = extract_interface(traj.frames[0])
    verts = iset.vertices
    cen = np.mean(verts, axis=0)
    ang = np.arctan2(verts[:, 1] - cen[1], verts[:, 0] - cen[0])
    order = np.argsort(ang, kind="stable")
    picks = [order[int(round(i * len(order) / count)) % len(order)] for i in range(count)]
    probes = [
        HuiskenProbe(tuple(float(v) for v in verts[i]), cfg.t_end + 0.01, 0.0875, 0.175) for i in picks
    ]
    cs, floors, holds = [], [], []
    for rep in monotonicity_check(traj, probes, cfg.tau, cfg.t_end):
        floor = 0.05 * abs(rep.scale) / rep.tail_factor if rep.tail_factor > 0 else 0.0
        req = max(0.0, (rep.residual - 0.05 * abs(rep.scale)) / rep.tail_factor) if rep.tail_factor > 0 else 0.0
        cs.append(req)
        floors.append(floor)
        holds.append(rep.holds_with(req))
    return cs, floors, holds


class TestAcceptance:
    def test_01_standing_wave_exactness(self, standing):
        cfg, phi0, state, dt, secs = standing
        drift = float(np.max(np.abs(state.phi.values - phi0.values)))
        xi = discrepancy_field(state.phi, cfg.epsilon, cfg.well)
        box = cfg.grid.box_slices(cfg.omega_prime())
        sup_xi = float(np.max(np.abs(xi.values[box])))
        cap = 5e-3 / cfg.epsilon
        ok = drift <= 1e-3 and sup_xi <= cap and secs < 30.0
        report(1, "standing-wave exactness", ok,
               f"drift {drift:.2e} <= 1e-3, sup|xi| {sup_xi:.4f} <= {cap:.4f}, {secs:.1f}s < 30s")
        assert drift <= 1e-3
        assert sup_xi <= cap
        assert secs < 30.0

    def test_02_surface_tension(self, standing, well):
        import time

        cfg, phi0, _state, _dt, _secs = standing
        t0 = time.perf_counter()
        energy = EnergyMeasure.from_phase(phi0, cfg.epsilon, well).total
        per_length = energy / L
        sigma = surface_tension(well)
        secs = time.perf_counter() - t0
        rel = abs(per_length / sigma - 1)
        ok = rel <= 0.01 and secs < 10.0
        report(2, "surface tension", ok,
               f"energy/length {per_length:.6f} vs sigma {sigma:.6f}, rel {rel:.4f} <= 0.01, {secs:.1f}s")
        assert rel <= 0.01
        assert secs < 10.0

    def test_03_shrinking_circle(self, ladder):
        cfg_f, res_f, _, secs_f = ladder[256]
        cfg_c, res_c, _, secs_c = ladder[128]
        errs = matched_radius_errors(cfg_f, res_f)
        err_c = max(matched_radius_errors(cfg_c, res_c))
        err_f = max(errs)
        order = np.log(err_c / err_f) / np.log(cfg_c.epsilon / cfg_f.epsilon)
        total = secs_f + secs_c
        ok = err_f <= 0.05 and order >= 0.9 and total < 300.0
        report(3, "shrinking circle", ok,
               f"max err {err_f:.4f} <= 0.05 at 10 matched times, order {order:.2f} >= 0.9, "
               f"{total:.0f}s < 300s")
        assert err_f <= 0.05
        assert order >= 0.9
        assert total < 300.0

    @pytest.mark.xfail(
        strict=True,
        reason="unstable equilibrium: the reference ODE dR/dt = -1/R + cR has "
        "f'(R*) = 1/R*^2 + c > 0, so no trajectory converges to R* from either "
        "side; the simulation tracks the ODE and diverges accordingly (see "
        "decisions ledger)",
    )
    def test_04_transport_equilibrium(self, transport_equilibrium_runs):
        devs = {}
        for r0 in (0.2, 0.3):
            cfg, res, _, secs = transport_equilibrium_runs[r0]
            r_end = res.rows[-1].interface_radius
            devs[r0] = abs(r_end / 0.25 - 1) if r_end > 0 else float("inf")
        ok = all(d <= 0.05 for d in devs.values())
        report(4, "transport equilibrium", ok,
               f"radius(T=0.05) deviation from R*=0.25: "
               f"{devs[0.2]:.3f} (from 0.2), {devs[0.3]:.3f} (from 0.3) "
               f"[expected-fail: R* is an unstable equilibrium of the cited ODE]")
        assert all(d <= 0.05 for d in devs.values())

    def test_05_density_ratio_uniformity(self, ladder):
        e_max = {}
        arg_dist = {}
        for cells in (128, 192, 256):
            cfg, res, traj, _ = ladder[cells]
            tail = [r for r in res.rows if r.t >= cfg.tau - 1e-12]
            e_max[cells] = max(r.density_ratio_max for r in tail)
            t_best = max(tail, key=lambda r: r.density_ratio_max).t
            i = int(np.argmin(np.abs(np.array(traj.times) - t_best)))
            mu = EnergyMeasure.from_phase(traj.frames[i], cfg.epsilon, cfg.well)
            dr = density_ratio(
                mu, region=cfg.omega_prime(), stride=4,
                radii=ratio_lattice_radii(cfg.grid, cfg.inset_prime),
            )
            iset = extract_interface(traj.frames[i])
            arg_dist[cells] = float(
                np.min(np.sqrt(np.sum((iset.vertices - np.array(dr.center)) ** 2, axis=-1)))
            )
        factor = max(e_max.values()) / min(e_max.values())
        near = all(arg_dist[c] <= 4 * ladder[c][0].grid.h for c in (128, 192, 256))
        ok = factor < 2.0 and near
        report(5, "density-ratio uniformity", ok,
               f"max E(t): {e_max[128]:.3f}/{e_max[192]:.3f}/{e_max[256]:.3f}, "
               f"factor {factor:.2f} < 2; argmax-to-interface "
               f"{arg_dist[128]:.4f}/{arg_dist[192]:.4f}/{arg_dist[256]:.4f} within 4h")
        assert factor < 2.0
        assert near

    def test_06_discrepancy_bound_and_ladder(self, ladder):
        sup_xi = {}
        sup_xi_pos = {}
        caps = {}
        for cells in (128, 192, 256):
            cfg, res, _, _ = ladder[cells]
            tail = [r for r in res.rows if r.t >= cfg.tau - 1e-12]
            sup_xi[cells] = max(r.sup_xi for r in tail)
            sup_xi_pos[cells] = max(r.sup_xi_pos for r in tail)
            caps[cells] = 10.0 * cfg.epsilon ** (-cfg.beta)
        bound_ok = all(sup_xi[c] <= caps[c] for c in (128, 192, 256))
        monotone = (sup_xi_pos[192] <= sup_xi_pos[128] + 1e-12
                    and sup_xi_pos[256] <= sup_xi_pos[192] + 1e-12)
        ok = bound_ok and monotone
        report(6, "discrepancy bound", ok,
               f"sup xi {sup_xi[128]:.2e}/{sup_xi[192]:.2e}/{sup_xi[256]:.2e} under caps "
               f"{caps[128]:.1f}/{caps[192]:.1f}/{caps[256]:.1f}; xi+ ladder "
               f"{sup_xi_pos[128]:.2e} -> {sup_xi_pos[192]:.2e} -> {sup_xi_pos[256]:.2e} "
               f"non-increasing")
        assert bound_ok
        assert monotone

    def test_07_kernel_monotonicity(self, ladder):
        stats = {}
        for cells in (128, 192, 256):
            cfg, _res, traj, _ = ladder[cells]
            cs, floors, holds = probe_constants(cfg, traj)
            c9 = sorted(cs)[8]
            stats[cells] = (c9, float(np.median(floors)), sum(holds))
        pass_counts = {c: stats[c][2] for c in stats}
        # regularize the fitted constants by the slack floor before comparing
        reg = {c: stats[c][0] + stats[c][1] for c in stats}
        stability = max(reg.values()) / min(reg.values())
        ok = all(v >= 9 for v in pass_counts.values()) and stability <= 3.0
        report(7, "kernel-energy monotonicity", ok,
               f"probes holding: {pass_counts[128]}/{pass_counts[192]}/{pass_counts[256]} "
               f"of 10 per rung (need >= 9); fitted c (slack-regularized) "
               f"{reg[128]:.3f}/{reg[192]:.3f}/{reg[256]:.3f}, ratio {stability:.2f} <= 3")
        assert all(v >= 9 for v in pass_counts.values())
        assert stability <= 3.0

    def test_08_weighted_energy_growth(self, gronwall_runs, ladder, transport_equilibrium_runs):
        # growth-rate bound on every transport scenario in the suite
        rates = []
        static_incs = []
        scenarios = [gronwall_runs["modulated"], gronwall_runs["static"],
                     ladder[128]] + list(transport_equilibrium_runs.values())
        for cfg, res, *_ in scenarios:
            rep = row_gronwall(cfg, res)
            rates.append(rep.growth_rate <= rep.sup_dt_g + 0.05)
            if rep.sup_dt_g == 0.0:
                static_incs.append(rep.max_step_increase)
        rate_ok = all(rates)
        static_ok = all(inc <= 1e-9 for inc in static_incs)
        ok = rate_ok and static_ok
        report(8, "weighted-energy growth", ok,
               f"rate bound holds on {sum(rates)}/{len(rates)} scenarios; "
               f"worst static per-step increase {max(static_incs):.2e} <= 1e-9")
        assert rate_ok
        assert static_ok

    def test_09_velocity_square_stability(self, ladder):
        vals = {}
        for cells in (128, 192, 256):
            cfg, res, _traj, _ = ladder[cells]
            vals[cells] = row_velocity_l2(res.rows, cfg.tau, cfg.t_end) / (cfg.t_end - cfg.tau)
        factor = max(vals.values()) / min(vals.values())
        ok = factor < 2.0
        report(9, "velocity square stability", ok,
               f"normalized values {vals[128]:.2f}/{vals[192]:.2f}/{vals[256]:.2f}, "
               f"factor {factor:.2f} < 2")
        assert factor < 2.0

    def test_10_meyers_ziemer(self, ladder, well):
        cfg, _res, traj, _ = ladder[256]
        flat = ScalarField.sample(
            cfg.grid, lambda x, y: np.tanh((x - CENTER[0]) / cfg.epsilon)
        )
        spreads = {}
        for tag, mu in (
            ("flat", EnergyMeasure.from_phase(flat, cfg.epsilon, well)),
            ("circle", EnergyMeasure.from_phase(traj.frames[0], cfg.epsilon, well)),
        ):
            vals = [meyers_ziemer_check(mu, trials=100, seed=s).max_ratio for s in (0, 1, 2)]
            assert all(np.isfinite(v) for v in vals)
            spreads[tag] = (max(vals) - min(vals)) / max(vals)
        ok = all(s < 0.2 for s in spreads.values())
        report(10, "meyers-ziemer ratio", ok,
               f"seed spread flat {spreads['flat']:.3f}, circle {spreads['circle']:.3f}, both < 0.2")
        assert all(s < 0.2 for s in spreads.values())
