"""Shared fixtures: the expensive reference runs are session-scoped.

A run keeps only its final field; ``run_with_frames`` writes a snapshot on
every diagnostics row and reads them back as the trajectory the offline
checks take (bit-identical to the fields the run computed).

The acceptance scenarios live on the [0, 1.6]^2 box (inset boxes 0.12/0.06)
so that the coarse rung of the refinement ladder clears the 4-eps cutoff
margin. The ladder keeps eps/h = 8 with eps = {16, 8} * h0, h0 = 1.6/256.
"""

import dataclasses
import glob
import time
import warnings

import numpy as np
import pytest

from actx.checks import gronwall_report
from actx.grid import GridSpec, ScalarField
from actx.potential import DoubleWell
from actx.scenario import ScenarioConfig, Transport, parse_sexpr, transport_from_sexpr
from actx.shapes import Ball
from actx.solver import SimState, SolverConfig, load_trajectory, run, stable_dt, step

L = 1.6
CENTER = (0.8, 0.8)
INSET = 0.12
PULSED = "(radial-pulsed 1.2 0.3125 5.0 0.8 0.8)"


def form_transport(form: str, dim: int = 2) -> Transport:
    """The transport a config form describes, e.g. ``(radial 16 0.8 0.8)``."""
    return transport_from_sexpr(parse_sexpr(form), dim)


def at(center) -> str:
    """A centre's coordinates as they read in a config form."""
    return " ".join(map(repr, center))


def circle_config(
    cells: int,
    eps_mult: float,
    radius: float = 0.25,
    t_end: float = 0.02,
    tau: float = 0.01,
    transport=None,
) -> ScenarioConfig:
    spec = GridSpec(2, (0.0, 0.0), (L, L), (cells, cells))
    return ScenarioConfig(
        grid=spec,
        shape=Ball(CENTER, radius),
        transport=transport or Transport(),
        epsilon=eps_mult * L / 256,
        t_end=t_end,
        tau=tau,
        inset_prime=INSET,
        inset_dprime=INSET / 2,
    )


def run_with_frames(tmp_path_factory, cfg: ScenarioConfig, sol: SolverConfig):
    """(result, trajectory): ``run`` with ``snap_every = diag_every`` into a fresh
    directory, and its snapshot files read back."""
    out = str(tmp_path_factory.mktemp("run"))
    res = run(cfg, dataclasses.replace(sol, snap_every=sol.diag_every), out_dir=out)
    return res, load_trajectory(out, cfg)


def row_gronwall(cfg: ScenarioConfig, res):
    """The weighted-energy growth check on a run's rows, with the sup |dt g| and
    row spacing its run-manifest records."""
    return gronwall_report(res.rows, cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end),
                           res.solver.diag_every)


def row_velocity_l2(rows, t0: float, t1: float) -> float:
    """Trapezoid of the rows' ``velocity_sq`` over the rows in [t0, t1]."""
    window = [r for r in rows if t0 - 1e-12 <= r.t <= t1 + 1e-12]
    return float(np.trapezoid([r.velocity_sq for r in window], [r.t for r in window]))


def live_children() -> set[int]:
    """The pids of this process's child processes, from the children lists of
    all its threads; unreaped ones included, and none reaped here."""
    pids: set[int] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except OSError:  # a thread that ended meanwhile
            pass
    return pids


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind: a block sweep's helper, a
    sweep's worker or anything else it started and did not reap."""
    before = live_children()
    yield
    left = live_children() - before
    assert not left, f"the test left child processes {sorted(left)}"


@pytest.fixture(scope="session")
def well() -> DoubleWell:
    return DoubleWell.quartic()


@pytest.fixture(scope="session")
def ladder(tmp_path_factory):
    """Shrinking-circle refinement ladder at fixed eps/h = 8: (cfg, result,
    trajectory, seconds) per rung.

    The outer rungs are eps = 16 h0 (128^2) and 8 h0 (256^2); the 192^2 rung
    sits between them so cross-refinement stability is checked over three
    consecutive eps values.
    """
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cells, mult, diag in ((128, 16, 50), (192, 32 / 3, 75), (256, 8, 100)):
            cfg = circle_config(cells, mult)
            t0 = time.perf_counter()
            res, traj = run_with_frames(tmp_path_factory, cfg, SolverConfig(diag_every=diag))
            out[cells] = (cfg, res, traj, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def standing(well):
    """1D profile relaxed for exactly 1000 steps on the 256^2 grid, eps = 8h."""
    cfg = circle_config(256, 8)
    eps = cfg.epsilon
    spec = cfg.grid
    phi0 = ScalarField.sample(spec, lambda x, y: np.tanh((x - CENTER[0]) / eps))
    dt = stable_dt(spec.h, eps, 0.0, well, spec.dim, 0.5)
    state = SimState(0.0, phi0, 0)
    t0 = time.perf_counter()
    for _ in range(1000):
        state = step(state, cfg, dt)
    return cfg, phi0, state, dt, time.perf_counter() - t0


@pytest.fixture(scope="session")
def gronwall_runs(tmp_path_factory):
    """Gradient-transport runs, (cfg, result, trajectory): static weight and
    unit-rate modulated weight."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # modulated weight calibrated so sup |dt g| = a*w*max|x-x0|^2/2 = 1 exactly:
        # a*w = 1.5625 against max|x-x0|^2 = 2*(0.8)^2 = 1.28 on this box
        for tag, tr in (
            ("static", form_transport("(radial 1.5 0.8 0.8)")),
            ("modulated", form_transport(PULSED)),
        ):
            cfg = circle_config(128, 16, t_end=0.008, tau=0.002, transport=tr)
            out[tag] = (cfg, *run_with_frames(tmp_path_factory, cfg, SolverConfig(diag_every=50)))
    return out


@pytest.fixture(scope="session")
def transport_equilibrium_runs(tmp_path_factory):
    """Quadratic-potential transport, c=16, from below and above R* = 0.25:
    (cfg, result, trajectory, seconds) per start radius."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r0 in (0.2, 0.3):
            cfg = circle_config(192, 8, radius=r0, t_end=0.05, tau=0.01,
                                transport=form_transport("(radial 16.0 0.8 0.8)"))
            t0 = time.perf_counter()
            res, traj = run_with_frames(tmp_path_factory, cfg, SolverConfig(diag_every=100))
            out[r0] = (cfg, res, traj, time.perf_counter() - t0)
    return out
