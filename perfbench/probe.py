"""Set-up and allocation probes, each run in a fresh interpreter.

    python3 perfbench/probe.py setup run|sweep CONFIG
        Prints {"import_s", "load_s", "build_s"}: the import of actx.cli, the
        config (or plan and first rung) load, and the initial-phase build,
        i.e. what a run pays before its first step.

    python3 perfbench/probe.py alloc run|sweep CONFIG STEPS
        Prints {"peak_fields"}: the largest tracemalloc peak of one
        ``solver.step`` call over STEPS steps, divided by the bytes of one
        field. A sweep is probed on its finest rung.
"""

import json
import sys
import time


def _load(kind: str, path: str, rung: int = 0):
    """(scenario, solver config) of a run config, or of one rung of a sweep plan."""
    from actx import cli, scenario

    if kind == "run":
        cfg, sol, _ = cli.load_experiment(path)
        return cfg, sol
    plan = cli.load_plan(path)
    conf = scenario.parse_config(plan.rung_config_text(plan.rungs[rung]))
    return scenario.scenario_from_config(conf), cli.solver_from_config(conf)


def setup(kind: str, path: str) -> dict:
    t0 = time.perf_counter()
    import actx.cli  # noqa: F401

    t1 = time.perf_counter()
    cfg, _sol = _load(kind, path)
    t2 = time.perf_counter()
    actx.scenario.build_initial_phase(cfg)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2}


def alloc(kind: str, path: str, steps: int) -> dict:
    import tracemalloc

    import numpy as np

    from actx import scenario, solver
    from actx.grid import VectorField

    cfg, sol = _load(kind, path, rung=-1)
    phi = scenario.build_initial_phase(cfg)
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)
    u0 = cfg.transport.velocity(pts, 0.0)
    u_max = float(np.max(np.sqrt(np.sum(u0 * u0, axis=-1))))
    dt = solver.stable_dt(cfg.grid.h, cfg.epsilon, u_max, cfg.well, cfg.grid.dim, sol.cfl)
    state = solver.SimState(0.0, phi, 0)
    tracemalloc.start()
    worst = 0
    for _ in range(steps):
        u = u_mid = None
        if np.any(u0):
            u = VectorField(cfg.grid, cfg.transport.velocity(pts, state.t))
            u_mid = VectorField(cfg.grid, cfg.transport.velocity(pts, state.t + 0.5 * dt))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        state = solver.step(state, cfg, dt, u=u, u_mid=u_mid, scheme=sol.scheme)
        worst = max(worst, tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
    return {"peak_fields": worst / phi.values.nbytes}


def main() -> int:
    mode, kind, path = sys.argv[1:4]
    result = setup(kind, path) if mode == "setup" else alloc(kind, path, int(sys.argv[4]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
