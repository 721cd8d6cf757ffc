"""The ``actx`` command line: single runs, and the entry to the offline commands.

Subcommands:
  run       integrate one scenario config into an artifact directory
  sweep     run a refinement ladder and report cross-rung convergence
  diagnose  print the diagnostics rows of snapshot files, and a probe's report
  oracle    print the exact radial-flow reference trajectory
  report    validate an artifact directory and summarize its checks

This module holds what a run needs (config loading, the run and its
manifest) and what the benchmark and scripts import from it (``load_plan``,
``read_rows``, ``emit_report``). The four offline commands and the
inequality checks they drive live in ``checks``, which ``main`` imports only
for those commands, so ``actx run`` never compiles it.

Exit codes: 0 clean, 1 configuration error (also one found before the first
step, such as an empty density-ratio radius ladder, and bad ``oracle``
arguments), unreadable snapshot or diagnostics file, bad ``diagnose`` probe
(also a snapshot at or after the default probe's time T + 0.01), bad
``report`` run-manifest value,
or a sweep rung whose monotonicity probes cannot be evaluated (no initial
interface to place them on, or fewer than two snapshot frames in [tau, T]),
2 solver abort or a failed sweep rung (a FAILED row in ``sweep.csv``; also
a rung whose sweep worker died).

The environment variable ACTX_THREADS caps the CPUs one invocation uses
(default: the CPUs the process may run on; ``grid.cpu_budget``): the forked
workers of a sweep, and the processes of the block sweeps (``grid.stencil_rhs``
and ``measures.frame_fields`` on grids of at least ``grid.PROC_NODES``
interior nodes), the caller and a helper forked by ``run`` and ``diagnose``
for each further CPU (``grid.open_team``); each sweep worker gets an equal share
of at least one. For ``run``, ``sweep`` and ``diagnose`` a value that is not
a positive integer is a configuration error. Each distinct rung is one job,
its run and its offline checks; a rung named twice in a plan runs once. On
one CPU the jobs run in the calling process. Otherwise ``sweep`` forks up to
one worker per CPU itself, with no process pool (``team.run_jobs``): the
first free worker takes the largest remaining rung and sends its result back
pickled over a pipe, and a worker that dies leaves its rung FAILED, with one
stderr line naming its pid, its rungs and how it ended. One module, ``team``,
forks, frames and reaps the helpers and the workers alike, and only an
invocation that forks imports it. Messages come in plan order and a block
sweep split among processes gives the serial bits, so no output depends on
ACTX_THREADS. Every helper and worker is reaped before the command returns,
also after an abort or an error.

``main`` freezes the objects the imports made (``gc.freeze``) once per
process, before any fork and after importing ``checks`` for an offline
command: the collector never scans them again, so the exit skips collecting
them, and forked workers and helpers share their pages without the
collector writing to them.

Artifact directories contain a manifest listing every output file with its
sha256 and the transport bounds; an aborted run's manifest also records the
abort's step, node, time and |phi|.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import math
import os
import sys
from dataclasses import astuple, dataclass

import numpy as np

from . import __version__, scenario, solver
from .grid import GridError, cpu_budget
from .measures import DiagnosticsRow
from .scenario import ConfigError, ScenarioConfig
from .solver import SolverAbort, SolverConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2


def solver_from_config(conf: dict[str, str]) -> SolverConfig:
    """The solver settings a parsed config sets; the others keep their defaults."""
    keys = ("scheme", "cfl", "diag_every", "snap_every")
    return SolverConfig(**{key: scenario.NUMBERS.get(key, str)(conf[key]) for key in keys if key in conf})


def load_experiment(path: str) -> tuple[ScenarioConfig, SolverConfig, str]:
    with open(path) as fh:
        text = fh.read()
    conf = scenario.parse_config(text)
    return scenario.scenario_from_config(conf), solver_from_config(conf), text


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, cfg: ScenarioConfig, sol: SolverConfig, config_text: str,
                    dt: float, n_steps: int, status: str, abort: SolverAbort | None = None) -> None:
    sup_dtg = cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end)
    tr = scenario.transport_report(cfg)
    if tr.norm > cfg.lambda0:
        print(
            f"warning: transport norm {tr.norm:.4g} exceeds the configured cap "
            f"lambda0 = {cfg.lambda0:g}",
            file=sys.stderr,
        )
    if tr.first_violation is not None:
        print(
            f"warning: transport exceeds the eps-scaled bounds from t = {tr.first_violation:g}: "
            f"sup|u| = {tr.sup_u:.4g} vs {tr.cap_u:.4g}, sup|grad u| = {tr.sup_grad_u:.4g} vs "
            f"{tr.cap_grad_u:.4g}", file=sys.stderr,
        )
    lines = [
        f"status = {status}",
        f"version = {__version__}",
        f"dt = {dt!r}",
        f"n_steps = {n_steps}",
        f"diag_every = {sol.diag_every}",
        f"epsilon = {cfg.epsilon!r}",
        f"beta = {cfg.beta!r}",
        f"tau = {cfg.tau!r}",
        f"T = {cfg.t_end!r}",
        f"sup_dt_g = {sup_dtg!r}",
        f"transport_norm = {tr.norm!r}",
        f"transport_sup_u = {tr.sup_u!r}",
        f"transport_sup_grad_u = {tr.sup_grad_u!r}",
        f"transport_cap_u = {tr.cap_u!r}",
        f"transport_cap_grad_u = {tr.cap_grad_u!r}",
        f"transport_first_violation = {'none' if tr.first_violation is None else repr(tr.first_violation)}",
        f"lambda0 = {cfg.lambda0!r}",
    ]
    if abort is not None:
        lines += [
            f"abort_step = {abort.step_index}",
            "abort_node = " + " ".join(str(i) for i in abort.location),
            f"abort_t = {abort.t!r}",
            f"abort_abs_phi = {abort.value!r}",
        ]
    lines.append("[config]")
    lines += ["  " + l for l in config_text.splitlines()]
    lines.append("[files]")
    entries = []
    for root, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            if name == "run-manifest":
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            entries.append(f"{_sha256(full)}  {rel}")
    lines += sorted(entries)
    with open(os.path.join(out_dir, "run-manifest"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(config_path: str, out_dir: str) -> int:
    """Run one scenario; returns the process exit code."""
    try:
        cfg, sol, text = load_experiment(config_path)
    except (OSError, ValueError) as exc:  # ConfigError and malformed numbers alike
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = solver.run(cfg, sol, out_dir=out_dir)
    except ConfigError as exc:  # raised before the first step: collar margin, ratio radii
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        _write_manifest(out_dir, cfg, sol, text, exc.dt, exc.n_steps, "aborted", abort=exc)
        return EXIT_ABORT
    _write_manifest(out_dir, cfg, sol, text, result.dt, result.n_steps, "complete")
    print(f"run complete: {result.n_steps} steps, {len(result.rows)} diagnostics rows -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepPlan:
    """Refinement ladder: cell counts per rung at fixed eps/h."""

    base_conf: dict[str, str]
    rungs: tuple[int, ...]
    eps_over_h: float = 8.0

    def __post_init__(self):
        if len(self.rungs) < 2:
            raise ConfigError("a sweep plan needs at least 2 rungs")
        if self.eps_over_h < 4.0:
            raise ConfigError(f"eps_over_h must be >= 4 for a resolved interface, got {self.eps_over_h}")
        for key in scenario.REQUIRED_KEYS:
            if key not in ("cells", "epsilon") and key not in self.base_conf:  # rungs set those two
                raise ConfigError(f"missing required key {key!r}")
        dim = int(self.base_conf["dim"])
        if any(len(corner) != dim for corner in scenario.config_box(self.base_conf, dim)):
            raise ConfigError("lo and hi must each have length dim")

    def rung_config_text(self, cells: int) -> str:
        conf = dict(self.base_conf)
        lo, hi = scenario.config_box(conf, int(conf["dim"]))
        h = min(b - a for a, b in zip(lo, hi)) / cells
        conf["epsilon"] = repr(self.eps_over_h * h)
        conf["cells"] = str(cells)
        if "snap_every" not in conf:
            conf["snap_every"] = conf.get("diag_every", str(SolverConfig.diag_every))
        return "\n".join(f"{k} = {v}" for k, v in conf.items()) + "\n"


def load_plan(path: str) -> SweepPlan:
    """The sweep plan in ``path``: ``rungs``, ``eps_over_h`` and its rungs' keys,
    checked as a config's (``scenario.check_entry``), so a malformed number fails
    naming its line before any rung runs; one that does not suit a rung fails it."""
    with open(path) as fh:
        text = fh.read()
    base: dict[str, str] = {}
    rungs: tuple[int, ...] = ()
    eps_over_h = 8.0
    for lineno, key, value in scenario.config_entries(text):
        if key == "rungs":
            rungs = tuple(scenario.numbers(lineno, key, value, int, several=True))
            if min(rungs) < 1:
                raise ConfigError(f"line {lineno}: bad {key} value {value!r}")
        elif key == "eps_over_h":
            eps_over_h = scenario.numbers(lineno, key, value, float)[0]
        else:
            scenario.check_entry(lineno, key, value)
            base[key] = value
    return SweepPlan(base, rungs, eps_over_h)


def read_rows(art_dir: str) -> list[DiagnosticsRow]:
    """The rows of an artifact directory's ``diagnostics.csv``; a row that does not
    parse raises ``ValueError`` naming the file and the line."""
    path = os.path.join(art_dir, "diagnostics.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            rows.append(DiagnosticsRow.from_csv_line(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


def _parse_manifest(path: str) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """(metadata, [(sha256, relative path)]); the [config] echo is skipped."""
    meta: dict[str, str] = {}
    files: list[tuple[str, str]] = []
    section = "meta"
    with open(path) as fh:
        for raw in fh.read().splitlines():
            if raw.strip() == "[config]":
                section = "config"
                continue
            if raw.strip() == "[files]":
                section = "files"
                continue
            if section == "meta" and "=" in raw:
                k, _, v = raw.partition("=")
                meta[k.strip()] = v.strip()
            elif section == "files" and raw.strip():
                digest, _, rel = raw.strip().partition("  ")
                files.append((digest, rel))
    return meta, files


def _manifest_value(meta: dict[str, str], key: str, kind=float):
    """One run-manifest value; ConfigError naming the key if it is missing or unparseable."""
    if key not in meta:
        raise ConfigError(f"run-manifest: missing key {key!r}")
    try:
        return kind(meta[key])
    except ValueError:
        raise ConfigError(f"run-manifest: key {key!r} has unparseable value {meta[key]!r}") from None


_REPORT_KEYS = ("dt", "epsilon", "beta", "tau", "T", "sup_dt_g", "diag_every", "lambda0",
                "transport_norm", "transport_sup_u", "transport_cap_u", "transport_sup_grad_u",
                "transport_cap_grad_u", "transport_first_violation")


def emit_report(art_dir: str) -> tuple[str, int, int]:
    """Validate an artifact directory; returns (text, passed, total).

    Eight checks: (1) diagnostics parse finite, (2) manifest hashes match,
    (3) near-maximum principle, (4) energy stays under the weighted cap,
    (5) discrepancy under the scaled bound after tau, (6) weighted-energy
    growth rate bounded, (7) static-weight non-increase, (8) ratio/velocity
    columns finite and sane. An informational line gives the transport norm
    and the eps-scaled transport bounds. A manifest key these need that is
    missing or unparseable raises ConfigError naming the key.
    """
    manifest_path = os.path.join(art_dir, "run-manifest")
    if not os.path.exists(manifest_path):
        return ("INCOMPLETE: no run-manifest found\n", 0, 0)
    meta, files = _parse_manifest(manifest_path)
    if meta.get("status") != "complete":
        text = f"INCOMPLETE: run status = {meta.get('status', 'missing')}\n"
        return (text, 0, 0)
    kinds = {"diag_every": int, "transport_first_violation": str}  # "none" or a time
    m = {key: _manifest_value(meta, key, kinds.get(key, float)) for key in _REPORT_KEYS}

    results: list[tuple[str, bool, str]] = []

    ok, detail = True, ""
    try:
        rows = read_rows(art_dir)
    except (OSError, ValueError) as exc:
        rows, ok, detail = [], False, f"unreadable: {exc}"
    bad = next((i for i, row in enumerate(rows) if not all(np.isfinite(astuple(row)))), None)
    if bad is not None:  # the checks below see the rows before it
        rows, ok, detail = rows[:bad], False, f"non-finite value in diagnostics.csv row {bad + 2}"
    results.append(("diagnostics-finite", ok, detail))

    ok, detail = True, ""
    for digest, rel in files:
        full = os.path.join(art_dir, rel)
        if not os.path.exists(full):
            ok, detail = False, f"missing file {rel}"
            break
        if _sha256(full) != digest:
            ok, detail = False, f"hash mismatch for {rel}"
            break
    results.append(("manifest-hashes", ok, detail))

    if rows:
        cap = 1.0 + 10.0 * m["dt"]
        bad = [r for r in rows if r.max_abs_phi > cap]
        results.append((
            "near-max-principle", not bad,
            "" if not bad else f"max|phi|={bad[0].max_abs_phi:.6f} > 1+10dt at t={bad[0].t:g}",
        ))

        from .checks import gronwall_report  # the offline module: see the module docstring

        gron = gronwall_report(rows, m["sup_dt_g"], m["diag_every"])
        mu0 = rows[0].total_energy
        energy_cap = 1.25 * mu0 * math.exp(gron.rate_bound * m["T"])
        worst = max(r.total_energy for r in rows)
        results.append((
            "energy-cap", worst <= energy_cap,
            f"max energy {worst:.6g} vs cap {energy_cap:.6g}",
        ))

        xi_cap = 10.0 * m["epsilon"] ** (-m["beta"])
        tail = [r for r in rows if r.t >= m["tau"] - 1e-12]
        worst_xi = max((r.sup_xi for r in tail), default=0.0)
        results.append((
            "discrepancy-bound", worst_xi <= xi_cap,
            f"sup xi {worst_xi:.6g} vs 10 eps^-beta {xi_cap:.6g}",
        ))

        results.append((
            "gronwall-rate", gron.rate_bound_ok(),
            f"growth rate {gron.growth_rate:.6g} vs bound {gron.rate_bound:.6g}",
        ))

        if gron.sup_dt_g == 0.0:
            results.append((
                "static-weight-dissipation", gron.max_step_increase <= 1e-9,
                f"max per-step increase {gron.max_step_increase:.3g} x F(0) vs 1e-9",
            ))
        else:
            results.append(("static-weight-dissipation", True, "skipped: time-modulated weight"))

        sane = all(
            np.isfinite(r.density_ratio_max) and r.density_ratio_max >= 0 and r.velocity_sq >= 0
            for r in rows
        )
        results.append(("columns-sane", sane, ""))
    else:
        for name in ("near-max-principle", "energy-cap", "discrepancy-bound",
                     "gronwall-rate", "static-weight-dissipation", "columns-sane"):
            results.append((name, False, "no diagnostics rows"))

    passed = sum(1 for _, ok, _ in results if ok)
    lines_out = []
    for name, ok, detail in results:
        suffix = f" ({detail})" if detail else ""
        lines_out.append(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    lines_out.append(
        f"INFO transport: norm {m['transport_norm']:.6g} vs lambda0 {m['lambda0']:g}; "
        f"sup|u| {m['transport_sup_u']:.6g} vs eps^-beta {m['transport_cap_u']:.6g}; "
        f"sup|grad u| {m['transport_sup_grad_u']:.6g} vs eps^-(beta+1) "
        f"{m['transport_cap_grad_u']:.6g}; first violation {m['transport_first_violation']}"
    )
    lines_out.append(f"ACCEPT {passed}/{len(results)}")
    text = "\n".join(lines_out) + "\n"

    with open(os.path.join(art_dir, "report.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(art_dir, "report.csv"), "w") as fh:
        fh.write("check,passed,detail\n")
        for name, ok, detail in results:
            fh.write(f"{name},{int(ok)},{detail}\n")
    return text, passed, len(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="actx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run a refinement ladder")
    p_sweep.add_argument("--plan", required=True)
    p_sweep.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="print the diagnostics rows of snapshots")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--snapshot", action="append", required=True)
    p_diag.add_argument("--probe", default=None, help="e.g. 'y=0.5,0.5 s=0.05'")
    p_diag.add_argument("--t0", type=float, default=None)
    p_diag.add_argument("--t1", type=float, default=None)

    p_orc = sub.add_parser("oracle", help="print the radial-flow reference trajectory")
    p_orc.add_argument("--r0", type=float, required=True)
    p_orc.add_argument("--c", type=float, default=0.0)
    p_orc.add_argument("--n", type=int, default=2)
    p_orc.add_argument("--t-end", dest="t_end", type=float, required=True)
    p_orc.add_argument("--samples", type=int, default=11)

    p_rep = sub.add_parser("report", help="validate an artifact directory")
    p_rep.add_argument("--dir", required=True)

    args = parser.parse_args(argv)
    if args.command != "run":  # before the freeze, so that forked sweep workers share it
        from . import checks
    if not gc.get_freeze_count():  # once per process, before any fork: see the module docstring
        gc.freeze()
    if args.command in ("run", "sweep", "diagnose"):
        try:
            cpu_budget()
        except GridError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    if args.command == "run":
        return run_experiment(args.config, args.out)
    if args.command == "sweep":
        return checks.sweep(args.plan, args.out)
    if args.command == "diagnose":
        return checks.diagnose(args)
    if args.command == "oracle":
        return checks.oracle_cmd(args)
    return checks.report_cmd(args)


if __name__ == "__main__":
    sys.exit(main())
