"""Command-line orchestration: exit codes, artifacts, reports, sweeps."""

import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from actx.cli import _parse_manifest, emit_report, load_experiment, main, read_rows
from actx.measures import DiagnosticsRow, frame_fields, gronwall_weight, weighted_energy
from actx.solver import load_trajectory

CONFIG = """\
dim = 2
cells = 96
lo = 0 0
hi = 1.6 1.6
epsilon = 0.1
beta = 0.25
shape = (ball 0.8 0.8 0.25)
transport = zero
tau = 0.002
T = 0.004
p = 2
q = 4
inset_prime = 0.12
inset_dprime = 0.06
diag_every = 50
snap_every = 200
"""

BAD_THREADS = ["abc", "2.5", "0", "-1"]

PLAN = """\
dim = 2
lo = 0 0
hi = 1.6 1.6
shape = (ball 0.8 0.8 0.25)
transport = zero
tau = 0.002
T = 0.004
inset_prime = 0.12
inset_dprime = 0.06
diag_every = 25
rungs = 128 192
eps_over_h = 8
"""

# two rungs of a pulsed radial ladder (eps = 0.1, 0.075), short enough for a unit test
PULSED_PLAN = """\
dim = 2
scheme = rk2
lo = 0 0
hi = 1.6 1.6
shape = (ball 0.8 0.8 0.25)
transport = (radial-pulsed 1.2 0.3125 5.0 0.8 0.8)
tau = 0.0005
T = 0.0015
inset_prime = 0.12
inset_dprime = 0.06
diag_every = 10
rungs = 96 128
eps_over_h = 6
"""

# a pulsed rk2 run and a 3D euler run, each with a snapshot on every diagnostics row
PULSED_EVERY = (CONFIG.replace("transport = zero", "transport = (radial-pulsed 1.2 0.3125 5.0 0.8 0.8)\nscheme = rk2")
                .replace("diag_every = 50", "diag_every = 10").replace("snap_every = 200", "snap_every = 10")
                .replace("tau = 0.002", "tau = 0.0005").replace("T = 0.004", "T = 0.0015"))
BALL_3D = """\
dim = 3
cells = 64
lo = 0 0 0
hi = 1.6 1.6 1.6
epsilon = 0.1
shape = (ball 0.8 0.8 0.8 0.25)
transport = zero
tau = 0.0003
T = 0.0006
p = 3
inset_prime = 0.12
inset_dprime = 0.06
diag_every = 10
snap_every = 10
"""

# 257^2 (circle-2d's grid) for eight steps, with a snapshot on every row
CIRCLE_257 = (CONFIG.replace("cells = 96", "cells = 256").replace("epsilon = 0.1", "epsilon = 0.05")
              .replace("tau = 0.002", "tau = 0.00001").replace("T = 0.004", "T = 0.00002")
              .replace("diag_every = 50", "diag_every = 4").replace("snap_every = 200", "snap_every = 4"))

# the ball is 0.8 - 0.12 - 0.297 = 0.383 from the collar; eps = 0.1 needs 4 eps = 0.4
TOO_CLOSE = CONFIG.replace("(ball 0.8 0.8 0.25)", "(ball 0.8 0.8 0.297)")


# the stderr of rungs 96 and 128 of PLAN at eps_over_h = 6, T = 0.0005 and
# diag_every = 1000, where the stable dt needs 29 and 52 steps
ROUNDED_1000 = [f"warning: diag_every = 1000 rounds the run up to 1000 steps of dt = 5e-07, "
                f"below half the stable dt {dt0}" for dt0 in ("1.736e-05", "9.766e-06")]


def _sweep_rows(out):
    lines = (out / "sweep.csv").read_text().splitlines()
    return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg_path = d / "circle.cfg"
    cfg_path.write_text(CONFIG)
    out = d / "art"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return d, cfg_path, out


class TestRunCommand:
    @pytest.mark.filterwarnings("ignore:epsilon=.* interface marginally resolved")
    def test_run_and_diagnose_same_bytes_at_1_2_3_threads(self, tmp_path, monkeypatch, capsys):
        # 257^2 and 65^3 are above grid.PROC_NODES: at ACTX_THREADS=2 and 3 the
        # step, the drive and the frame fields split their blocks between the
        # caller and a helper process per further CPU, for run and diagnose alike
        from actx.grid import helper_count
        from actx.team import Team

        fork = Team._fork
        forks = []
        monkeypatch.setattr(Team, "_fork", lambda team: forks.append(1) or fork(team))
        monkeypatch.chdir(tmp_path)  # the same relative paths in every message
        for name, text in (("circle.cfg", CIRCLE_257), ("ball.cfg", BALL_3D)):
            (tmp_path / name).write_text(text)
            runs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("ACTX_THREADS", threads)
                forks.clear()
                code = main(["run", "--config", name, "--out", "out"])
                files = {str(p.relative_to(tmp_path / "out")): p.read_bytes()
                         for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()}
                snaps = [a for f in files if f.startswith("snapshots") for a in ("--snapshot", "out/" + f)]
                diag = main(["diagnose", "--config", name, *snaps])
                assert len(forks) == 2 * helper_count()  # one team for the run, one for diagnose
                runs.append((code, diag, capsys.readouterr(), files))
                shutil.rmtree(tmp_path / "out")
            assert runs[0] == runs[1] == runs[2]
            assert runs[0][:2] == (0, 0) and len([f for f in runs[0][3] if f.startswith("snapshots")]) > 2
            assert {"diagnostics.csv", "interface_final.csv", "run-manifest"} <= set(runs[0][3])
            assert runs[0][2].out.count("\n") == 1 + len(snaps) // 2 + 1  # "run complete", the header, a row per frame

    def test_missing_required_key(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG.replace("epsilon = 0.1\n", ""))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "'epsilon'" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("transport = zero", "transport = (radial (1) 0.8 0.8)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (ball (0.8) 0.8 0.25)"),
        ("transport = zero", "transport = (zero 5)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (halfspace 0 0 0.5)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (union)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (intersection)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (ball 0.8 0.8 -0.25)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (ball 0.8 0.8 0)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (box 1.0 1.0 0.6 0.6)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (box 0.6 1.0 1.0 1.0)"),
        ("shape = (ball 0.8 0.8 0.25)", "shape = (ball 0.8 0.8x 0.25)"),
        ("transport = zero", "transport = (radial 1 0.8 0.8y)"),
        ("transport = zero", "potential = poly 0.25 0 -0.5x 0 0.25"),
    ], ids=["nested-transport-arg", "nested-shape-arg", "zero-with-arg", "zero-normal",
            "empty-union", "empty-intersection", "negative-radius", "zero-radius",
            "inverted-box", "flat-box", "shape-bad-number", "transport-bad-number",
            "potential-bad-number"])
    def test_malformed_form_is_a_config_error(self, tmp_path, capsys, old, new):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG.replace(old, new))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: (")
        assert not (tmp_path / "o").exists()

    def test_unknown_key_cites_line(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus = 1\n" + CONFIG)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "bogus" in err

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("old, new", [
        ("epsilon = 0.1", "epsilon = 0.1x"),
        ("diag_every = 50", "diag_every = 2.5"),
        ("cells = 96", "cells = 96 9x6"),
        ("tau = 0.002", "tau = 0.001 0.002"),
        ("dim = 2", "dim = two"),
        ("snap_every = 200", "snap_every ="),
    ])
    def test_malformed_number_cites_line(self, tmp_path, capsys, command, old, new):
        # the same line as a sweep plan's: checked against scenario.NUMBERS as the config is parsed
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG.replace(old, new))
        where = ["--out", str(tmp_path / "o")] if command == "run" else ["--snapshot", str(tmp_path / "x.afld")]
        assert main([command, "--config", str(p), *where]) == 1
        key, value = (v.strip() for v in new.split("="))
        lineno = CONFIG.splitlines().index(old) + 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: line {lineno}: bad {key} value {value!r}"]
        assert not (tmp_path / "o").exists()

    def test_negative_snap_every_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG.replace("snap_every = 200", "snap_every = -3"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: snap_every must be >= 0, got -3"]
        assert not (tmp_path / "o").exists()

    def test_exponent_violation_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG.replace("p = 2\n", "p = 0.7\n").replace("q = 4\n", "q = 3\n"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "exponent condition" in capsys.readouterr().err

    def test_shape_too_close_to_collar_exits_one(self, tmp_path, capsys):
        p = tmp_path / "close.cfg"
        p.write_text(TOO_CLOSE)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "measured margin" in err[0]

    @pytest.mark.parametrize("line, reason", [
        ("potential = quartic 2 0 -4", "'quartic' takes no coefficients, got '2 0 -4'"),
        ("alpha = 0.3", "well condition (c): W''(-0.3) = -1.46 < kappa=1"),
        ("kappa = 2", "well condition (c): W''(-0.8) = 1.84 < kappa=2"),
    ], ids=["quartic-coefficients", "alpha", "kappa"])
    def test_well_key_that_would_do_nothing_exits_one(self, tmp_path, capsys, line, reason):
        # the run reads only W: tokens after quartic, and alpha/kappa that break
        # condition (c), are rejected rather than ignored
        p = tmp_path / "well.cfg"
        p.write_text(CONFIG + line + "\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and reason in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:epsilon=0.08 is below 6h")
    def test_empty_ratio_ladder_exits_one(self, tmp_path, capsys):
        # 2h = 0.04 exceeds the ladder cap min(inset_prime/2, 1/4) = 0.025; diagnose rejects it too
        p = tmp_path / "ladder.cfg"
        p.write_text(CONFIG.replace("cells = 96", "cells = 80").replace("epsilon = 0.1", "epsilon = 0.08")
                     .replace("inset_prime = 0.12", "inset_prime = 0.05")
                     .replace("inset_dprime = 0.06", "inset_dprime = 0.025"))
        out = tmp_path / "o"
        for args in (["run", "--out", str(out)], ["diagnose", "--snapshot", str(out / "missing.afld")]):
            assert main([args[0], "--config", str(p), *args[1:]]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("config error: ")
            assert "2h = 0.04" in err[0] and "0.025" in err[0]
        assert not (out / "snapshots").exists() and not (out / "run-manifest").exists()

    def test_manifest_records_transport_bounds(self, artifact):
        _, _, out = artifact
        meta, _ = _parse_manifest(str(out / "run-manifest"))
        assert float(meta["transport_sup_u"]) == 0.0 and float(meta["transport_sup_grad_u"]) == 0.0
        assert float(meta["transport_cap_u"]) == 0.1**-0.25
        assert float(meta["transport_cap_grad_u"]) == 0.1**-1.25
        assert meta["transport_first_violation"] == "none"
        keys = list(meta)
        assert keys[keys.index("transport_norm") + 1] == "transport_sup_u"

    def test_bound_violation_warns_and_is_recorded(self, tmp_path, capsys):
        p = tmp_path / "fast.cfg"
        p.write_text(CONFIG.replace("transport = zero", "transport = (radial 50 0.8 0.8)")
                     .replace("T = 0.004", "T = 0.001").replace("tau = 0.002", "tau = 0.0005"))
        out = tmp_path / "art"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning: transport exceeds the eps-scaled bounds from t = 0:" in err
        meta, _ = _parse_manifest(str(out / "run-manifest"))
        assert float(meta["transport_first_violation"]) == 0.0
        assert float(meta["transport_sup_u"]) == pytest.approx(50 * 0.8 * math.sqrt(2), rel=1e-12)
        assert main(["report", "--dir", str(out)]) == 0
        assert "; first violation 0.0\n" in capsys.readouterr().out

    def test_oversized_diag_every_warns_before_the_first_step(self, tmp_path, monkeypatch, capsys):
        # 96^2 to T = 0.0005, where the stable dt needs 29 steps: diag_every = 400
        # rounds the run up to 400 steps, and one warning names dt and the stable
        # dt before the first step; the steps and rows are still the rounded ones.
        # diag_every = 10 rounds 29 up to 30 steps and prints nothing.
        import actx.solver

        step, seen = actx.solver.step, []
        monkeypatch.setattr(actx.solver, "step", lambda *a, **k: seen.append(capsys.readouterr().err) or step(*a, **k))
        short = CONFIG.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025")
        for every, want in (("400", ["warning: diag_every = 400 rounds the run up to 400 steps of dt = 1.25e-06, "
                                     "below half the stable dt 1.736e-05"]), ("10", [])):
            p = tmp_path / f"every{every}.cfg"
            p.write_text(short.replace("diag_every = 50", f"diag_every = {every}"))
            seen.clear()
            assert main(["run", "--config", str(p), "--out", str(tmp_path / every)]) == 0
            assert seen[0].splitlines() == want and capsys.readouterr().err == ""
            meta, _ = _parse_manifest(str(tmp_path / every / "run-manifest"))
            n_steps = int(meta["n_steps"])
            assert len(seen) == n_steps == int(every) * math.ceil(29 / int(every))
            assert len(read_rows(str(tmp_path / every))) == n_steps // int(every) + 1

    def test_artifacts_complete(self, artifact):
        _, _, out = artifact
        assert (out / "diagnostics.csv").exists()
        assert (out / "run-manifest").exists()
        assert (out / "interface_final.csv").exists()
        assert (out / "snapshots" / "step_00000000.afld").exists()

    def test_row_count_formula(self, artifact):
        _, _, out = artifact
        rows = read_rows(str(out))
        manifest = (out / "run-manifest").read_text()
        n_steps = int([l for l in manifest.splitlines() if l.startswith("n_steps")][0].split("=")[1])
        assert len(rows) == n_steps // 50 + 1

    def test_reproducible_artifacts(self, artifact, tmp_path):
        d, cfg_path, out = artifact
        out2 = tmp_path / "art2"
        assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()

    def test_solver_abort_exits_two_with_partial_outputs(self, tmp_path, monkeypatch, capsys):
        import actx.solver

        # an unstable timestep forces the runaway abort mid-run
        monkeypatch.setattr(actx.solver, "stable_dt", lambda *a, **k: 1.0)
        p = tmp_path / "boom.cfg"
        p.write_text(CONFIG)
        out = tmp_path / "art"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "abort" in err
        assert (out / "diagnostics.csv").exists()  # partial rows flushed
        text, _passed, _total = emit_report(str(out))
        assert "INCOMPLETE" in text
        meta, files = _parse_manifest(str(out / "run-manifest"))
        # the real schedule: T = 0.004 in one diagnostics interval of 50 steps
        assert int(meta["n_steps"]) == 50
        dt = float(meta["dt"])
        assert dt == 0.004 / 50
        step_index = int(meta["abort_step"])
        assert 0 <= step_index < 50
        node = tuple(int(v) for v in meta["abort_node"].split())
        assert len(node) == 2 and all(0 < i < 96 for i in node)
        assert f"node {node}" in err and f"step {step_index}" in err
        assert float(meta["abort_t"]) == pytest.approx((step_index + 1) * dt, rel=1e-12)
        assert not float(meta["abort_abs_phi"]) <= 1.1
        assert "diagnostics.csv" in {rel for _, rel in files}

    def test_manifest_lists_every_file_with_hash(self, artifact):
        _, _, out = artifact
        lines = (out / "run-manifest").read_text().splitlines()
        files = [l for l in lines[lines.index("[files]") + 1 :] if l.strip()]
        on_disk = set()
        for root, _dirs, names in os.walk(out):
            for n in names:
                if n != "run-manifest":
                    on_disk.add(os.path.relpath(os.path.join(root, n), out))
        in_manifest = {l.split("  ", 1)[1] for l in files}
        assert in_manifest == on_disk
        assert all(len(l.split("  ", 1)[0]) == 64 for l in files)


class TestHelperLifecycle:
    """``run`` forks its block sweeps' helper before the build, and every way
    out of it reaps the helper: a complete run, a solver abort, an exception
    in a row and a configuration error before the first step. Each test ends
    with no child process left (``conftest.no_child_left``)."""

    @pytest.fixture
    def forked(self, tmp_path, monkeypatch):
        """The circle at 257^2 and ACTX_THREADS=2; the list of the child
        processes alive after each helper's fork and at each row."""
        import actx.solver
        from actx.team import Team

        from conftest import live_children

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a helper needs a second CPU")
        monkeypatch.setenv("ACTX_THREADS", "2")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "circle.cfg").write_text(CIRCLE_257)
        seen = []
        fork, row = Team._fork, actx.solver.RowBuilder.__call__

        def fork_and_see(team):
            fork(team)
            seen.append(("fork", live_children()))

        def row_and_see(builder, *args, **kwargs):
            seen.append(("row", live_children()))
            return row(builder, *args, **kwargs)

        monkeypatch.setattr(Team, "_fork", fork_and_see)
        monkeypatch.setattr(actx.solver.RowBuilder, "__call__", row_and_see)
        return seen

    @staticmethod
    def _one_helper(seen, rows):
        from conftest import live_children

        assert [kind for kind, _ in seen] == ["fork"] + ["row"] * rows
        assert len(seen[0][1]) == 1 and all(pids == seen[0][1] for _, pids in seen)
        assert live_children() == set()

    @pytest.mark.filterwarnings("ignore:epsilon=.* interface marginally resolved")
    def test_complete_run(self, forked):
        assert main(["run", "--config", "circle.cfg", "--out", "out"]) == 0
        self._one_helper(forked, 4)

    def test_solver_abort(self, forked, monkeypatch, capsys):
        import actx.solver

        # four steps of 0.005 each: the first row's step runs away
        Path("circle.cfg").write_text(CIRCLE_257.replace("T = 0.00002", "T = 0.02").replace("tau = 0.00001", "tau = 0.01"))
        monkeypatch.setattr(actx.solver, "stable_dt", lambda *a, **k: 1.0)
        assert main(["run", "--config", "circle.cfg", "--out", "out"]) == 2
        assert "solver abort" in capsys.readouterr().err
        self._one_helper(forked, 1)

    @pytest.mark.filterwarnings("ignore:epsilon=.* interface marginally resolved")
    def test_exception_in_a_row(self, forked, monkeypatch):
        import actx.solver

        row = actx.solver.RowBuilder.__call__

        def fail_second(builder, *args, **kwargs):
            if len(forked) == 2:
                raise RuntimeError("a row failed")
            return row(builder, *args, **kwargs)

        monkeypatch.setattr(actx.solver.RowBuilder, "__call__", fail_second)
        with pytest.raises(RuntimeError, match="a row failed"):
            main(["run", "--config", "circle.cfg", "--out", "out"])
        self._one_helper(forked, 1)

    def test_config_error_before_the_first_step(self, forked, capsys):
        Path("circle.cfg").write_text(CIRCLE_257.replace("(ball 0.8 0.8 0.25)", "(ball 0.8 0.8 0.55)"))
        assert main(["run", "--config", "circle.cfg", "--out", "out"]) == 1
        assert capsys.readouterr().err.startswith("config error: shape must clear the cutoff collar")
        self._one_helper(forked, 0)

    @pytest.mark.filterwarnings("ignore:epsilon=.* interface marginally resolved")
    def test_helper_killed_mid_run(self, forked, monkeypatch):
        import signal

        import actx.solver
        from actx.grid import GridError

        row = actx.solver.RowBuilder.__call__

        def kill_at_third(builder, *args, **kwargs):  # whose first sweep then raises
            if len(forked) == 3:
                os.kill(next(iter(forked[0][1])), signal.SIGKILL)
            return row(builder, *args, **kwargs)

        monkeypatch.setattr(actx.solver.RowBuilder, "__call__", kill_at_third)
        with pytest.raises(GridError, match="block sweep helper"):
            main(["run", "--config", "circle.cfg", "--out", "out"])
        self._one_helper(forked, 3)


class TestReportCommand:
    def test_clean_run_accepts_8_of_8(self, artifact, capsys):
        _, _, out = artifact
        assert main(["report", "--dir", str(out)]) == 0
        assert "ACCEPT 8/8" in capsys.readouterr().out

    def test_nan_injection_caught_with_row(self, artifact, tmp_path):
        _, _, out = artifact
        victim = tmp_path / "tampered"
        victim.mkdir()
        shutil.copytree(out, victim / "art")
        csv = victim / "art" / "diagnostics.csv"
        lines = csv.read_text().splitlines()
        parts = lines[3].split(",")
        parts[1] = "nan"
        lines[3] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        text, passed, total = emit_report(str(victim / "art"))
        assert passed < total
        assert "row 4" in text

    def test_unparseable_row_fails_the_check(self, artifact, tmp_path):
        _, _, out = artifact
        shutil.copytree(out, tmp_path / "art")
        csv = tmp_path / "art" / "diagnostics.csv"
        lines = csv.read_text().splitlines()
        lines[2] = "x" + lines[2]
        csv.write_text("\n".join(lines) + "\n")
        text, passed, total = emit_report(str(tmp_path / "art"))
        first = text.splitlines()[0]
        assert first.startswith(f"FAIL diagnostics-finite (unreadable: {csv}: line 3: could not convert")
        assert passed < total == 8

    def test_info_line_shows_transport_bounds(self, artifact, capsys):
        _, _, out = artifact
        assert main(["report", "--dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "ACCEPT 8/8"
        assert sum(l.startswith(("PASS ", "FAIL ")) for l in lines) == 8
        info = [l for l in lines if l.startswith("INFO transport: ")]
        assert len(info) == 1
        assert "sup|u| 0 vs eps^-beta 1.77828" in info[0] and "first violation none" in info[0]

    @pytest.mark.parametrize("edit", ["dt = abc", "diag_every = 2.5", "sup_dt_g = ",
                                      "-sup_dt_g", "-epsilon", "-dt", "-diag_every",
                                      "-transport_sup_u"])
    def test_bad_manifest_exits_one(self, artifact, tmp_path, capsys, edit):
        _, _, out = artifact
        art = tmp_path / "art"
        shutil.copytree(out, art)
        for name in ("report.txt", "report.csv"):
            (art / name).unlink(missing_ok=True)
        key = edit.lstrip("-").split(" = ")[0]
        lines = (art / "run-manifest").read_text().splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith(key + " = "))
        if edit.startswith("-"):
            del lines[i]
        else:
            lines[i] = edit
        (art / "run-manifest").write_text("\n".join(lines) + "\n")
        assert main(["report", "--dir", str(art)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "run-manifest" in err[0] and repr(key) in err[0]
        assert captured.out == "" and not (art / "report.txt").exists()

    def test_incomplete_directory(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["report", "--dir", str(tmp_path / "empty")]) == 1
        assert "INCOMPLETE" in capsys.readouterr().out


class TestSweepCommand:
    def test_ladder_emits_convergence_table(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN)
        out = tmp_path / "sweep"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 0
        table = (out / "sweep.csv").read_text().splitlines()
        assert table[0].startswith("cells,epsilon,status")
        assert len(table) == 3
        first = table[1].split(",")
        second = table[2].split(",")
        assert first[2] == "ok" and second[2] == "ok"
        assert first[4] == "n/a"  # no previous rung to compare against
        assert float(second[4]) > 0  # observed order defined on the second rung
        assert (out / "rung_0128" / "radius_vs_oracle.csv").exists()

    def test_identical_rungs_flagged(self, tmp_path):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 128 128"))
        out = tmp_path / "sweep"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 0
        table = (out / "sweep.csv").read_text().splitlines()
        assert table[2].split(",")[4] == "n/a"

    def test_corrupt_snapshot_exits_one(self, tmp_path, monkeypatch, capsys):
        # a truncated snapshot, and a diagnostics.csv row that does not parse; the
        # rungs may run in worker processes, so the expected file is named from
        # the out dir: the first rung's last snapshot, or its diagnostics.csv
        import actx.checks

        run_rung = actx.checks._run_rung

        def last_snapshot(rung_dir):
            return os.path.join(rung_dir, "snapshots", sorted(os.listdir(os.path.join(rung_dir, "snapshots")))[-1])

        def truncate_snapshot(rung_dir):
            path = last_snapshot(rung_dir)
            with open(path, "rb") as fh:
                head = fh.read(2000)
            with open(path, "wb") as fh:
                fh.write(head)

        def corrupt_row(rung_dir):
            path = os.path.join(rung_dir, "diagnostics.csv")
            with open(path) as fh:
                lines = fh.read().splitlines(keepends=True)
            lines[2] = "x" + lines[2]
            with open(path, "w") as fh:
                fh.writelines(lines)

        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        for corrupt, named, reason in (
            (truncate_snapshot, last_snapshot, "truncated payload"),
            (corrupt_row, lambda d: os.path.join(d, "diagnostics.csv"),
             "line 3: could not convert string to float"),
        ):
            def run_then_corrupt(job):
                code = run_rung(job)
                corrupt(job[1])
                return code

            monkeypatch.setattr(actx.checks, "_run_rung", run_then_corrupt)
            out = tmp_path / corrupt.__name__
            assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            path = named(str(out / "rung_0128"))
            assert len(err) == 1 and "rung_0128" in path and path in err[0] and reason in err[0]

    def test_margin_from_rows_matches_trajectory_check(self, tmp_path):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PULSED_PLAN)
        out = tmp_path / "sweep"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 0
        for row in _sweep_rows(out):
            rung = out / f"rung_{int(row['cells']):04d}"
            cfg, _sol, _ = load_experiment(str(rung / "config.txt"))
            # F(t) recomputed from the reloaded snapshots with the per-frame primitives
            traj = load_trajectory(str(rung), cfg)
            times = np.asarray(traj.times)
            values = np.array([
                weighted_energy(frame_fields(phi, cfg.epsilon, cfg.well).measure(),
                                gronwall_weight(cfg.transport, cfg.grid, t))
                for t, phi in zip(traj.times, traj.frames)
            ])
            assert list(values) == [r.gronwall_factor for r in read_rows(str(rung))]
            # sup |dt g| as the rung's run-manifest records it
            meta, _ = _parse_manifest(str(rung / "run-manifest"))
            sup_dt_g = float(meta["sup_dt_g"])
            assert sup_dt_g == cfg.transport.sup_dt_g(cfg.grid, 0.0, cfg.t_end) > 0
            # and the growth-rate arithmetic spelled out on those recomputed F values
            with np.errstate(divide="ignore"):
                growth = float(np.max(np.log(values[1:] / values[0]) / times[1:]))
            assert row["gronwall_margin"] == repr(sup_dt_g + 0.05 - growth)

    def test_sweep_reads_no_manifest(self, tmp_path, monkeypatch):
        # the sweep takes sup |dt g| and diag_every from the rung's config, not its run-manifest
        import actx.checks

        plan = tmp_path / "plan.cfg"
        plan.write_text(PULSED_PLAN)
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "kept")]) == 0
        run_rung = actx.checks._run_rung

        def run_then_delete_manifest(job):
            code = run_rung(job)
            os.remove(os.path.join(job[1], "run-manifest"))
            return code

        monkeypatch.setattr(actx.checks, "_run_rung", run_then_delete_manifest)
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "deleted")]) == 0
        assert not (tmp_path / "deleted" / "rung_0096" / "run-manifest").exists()
        assert (tmp_path / "deleted" / "sweep.csv").read_bytes() == (
            tmp_path / "kept" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("setting", ["diag_every = 25\nsnap_every = 0", "diag_every = 1000"])
    def test_probe_window_without_two_frames_exits_one(self, tmp_path, capsys, setting):
        # only the final frame lies in [tau, T]: snapshots only at the ends, or a
        # diagnostics interval longer than the run (the rungs then snapshot on it)
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 96 128")
                        .replace("eps_over_h = 8", "eps_over_h = 6")
                        .replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025")
                        .replace("diag_every = 25", setting))
        out = tmp_path / "s"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ROUNDED_1000 * (setting == "diag_every = 1000") + [
            f"probe error: {out / 'rung_0096'}: window [0.00025, 0.0005] covers 1 "
            f"retained frames; need at least 2"]

    def test_rotation_sweep_finishes(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PULSED_PLAN.replace("(radial-pulsed 1.2 0.3125 5.0 0.8 0.8)",
                                            "(rotation 1.0 0.8 0.8)"))
        out = tmp_path / "sweep"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 0
        capsys.readouterr()
        for row in _sweep_rows(out):
            assert row["status"] == "ok"
            rung = out / f"rung_{int(row['cells']):04d}"
            rows = read_rows(str(rung))
            f0 = rows[0].gronwall_factor
            growth = max(math.log(r.gronwall_factor / f0) / r.t for r in rows[1:])
            assert float(row["gronwall_margin"]) == pytest.approx(0.05 - growth, rel=1e-12)
            assert main(["report", "--dir", str(rung)]) == 0
            text = capsys.readouterr().out
            assert f"PASS gronwall-rate (growth rate {growth:.6g} vs bound 0.05)" in text
            assert "ACCEPT 8/8" in text

    def test_rung_too_close_to_collar_fails_alone(self, tmp_path, capsys):
        # eps = 8 h: 4 eps = 0.64 on 80 cells breaks the 0.43 collar margin, 0.4 on 128 does not
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 80 128")
                        .replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        out = tmp_path / "s"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 2
        assert "config error: " in capsys.readouterr().err
        rows = _sweep_rows(out)
        assert [(r["cells"], r["status"]) for r in rows] == [("80", "FAILED"), ("128", "ok")]

    def test_rung_config_that_does_not_load_is_a_failed_row(self, tmp_path, capsys):
        # eps = 8 h: rung 4 gets epsilon = 3.2, which its config rejects
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 4 128")
                        .replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        out = tmp_path / "s"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: epsilon must lie in (0,1), got 3.2"]
        rows = _sweep_rows(out)
        assert [(r["cells"], r["epsilon"], r["status"]) for r in rows] == [
            ("4", "3.2", "FAILED"), ("128", "0.1", "ok")]

    def test_empty_initial_interface_exits_one(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("(ball 0.8 0.8 0.25)", "(ball 5 5 0.1)")
                        .replace("rungs = 128 192", "rungs = 96 128")
                        .replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        out = tmp_path / "s"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(out / "rung_0096") in err[0]
        assert "initial interface is empty" in err[0]

    @pytest.mark.parametrize("line", ["dim = 3", "rungs = 64 96"])
    def test_plan_duplicate_key_cites_line(self, tmp_path, capsys, line):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN + line + "\n")
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert f"line {len(PLAN.splitlines()) + 1}: duplicate key {key!r}" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("key", ["dim", "shape", "T"])
    def test_plan_missing_required_key_exits_one(self, tmp_path, capsys, key):
        # each rung sets cells and epsilon; the plan must carry the other required keys
        plan = tmp_path / "plan.cfg"
        plan.write_text("".join(l + "\n" for l in PLAN.splitlines() if not l.startswith(f"{key} = ")))
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: missing required key {key!r}"]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("old, new", [
        ("rungs = 128 192", "rungs = 96 1x8"),
        ("rungs = 128 192", "rungs = 0 96"),
        ("eps_over_h = 8", "eps_over_h = eight"),
        ("dim = 2", "dim = two"),
        ("hi = 1.6 1.6", "hi = 1.6 oops"),
        ("T = 0.004", "T = abc"),
        ("tau = 0.002", "tau = 0.001 0.002"),
        ("diag_every = 25", "diag_every = 2.5"),
        ("inset_prime = 0.12", "inset_prime = 0.12x"),
    ])
    def test_plan_malformed_number_cites_line(self, tmp_path, capsys, old, new):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace(old, new))
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "s")]) == 1
        lineno = PLAN.splitlines().index(old) + 1
        key, value = new.split(" = ")
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: line {lineno}: bad {key} value {value!r}"]
        assert not (tmp_path / "s").exists()

    def test_plan_number_that_no_rung_accepts_fails_every_rung(self, tmp_path, capsys):
        # cfl = 1.5 parses, so the plan loads; each rung's config then rejects it
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 96 128") + "cfl = 1.5\n")
        out = tmp_path / "s"
        assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: cfl safety factor must lie in (0,1], got 1.5"] * 2
        assert [(r["cells"], r["status"]) for r in _sweep_rows(out)] == [("96", "FAILED"), ("128", "FAILED")]

    @pytest.mark.parametrize("old, new", [("hi = 1.6 1.6", "hi = 1.6"), ("lo = 0 0", "lo = 0 0 0")])
    def test_plan_box_of_another_dimension_exits_one(self, tmp_path, capsys, old, new):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace(old, new))
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: lo and hi must each have length dim"]
        assert not (tmp_path / "s").exists()

    def test_plan_needs_two_rungs(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 128"))
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "s")]) == 1

    @pytest.mark.parametrize("command, threads", [(c, t) for c in ("sweep", "run") for t in BAD_THREADS],
                             ids=[*BAD_THREADS, *(f"run-{t}" for t in BAD_THREADS)])
    def test_bad_actx_threads_is_a_config_error(self, tmp_path, capsys, monkeypatch, command, threads):
        given = tmp_path / "given.cfg"
        given.write_text(PLAN if command == "sweep" else CONFIG)
        monkeypatch.setenv("ACTX_THREADS", threads)
        flag = "--plan" if command == "sweep" else "--config"
        assert main([command, flag, str(given), "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: ACTX_THREADS must be a positive integer, got {threads!r}"]
        assert not (tmp_path / "s").exists()

    @staticmethod
    def _sweep_at(threads, plan, where, monkeypatch, capsys):
        """(exit code, stdout, stderr, {path: bytes}) of one sweep into ``sweep/``
        under the new directory ``where``, at an ACTX_THREADS setting (None: unset),
        after checking that no worker process is left."""
        import multiprocessing

        where.mkdir()
        monkeypatch.chdir(where)  # the same relative out dir in every message
        out = where / "sweep"
        if threads is None:
            monkeypatch.delenv("ACTX_THREADS", raising=False)
        else:
            monkeypatch.setenv("ACTX_THREADS", threads)
        capsys.readouterr()
        code = main(["sweep", "--plan", str(plan), "--out", "sweep"])
        captured = capsys.readouterr()
        assert multiprocessing.active_children() == []
        files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return code, captured.out, captured.err, files

    def test_parallel_rungs_match_serial(self, tmp_path, monkeypatch, capsys):
        # three rungs, so that 3 workers meet one rung each and the default does not
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 96 128 160")
                        .replace("eps_over_h = 8", "eps_over_h = 6"))
        serial = self._sweep_at("1", plan, tmp_path / "t1", monkeypatch, capsys)
        assert serial[0] == 0 and serial[2] == "" and serial[1].count("run complete") == 3
        assert {"sweep.csv", "rung_0160/diagnostics.csv", "rung_0160/radius_vs_oracle.csv"} <= set(serial[3])
        for threads in (None, "3"):
            assert self._sweep_at(threads, plan, tmp_path / f"t{threads}", monkeypatch, capsys) == serial

    def test_failed_and_probe_errors_in_plan_order(self, tmp_path, monkeypatch, capsys):
        # two FAILED rungs (the collar margin) around one that runs, largest first,
        # and two rungs that both fail their probe window
        short = PLAN.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025")
        failed = tmp_path / "failed.cfg"
        failed.write_text(short.replace("rungs = 128 192", "rungs = 80 128 96"))
        windows = tmp_path / "windows.cfg"
        windows.write_text(short.replace("rungs = 128 192", "rungs = 96 128")
                           .replace("eps_over_h = 8", "eps_over_h = 6").replace("diag_every = 25", "diag_every = 1000"))
        for plan, code, err in (
            (failed, 2, ["config error: shape must clear the cutoff collar by 4*eps = 0.64; measured margin 0.45",
                         "config error: shape must clear the cutoff collar by 4*eps = 0.533333; "
                         "measured margin 0.433333"]),
            (windows, 1, ROUNDED_1000 + ["probe error: sweep/rung_0096: window [0.00025, 0.0005] covers 1 "
                                         "retained frames; need at least 2"]),
        ):
            serial = self._sweep_at("1", plan, tmp_path / f"{plan.stem}1", monkeypatch, capsys)
            assert serial[0] == code and serial[2].splitlines() == err
            assert self._sweep_at(None, plan, tmp_path / f"{plan.stem}N", monkeypatch, capsys) == serial

    @pytest.mark.parametrize("threads, share", [("3", "1"), ("4", "2")])
    def test_forked_workers_share_the_cpu_budget(self, tmp_path, monkeypatch, capsys, threads, share):
        # two distinct rungs, so two forked workers; each prints the budget its
        # block sweeps would use, and runs nothing (so the sweep's checks fail)
        import actx.checks
        from actx.grid import cpu_budget

        monkeypatch.setattr(actx.checks, "_run_rung", lambda job: print(f"cpus {cpu_budget()}") or 0)
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN)
        code, out, _err, _files = self._sweep_at(threads, plan, tmp_path / "s", monkeypatch, capsys)
        assert code == 1 and out.splitlines() == [f"cpus {share}"] * 2
        assert os.environ["ACTX_THREADS"] == threads  # the parent's own budget is unchanged

    @pytest.mark.parametrize("end, how", [(lambda: os._exit(3), "exited with code 3"),
                                          (lambda: os.kill(os.getpid(), 9), r"was killed by signal 9 \(SIGKILL\)")],
                             ids=["exit", "killed"])
    def test_dead_worker_fails_its_rung(self, tmp_path, monkeypatch, capsys, end, how):
        # the worker that takes rung 96 ends inside it: that rung gets a FAILED row
        # and one stderr line naming the worker, its rungs and how it ended; the
        # other rungs run, the exit code is 2 and no worker is left (no_child_left)
        import actx.checks

        run_rung = actx.checks._run_rung

        def end_in_96(job):
            if job[1].endswith("rung_0096"):
                end()
            return run_rung(job)

        monkeypatch.setattr(actx.checks, "_run_rung", end_in_96)
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 96 128 160")
                        .replace("eps_over_h = 8", "eps_over_h = 6")
                        .replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        code, out, err, _files = self._sweep_at("2", plan, tmp_path / "s", monkeypatch, capsys)
        assert code == 2 and out.count("run complete") == 2
        (line,) = err.splitlines()
        assert re.fullmatch(rf"rung failed: sweep worker \d+ {how} while running sweep/rung_0096 "
                            r"\(its rungs: (sweep/rung_0(128|160), )?sweep/rung_0096\)", line), line
        rows = _sweep_rows(tmp_path / "s" / "sweep")
        assert [(r["cells"], r["status"]) for r in rows] == [("96", "FAILED"), ("128", "ok"), ("160", "ok")]
        assert float(rows[0]["epsilon"]) == pytest.approx(0.1)  # eps_over_h h, from the rung's config

    def test_duplicate_rung_runs_once_largest_rung_first(self, tmp_path, monkeypatch, capsys):
        import actx.checks

        run_rung = actx.checks._run_rung
        ran = []

        def record(job):
            ran.append(os.path.basename(job[1]))
            return run_rung(job)

        monkeypatch.setattr(actx.checks, "_run_rung", record)
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 128 192 128")
                        .replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        code, out, _err, _files = self._sweep_at("1", plan, tmp_path / "s", monkeypatch, capsys)
        assert code == 0 and ran == ["rung_0192", "rung_0128"]
        assert out.count("run complete") == 2
        rows = _sweep_rows(tmp_path / "s" / "sweep")
        assert [r["cells"] for r in rows] == ["128", "192", "128"]
        assert rows[0] == dict(rows[2], order="n/a")  # one entry for both rows


    def test_fresh_process_output_same_at_one_and_two_workers(self, tmp_path):
        # a real process, with stdout block-buffered into a pipe: text the caller
        # wrote before the sweep is printed once (the workers inherit its buffer),
        # and a warning that each rung raises is shown once per rung
        import subprocess
        import sys

        import actx

        (tmp_path / "plan.cfg").write_text(
            PLAN.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        code = (
            "import sys, warnings\n"
            "import actx.checks, actx.cli\n"
            "run_rung = actx.checks._run_rung\n"
            "def warn_then_run(job):\n"
            "    warnings.warn('the same warning in every rung')\n"
            "    return run_rung(job)\n"
            "actx.checks._run_rung = warn_then_run\n"
            "print('before the sweep')\n"
            "sys.exit(actx.cli.main(['sweep', '--plan', 'plan.cfg', '--out', 'sweep']))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(actx.__file__)))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, ACTX_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
            shutil.rmtree(tmp_path / "sweep")
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 0 and out.count("before the sweep") == 1 and out.count("run complete") == 2
        assert err.count("UserWarning: the same warning in every rung") == 2


class TestDiagnoseCommand:
    def test_offline_recompute(self, artifact, capsys):
        d, cfg_path, out = artifact
        snaps = sorted((out / "snapshots").iterdir())
        code = main(
            ["diagnose", "--config", str(cfg_path),
             "--snapshot", str(snaps[0]), "--snapshot", str(snaps[-1]),
             "--probe", "y=1.05,0.8 s=0.02 d=0.2"]
        )
        assert code == 0
        out_text = capsys.readouterr().out
        assert "density_ratio_max" in out_text
        assert "monotonicity" in out_text

    @pytest.mark.filterwarnings("ignore:epsilon=.* interface marginally resolved")
    def test_matches_the_rows_at_every_snapshot(self, tmp_path, capsys):
        # diagnose over every snapshot prints the run's diagnostics.csv, except
        # max_abs_phi: the run's is the max over every step since the last row
        for name, text in (("pulsed", PULSED_EVERY), ("ball3d", BALL_3D)):
            p = tmp_path / f"{name}.cfg"
            p.write_text(text)
            out = tmp_path / name
            assert main(["run", "--config", str(p), "--out", str(out)]) == 0
            want = (out / "diagnostics.csv").read_text().splitlines()
            snaps = sorted((out / "snapshots").iterdir())
            assert len(snaps) == len(want) - 1 > 2
            capsys.readouterr()
            assert main(["diagnose", "--config", str(p), *[a for s in snaps for a in ("--snapshot", str(s))]]) == 0
            printed = capsys.readouterr().out.splitlines()
            assert len(printed) == len(want) and printed[0] == want[0] == DiagnosticsRow.CSV_HEADER
            for got, row in zip(printed[1:], want[1:]):
                (got, got_max), (row, row_max) = got.rsplit(",", 1), row.rsplit(",", 1)
                assert got == row
                assert float(got_max) <= float(row_max)

    def test_frames_ordered_by_time(self, artifact, capsys):
        d, cfg_path, out = artifact
        snaps = sorted((out / "snapshots").iterdir())
        assert len(snaps) >= 3
        args = ["diagnose", "--config", str(cfg_path)]
        for snap in reversed(snaps):
            args += ["--snapshot", str(snap)]
        assert main(args) == 0
        times = [float(l.split(",")[0]) for l in capsys.readouterr().out.splitlines()[1:]]
        assert len(times) == len(snaps) and times == sorted(times) and times[0] == 0.0

    def test_snapshot_past_the_default_probe_exits_one(self, artifact, tmp_path, capsys):
        # the default probe sits at s = T + 0.01 = 0.014; a frame at t = 0.02, as a
        # longer run would write it, is past it: it gets no row, and a --probe whose
        # s is later still gets its report
        from actx.grid import read_field, write_field

        _, cfg_path, out = artifact
        snaps = sorted((out / "snapshots").iterdir())
        late = tmp_path / "step_99999999.afld"
        write_field(str(late), read_field(str(snaps[-1]))[0], 0.02)
        args = ["diagnose", "--config", str(cfg_path), "--snapshot", str(snaps[0]), "--snapshot", str(late)]
        for probe in ([], ["--probe", "y=1.05,0.8 s=0.05 d=0.2"]):
            assert main(args + probe) == 1
            captured = capsys.readouterr()
            assert captured.err.strip().splitlines() == [
                "probe error: default probe: kernel needs t < s, got t=0.02, s=0.014"]
            lines = captured.out.splitlines()
            assert lines[0] == DiagnosticsRow.CSV_HEADER
            assert DiagnosticsRow.from_csv_line(lines[1]).t == 0.0
            assert [line.partition(":")[0] for line in lines[2:]] == (["monotonicity [0.0,0.02]"] if probe else [])

    @pytest.mark.parametrize("window", [["--t0", "0.001"], ["--t1", "0.004"], ["--t0", "5", "--t1", "7"]])
    def test_window_without_probe_exits_one(self, artifact, capsys, window):
        _, cfg_path, out = artifact
        snap = sorted((out / "snapshots").iterdir())[0]
        assert main(["diagnose", "--config", str(cfg_path), "--snapshot", str(snap), *window]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == ["config error: --t0 and --t1 need --probe"]
        assert captured.out == ""

    def test_malformed_number_in_config_exits_one(self, artifact, tmp_path, capsys):
        _, cfg_path, out = artifact
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("cells = 96", "cells = 12x8"))
        snap = sorted((out / "snapshots").iterdir())[0]
        assert main(["diagnose", "--config", str(bad), "--snapshot", str(snap)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "12x8" in err[0]

    def test_corrupt_snapshot_exits_one(self, artifact, tmp_path, capsys):
        _, cfg_path, out = artifact
        bad = tmp_path / "bad.afld"
        bad.write_bytes(sorted((out / "snapshots").iterdir())[0].read_bytes()[:2000])
        assert main(["diagnose", "--config", str(cfg_path), "--snapshot", str(bad)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(bad) in err[0] and "truncated payload" in err[0]

    @pytest.mark.parametrize("count", [1, 2])
    def test_probe_leaving_box_exits_one(self, artifact, capsys, count):
        # the default d = 0.06 puts the probe ball across the face x = 0
        _, cfg_path, out = artifact
        args = ["diagnose", "--config", str(cfg_path), "--probe", "y=0.01,0.8 s=0.05"]
        for snap in sorted((out / "snapshots").iterdir())[:count]:
            args += ["--snapshot", str(snap)]
        assert main(args) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("probe error: ") and "leaves the domain box" in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("args, message", [
        ([], "window [0.004, 0.004] covers 1 retained frames; need at least 2"),
        (["--t0", "0.003", "--t1", "0.005"], "window [0.003, 0.005] covers 1 retained frames; need at least 2"),
        (["--t0", "5", "--t1", "7"], "kernel needs t < s: need t0 < t1 < s, got 5, 7, 0.05"),
    ], ids=["default-window", "window", "window-past-s"])
    def test_one_frame_probe_report_exits_one(self, artifact, capsys, args, message):
        # one snapshot has a row, but no probe report: the report's window needs two frames
        _, cfg_path, out = artifact
        last = sorted((out / "snapshots").iterdir())[-1]
        code = main(["diagnose", "--config", str(cfg_path), "--snapshot", str(last),
                     "--probe", "y=0.8,0.8 s=0.05", *args])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"probe error: {message}"]
        assert len(captured.out.strip().splitlines()) == 2  # the header and the frame's row

    def test_probe_time_not_after_snapshot_exits_one(self, artifact, capsys):
        _, cfg_path, out = artifact
        last = sorted((out / "snapshots").iterdir())[-1]
        code = main(["diagnose", "--config", str(cfg_path), "--snapshot", str(last),
                     "--probe", "y=0.8,0.8 s=0.001"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("probe error: ") and "t < s" in err[0]


class TestLoadTrajectory:
    def test_reads_every_snapshot(self, artifact):
        _, cfg_path, out = artifact
        cfg, _sol, _ = load_experiment(str(cfg_path))
        traj = load_trajectory(str(out), cfg)
        assert len(traj.frames) == len(os.listdir(out / "snapshots")) >= 2
        assert traj.times == sorted(traj.times)

    @pytest.mark.parametrize("name", ["notes.txt", "step_12.afld.bak", "step_x.afld"])
    def test_stray_file_named(self, artifact, tmp_path, name):
        from actx.grid import GridError

        _, cfg_path, out = artifact
        shutil.copytree(out / "snapshots", tmp_path / "snapshots")
        (tmp_path / "snapshots" / name).write_text("not a field\n")
        cfg, _sol, _ = load_experiment(str(cfg_path))
        with pytest.raises(GridError, match=re.escape(name)):
            load_trajectory(str(tmp_path), cfg)


class TestOracleCommand:
    def test_prints_trajectory(self, capsys):
        assert main(["oracle", "--r0", "0.25", "--t-end", "0.01", "--samples", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,radius"
        assert float(lines[-1].split(",")[1]) == pytest.approx(np.sqrt(0.0625 - 0.02), abs=1e-9)

    def test_reports_extinction(self, capsys):
        main(["oracle", "--r0", "0.1", "--t-end", "0.01", "--samples", "3"])
        assert "extinction" in capsys.readouterr().out

    @pytest.mark.parametrize("args, reason", [
        (["--r0", "-1", "--t-end", "0.01"], "initial radius must be positive, got -1.0"),
        (["--r0", "nan", "--t-end", "0.01"], "initial radius must be positive, got nan"),
        (["--r0", "0.25", "--t-end", "0"], "t_end must be positive, got 0.0"),
        (["--r0", "0.25", "--t-end", "0.01", "--samples", "0"], "need at least 2 samples, got 0"),
        (["--r0", "0.25", "--t-end", "0.01", "--samples", "1"], "need at least 2 samples, got 1"),
        (["--r0", "0.25", "--t-end", "0.01", "--n", "1"], "dimension n must be at least 2, got 1"),
    ])
    def test_bad_argument_exits_one(self, capsys, args, reason):
        assert main(["oracle", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"config error: {reason}"] and captured.out == ""


class TestRowsCsv:
    def test_round_trip(self):
        row = DiagnosticsRow(0.1, 1.5, 2.5, -0.25, 0.0, 0.0, 0.2, -1e-5, 1.4, 33.0, 1.0)
        again = DiagnosticsRow.from_csv_line(row.to_csv_line())
        assert again == row


class TestImportFootprint:
    def test_cli_import_loads_neither_scipy_signal_nor_integrate(self):
        # a fresh interpreter: importing the CLI loads numpy and no scipy module,
        # nor a process pool; nor does surface_tension, whose quadrature is
        # numpy's Gauss-Legendre rule
        import subprocess
        import sys

        import actx

        code = (
            "import sys\n"
            "import actx.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent'))))\n"
            "from actx.potential import DoubleWell, surface_tension\n"
            "print(round(surface_tension(DoubleWell.quartic()), 12))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(actx.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out == ["[]", repr(round(4.0 / 3.0, 12)), "[]"]

    def test_sweep_forks_its_workers_and_main_freezes_once(self, tmp_path):
        # a fresh interpreter: a sweep on two workers loads no multiprocessing or
        # concurrent module; main freezes the heap's objects (gc.freeze) once, so a
        # second call freezes nothing more
        import subprocess
        import sys

        import actx

        (tmp_path / "plan.cfg").write_text(
            PLAN.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        code = (
            "import gc, sys\n"
            "import actx.cli\n"
            "assert gc.get_freeze_count() == 0\n"
            "codes = [actx.cli.main(['sweep', '--plan', 'plan.cfg', '--out', 'sweep'])]\n"
            "frozen = gc.get_freeze_count()\n"
            "codes.append(actx.cli.main(['oracle', '--r0', '0.25', '--t-end', '0.01']))\n"
            "print(codes, frozen > 0, gc.get_freeze_count() == frozen)\n"
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(actx.__file__)))
        env = dict(os.environ, ACTX_THREADS="2",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout.splitlines()
        assert out[-2:] == ["[0, 0] True True", "[]"]
        assert sum(line.startswith("run complete:") for line in out) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--plan", "plan.cfg", "--out", "sweep"],
        ["diagnose", "--config", "run.cfg", "--snapshot", "art/snapshots/step_00000010.afld"],
        ["report", "--dir", "art"],
    ], ids=lambda argv: argv[0])
    def test_only_the_offline_commands_load_the_checks(self, tmp_path, argv):
        # a fresh interpreter: neither importing the CLI nor a completed run loads
        # (so compiles) the offline module; an offline command on the run's
        # artifacts imports it
        import subprocess
        import sys

        import actx

        (tmp_path / "run.cfg").write_text(
            CONFIG.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025")
            .replace("diag_every = 50", "diag_every = 10").replace("snap_every = 200", "snap_every = 10"))
        (tmp_path / "plan.cfg").write_text(
            PLAN.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        code = (
            "import sys\n"
            "import actx.cli\n"
            "loaded = ['actx.checks' in sys.modules]\n"
            "codes = [actx.cli.main(['run', '--config', 'run.cfg', '--out', 'art'])]\n"
            "loaded.append('actx.checks' in sys.modules)\n"
            f"codes.append(actx.cli.main({argv!r}))\n"
            "print(codes, loaded + ['actx.checks' in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(actx.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout.splitlines()
        assert out[-1] == "[0, 0] [False, False, True]"

    def test_only_a_forking_invocation_loads_the_process_module(self, tmp_path):
        # fresh interpreters: at ACTX_THREADS=1 neither a small run nor a
        # two-rung sweep forks, so neither loads (compiles) actx.team; at
        # ACTX_THREADS=2 the sweep forks its workers and loads it
        import subprocess
        import sys

        import actx

        (tmp_path / "run.cfg").write_text(CONFIG.replace("T = 0.004", "T = 0.0005")
                                          .replace("tau = 0.002", "tau = 0.00025"))
        (tmp_path / "plan.cfg").write_text(
            PLAN.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        code = (
            "import sys\n"
            "import actx.cli\n"
            "codes, loaded = [], []\n"
            "for argv in sys.argv[1:]:\n"
            "    codes.append(actx.cli.main(argv.split()))\n"
            "    loaded.append('actx.team' in sys.modules)\n"
            "print(codes, loaded)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(actx.__file__)))
        outs = []
        for threads, argvs in (("1", ["run --config run.cfg --out art", "sweep --plan plan.cfg --out s1"]),
                               ("2", ["sweep --plan plan.cfg --out s2"])):
            env = dict(os.environ, ACTX_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            outs.append(subprocess.run([sys.executable, "-c", code, *argvs], cwd=tmp_path, env=env,
                                       capture_output=True, text=True, check=True, timeout=120).stdout.splitlines()[-1])
        assert outs == ["[0, 0] [False, False]", "[0] [True]"]


class TestScripts:
    @pytest.mark.parametrize("script, args", [
        ("shrinking_circle.py", ["--cells", "128", "--out", "{out}"]),
        ("transport_forcing.py", ["--cells", "160", "--t-end", "0.002"]),
        ("epsilon_sweep.py", ["--rungs", "128 160", "--out", "{out}"]),
    ])
    def test_runs_at_its_smallest_size(self, tmp_path, script, args):
        # each script in a fresh interpreter, as run from the command line
        import subprocess
        import sys

        import actx

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(actx.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [a.format(out=tmp_path / "out") for a in args]
        proc = subprocess.run([sys.executable, os.path.join(root, "scripts", script), *argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestBenchmarkApi:
    """The benchmark under ``perfbench/`` drives actx through ``probe.py`` (config
    loading, ``build_initial_phase``, ``Transport.velocity``, ``VectorField`` and
    ``solver.step``'s keywords) and ``spans.install`` (the public functions, and
    ``DoubleWell.eval``, ``EnergyMeasure.from_phase`` and ``Transport.velocity``
    as methods). Each runs here in a fresh interpreter, as the benchmark runs it,
    so a change to what they use fails this test; nothing under ``perfbench/``
    is edited."""

    @staticmethod
    def _python(tmp_path, script, *args):
        import subprocess
        import sys

        import actx

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(actx.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", script), *args],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout

    def test_probe_setup_and_alloc_on_a_pulsed_rk2_plan(self, tmp_path):
        import json

        plan = tmp_path / "plan.cfg"
        plan.write_text(PULSED_PLAN)
        setup = json.loads(self._python(tmp_path, "probe.py", "setup", "sweep", str(plan)))
        assert set(setup) == {"import_s", "load_s", "build_s"}
        alloc = json.loads(self._python(tmp_path, "probe.py", "alloc", "sweep", str(plan), "2"))
        assert alloc["peak_fields"] > 0.0

    def test_spans_install_traces_a_pulsed_rk2_run(self, tmp_path):
        import json

        cfg = tmp_path / "pulsed.cfg"
        cfg.write_text(PULSED_EVERY)
        self._python(tmp_path, "traced_actx.py", "spans.json", "toy", "run", "--config", str(cfg),
                     "--out", str(tmp_path / "out"))
        names = {span[0] for span in json.loads((tmp_path / "spans.json").read_text())["spans"]}
        assert {"import", "cli.main", "solver.run", "solver.step", "solver.row"} <= names
