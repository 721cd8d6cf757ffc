"""Command-line orchestration: exit codes, artifacts, reports, sweeps."""

import os
import re

import numpy as np
import pytest

from actx.cli import _parse_manifest, emit_report, load_experiment, load_trajectory, main, read_rows
from actx.measures import DiagnosticsRow

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
    def test_missing_required_key(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG.replace("epsilon = 0.1\n", ""))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "'epsilon'" in capsys.readouterr().err

    def test_unknown_key_cites_line(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus = 1\n" + CONFIG)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "bogus" in err

    def test_exponent_violation_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG.replace("p = 2\n", "p = 0.7\n").replace("q = 4\n", "q = 3\n"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "exponent condition" in capsys.readouterr().err

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
        meta, files, _ = _parse_manifest(str(out / "run-manifest"))
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


class TestReportCommand:
    def test_clean_run_accepts_8_of_8(self, artifact, capsys):
        _, _, out = artifact
        assert main(["report", "--dir", str(out)]) == 0
        assert "ACCEPT 8/8" in capsys.readouterr().out

    def test_nan_injection_caught_with_row(self, artifact, tmp_path):
        _, _, out = artifact
        victim = tmp_path / "tampered"
        victim.mkdir()
        import shutil

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
        import actx.cli

        run_rung = actx.cli._run_rung

        def run_then_truncate(job):
            code = run_rung(job)
            snap = sorted(os.listdir(os.path.join(job[1], "snapshots")))[-1]
            path = os.path.join(job[1], "snapshots", snap)
            with open(path, "rb") as fh:
                head = fh.read(2000)
            with open(path, "wb") as fh:
                fh.write(head)
            return code

        monkeypatch.setattr(actx.cli, "_run_rung", run_then_truncate)
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("T = 0.004", "T = 0.0005").replace("tau = 0.002", "tau = 0.00025"))
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "rung_0128" in err[0] and "truncated payload" in err[0]

    def test_plan_needs_two_rungs(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN.replace("rungs = 128 192", "rungs = 128"))
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "s")]) == 1

    def test_parallel_rungs_match_serial(self, tmp_path, monkeypatch):
        plan = tmp_path / "plan.cfg"
        plan.write_text(PLAN)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["sweep", "--plan", str(plan), "--out", str(serial)]) == 0
        monkeypatch.setenv("ACTX_THREADS", "2")
        assert main(["sweep", "--plan", str(plan), "--out", str(parallel)]) == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
        for rung in ("rung_0128", "rung_0192"):
            assert (serial / rung / "diagnostics.csv").read_bytes() == (
                parallel / rung / "diagnostics.csv"
            ).read_bytes()


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

    def test_corrupt_snapshot_exits_one(self, artifact, tmp_path, capsys):
        _, cfg_path, out = artifact
        bad = tmp_path / "bad.afld"
        bad.write_bytes(sorted((out / "snapshots").iterdir())[0].read_bytes()[:2000])
        assert main(["diagnose", "--config", str(cfg_path), "--snapshot", str(bad)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(bad) in err[0] and "truncated payload" in err[0]


class TestLoadTrajectory:
    def test_reads_every_snapshot(self, artifact):
        _, cfg_path, out = artifact
        cfg, _sol, _ = load_experiment(str(cfg_path))
        traj = load_trajectory(str(out), cfg)
        assert len(traj.frames) == len(os.listdir(out / "snapshots")) >= 2
        assert traj.times == sorted(traj.times)

    @pytest.mark.parametrize("name", ["notes.txt", "step_12.afld.bak", "step_x.afld"])
    def test_stray_file_named(self, artifact, tmp_path, name):
        import shutil

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


class TestRowsCsv:
    def test_round_trip(self):
        row = DiagnosticsRow(0.1, 1.5, 2.5, -0.25, 0.0, 0.0, 0.2, -1e-5, 1.4, 33.0, 1.0)
        again = DiagnosticsRow.from_csv_line(row.to_csv_line())
        assert again == row
