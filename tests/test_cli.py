import dataclasses
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from chbs import checkpoint, cli, diskfem, graphs, stepper
from chbs.errors import ParseError, UnknownKey
from conftest import printf_blocks, renumbered

TINY = """
mesh_rings = 3
mesh_sectors = 12
t_final = 0.004
h = 0.001
eps = 0.5
"""


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


class TestParseConfig:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = write_config(tmp_path, "potential = regular\n")
        cfg = cli.parse_config(path)
        assert cfg.mesh_rings == 40 and cfg.mesh_sectors == 160
        assert cfg.h == 1e-3
        assert cfg.tau == 0.1 and cfg.sigma == 0.1
        assert cfg.eps == 0.1
        assert cfg.t_final == 0.25

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path,
                            "# full line comment\n\n"
                            "potential = log  # trailing comment\n")
        assert cli.parse_config(path).potential == "log"

    def test_range_error(self, tmp_path):
        path = write_config(tmp_path, "tau = 1.5\n")
        with pytest.raises(ParseError):
            cli.parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "h = 1e-3\nh = 2e-3\n")
        with pytest.raises(ParseError) as info:
            cli.parse_config(path)
        assert info.value.line == 2

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "viscosity = 0.1\n")
        with pytest.raises(UnknownKey):
            cli.parse_config(path)

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, "h = fast\n")
        with pytest.raises(ParseError):
            cli.parse_config(path)

    def test_bad_potential(self, tmp_path):
        path = write_config(tmp_path, "potential = quartic\n")
        with pytest.raises(ParseError):
            cli.parse_config(path)

    @pytest.mark.parametrize("line,message", (
        ("stride = 0", "line 3: value 0 for 'stride' outside [1, inf]"),
        ("potential = foo", "line 3: unknown potential preset 'foo'")),
        ids=("stride-0", "potential-foo"))
    def test_error_names_its_line(self, tmp_path, capsys, line, message):
        path = write_config(tmp_path, "h = 1e-3\n# the next line\n%s\n"
                            "eps = 0.5\n" % line)
        with pytest.raises(ParseError) as info:
            cli.parse_config(path)
        assert info.value.line == 3
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("text", ("inf", "-inf", "nan"))
    @pytest.mark.parametrize("key", [
        k for k, v in vars(cli.RunConfig()).items() if type(v) is float])
    def test_non_finite_float_exit_2(self, tmp_path, capsys, key, text):
        lines = [line for line in TINY.splitlines()
                 if not line.startswith(key + " ")]
        body = "\n".join(lines + ["%s = %s" % (key, text), ""])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_config(tmp_path, body),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line %d: value %s for %r is not finite" \
            % (len(lines) + 1, text, key) in err
        assert not out.exists()


class TestGenerators:
    def test_xorshift_reproducible_and_in_range(self):
        a = cli.xorshift64_uniform(42, 64)
        b = cli.xorshift64_uniform(42, 64)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a < 1.0))
        assert not np.array_equal(a, cli.xorshift64_uniform(43, 64))

    def test_xorshift_update_rule(self):
        # one hand-evaluated update of the 64-bit state
        x = 42
        x ^= (x << 13) & ((1 << 64) - 1)
        x ^= x >> 7
        x ^= (x << 17) & ((1 << 64) - 1)
        assert cli.xorshift64_uniform(42, 1)[0] == x / 2.0 ** 64

    def test_ic_presets(self):
        mesh = diskfem.gen_disk_mesh(3, 12)
        c = cli.build_initial(cli.RunConfig(ic="constant(0.25)"), mesh)
        assert np.all(c == 0.25)
        b = cli.build_initial(cli.RunConfig(ic="radial-bump(0.8, 0.5)"), mesh)
        assert b[0] == pytest.approx(0.8)
        r = np.hypot(*mesh.vertices.T)
        assert np.all(b[r >= 0.5] == 0.0)
        u = cli.build_initial(cli.RunConfig(ic="random(0.3, 7)"), mesh)
        assert np.all(np.abs(u) <= 0.3)
        again = cli.build_initial(cli.RunConfig(ic="random(0.3, 7)"), mesh)
        assert np.array_equal(u, again)

    def test_unknown_ic(self):
        mesh = diskfem.gen_disk_mesh(2, 8)
        with pytest.raises(ParseError):
            cli.build_initial(cli.RunConfig(ic="vortex(1)"), mesh)

    def test_source_presets(self):
        assert cli.build_source("zero", 4) is None
        c = cli.build_source("constant(2.5)", 4)
        assert np.all(c == 2.5)
        ramp = cli.build_source("ramp(3)", 4)
        assert np.all(ramp(0.5) == 1.5)


class TestCmdRun:
    def test_stationary_run_constant_csv(self, tmp_path):
        path = write_config(tmp_path, TINY + "ic = constant(0)\n")
        cfg = cli.parse_config(path)
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"))
        code = cli.execute_run(cfg, echo=lambda *a: None)[0]
        assert code == 0
        lines = (tmp_path / "out" / "run.csv").read_text().strip().split("\n")
        first = lines[1].split(",")
        for row in lines[2:]:
            cells = row.split(",")
            for k in (2, 3, 4, 5, 6, 7, 8):
                assert cells[k] == first[k]

    def test_validation_failure_exit_2(self, tmp_path):
        path = write_config(
            tmp_path, TINY + "potential = obstacle\nic = constant(1)\n"
            + "out_dir = %s\n" % (tmp_path / "out"))
        cfg = cli.parse_config(path)
        assert cli.cmd_run(cfg, echo=lambda *a: None) == 2

    @pytest.mark.parametrize("body", (
        TINY + "source_f = ramp(nan)\n",
        TINY.replace("h = 0.001", "h = 0.003")),
        ids=("nan-callable-source", "partial-last-step"))
    def test_bad_source_or_horizon_exit_2(self, tmp_path, body):
        cfg = cli.parse_config(write_config(tmp_path, body))
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"))
        code, traj = cli.execute_run(cfg, echo=lambda *a: None)
        assert code == 2
        assert traj is None

    def test_guard_strict_vs_warn(self, tmp_path):
        body = ("mesh_rings = 3\nmesh_sectors = 12\n"
                "h = 0.06\nt_final = 0.12\nic = constant(0)\n")
        cfg = cli.parse_config(write_config(tmp_path, body))
        assert cli.execute_run(
            dataclasses.replace(cfg, out_dir=str(tmp_path / "o1")),
            echo=lambda *a: None)[0] == 0
        strict = dataclasses.replace(cfg, strict_guard=True,
                                     out_dir=str(tmp_path / "o2"))
        assert cli.execute_run(strict, echo=lambda *a: None)[0] == 2

    @pytest.mark.parametrize("potential", ("regular", "log"))
    def test_incompatible_pair_warns_or_refuses(self, tmp_path, potential):
        # rho = 0.5 breaks |beta_eps| <= rho |beta_{Gamma,eps rho}| + c0
        path = write_config(tmp_path, TINY + "potential = %s\nrho = 0.5\n"
                            "ic = random(0.3, 3)\n" % potential)
        out = tmp_path / "warn"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[1].startswith("warning: step guard violated: h=0.001, "
                                   "h_max=")
        assert "(compatibility FAIL: worst margin " in lines[1]
        assert lines[-1] == "outside_theory=True"
        out = tmp_path / "strict"
        assert cli.main(["run", "--config", path, "--out", str(out),
                         "--strict-guard"]) == 2
        lines = (out / "summary.txt").read_text().splitlines()
        assert len(lines) == 2
        assert "(compatibility FAIL: " in lines[1]
        assert lines[1].endswith(" [strict]")
        assert not (out / "checkpoints.txt").exists()

    @pytest.mark.parametrize("potential", ("regular", "log"))
    @pytest.mark.parametrize("rho", ("1", "2"))
    def test_compatible_pair_summary_has_no_guard_note(self, tmp_path,
                                                      potential, rho):
        path = write_config(tmp_path, TINY + "potential = %s\nrho = %s\n"
                            "ic = random(0.3, 3)\n" % (potential, rho))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out),
                         "--strict-guard"]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert [line.split("=", 1)[0] for line in lines] == [
            "config potential", "steps", "fallbacks_total",
            "backtracks_total", "outside_theory"]
        assert lines[-1] == "outside_theory=False"

    def test_solver_failure_exit_3_with_partial_outputs(self, tmp_path):
        # the first step needs three Newton iterations
        body = TINY + "ic = random(0.3, 3)\nnewton_max = 1\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        out = tmp_path / "out3"
        code, traj = cli.execute_run(
            dataclasses.replace(cfg, out_dir=str(out)), echo=lambda *a: None)
        assert code == 3
        assert (out / "run.csv").exists()
        # exactly the blocks of the states reached, as %.17g prints them
        assert len(traj.states) == 1
        assert ((out / "checkpoints.txt").read_text()
                == printf_blocks(traj.states))

    def test_interrupt_keeps_rows_summary_and_blocks(self, tmp_path,
                                                     monkeypatch):
        cfg = cli.parse_config(write_config(tmp_path,
                                            TINY + "ic = random(0.3, 7)\n"))
        full = tmp_path / "full"
        assert cli.execute_run(dataclasses.replace(cfg, out_dir=str(full)),
                               echo=lambda *a: None)[0] == 0
        solve = stepper.solve_step

        def interrupted(state, *args, **kwargs):
            if state.n == 2:  # Ctrl-C while solving for step 3
                raise KeyboardInterrupt
            return solve(state, *args, **kwargs)

        monkeypatch.setattr(stepper, "solve_step", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            cli.execute_run(dataclasses.replace(cfg, out_dir=str(out)),
                            echo=lambda *a: None)
        rows = (out / "run.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in rows[1:]] == ["0", "1", "2"]
        assert rows == (full / "run.csv").read_text().splitlines()[:4]
        assert "interrupted at step 2" in \
            (out / "summary.txt").read_text().splitlines()
        text = (out / "checkpoints.txt").read_text()
        assert (full / "checkpoints.txt").read_text().startswith(text)
        assert [s.n for s in stepper.load_states(out / "checkpoints.txt")] \
            == [0, 1, 2]

    def test_crash_keeps_rows_and_names_its_cause(self, tmp_path,
                                                  monkeypatch):
        cfg = cli.parse_config(write_config(tmp_path,
                                            TINY + "ic = random(0.3, 7)\n"))
        full = tmp_path / "full"
        assert cli.execute_run(dataclasses.replace(cfg, out_dir=str(full)),
                               echo=lambda *a: None)[0] == 0
        solve = stepper.solve_step

        def crashing(state, *args, **kwargs):
            if state.n == 2:  # a crash while solving for step 3
                raise RuntimeError("no more memory")
            return solve(state, *args, **kwargs)

        monkeypatch.setattr(stepper, "solve_step", crashing)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="no more memory"):
            cli.execute_run(dataclasses.replace(cfg, out_dir=str(out)),
                            echo=lambda *a: None)
        assert (out / "run.csv").read_text().splitlines() \
            == (full / "run.csv").read_text().splitlines()[:4]
        assert (out / "summary.txt").read_text().splitlines()[-1] \
            == "stopped at step 2: RuntimeError: no more memory"

    def test_streamed_checkpoints_are_printf(self, tmp_path):
        body = TINY + "ic = random(0.3, 7)\nstride = 2\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        out = tmp_path / "out"
        code, traj = cli.execute_run(
            dataclasses.replace(cfg, out_dir=str(out)), echo=lambda *a: None)
        assert code == 0
        assert ((out / "checkpoints.txt").read_text()
                == printf_blocks(traj.states, stride=2))

    def test_unwritable_checkpoint_path_exit_2(self, tmp_path, capfd,
                                               started_processes):
        writers = started_processes
        path = write_config(tmp_path, TINY + "ic = random(0.3, 3)\n")
        out = tmp_path / "out"
        (out / "checkpoints.txt").mkdir(parents=True)
        code = cli.main(["run", "--config", path, "--out", str(out)])
        assert code == 2
        err = capfd.readouterr().err
        assert "file error" in err and "checkpoints.txt" in err
        assert len(writers) == 1
        assert writers[0].returncode not in (None, 0)  # reaped, failed
        # every step ran, so the table is complete and the summary names
        # the writer's failure
        rows = (out / "run.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] \
            == ["0", "1", "2", "3", "4"]
        last = (out / "summary.txt").read_text().splitlines()[-1]
        assert last.startswith("stopped at step 4: OSError: checkpoint "
                               "writer for ")
        assert "checkpoints.txt" in last

    @pytest.mark.parametrize("body,args,writers", (
        (TINY + "potential = obstacle\nic = constant(1)\n", ["run"], 1),
        (TINY + "mesh_file = bad.mesh\n", ["run"], 1),
        (TINY + "mesh_file = bad.mesh\n",
         ["sweep", "--axis", "eps", "--ladder", "0.4,0.2,0.1"], 1),
        (TINY + "mesh_file = bad.mesh\n", ["contdep"], 0),
        (TINY + "mesh_file = bad.mesh\n", ["mesh-info"], 0),
        (TINY, ["sweep", "--axis", "eps", "--ladder", "0.1,0.2,0.4"], 0)),
        ids=("validation-refusal", "mesh-error", "mesh-error-sweep",
             "mesh-error-contdep", "mesh-error-mesh-info", "bad-ladder"))
    def test_refused_command_leaves_no_checkpoints(
            self, tmp_path, capsys, started_processes, body, args, writers):
        # a writer starts before the mesh is built, and must be reaped
        # on every ending; it opens a file only at the file's first block
        bad = tmp_path / "bad.mesh"
        bad.write_text("vertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n"
                       "boundary 3\n0 1 2\n")
        path = write_config(tmp_path, body.replace("bad.mesh", str(bad)))
        args = args + ["--config", path] * (2 if args == ["contdep"] else 1)
        if args[0] in ("run", "sweep"):
            args += ["--out", str(tmp_path / "out")]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        if "mesh_file" in body:
            # every command reports a bad mesh file the same way
            assert captured.out == ""
            assert captured.err == (
                "config error: mesh file %s: non-positively-oriented or "
                "degenerate triangle\n" % bad)
        assert len(started_processes) == writers
        assert all(p.returncode is not None for p in started_processes)
        assert not [files for _, _, files in os.walk(tmp_path)
                    if "checkpoints.txt" in files]

    def test_summary_totals(self, tmp_path):
        body = TINY + "ic = random(0.3, 5)\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        out = tmp_path / "out"
        code, traj = cli.execute_run(
            dataclasses.replace(cfg, out_dir=str(out)), echo=lambda *a: None)
        assert code == 0
        reports = traj.reports[1:]
        want = ("steps=%d newton_iters_total=%d refactors_total=%d "
                "linsolves_total=%d"
                % (len(reports), sum(r.newton_iters for r in reports),
                   sum(r.refactors for r in reports),
                   sum(r.linsolves for r in reports)))
        assert want in (out / "summary.txt").read_text().splitlines()

    def test_summary_counts_backtracks_after_the_totals(self, tmp_path):
        body = TINY + "ic = random(0.3, 5)\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        out = tmp_path / "out"
        code, traj = cli.execute_run(
            dataclasses.replace(cfg, out_dir=str(out)), echo=lambda *a: None)
        assert code == 0
        lines = (out / "summary.txt").read_text().splitlines()
        want = "backtracks_total=%d" % sum(r.backtracks
                                           for r in traj.reports[1:])
        assert lines.index(want) == 1 + next(
            i for i, line in enumerate(lines)
            if line.startswith("fallbacks_total="))

    def test_summary_names_fallbacks_and_newton_matrix(self, tmp_path):
        # the ring mesh keeps its Fourier factor; a renumbered copy of it
        # runs on the exact LU from the first step
        mesh_path = tmp_path / "renumbered.mesh"
        diskfem.save_mesh(renumbered(diskfem.gen_disk_mesh(3, 12))[0],
                          mesh_path)
        for name, extra, want in (
                ("ring", "", "exact_lu_from_step=none"),
                ("renumbered", "mesh_file = %s\n" % mesh_path,
                 "exact_lu_from_step=1")):
            body = TINY + "ic = random(0.3, 5)\n" + extra
            cfg = cli.parse_config(write_config(tmp_path, body))
            out = tmp_path / name
            code, traj = cli.execute_run(
                dataclasses.replace(cfg, out_dir=str(out)),
                echo=lambda *a: None)
            assert code == 0
            fallbacks = sum(r.fallbacks for r in traj.reports[1:])
            assert ("fallbacks_total=%d %s" % (fallbacks, want)
                    in (out / "summary.txt").read_text().splitlines())

    def test_zero_pivot_in_the_fourier_factor_ends_its_path(
            self, tmp_path, monkeypatch):
        # a Fourier factor that meets a zero pivot: the run goes on with
        # the exact LU, from the first step
        def zero_pivot(*args):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(stepper, "_FourierFactor", zero_pivot)
        cfg = cli.parse_config(write_config(tmp_path, TINY))
        out = tmp_path / "out"
        code, traj = cli.execute_run(
            dataclasses.replace(cfg, out_dir=str(out)), echo=lambda *a: None)
        assert code == 0 and traj.ok
        assert all(r.exact_lu for r in traj.reports[1:])
        assert "fallbacks_total=0 exact_lu_from_step=1" in (
            out / "summary.txt").read_text().splitlines()

    def test_summary_names_the_mesh(self, tmp_path):
        mesh_path = tmp_path / "disk.mesh"
        diskfem.save_mesh(diskfem.gen_disk_mesh(3, 12), mesh_path)
        for name, extra, want in (
                ("ring", "", "mesh=3x12"),
                ("file", "mesh_file = %s\n" % mesh_path,
                 "mesh=%s" % mesh_path)):
            cfg = cli.parse_config(write_config(tmp_path, TINY + extra))
            out = tmp_path / name
            code, _ = cli.execute_run(
                dataclasses.replace(cfg, out_dir=str(out)),
                echo=lambda *a: None)
            assert code == 0
            first = (out / "summary.txt").read_text().splitlines()[0]
            assert first.split()[2] == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ("nan", "inf"))
    @pytest.mark.parametrize("command", ("run", "mesh-info"))
    def test_non_finite_vertex_exit_2(self, tmp_path, capsys, command,
                                      value):
        mesh = diskfem.gen_disk_mesh(3, 12)
        mesh.vertices[5, 1] = float(value)
        mesh_path = tmp_path / "disk.mesh"
        diskfem.save_mesh(mesh, mesh_path)
        path = write_config(tmp_path, TINY + "mesh_file = %s\n" % mesh_path)
        code = cli.main([command, "--config", path]
                        + (["--out", str(tmp_path / "out")]
                           if command == "run" else []))
        captured = capsys.readouterr()
        assert code == 2
        printed = captured.out + captured.err
        assert "vertex 5 has a non-finite coordinate" in printed
        assert "Traceback" not in printed

    @pytest.mark.parametrize("text,message", (
        ("vertices 4\n0 0\n1 0\n0 1\n5 5\ntriangles 1\n0 1 2\n"
         "boundary 3\n0 1 2\n", "vertex 3 belongs to no triangle"),
        ("vertices 3\n0 0\n1 0\n0 1\ntriangles 0\nboundary 0\n",
         "mesh has no triangle"),
        ("vertices 0\ntriangles 0\nboundary 0\n", "mesh has no triangle"),
        ("vertices 1\n0 0\ntriangles 1\n0 0 0\nboundary 0\n",
         "non-positively-oriented or degenerate triangle"),
        ("vertices 4\n0 0\n1 0\n-0.5 0.866\n-0.5 -0.866\ntriangles 4\n"
         "0 1 2\n0 2 3\n0 3 1\n0 1 2\nboundary 3\n1 2 3\n",
         "edge 0-1 belongs to more than two triangles")),
        ids=("unused-vertex", "no-triangle", "empty", "degenerate",
             "duplicated-triangle"))
    @pytest.mark.parametrize("command", ("run", "mesh-info"))
    def test_malformed_mesh_file_exit_2(self, tmp_path, capsys, command,
                                        text, message):
        mesh_path = tmp_path / "bad.mesh"
        mesh_path.write_text(text)
        path = write_config(tmp_path, TINY + "mesh_file = %s\n" % mesh_path)
        code = cli.main([command, "--config", path]
                        + (["--out", str(tmp_path / "out")]
                           if command == "run" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "config error: mesh file %s: %s\n" % (
            mesh_path, message)
        assert "Traceback" not in captured.out + captured.err
        assert not [files for _, _, files in os.walk(tmp_path)
                    if "checkpoints.txt" in files]

    @pytest.mark.parametrize("rho,outside", (("1", False), ("0.5", True)))
    def test_run_samples_compatibility_once(self, tmp_path, monkeypatch,
                                            rho, outside):
        calls = []
        check = graphs.check_compatibility

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(graphs, "check_compatibility", counted)
        cfg = cli.parse_config(write_config(
            tmp_path, TINY + "rho = %s\nic = random(0.3, 3)\n" % rho))
        out = tmp_path / "out"
        code, _ = cli.execute_run(dataclasses.replace(cfg, out_dir=str(out)),
                                  echo=lambda *a: None)
        assert code == 0
        assert len(calls) == 1
        assert (out / "summary.txt").read_text().splitlines()[-1] \
            == "outside_theory=%s" % outside

    def test_determinism(self, tmp_path):
        body = TINY + "ic = random(0.2, 11)\nsource_f = ramp(0.5)\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        for run in ("a", "b"):
            cli.execute_run(
                dataclasses.replace(cfg, out_dir=str(tmp_path / run)),
                echo=lambda *a: None)
        a = (tmp_path / "a" / "run.csv").read_bytes()
        b = (tmp_path / "b" / "run.csv").read_bytes()
        assert a == b


class TestCmdSweep:
    @pytest.mark.parametrize("axis,ladder", (("h", [4e-3, 2e-3, 1e-3]),
                                             ("eps", [0.5, 0.25, 0.125]),
                                             ("visc", [0.4, 0.2, 0.1])),
                             ids=("h", "eps", "visc"))
    def test_stationary_ladder_exact(self, tmp_path, axis, ladder):
        body = ("mesh_rings = 3\nmesh_sectors = 12\nic = constant(0)\n"
                "t_final = 0.008\neps = 0.5\n")
        cfg = cli.parse_config(write_config(tmp_path, body))
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep"))
        msgs = []
        code = cli.cmd_sweep(cfg, axis, ladder, echo=msgs.append)
        assert code == 0
        table = (tmp_path / "sweep" / "table.csv").read_text()
        assert "fitted_rate=exact" in table

    @pytest.mark.parametrize("axis,ladder,builds", (
        ("eps", [0.4, 0.2, 0.1], 1), ("h", [4e-3, 2e-3, 1e-3], 3),
        ("visc", [0.4, 0.2, 0.1], 3)), ids=("eps", "h", "visc"))
    def test_members_share_the_step_operator_of_their_values(
            self, tmp_path, monkeypatch, axis, ladder, builds):
        # the step operator depends on h, tau and sigma but not on eps
        layout = stepper._ring_layout
        calls = []

        def counted(mesh, L):
            calls.append(L.shape)
            return layout(mesh, L)

        monkeypatch.setattr(stepper, "_ring_layout", counted)
        cfg = cli.parse_config(write_config(tmp_path, TINY))
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep"))
        assert cli.cmd_sweep(cfg, axis, ladder, echo=lambda *a: None) == 0
        assert len(calls) == builds

    def test_ladder_validation(self, tmp_path, started_processes):
        cfg = cli.parse_config(write_config(tmp_path, TINY))
        out = tmp_path / "sweep"
        cfg = dataclasses.replace(cfg, out_dir=str(out))
        assert cli.cmd_sweep(cfg, "h", [1e-3, 2e-3, 4e-3],
                             echo=lambda *a: None) == 2
        assert cli.cmd_sweep(cfg, "h", [4e-3, 2e-3],
                             echo=lambda *a: None) == 2
        assert cli.cmd_sweep(cfg, "h", [5e-3, 3e-3, 1e-3],
                             echo=lambda *a: None) == 2
        assert cli.cmd_sweep(cfg, "tau", [4e-3, 2e-3, 1e-3],
                             echo=lambda *a: None) == 2
        # NaN compares false, so it must not pass for decreasing
        for ladder in ([math.nan, 0.2, 0.1], [0.4, math.nan, 0.1],
                       [0.4, 0.2, math.nan], [math.inf, 0.2, 0.1]):
            assert cli.cmd_sweep(cfg, "eps", ladder,
                                 echo=lambda *a: None) == 2
        # each member's scheme parameters are checked before any runs:
        # a 0 on the h axis once divided by zero in the nesting check
        for axis, ladder, value, why in (
                ("h", [2e-3, 1e-3, 0.0], "0.0",
                 "time step h must be positive and finite"),
                ("h", [math.inf, 2e-3, 1e-3], "inf",
                 "time step h must be positive and finite"),
                ("eps", [0.2, 0.1, -0.1], "-0.1", "eps must lie in (0, 1]"),
                ("eps", [math.inf, 0.2, 0.1], "inf",
                 "eps must lie in (0, 1]"),
                ("visc", [2.0, 0.2, 0.1], "2.0",
                 "tau must lie in [0, 1]; sigma must lie in [0, 1]"),
                ("h", [4e-3, 3e-3, 1e-3], "0.003",
                 "t_final must be a whole number of steps")):
            msgs = []
            assert cli.cmd_sweep(cfg, axis, ladder, echo=msgs.append) == 2
            assert msgs[0].startswith("ladder value %s: %s" % (value, why))
        assert not out.exists()
        assert not started_processes

    def test_member_failures_recorded(self, tmp_path):
        body = ("mesh_rings = 3\nmesh_sectors = 12\nic = random(0.3, 3)\n"
                "t_final = 0.004\nnewton_max = 1\n")
        cfg = cli.parse_config(write_config(tmp_path, body))
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep"))
        code = cli.cmd_sweep(cfg, "eps", [0.4, 0.2, 0.1],
                             echo=lambda *a: None)
        assert code == 1
        table = (tmp_path / "sweep" / "table.csv").read_text()
        assert table.count(",3,") >= 3  # member status column

    def test_unwritable_member_checkpoints_exit_2(self, tmp_path, capfd,
                                                  monkeypatch,
                                                  started_processes):
        trajs = {}
        run = stepper.run

        def recorded(data, params, ops, hooks=()):
            traj = run(data, params, ops, hooks=hooks)
            trajs[params.eps] = traj
            return traj

        monkeypatch.setattr(stepper, "run", recorded)
        body = TINY + "ic = random(0.3, 3)\nstride = 2\n"
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep"
        # the last member, so that no failure stops the others
        bad = out / "member_02" / "checkpoints.txt"
        bad.mkdir(parents=True)
        code = cli.main(["sweep", "--config", path, "--axis", "eps",
                         "--ladder", "0.4,0.2,0.1", "--out", str(out)])
        assert code == 2
        err = capfd.readouterr().err
        assert "file error: checkpoint writer for %s" % bad in err
        assert len(started_processes) == 1
        last = (bad.parent / "summary.txt").read_text().splitlines()[-1]
        assert last.startswith("stopped at step 4: OSError: checkpoint "
                               "writer for %s: " % bad)
        for i, eps in ((0, 0.4), (1, 0.2)):
            assert trajs[eps].ok
            member = out / ("member_%02d" % i)
            assert ((member / "checkpoints.txt").read_text()
                    == printf_blocks(trajs[eps].states, stride=2))

    def test_failing_member_stops_the_sweep(self, tmp_path, capfd,
                                            started_processes):
        path = write_config(tmp_path, TINY + "ic = random(0.3, 3)\n")
        out = tmp_path / "sweep"
        bad = out / "member_00" / "checkpoints.txt"
        bad.mkdir(parents=True)
        assert cli.main(["sweep", "--config", path, "--axis", "eps",
                         "--ladder", "0.4,0.2,0.1", "--out", str(out)]) == 2
        assert "file error: checkpoint writer for %s" % bad \
            in capfd.readouterr().err
        last = (bad.parent / "summary.txt").read_text().splitlines()[-1]
        assert last.startswith("stopped at step 4: OSError: checkpoint "
                               "writer for %s: " % bad)
        # later members never start
        assert not (out / "member_01").exists()
        assert not (out / "member_02").exists()
        assert not (out / "table.csv").exists()
        assert len(started_processes) == 1

    def test_ctrl_c_stops_the_running_members(self, tmp_path):
        # long enough that the first member does not end before the
        # interrupt
        body = ("mesh_rings = 8\nmesh_sectors = 32\npotential = log\n"
                "t_final = 3\nic = random(0.1, 4)\n")
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep"
        # the handler Python installs unless SIGINT is inherited as ignored
        code = ("import signal, sys; "
                "signal.signal(signal.SIGINT, signal.default_int_handler); "
                "from chbs.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "sweep", "--config", path,
             "--axis", "eps", "--ladder", "0.4,0.2,0.1", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(
                os.path.dirname(cli.__file__))),
            stderr=subprocess.PIPE, text=True)
        member = out / "member_00"
        table = member / "run.csv"
        try:
            while not (table.exists() and table.read_text().count("\n") > 3):
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 130
        finally:
            proc.kill()
            proc.wait()
        with proc.stderr:
            assert "interrupted" in proc.stderr.read()
        last = (member / "summary.txt").read_text().splitlines()[-1]
        assert last.startswith("interrupted at step ")
        k = int(last.rsplit(" ", 1)[1])
        assert k < 3000
        # the interrupt lands between two hooks of one state: the row and
        # the block of state k + 1 may already be out
        rows = [int(row.split(",")[0])
                for row in table.read_text().splitlines()[1:]]
        assert rows in (list(range(k + 1)), list(range(k + 2)))
        # the blocks sent, each one complete
        states = stepper.load_states(member / "checkpoints.txt")
        assert [s.n for s in states] in (list(range(k + 1)),
                                         list(range(k + 2)))
        # later members never start
        assert not (out / "member_01").exists()
        assert not (out / "member_02").exists()
        assert not (out / "table.csv").exists()


class TestCmdContdep:
    def test_identical_configs(self, tmp_path, started_processes):
        path = write_config(tmp_path, TINY + "ic = constant(0)\n")
        cfg = cli.parse_config(path)
        msgs = []
        assert cli.cmd_contdep(cfg, cfg, echo=msgs.append) == 0
        assert any("lhs=0" in m for m in msgs)
        assert not started_processes  # contdep writes no checkpoints

    def test_differing_solver_fields_rejected(self, tmp_path):
        # newton_max = 1 fails the first step: each order must be rejected
        # up front, not run with the first config's solver settings
        a = cli.parse_config(write_config(tmp_path, TINY, "a.cfg"))
        for extra in ("sigma = 0.2\n", "newton_max = 1\n"):
            b = cli.parse_config(write_config(tmp_path, TINY + extra,
                                              "b.cfg"))
            for first, second in ((a, b), (b, a)):
                assert cli.cmd_contdep(first, second,
                                       echo=lambda *a: None) == 2

    def test_strict_guard_refuses_like_run(self, tmp_path, capsys):
        # zero viscosities violate the step guard: both commands refuse
        path = write_config(tmp_path, TINY + "tau = 0\nsigma = 0\n"
                            "strict_guard = true\nic = constant(0)\n")
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", path, "--out", out]) == 2
        assert cli.main(["contdep", "--config", path, "--config", path]) == 2
        printed = capsys.readouterr().out
        assert printed.count("[strict mode: refusing to run]") == 2
        assert "lhs=" not in printed

    def test_strong_checks_reported(self, tmp_path):
        path = write_config(tmp_path, TINY + "strong_checks = true\n"
                            "ic = constant(0)\n")
        cfg = cli.parse_config(path)
        msgs = []
        assert cli.cmd_contdep(cfg, cfg, echo=msgs.append) == 0
        assert sum(m.startswith("strong-check norms:") for m in msgs) == 2

    def test_mean_shift_rejected(self, tmp_path):
        a = cli.parse_config(write_config(
            tmp_path, TINY + "ic = constant(0)\n", "a.cfg"))
        b = cli.parse_config(write_config(
            tmp_path, TINY + "ic = constant(0.2)\n", "b.cfg"))
        assert cli.cmd_contdep(a, b, echo=lambda *a: None) == 2

    def test_mean_mismatch_refused_before_either_run(self, tmp_path,
                                                     monkeypatch):
        a = cli.parse_config(write_config(
            tmp_path, TINY + "ic = random(0.1, 3)\n", "a.cfg"))
        b = cli.parse_config(write_config(
            tmp_path, TINY + "ic = constant(0.2)\n", "b.cfg"))
        calls = []
        run = stepper.run

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(stepper, "run", counted)
        msgs = []
        assert cli.cmd_contdep(a, b, echo=msgs.append) == 2
        assert msgs[-1].startswith("mean mismatch: initial mean gap bulk=")
        assert calls == []


class TestSelftestAndInfo:
    def test_selftest_passes(self):
        assert cli.cmd_selftest(echo=lambda *a: None) == 0

    def test_selftest_catches_wrong_checkpoint_text(self, monkeypatch):
        monkeypatch.setattr(checkpoint, "format_block", lambda n, t, rows: (
            "state %d %.17g\n" % (n, t) + "".join(
                " ".join("%.16g" % v for v in row) + "\n" for row in rows)))
        msgs = []
        assert cli.cmd_selftest(echo=msgs.append) == 1
        assert any("checkpoint-text" in m and "FAIL" in m for m in msgs)

    def test_selftest_catches_a_misplaced_newline(self, monkeypatch):
        # the last value of the first row printed at the start of the next
        block = checkpoint.format_block

        def moved(n, t, rows):
            head, first, rest = block(n, t, rows).split("\n", 2)
            start, end = first.rsplit(" ", 1)
            return "%s\n%s\n%s %s" % (head, start, end, rest)

        monkeypatch.setattr(checkpoint, "format_block", moved)
        msgs = []
        assert cli.cmd_selftest(echo=msgs.append) == 1
        assert any("checkpoint-text" in m and "FAIL" in m for m in msgs)

    def test_selftest_catches_wrong_fourier_solve(self, monkeypatch):
        solve = stepper._FourierFactor.solve
        monkeypatch.setattr(stepper._FourierFactor, "solve",
                            lambda self, v: solve(self, v) * (1.0 + 1e-9))
        msgs = []
        assert cli.cmd_selftest(echo=msgs.append) == 1
        assert any("fourier-solve" in m and "FAIL" in m for m in msgs)

    def test_mesh_info(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, TINY))
        msgs = []
        assert cli.cmd_mesh_info(cfg, echo=msgs.append) == 0
        assert any("vertices" in m for m in msgs)


class TestMain:
    def test_run_via_main(self, tmp_path):
        path = write_config(tmp_path, TINY + "ic = constant(0)\n")
        code = cli.main(["run", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert code == 0

    def test_interrupt_exit_130(self, tmp_path, monkeypatch, capfd):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(stepper, "solve_step", interrupted)
        path = write_config(tmp_path, TINY + "ic = random(0.3, 3)\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 130
        assert "interrupted" in capfd.readouterr().err
        assert "interrupted at step 0" in \
            (out / "summary.txt").read_text().splitlines()
        assert len((out / "run.csv").read_text().splitlines()) == 2

    def test_config_error_exit_2(self, tmp_path):
        path = write_config(tmp_path, "tau = 9\n")
        assert cli.main(["run", "--config", path]) == 2

    def test_mesh_info_via_main(self, tmp_path):
        mesh = diskfem.gen_disk_mesh(2, 8)
        mpath = tmp_path / "m.mesh"
        diskfem.save_mesh(mesh, mpath)
        assert cli.main(["mesh-info", "--mesh-file", str(mpath)]) == 0

    @pytest.mark.parametrize("body,args", (
        (TINY.replace("mesh_rings = 3", "mesh_rings = 0"), ["run"]),
        (TINY.replace("mesh_sectors = 12", "mesh_sectors = 2"), ["run"]),
        (TINY, ["run", "--config", "missing.cfg"]),
        (TINY + "mesh_file = missing.mesh\n", ["run"]),
        (TINY, ["sweep", "--axis", "eps", "--ladder", "0.2,0.1,abc"]),
        (TINY + "ic = constant(1, 2)\n", ["run"]),
        (TINY + "ic = radial-bump(1, 0.5, 3)\n", ["run"]),
        (TINY + "ic = radial-bump(1, -0.5)\n", ["run"]),
        (TINY + "ic = radial-bump(1, 0)\n", ["run"]),
        (TINY + "ic = radial-bump(1, nan)\n", ["run"]),
        (TINY + "ic = random(0.1, 2, 3)\n", ["run"]),
        (TINY + "ic = random(0.1, 2.5)\n", ["run"]),
        (TINY + "ic = random(0.1, nan)\n", ["run"]),
        (TINY + "source_f = zero(1)\n", ["run"]),
        (TINY + "source_f = constant(1, 2)\n", ["run"]),
        (TINY + "source_g = ramp(1, 2)\n", ["run"]),
        (TINY + "newton_max = 0\n", ["run"]),
        (TINY + "newton_max = -3\n", ["run"]),
        (TINY, ["sweep", "--axis", "eps", "--ladder", "nan,0.2,0.1"])),
        ids=("rings-0", "sectors-2", "missing-config", "missing-mesh-file",
             "ladder-not-numeric", "ic-constant-two-args",
             "ic-bump-three-args", "ic-bump-negative-radius",
             "ic-bump-zero-radius", "ic-bump-nan-radius",
             "ic-random-three-args",
             "ic-random-fractional-seed",
             "ic-random-nan-seed", "source-zero-one-arg",
             "source-constant-two-args", "source-ramp-two-args",
             "newton-max-0", "newton-max-negative", "ladder-nan"))
    def test_bad_input_exit_2_with_message(self, tmp_path, capsys, body,
                                           args):
        # "missing" names a file in tmp_path that does not exist
        body = body.replace("missing", str(tmp_path / "missing"))
        path = write_config(tmp_path, body)
        args = [a.replace("missing", str(tmp_path / "missing"))
                for a in args]
        if "--config" not in args:
            args += ["--config", path]
        code = cli.main(args + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out + captured.err).strip()
