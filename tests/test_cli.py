import numpy as np
import pytest

from chbs import cli, diskfem
from chbs.errors import ParseError, UnknownKey

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
        code = cli.execute_run(cfg, out_dir=str(tmp_path / "out"),
                               echo=lambda *a: None)[0]
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
        code, traj = cli.execute_run(cfg, out_dir=str(tmp_path / "out"),
                                     echo=lambda *a: None)
        assert code == 2
        assert traj is None

    def test_guard_strict_vs_warn(self, tmp_path):
        body = ("mesh_rings = 3\nmesh_sectors = 12\n"
                "h = 0.06\nt_final = 0.12\nic = constant(0)\n")
        cfg = cli.parse_config(write_config(tmp_path, body))
        cfg_out = str(tmp_path / "o1")
        assert cli.execute_run(cfg, out_dir=cfg_out,
                               echo=lambda *a: None)[0] == 0
        import dataclasses
        strict = dataclasses.replace(cfg, strict_guard=True)
        assert cli.execute_run(strict, out_dir=str(tmp_path / "o2"),
                               echo=lambda *a: None)[0] == 2

    def test_solver_failure_exit_3_with_partial_outputs(self, tmp_path):
        body = TINY + "ic = random(0.3, 3)\nnewton_max = 0\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        out = tmp_path / "out3"
        code, traj = cli.execute_run(cfg, out_dir=str(out),
                                     echo=lambda *a: None)
        assert code == 3
        assert (out / "run.csv").exists()
        assert (out / "checkpoints.txt").exists()

    def test_summary_totals(self, tmp_path):
        body = TINY + "ic = random(0.3, 5)\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        out = tmp_path / "out"
        code, traj = cli.execute_run(cfg, out_dir=str(out),
                                     echo=lambda *a: None)
        assert code == 0
        reports = traj.reports[1:]
        want = ("steps=%d newton_iters_total=%d refactors_total=%d "
                "linsolves_total=%d"
                % (len(reports), sum(r.newton_iters for r in reports),
                   sum(r.refactors for r in reports),
                   sum(r.linsolves for r in reports)))
        assert want in (out / "summary.txt").read_text().splitlines()

    def test_determinism(self, tmp_path):
        body = TINY + "ic = random(0.2, 11)\nsource_f = ramp(0.5)\n"
        cfg = cli.parse_config(write_config(tmp_path, body))
        cli.execute_run(cfg, out_dir=str(tmp_path / "a"),
                        echo=lambda *a: None)
        cli.execute_run(cfg, out_dir=str(tmp_path / "b"),
                        echo=lambda *a: None)
        a = (tmp_path / "a" / "run.csv").read_bytes()
        b = (tmp_path / "b" / "run.csv").read_bytes()
        assert a == b


class TestCmdSweep:
    def test_stationary_ladder_exact(self, tmp_path):
        body = ("mesh_rings = 3\nmesh_sectors = 12\nic = constant(0)\n"
                "t_final = 0.008\neps = 0.5\n")
        cfg = cli.parse_config(write_config(tmp_path, body))
        import dataclasses
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep"))
        msgs = []
        code = cli.cmd_sweep(cfg, "h", [4e-3, 2e-3, 1e-3],
                             echo=msgs.append)
        assert code == 0
        table = (tmp_path / "sweep" / "table.csv").read_text()
        assert "fitted_rate=exact" in table

    def test_ladder_validation(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, TINY))
        assert cli.cmd_sweep(cfg, "h", [1e-3, 2e-3, 4e-3],
                             echo=lambda *a: None) == 2
        assert cli.cmd_sweep(cfg, "h", [4e-3, 2e-3],
                             echo=lambda *a: None) == 2
        assert cli.cmd_sweep(cfg, "h", [5e-3, 3e-3, 1e-3],
                             echo=lambda *a: None) == 2

    def test_member_failures_recorded(self, tmp_path):
        body = ("mesh_rings = 3\nmesh_sectors = 12\nic = random(0.3, 3)\n"
                "t_final = 0.004\nnewton_max = 0\n")
        cfg = cli.parse_config(write_config(tmp_path, body))
        import dataclasses
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep"))
        code = cli.cmd_sweep(cfg, "eps", [0.4, 0.2, 0.1],
                             echo=lambda *a: None)
        assert code == 1
        table = (tmp_path / "sweep" / "table.csv").read_text()
        assert table.count(",3,") >= 3  # member status column


class TestCmdContdep:
    def test_identical_configs(self, tmp_path):
        path = write_config(tmp_path, TINY + "ic = constant(0)\n")
        cfg = cli.parse_config(path)
        msgs = []
        assert cli.cmd_contdep(cfg, cfg, echo=msgs.append) == 0
        assert any("lhs=0" in m for m in msgs)

    def test_differing_solver_fields_rejected(self, tmp_path):
        a = cli.parse_config(write_config(tmp_path, TINY, "a.cfg"))
        b = cli.parse_config(write_config(tmp_path,
                                          TINY + "sigma = 0.2\n", "b.cfg"))
        assert cli.cmd_contdep(a, b, echo=lambda *a: None) == 2

    def test_mean_shift_rejected(self, tmp_path):
        a = cli.parse_config(write_config(
            tmp_path, TINY + "ic = constant(0)\n", "a.cfg"))
        b = cli.parse_config(write_config(
            tmp_path, TINY + "ic = constant(0.2)\n", "b.cfg"))
        assert cli.cmd_contdep(a, b, echo=lambda *a: None) == 2


class TestSelftestAndInfo:
    def test_selftest_passes(self):
        assert cli.cmd_selftest(echo=lambda *a: None) == 0

    def test_selftest_corrupted_mesh(self, tmp_path):
        bad = tmp_path / "bad.mesh"
        bad.write_text("vertices 1\n0 0\ntriangles 1\n0 0 0\nboundary 0\n")
        msgs = []
        assert cli.cmd_selftest(mesh_file=str(bad), echo=msgs.append) == 1
        assert any("diskfem" in m and "FAIL" in m for m in msgs)

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

    def test_config_error_exit_2(self, tmp_path):
        path = write_config(tmp_path, "tau = 9\n")
        assert cli.main(["run", "--config", path]) == 2

    def test_mesh_info_via_main(self, tmp_path):
        mesh = diskfem.gen_disk_mesh(2, 8)
        mpath = tmp_path / "m.mesh"
        diskfem.save_mesh(mesh, mpath)
        assert cli.main(["mesh-info", "--mesh-file", str(mpath)]) == 0
