"""Cross-module properties: concurrency, closed forms, edge times."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chbs import cli, diagnostics, diskfem, graphs, stepper


def test_perturbation_is_exactly_lipschitz(rng):
    pi = graphs.Perturbation(-3.0, 1.0)
    assert pi.lipschitz == 3.0
    r = rng.uniform(-5, 5, 100)
    s = rng.uniform(-5, 5, 100)
    assert np.allclose(np.abs(pi(r) - pi(s)), 3.0 * np.abs(r - s))


def test_pair_constructor_validation():
    g = graphs.regular_graph()
    p = graphs.Perturbation(-1.0)
    with pytest.raises(ValueError):
        graphs.PotentialPair("bad", g, p, g, p, rho=0.0)
    with pytest.raises(ValueError):
        graphs.PotentialPair("bad", g, p, g, p, c0=-1.0)
    with pytest.raises(ValueError):
        graphs.PotentialPair("bad", graphs.log_graph(), p, g, p)


def test_interpolants_at_final_time(tiny_ops):
    pair = graphs.preset_pair("regular")
    params = stepper.SchemeParams(h=1e-3, t_final=3e-3, tau=0.1, sigma=0.1,
                                  eps=0.5)
    gen = np.random.default_rng(2)
    data = stepper.problem_data(
        tiny_ops, 0.1 * gen.uniform(-1, 1, tiny_ops.mesh.n_bulk), pair)
    traj = stepper.run(data, params, tiny_ops)
    vals = stepper.interpolants(traj, params.t_final)
    assert np.allclose(vals["hat"]["phi"], traj.states[-1].phi, atol=1e-13)
    assert np.array_equal(vals["bar"]["mu"], traj.states[-1].mu)


def test_cauchy_boundary_metrics_cover_trace(tiny_ops):
    pair = graphs.preset_pair("regular")
    gen = np.random.default_rng(3)
    phi0 = 0.2 * gen.uniform(-1, 1, tiny_ops.mesh.n_bulk)
    data = stepper.problem_data(tiny_ops, phi0, pair)
    pA = stepper.SchemeParams(h=2e-3, t_final=8e-3, tau=0.1, sigma=0.1,
                              eps=0.5)
    pB = stepper.SchemeParams(h=1e-3, t_final=8e-3, tau=0.1, sigma=0.1,
                              eps=0.5)
    tA = stepper.run(data, pA, tiny_ops)
    tB = stepper.run(data, pB, tiny_ops)
    rep = diagnostics.cauchy_distance(tA, tB, tiny_ops)
    assert rep.c_h > 0.0
    assert rep.c_h_bdry > 0.0
    assert rep.l2v_bdry > 0.0


def test_cont_dep_frozen_pair_closed_form(tiny_ops):
    # time-constant differences make every metric term a closed form
    pair = graphs.preset_pair("regular")
    x = tiny_ops.mesh.vertices[:, 0]
    d = 1e-2 * (x - diskfem.mean(tiny_ops.bulk, x))
    phiA = np.zeros(tiny_ops.mesh.n_bulk)
    params = stepper.SchemeParams(h=1e-3, t_final=5e-3, tau=0.1, sigma=0.1,
                                  eps=0.5)

    def frozen(phi):
        states = [stepper.SchemeState(
            k, k * params.h, phi.copy(), np.zeros_like(phi),
            diskfem.trace(tiny_ops, phi), np.zeros(tiny_ops.mesh.n_bdry))
            for k in range(6)]
        return stepper.Trajectory(states, [None] * 6, params)

    dataA = stepper.problem_data(tiny_ops, phiA, pair)
    dataB = stepper.problem_data(tiny_ops, phiA + d, pair)
    rep = diagnostics.cont_dep(frozen(phiA), frozen(phiA + d),
                               dataA, dataB, tiny_ops)
    T = params.t_final
    dual_b = diskfem.dual_norm(tiny_ops.bulk, d)
    dual_g = diskfem.dual_norm(tiny_ops.bdry, d[tiny_ops.mesh.boundary_loop])
    h1_b = diskfem.norms(tiny_ops.bulk, d)["h1"]
    h1_g = diskfem.norms(tiny_ops.bdry, d[tiny_ops.mesh.boundary_loop])["h1"]
    want = dual_b + dual_g + math.sqrt(T) * h1_b + math.sqrt(T) * h1_g
    assert rep.lhs == pytest.approx(want, rel=1e-12)
    assert rep.rhs == pytest.approx(dual_b + dual_g, rel=1e-12)


def test_concurrent_runs_match_sequential(tiny_ops):
    # distinct runs share the immutable operators; threaded execution
    # must reproduce the sequential trajectories bitwise
    pair = graphs.preset_pair("regular")
    params = stepper.SchemeParams(h=1e-3, t_final=5e-3, tau=0.1, sigma=0.1,
                                  eps=0.5)

    def one(seed):
        gen = np.random.default_rng(seed)
        phi0 = 0.2 * gen.uniform(-1, 1, tiny_ops.mesh.n_bulk)
        data = stepper.problem_data(tiny_ops, phi0, pair)
        return stepper.run(data, params, tiny_ops)

    sequential = [one(seed) for seed in (1, 2, 3, 4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(one, (1, 2, 3, 4)))
    for a, b in zip(sequential, threaded):
        assert a.ok and b.ok
        assert np.array_equal(a.states[-1].phi, b.states[-1].phi)
        assert np.array_equal(a.states[-1].w, b.states[-1].w)


def test_sweep_workers_match_serial(tmp_path, started_processes):
    body = ("mesh_rings = 3\nmesh_sectors = 12\nic = random(0.2, 4)\n"
            "t_final = 0.004\neps = 0.5\n")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(body)
    import dataclasses
    cfg = cli.parse_config(str(cfg_path))
    serial = dataclasses.replace(cfg, out_dir=str(tmp_path / "serial"))
    parallel = dataclasses.replace(cfg, out_dir=str(tmp_path / "par"))
    assert cli.cmd_sweep(serial, "eps", [0.4, 0.2, 0.1],
                         echo=lambda *a: None) == 0
    assert len(started_processes) == 1
    assert cli.cmd_sweep(parallel, "eps", [0.4, 0.2, 0.1], workers=3,
                         echo=lambda *a: None) == 0
    assert len(started_processes) == 2  # one writer per sweep
    a = (tmp_path / "serial" / "table.csv").read_text()
    b = (tmp_path / "par" / "table.csv").read_text()
    assert a == b
    # each member's files were written from a pool thread, the
    # checkpoints by the sweep's one writer process, their blocks
    # interleaved on its pipe
    for member in ("member_00", "member_01", "member_02"):
        for name in ("checkpoints.txt", "run.csv", "summary.txt"):
            a = (tmp_path / "serial" / member / name).read_bytes()
            b = (tmp_path / "par" / member / name).read_bytes()
            assert a == b, (member, name)


def test_log_pair_survives_wall_proximity(tiny_ops):
    # nodal values close to the domain walls stress the inner root solves
    pair = graphs.preset_pair("log")
    gen = np.random.default_rng(8)
    phi0 = 0.97 * gen.uniform(-1, 1, tiny_ops.mesh.n_bulk)
    params = stepper.SchemeParams(h=1e-3, t_final=0.02, tau=0.1, sigma=0.1,
                                  eps=0.05)
    data = stepper.problem_data(tiny_ops, phi0, pair)
    assert stepper.validate(data, params, tiny_ops).ok
    traj = stepper.run(data, params, tiny_ops)
    assert traj.ok
    worst = max(float(np.abs(s.phi).max()) for s in traj.states)
    assert worst < 1.0  # log dynamics cannot cross the walls


def test_checkpoint_loader_rejects_garbage(tmp_path):
    from chbs.errors import ParseError
    path = tmp_path / "bad.txt"
    path.write_text("state 0 zero\n1 2\n3 4\n5 6\n7 8\n")
    with pytest.raises(ParseError):
        stepper.load_states(str(path))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(rings=st.integers(2, 4), sectors=st.integers(8, 16),
       kind=st.sampled_from(("regular", "log", "obstacle")),
       eps=st.floats(0.05, 1.0), guard_share=st.floats(0.05, 0.95),
       amp=st.floats(0.05, 0.9), seed=st.integers(0, 2 ** 16))
def test_steps_conserve_means_and_dissipate(rings, sectors, kind, eps,
                                            guard_share, amp, seed):
    # source-free steps inside the step guard: the augmented means stay
    # put on both sides and the Lyapunov value does not rise
    ops = diskfem.assemble(diskfem.gen_disk_mesh(rings, sectors))
    pair = graphs.preset_pair(kind)
    probe = stepper.SchemeParams(h=1.0, t_final=1.0, eps=eps)
    h = guard_share * stepper.step_guard(probe, pair).h_max
    params = stepper.SchemeParams(h=h, t_final=4 * h, eps=eps)
    gen = np.random.default_rng(seed)
    phi0 = amp * gen.uniform(-1.0, 1.0, ops.mesh.n_bulk)
    data = stepper.problem_data(ops, phi0, pair)
    assert stepper.validate(data, params, ops).ok
    traj = stepper.run(data, params, ops)
    assert traj.ok
    aug = [(diskfem.mean(ops.bulk, s.phi + h * s.mu),
            diskfem.mean(ops.bdry, s.psi + h * s.w)) for s in traj.states]
    assert np.abs(np.array(aug) - aug[0]).max() <= 1e-13
    lyap = [diagnostics.lyapunov(s, pair, eps, h, ops) for s in traj.states]
    assert max(b - a for a, b in zip(lyap, lyap[1:])) <= 1e-10
