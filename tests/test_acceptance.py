"""Desk-scale acceptance suite.

Each test realizes one acceptance criterion at its stated tolerance and
prints a single pass line (run with ``pytest -s`` to see them).  The
heavy runs share the session mesh fixture; individual criteria pin their
own time horizons and potentials.
"""

import numpy as np

from chbs import cli, diagnostics, diskfem, graphs, reference, stepper

DESK = dict(h=1e-3, t_final=0.25, tau=0.1, sigma=0.1, eps=0.1)

_RUN_CACHE = {}


def cached_run(ops, data_key, data, params):
    key = (data_key, params.h, params.t_final, params.tau, params.sigma,
           params.eps)
    if key not in _RUN_CACHE:
        traj = stepper.run(data, params, ops)
        assert traj.ok, "solver failed for %s" % (key,)
        _RUN_CACHE[key] = traj
    return _RUN_CACHE[key]


def bump_data(ops, pair):
    phi0 = cli.build_initial(cli.RunConfig(ic="radial-bump(0.5, 0.6)"),
                             ops.mesh)
    return stepper.problem_data(ops, phi0, pair)


def report(line):
    print("\n[PASS] " + line)


def test_criterion_01_graph_suite():
    eps_grid = (0.5, 0.1, 0.02)
    n_pts = 10 ** 4
    for kind in ("regular", "log", "obstacle"):
        pair = graphs.preset_pair(kind)
        g = pair.bulk
        span = 1.2 if kind == "log" else 3.0
        pts = np.linspace(-span, span, n_pts)
        if kind == "regular":
            dom = np.linspace(-3.0, 3.0, n_pts)
        else:
            dom = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, n_pts)
        prim_dom = g.primitive(dom)
        min_sec = np.abs([graphs.minimal_section(g, float(r)) for r in dom])
        for eps in eps_grid:
            assert graphs.yosida_bulk(g, eps, 0.0) == 0.0
            assert graphs.yosida_boundary(g, eps, pair.rho, 0.0) == 0.0
            # pointwise bounds of the regularization, zero violations
            assert np.all(np.abs(graphs.yosida_bulk(g, eps, dom))
                          <= min_sec + 1e-12)
            assert np.all(np.abs(graphs.yosida_boundary(g, eps, 1.5, dom))
                          <= min_sec + 1e-12)
            env = graphs.moreau_envelope(g, eps, dom)
            assert np.all(env >= 0.0)
            assert np.all(env <= prim_dom + 1e-12)
            env_all = graphs.moreau_envelope(g, eps, pts)
            assert np.all(env_all >= 0.0)
            # compatibility margin for the shipped pair
            rep = graphs.check_compatibility(pair, eps, 2001)
            assert rep.ok, str(rep)
            # resolvent against the independent bisection oracle
            j = graphs.resolvent(g, eps, pts)
            worst = 0.0
            for r, ji in zip(pts, j):
                worst = max(worst, abs(
                    ji - reference.resolvent_bisect(g, eps, float(r))))
            assert worst < 1e-10
    mixed = graphs.mixed_pair("regular", "obstacle")
    for eps in eps_grid:
        assert graphs.check_compatibility(mixed, eps, 2001).ok
    report("criterion 1: graph suite on 1e4 points x 3 eps, "
           "all bounds hold, oracle gap < 1e-10")


def test_criterion_02_mass_conservation(desk_ops):
    ops = desk_ops
    pair = graphs.preset_pair("regular")
    phi0 = cli.build_initial(cli.RunConfig(ic="random(0.3, 42)"), ops.mesh)
    f = cli.build_source("ramp(0.2)", ops.mesh.n_bulk)
    g = cli.build_source("constant(0.05)", ops.mesh.n_bdry)
    data = stepper.problem_data(ops, phi0, pair, f=f, g=g)
    params = stepper.SchemeParams(**DESK)
    traj = cached_run(ops, "random-sourced", data, params)
    m0 = diskfem.mean(ops.bulk, traj.states[0].phi)
    mg0 = diskfem.mean(ops.bdry, traj.states[0].psi)
    drift_b = max(abs(diskfem.mean(ops.bulk, s.phi + params.h * s.mu) - m0)
                  for s in traj.states)
    drift_g = max(abs(diskfem.mean(ops.bdry, s.psi + params.h * s.w) - mg0)
                  for s in traj.states)
    assert drift_b <= 1e-9
    assert drift_g <= 1e-9
    report("criterion 2: augmented mass drift bulk %.2e, boundary %.2e "
           "over %d steps with sources" % (drift_b, drift_g,
                                           len(traj.states) - 1))


def test_criterion_03_energy_dissipation(desk_ops):
    ops = desk_ops
    pair = graphs.preset_pair("regular")
    phi0 = cli.build_initial(cli.RunConfig(ic="random(0.3, 42)"), ops.mesh)
    data = stepper.problem_data(ops, phi0, pair)
    params = stepper.SchemeParams(**DESK)
    guard = stepper.step_guard(params, pair)
    assert params.h * pair.lipschitz_bulk <= 2 * params.tau
    assert guard.ok
    traj = cached_run(ops, "random-free", data, params)
    assert len(traj.states) - 1 >= 250
    vals = [diagnostics.lyapunov(s, pair, params.eps, params.h, ops)
            for s in traj.states]
    worst = max(b - a for a, b in zip(vals, vals[1:]))
    assert worst <= 1e-10
    report("criterion 3: Lyapunov nonincreasing over %d steps, worst "
           "increment %.2e" % (len(vals) - 1, worst))


def test_criterion_04_interpolant_identity(tiny_ops):
    pair = graphs.preset_pair("regular")
    gen = np.random.default_rng(9)
    phi0 = 0.2 * gen.uniform(-1.0, 1.0, tiny_ops.mesh.n_bulk)
    data = stepper.problem_data(tiny_ops, phi0, pair)
    params = stepper.SchemeParams(h=1e-3, t_final=0.02, tau=0.1, sigma=0.1,
                                  eps=0.5)
    traj = stepper.run(data, params, tiny_ops)
    assert traj.ok
    lhs, rhs = diagnostics.interpolant_gap_identity(traj, tiny_ops)
    rel = abs(lhs - rhs) / rhs
    assert rel <= 1e-12
    report("criterion 4: interpolant gap identity relative deviation "
           "%.2e" % rel)


def test_criterion_05_tiny_mesh_oracle(tiny_ops):
    params = stepper.SchemeParams(h=1e-3, t_final=1e-3, tau=0.1, sigma=0.1,
                                  eps=0.5)
    gaps = {}
    for kind in ("regular", "log", "obstacle"):
        pair = graphs.preset_pair(kind)
        gen = np.random.default_rng(7)
        phi0 = 0.1 * gen.uniform(-1.0, 1.0, tiny_ops.mesh.n_bulk)
        data = stepper.problem_data(tiny_ops, phi0, pair)
        state = stepper.initial_state(data, tiny_ops)
        fn = np.zeros(tiny_ops.mesh.n_bulk)
        gn = np.zeros(tiny_ops.mesh.n_bdry)
        new, _ = stepper.solve_step(state, data, params, tiny_ops,
                                    fn=fn, gn=gn)
        phi_o, mu_o, w_o = reference.fixed_point_step(
            state, data, params, tiny_ops, fn, gn)
        gap = max(np.abs(new.phi - phi_o).max(),
                  np.abs(new.mu - mu_o).max(),
                  np.abs(new.w - w_o).max())
        assert gap <= 1e-8, kind
        gaps[kind] = gap
    report("criterion 5: dense fixed-point oracle gaps " +
           ", ".join("%s %.1e" % kv for kv in gaps.items()))


def test_criterion_06_h_convergence(desk_ops):
    ops = desk_ops
    pair = graphs.preset_pair("regular")
    data = bump_data(ops, pair)
    trajs = {}
    for h in (4e-3, 2e-3, 1e-3):
        params = stepper.SchemeParams(h=h, t_final=0.24, tau=0.2, sigma=0.2,
                                      eps=0.1)
        trajs[h] = cached_run(ops, "bump-free", data, params)
    d1 = diagnostics.cauchy_distance(trajs[4e-3], trajs[2e-3], ops)
    d2 = diagnostics.cauchy_distance(trajs[2e-3], trajs[1e-3], ops)
    contraction = d1.c_h / d2.c_h
    assert contraction >= 1.5
    assert d1.l2v / d2.l2v >= 1.5
    report("criterion 6: step-halving contraction %.3f (sup) / %.3f "
           "(integral)" % (contraction, d1.l2v / d2.l2v))


# the flat reaction the obstacle supplies on the caps of the criterion-7
# data
XI0 = 1.0


def pinned_obstacle_data(ops, pair):
    """Criterion-7 data: ``(phi_dag, f, g)``, a profile pinned at the
    obstacle on both caps with a smooth odd bridge, and constant-in-time
    loads that freeze it except for the flat reaction ``XI0`` the
    obstacle must supply on the caps."""
    xy = ops.mesh.vertices
    x = xy[:, 0]
    W = 0.2
    phi_dag = np.where(x >= W, 1.0,
                       np.where(x <= -W, -1.0, np.sin(0.5 * np.pi * x / W)))
    psi_dag = phi_dag[ops.mesh.boundary_loop]
    xi = np.where(x >= W, XI0, np.where(x <= -W, -XI0, 0.0))
    xb = xy[ops.mesh.boundary_loop, 0]
    xi_g = np.where(xb >= W, XI0, np.where(xb <= -W, -XI0, 0.0))
    fvec = xi + pair.bulk_pi(phi_dag) \
        + ops.bulk.solver("mass").solve(ops.bulk.K @ phi_dag)
    from scipy.sparse.linalg import splu
    gvec = xi_g + pair.boundary_pi(psi_dag) \
        + splu(ops.bdry.M.tocsc()).solve(ops.bdry.K @ psi_dag)
    return phi_dag, fvec, gvec


def relaxation_runs(ops, eps_ladder):
    """The criterion-7 data run to t = 0.25 at each eps of the ladder:
    the obstacle violation, the a-priori monitor's maximum, and the
    Newton iterations/factorizations, per eps."""
    pair = graphs.preset_pair("obstacle")  # c2 = 1
    phi_dag, fvec, gvec = pinned_obstacle_data(ops, pair)
    viols = []
    monitor_max = []
    counts = []
    for eps in eps_ladder:
        params = stepper.SchemeParams(h=1e-3, t_final=0.25, tau=0.1,
                                      sigma=0.1, eps=eps)
        data = stepper.problem_data(ops, phi_dag, pair, f=fvec, g=gvec)
        assert stepper.validate(data, params, ops).ok
        traj = stepper.run(data, params, ops)
        assert traj.ok
        counts.append("eps %g: %d/%d" % (
            eps, sum(r.newton_iters for r in traj.reports[1:]),
            sum(r.refactors for r in traj.reports[1:])))
        viols.append(diagnostics.obstacle_violation(traj).max)
        monitor_max.append(
            diagnostics.apriori_monitor(traj, pair, params, ops).max_value())
    return viols, monitor_max, counts


def test_criterion_07_eps_relaxation(desk_ops):
    viols, monitor_max, counts = relaxation_runs(desk_ops,
                                                 (0.4, 0.2, 0.1, 0.05))
    assert all(b < a for a, b in zip(viols, viols[1:])), viols
    assert viols[-1] <= viols[0] / 4.0
    spread = max(monitor_max) / min(monitor_max)
    assert spread <= 2.0
    report("criterion 7: violations %s, decay factor %.2f, monitor spread "
           "%.2f; Newton iterations/factorizations %s"
           % (["%.4f" % v for v in viols], viols[0] / viols[-1], spread,
              ", ".join(counts)))


def test_regularization_limit_rate(desk_ops):
    # On the caps the Yosida graph holds phi at 1 + eps XI0 to first
    # order, so violation / eps tends to XI0 as eps falls (measured
    # 1.041, 1.020, 1.010).  A regularization off by 20% (1.2 eps in the
    # Yosida map) reads 1.21-1.26
    eps_ladder = (0.02, 0.01, 0.005)
    viols, monitor_max, counts = relaxation_runs(desk_ops, eps_ladder)
    ratios = [v / eps for v, eps in zip(viols, eps_ladder)]
    assert all(abs(r - XI0) <= 0.1 * XI0 for r in ratios), ratios
    gaps = [abs(r - XI0) for r in ratios]
    assert all(b <= a for a, b in zip(gaps, gaps[1:])), ratios
    spread = max(monitor_max) / min(monitor_max)
    assert spread <= 2.0
    report("regularization limit: violation/eps %s against xi0 = %g, "
           "monitor spread %.2f; Newton iterations/factorizations %s"
           % (["%.4f" % r for r in ratios], XI0, spread, ", ".join(counts)))


def test_criterion_08_continuous_dependence(desk_ops):
    ops = desk_ops
    pair = graphs.preset_pair("regular")
    base = bump_data(ops, pair)
    params = stepper.SchemeParams(**DESK)
    traj_base = cached_run(ops, "bump-free", base, params)
    x = ops.mesh.vertices[:, 0]
    ratios = []
    for delta in (1e-1, 1e-2, 1e-3):
        pert = stepper.problem_data(ops, base.phi0 + delta * x, pair)
        traj_pert = cached_run(ops, ("bump-pert", delta), pert, params)
        rep = diagnostics.cont_dep(traj_base, traj_pert, base, pert, ops)
        assert rep.lhs <= 1e3 * rep.rhs
        ratios.append(rep.ratio)
    spread = max(ratios) / min(ratios)
    assert spread <= 2.0
    report("criterion 8: stability ratios %s, spread %.3f"
           % (["%.3f" % r for r in ratios], spread))


def test_criterion_09_viscous_limit(desk_ops):
    ops = desk_ops
    pair = graphs.preset_pair("regular")
    data = bump_data(ops, pair)
    trajs = []
    for v in (0.2, 0.1, 0.05):
        params = stepper.SchemeParams(h=1e-3, t_final=0.25, tau=v, sigma=v,
                                      eps=0.1)
        trajs.append(cached_run(ops, "bump-free", data, params))
    d1 = diagnostics.cauchy_distance(trajs[0], trajs[1], ops)
    d2 = diagnostics.cauchy_distance(trajs[1], trajs[2], ops)
    assert d2.c_h < d1.c_h
    assert d2.l2v < d1.l2v
    report("criterion 9: viscosity-halving distances %.4g -> %.4g (sup), "
           "%.4g -> %.4g (integral)" % (d1.c_h, d2.c_h, d1.l2v, d2.l2v))


def test_criterion_10_determinism(tmp_path):
    body = ("ic = random(0.3, 42)\nsource_f = ramp(0.2)\n"
            "t_final = 0.01\n")
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(body)
    cfg = cli.parse_config(str(cfg_path))
    cli.execute_run(cfg, out_dir=str(tmp_path / "a"), echo=lambda *a: None)
    cli.execute_run(cfg, out_dir=str(tmp_path / "b"), echo=lambda *a: None)
    a = (tmp_path / "a" / "run.csv").read_bytes()
    b = (tmp_path / "b" / "run.csv").read_bytes()
    assert a == b
    report("criterion 10: repeated desk-mesh runs byte-identical "
           "(%d bytes of CSV)" % len(a))
