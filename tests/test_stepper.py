import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse as sp
from scipy.sparse.linalg import splu

from chbs import (checkpoint, cli, diagnostics, diskfem, graphs, reference,
                  stepper)
from chbs.errors import NewtonFailure, OutOfRange
from conftest import renumbered


def tiny_problem(ops, kind="regular", amp=0.1, seed=5, f=None, g=None,
                 **params_kw):
    pair = graphs.preset_pair(kind)
    kw = dict(h=1e-3, t_final=4e-3, tau=0.1, sigma=0.1, eps=0.5)
    kw.update(params_kw)
    params = stepper.SchemeParams(**kw)
    gen = np.random.default_rng(seed)
    phi0 = amp * gen.uniform(-1.0, 1.0, ops.mesh.n_bulk)
    data = stepper.problem_data(ops, phi0, pair, f=f, g=g)
    return data, params


def pinned_obstacle_problem(ops, eps=0.05, t_final=2e-3, seed=2):
    """Criterion-7 data: a profile pinned at the obstacle on both caps,
    perturbed as in the benchmark, so the active set moves at once."""
    pair = graphs.preset_pair("obstacle")
    loop = ops.mesh.boundary_loop
    x = ops.mesh.vertices[:, 0]
    phi_dag = np.where(x >= 0.2, 1.0, np.where(
        x <= -0.2, -1.0, np.sin(0.5 * np.pi * x / 0.2)))
    xi = np.where(x >= 0.2, 1.0, np.where(x <= -0.2, -1.0, 0.0))
    f = xi + pair.bulk_pi(phi_dag) \
        + ops.bulk.solver("mass").solve(ops.bulk.K @ phi_dag)
    g = xi[loop] + pair.boundary_pi(phi_dag[loop]) \
        + splu(ops.bdry.M.tocsc()).solve(ops.bdry.K @ phi_dag[loop])
    noise = 2.0 * cli.xorshift64_uniform(seed, ops.mesh.n_bulk) - 1.0
    phi0 = np.clip(phi_dag + 0.01 * noise, -1.0, 1.0)
    params = stepper.SchemeParams(h=1e-3, t_final=t_final, eps=eps)
    return stepper.problem_data(ops, phi0, pair, f=f, g=g), params


def row_map(ops, h):
    """R, the row map of the Newton matrix R J: the block rows of J in
    the order (mu, -h phi, -h w)."""
    nb, ng = ops.mesh.n_bulk, ops.mesh.n_bdry
    return sp.bmat([[None, sp.eye(nb), None],
                    [-h * sp.eye(nb), None, None],
                    [None, None, -h * sp.eye(ng)]], format="csr")


def recording_factors(monkeypatch):
    """Patch the stepper to note every factorization of a Newton matrix:
    "fourier" when a ``_FourierFactor`` is built, "exact" when ``splu``
    is called.  The exact LUs expose ``solve`` only, the one method the
    stepper may use.  Returns the list of kinds."""
    fourier, exact = stepper._FourierFactor, stepper.splu
    kinds = []

    class SolveOnly:
        def __init__(self, lu):
            self.solve = lu.solve

    def record_fourier(*args):
        kinds.append("fourier")
        return fourier(*args)

    def record_exact(A, **kwargs):
        kinds.append("exact")
        return SolveOnly(exact(A, **kwargs))

    monkeypatch.setattr(stepper, "_FourierFactor", record_fourier)
    monkeypatch.setattr(stepper, "splu", record_exact)
    return kinds


class TestGuard:
    def test_formula(self):
        pair = graphs.preset_pair("regular")  # both slopes have modulus 1
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2, tau=0.1,
                                      sigma=0.1)
        guard = stepper.step_guard(params, pair)
        assert guard.h_max == pytest.approx(0.05)
        assert guard.ok

    def test_vanishing_slopes_give_infinite_bound(self):
        pair = graphs.PotentialPair(
            "flat", graphs.regular_graph(), graphs.Perturbation(0.0),
            graphs.regular_graph(), graphs.Perturbation(0.0))
        params = stepper.SchemeParams(h=0.3, t_final=0.3, tau=0.1, sigma=0.1)
        guard = stepper.step_guard(params, pair)
        assert guard.h_max == math.inf
        assert guard.ok

    def test_zero_viscosity_unsatisfiable(self):
        pair = graphs.preset_pair("regular")
        params = stepper.SchemeParams(h=1e-4, t_final=1e-3, tau=0.0,
                                      sigma=0.1)
        guard = stepper.step_guard(params, pair)
        assert not guard.ok
        assert "theory" in guard.reason

    def test_oversized_step_flagged(self):
        pair = graphs.preset_pair("log")  # slope modulus 4
        params = stepper.SchemeParams(h=0.02, t_final=0.04, tau=0.1,
                                      sigma=0.1)
        assert not stepper.step_guard(params, pair).ok

    @pytest.mark.parametrize("kind", ("regular", "log"))
    def test_incompatible_pair_outside_theory(self, kind):
        # |beta_eps| <= rho |beta_{Gamma,eps rho}| + c0 fails for equal
        # graphs with rho < 1, whatever the step
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2, eps=0.1)
        for rho in (1.0, 2.0):
            guard = stepper.step_guard(params,
                                       graphs.preset_pair(kind, rho=rho))
            assert guard.ok and guard.reason == ""
        guard = stepper.step_guard(params, graphs.preset_pair(kind, rho=0.5))
        assert not guard.ok
        assert guard.reason.startswith("compatibility FAIL")
        # a step beyond the bound is named too
        guard = stepper.step_guard(replace(params, h=0.1, t_final=0.1),
                                   graphs.preset_pair(kind, rho=0.5))
        assert guard.reason.startswith("step exceeds h_max; compatibility")


class TestAverageSource:
    def test_constant_vector(self):
        v = np.array([1.0, -2.0, 3.0])
        out = stepper.average_source(v, 4, 1e-2, 3)
        assert np.array_equal(out, v)

    def test_zero(self):
        assert np.all(stepper.average_source(None, 0, 1e-2, 5) == 0.0)

    def test_linear_ramp_exact(self):
        v = np.array([2.0, -1.0])
        h = 1e-2

        def src(t):
            return t * v

        for n in (0, 3, 17):
            want = (n + 0.5) * h * v
            got = stepper.average_source(src, n, h, 2)
            assert np.abs(got - want).max() < 1e-15

    def test_cubic_exact(self):
        h = 0.2

        def src(t):
            return np.array([t ** 3])

        want = (0.2 ** 4) / 4 / 0.2
        assert stepper.average_source(src, 0, h, 1)[0] == pytest.approx(
            want, rel=1e-13)


class TestValidate:
    def test_zero_data_obstacle_passes(self, tiny_ops):
        pair = graphs.preset_pair("obstacle")
        data = stepper.problem_data(tiny_ops, np.zeros(tiny_ops.mesh.n_bulk),
                                    pair)
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2)
        assert stepper.validate(data, params, tiny_ops).ok

    def test_mean_on_domain_edge_fails(self, tiny_ops):
        pair = graphs.preset_pair("obstacle")
        data = stepper.problem_data(tiny_ops, np.ones(tiny_ops.mesh.n_bulk),
                                    pair)
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2)
        rep = stepper.validate(data, params, tiny_ops)
        assert not rep.ok
        assert any("mean" in v for v in rep.violations)

    def test_infinite_initial_energy_fails(self, tiny_ops):
        pair = graphs.preset_pair("obstacle")
        phi0 = np.zeros(tiny_ops.mesh.n_bulk)
        phi0[2] = 1.5
        data = stepper.problem_data(tiny_ops, phi0, pair)
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2)
        rep = stepper.validate(data, params, tiny_ops)
        assert not rep.ok

    def test_bad_params_reported(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        data = stepper.problem_data(tiny_ops, np.zeros(tiny_ops.mesh.n_bulk),
                                    pair)
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2, eps=1.5, tau=2.0)
        rep = stepper.validate(data, params, tiny_ops)
        assert len(rep.violations) >= 2
        for bad in (dict(newton_max=0), dict(newton_max=-3),
                    dict(newton_tol=0.0), dict(newton_tol=-1e-10),
                    dict(newton_tol=math.nan), dict(newton_tol=math.inf)):
            params = stepper.SchemeParams(h=1e-3, t_final=1e-2, **bad)
            rep = stepper.validate(data, params, tiny_ops)
            assert [v.split()[0] for v in rep.violations] == list(bad), bad
        params = stepper.SchemeParams(h=math.inf, t_final=math.inf)
        assert "time step h must be positive and finite" \
            in stepper.validate(data, params, tiny_ops).violations

    @pytest.mark.parametrize("which", ("f", "g"))
    @pytest.mark.parametrize("defect", ("nan", "inf", "short",
                                        "callable-late-nan",
                                        "callable-short"))
    def test_bad_array_source_fails(self, tiny_ops, which, defect):
        size = (tiny_ops.mesh.n_bulk if which == "f"
                else tiny_ops.mesh.n_bdry)
        source = np.zeros(size)
        if defect == "short":
            source = source[:-1]
        elif defect == "callable-late-nan":
            # finite on the first three of the four steps
            def source(t):
                return np.full(size, np.nan if t > 3e-3 else t)
        elif defect == "callable-short":
            def source(t):
                return np.zeros(size - 1)
        else:
            source[1] = np.nan if defect == "nan" else np.inf
        data, params = tiny_problem(tiny_ops, **{which: source})
        rep = stepper.validate(data, params, tiny_ops)
        assert not rep.ok
        assert any("source %s" % which in v for v in rep.violations)

    @pytest.mark.parametrize("h, t_final, whole", (
        (3e-3, 1e-2, False), (1e-3, 0.25, True), (0.1, 0.3, True)))
    def test_horizon_must_be_whole_number_of_steps(self, tiny_ops, h,
                                                   t_final, whole):
        # 0.25/1e-3 and 0.3/0.1 are whole only up to rounding
        data, params = tiny_problem(tiny_ops, h=h, t_final=t_final)
        rep = stepper.validate(data, params, tiny_ops)
        assert rep.ok == whole
        assert any("whole number of steps" in v
                   for v in rep.violations) != whole

    def test_strong_mode_reports_ladder(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        x = tiny_ops.mesh.vertices[:, 0]
        data = stepper.problem_data(tiny_ops, 0.2 * x, pair)
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2)
        rep = stepper.validate(data, params, tiny_ops, strong=True)
        assert rep.ok
        assert len(rep.strong_norms) == 4
        assert rep.strong_plateau is True


class TestSolveStep:
    def test_stationary_pure_state(self, tiny_ops):
        # nonzero fixed point: the regularized graph balances the
        # perturbation at r* = (1 - eps)^(-3/2)
        eps = 0.5
        rstar = (1.0 - eps) ** -1.5
        pair = graphs.preset_pair("regular")
        params = stepper.SchemeParams(h=1e-3, t_final=1e-3, tau=0.1,
                                      sigma=0.1, eps=eps)
        data = stepper.problem_data(
            tiny_ops, rstar * np.ones(tiny_ops.mesh.n_bulk), pair)
        state = stepper.initial_state(data, tiny_ops)
        new, report = stepper.solve_step(state, data, params, tiny_ops)
        assert report.newton_iters <= 1
        assert np.abs(new.phi - rstar).max() < 1e-11
        assert np.abs(new.mu).max() < 1e-11
        assert np.abs(new.w).max() < 1e-11

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_matches_dense_fixed_point_oracle(self, tiny_ops, kind):
        data, params = tiny_problem(tiny_ops, kind)
        state = stepper.initial_state(data, tiny_ops)
        new, _ = stepper.solve_step(state, data, params, tiny_ops)
        phi_o, mu_o, w_o = reference.fixed_point_step(
            state, data, params, tiny_ops, np.zeros(tiny_ops.mesh.n_bulk),
            np.zeros(tiny_ops.mesh.n_bdry))
        assert np.abs(new.phi - phi_o).max() < 1e-8
        assert np.abs(new.mu - mu_o).max() < 1e-8
        assert np.abs(new.w - w_o).max() < 1e-8

    @pytest.mark.parametrize("pair", [
        graphs.preset_pair(kind, rho=rho)
        for kind in ("regular", "log", "obstacle") for rho in (0.5, 2.0)
    ] + [graphs.mixed_pair("regular", "obstacle", rho=2.0),
         graphs.mixed_pair("log", "obstacle", rho=0.5)],
        ids=lambda pair: "%s-rho%g" % (pair.name, pair.rho))
    def test_matches_oracle_at_rho_not_one(self, tiny_ops, pair):
        # the other oracle tests run at rho = 1, where a boundary map
        # that dropped rho from its parameter eps * rho would agree
        x = tiny_ops.mesh.vertices[:, 0]
        amp = 1.5 if pair.name == "regular" else 0.5
        fn, gn = 1000.0 * x, 1000.0 * x[tiny_ops.mesh.boundary_loop]
        data = stepper.problem_data(tiny_ops, amp * np.sin(3.0 * x), pair,
                                    f=fn, g=gn)
        params = stepper.SchemeParams(h=1e-3, t_final=1e-3, tau=0.1,
                                      sigma=0.1, eps=0.1)
        state = stepper.initial_state(data, tiny_ops)
        new, _ = stepper.solve_step(state, data, params, tiny_ops)
        phi_o, mu_o, w_o = reference.fixed_point_step(
            state, data, params, tiny_ops, fn, gn)
        assert np.abs(new.phi - phi_o).max() < 1e-8
        assert np.abs(new.mu - mu_o).max() < 1e-8
        assert np.abs(new.w - w_o).max() < 1e-8

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_reused_lu_matches_oracle_every_step(self, tiny_ops, kind):
        # one workspace over several steps, so later steps start from an
        # LU factorized at an earlier iterate or an earlier step
        data, params = tiny_problem(tiny_ops, kind, amp=0.3, t_final=6e-3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        reports = traj.reports[1:]
        assert sum(r.refactors for r in reports) < sum(
            r.linsolves for r in reports)
        fn = np.zeros(tiny_ops.mesh.n_bulk)
        gn = np.zeros(tiny_ops.mesh.n_bdry)
        for prev, new in zip(traj.states, traj.states[1:]):
            phi_o, mu_o, w_o = reference.fixed_point_step(
                prev, data, params, tiny_ops, fn, gn)
            assert np.abs(new.phi - phi_o).max() < 1e-8
            assert np.abs(new.mu - mu_o).max() < 1e-8
            assert np.abs(new.w - w_o).max() < 1e-8

    def test_matches_oracle_with_active_set(self, tiny_ops):
        # sources of opposite sign on the two halves of the disk push
        # nodes beyond +-1, where the Yosida derivative is 1/eps and the
        # factored R J is not symmetric; the second step factors there
        x = tiny_ops.mesh.vertices[:, 0]
        fn, gn = 1000.0 * x, 1000.0 * x[tiny_ops.mesh.boundary_loop]
        data, params = tiny_problem(tiny_ops, "obstacle", f=fn, g=gn,
                                    eps=0.1)
        state = stepper.initial_state(data, tiny_ops)
        for _ in range(2):
            new, _ = stepper.solve_step(state, data, params, tiny_ops)
            phi_o, mu_o, w_o = reference.fixed_point_step(
                state, data, params, tiny_ops, fn, gn)
            assert np.abs(new.phi - phi_o).max() < 1e-8
            assert np.abs(new.mu - mu_o).max() < 1e-8
            assert np.abs(new.w - w_o).max() < 1e-8
            state = new
        assert (np.abs(state.phi) > 1.0).any()

    def test_row_map_symmetrizes_interior_obstacle_jacobian(self, tiny_ops):
        # strictly inside (-1, 1) the graph derivative is 0 and R J is
        # symmetric; h = 2^-10 makes the -h row scaling of the 1/h blocks
        # exact in floating point, so any wrong sign or scale shows
        data, params = tiny_problem(tiny_ops, "obstacle", amp=0.9,
                                    h=2.0 ** -10, t_final=2.0 ** -10)
        assert np.abs(data.phi0).max() < 1.0
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        A = work.newton_matrix(data.phi0)
        assert A.nnz > 0
        assert abs(A - A.T).max() == 0.0

    @pytest.mark.parametrize("average", (False, True),
                             ids=("exact", "average"))
    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    @pytest.mark.parametrize("mesh", ("tiny", "small"))
    def test_newton_matrix_is_the_row_mapped_jacobian(self, request, mesh,
                                                      kind, average):
        # R (L + E N E_phi^T), bit for bit, from the row map R, the
        # embedding E of the mu rows and E_phi of the phi columns, and the
        # graph block N = M diag(d) + P^T M_Gamma diag(d_Gamma) P
        ops = request.getfixturevalue(mesh + "_ops")
        data, params = tiny_problem(ops, kind, eps=0.1)
        work = stepper._StepWorkspace(ops, data.pair, params)
        nb, ng, loop = ops.mesh.n_bulk, ops.mesh.n_bdry, ops.mesh.boundary_loop
        phi = np.random.default_rng(7).uniform(-1.3, 1.3, nb)
        d_b = graphs.yosida_prime(data.pair.bulk, params.eps, phi)
        d_g = graphs.yosida_prime(data.pair.boundary,
                                  params.eps * data.pair.rho, phi[loop])
        if average:
            rings, sectors = work.rings
            d_b[1:] = np.repeat(
                d_b[1:].reshape(rings, sectors).mean(axis=1), sectors)
            d_g[:] = d_g.mean()
        assert np.ptp(d_b) > 0.0
        P = sp.csr_matrix((np.ones(ng), (np.arange(ng), loop)),
                          shape=(ng, nb))
        N = ops.bulk.M @ sp.diags(d_b) \
            + P.T @ ops.bdry.M @ sp.diags(d_g) @ P
        E = sp.eye(2 * nb + ng, nb, k=-nb, format="csr")
        E_phi = sp.eye(2 * nb + ng, nb, format="csr")
        want = (row_map(ops, params.h) @ (work.L + E @ N @ E_phi.T)) \
            .tocsr().sorted_indices()
        got = work.newton_matrix(phi, average=average).sorted_indices()
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() \
                == getattr(want, name).tobytes()

    def test_augmented_means_conserved(self, tiny_ops):
        # the means are pinned to rounding level, not to the Newton
        # tolerance, so a loose tolerance must conserve them as well
        x = tiny_ops.mesh.vertices[:, 0]
        for tol in (1e-10, 1e-6):
            data, params = tiny_problem(tiny_ops, f=0.5 + x,
                                        g=np.ones(tiny_ops.mesh.n_bdry),
                                        newton_tol=tol)
            state = stepper.initial_state(data, tiny_ops)
            h = params.h
            m0 = diskfem.mean(tiny_ops.bulk, state.phi + h * state.mu)
            mg0 = diskfem.mean(tiny_ops.bdry, state.psi + h * state.w)
            for _ in range(3):
                state, _ = stepper.solve_step(state, data, params, tiny_ops)
                assert abs(diskfem.mean(
                    tiny_ops.bulk, state.phi + h * state.mu) - m0) < 1e-13
                assert abs(diskfem.mean(
                    tiny_ops.bdry, state.psi + h * state.w) - mg0) < 1e-13

    def test_trace_consistency(self, tiny_ops):
        data, params = tiny_problem(tiny_ops)
        state = stepper.initial_state(data, tiny_ops)
        new, _ = stepper.solve_step(state, data, params, tiny_ops)
        assert np.array_equal(new.psi,
                              new.phi[tiny_ops.mesh.boundary_loop])

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_phi_jacobian_block_positive(self, tiny_ops, kind):
        # symmetrized order-parameter block of the matrix the solver
        # factors stays positive definite inside the step-size guard
        data, params = tiny_problem(tiny_ops, kind)
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        nb = tiny_ops.mesh.n_bulk
        A = work.newton_matrix(data.phi0)[:nb, :nb].toarray()
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert eigs.min() > 0.0

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_jacobian_matches_residual(self, tiny_ops, kind):
        # directional difference quotient of R r against R J v; the
        # obstacle state has nodes on both sides of +-1 but none near the
        # kinks, where the residual is not differentiable
        data, params = tiny_problem(tiny_ops, kind)
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        nb, ng = tiny_ops.mesh.n_bulk, tiny_ops.mesh.n_bdry
        gen = np.random.default_rng(11)
        phi = gen.uniform(-0.7, 0.7, nb)
        if kind == "obstacle":
            phi[::3] = 1.4
            phi[1::4] = -1.3
        state = stepper.initial_state(data, tiny_ops)
        b = work.load(state, gen.uniform(-1, 1, nb), gen.uniform(-1, 1, ng))
        x = np.concatenate([phi, gen.uniform(-1, 1, nb + ng)])
        v = gen.uniform(-1, 1, x.size)
        R = row_map(tiny_ops, params.h)
        RJ = work.newton_matrix(phi)
        assert np.abs((RJ - R @ work.L) @ v).max() > 0.0
        delta = 1e-7
        quotient = (work.residual(x + delta * v, b)[0]
                    - work.residual(x, b)[0]) / delta
        assert (np.linalg.norm(R @ quotient - RJ @ v)
                <= 1e-6 * np.linalg.norm(RJ @ v))

    # +-3 lies outside the domains of the log and obstacle graphs
    @pytest.mark.parametrize("start", ("solution", 3.0, -3.0))
    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_guess_converges_to_oracle(self, tiny_ops, kind, start):
        data, params = tiny_problem(tiny_ops, kind, amp=0.3)
        state = stepper.initial_state(data, tiny_ops)
        fn = np.zeros(tiny_ops.mesh.n_bulk)
        gn = np.zeros(tiny_ops.mesh.n_bdry)
        if start == "solution":
            solved, _ = stepper.solve_step(state, data, params, tiny_ops)
            guess = np.concatenate([solved.phi, solved.mu, solved.w])
        else:
            guess = np.full(2 * tiny_ops.mesh.n_bulk + tiny_ops.mesh.n_bdry,
                            start)
        new, report = stepper.solve_step(state, data, params, tiny_ops,
                                         guess=guess)
        if start == "solution":
            assert report.newton_iters <= 1
        phi_o, mu_o, w_o = reference.fixed_point_step(
            state, data, params, tiny_ops, fn, gn)
        assert np.abs(new.phi - phi_o).max() < 1e-8
        assert np.abs(new.mu - mu_o).max() < 1e-8
        assert np.abs(new.w - w_o).max() < 1e-8

    def test_old_level_guess_is_the_default(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, "log", amp=0.3)
        state = stepper.initial_state(data, tiny_ops)
        new, report = stepper.solve_step(state, data, params, tiny_ops)
        guess = np.concatenate([state.phi, state.mu, state.w])
        new_g, report_g = stepper.solve_step(state, data, params, tiny_ops,
                                             guess=guess)
        assert report_g == report
        for name in ("phi", "mu", "psi", "w"):
            assert np.array_equal(getattr(new_g, name), getattr(new, name))

    @pytest.mark.parametrize("pair", [
        graphs.preset_pair(kind, rho=rho)
        for rho in (1.0, 2.0) for kind in ("regular", "log", "obstacle")],
        ids=lambda pair: "%s-rho%g" % (pair.name, pair.rho))
    def test_shifted_residual_matches_a_fresh_one(self, desk_ops, pair):
        # the pin adds constants to mu and w only, so the residual at the
        # pinned x is the residual before plus c_b L e_mu + c_g L e_w
        ops = desk_ops
        cfg = replace(cli.RunConfig(), ic="random(0.1, 3)")
        data = stepper.problem_data(ops, cli.build_initial(cfg, ops.mesh),
                                    pair)
        params = stepper.SchemeParams(h=1e-3, t_final=2e-3, eps=0.1)
        traj = stepper.run(data, params, ops)
        assert traj.ok
        prev, last = traj.states[-2:]
        phi = last.phi.copy()
        if pair.bulk.kind == graphs.OBSTACLE:
            phi[::7] = 1.2
            phi[3::11] = -1.15
        x = np.concatenate([phi, last.mu, last.w])
        work = stepper._StepWorkspace(ops, pair, params)
        nb, ng = ops.mesh.n_bulk, ops.mesh.n_bdry
        b = work.load(prev, np.zeros(nb), np.zeros(ng))
        c_b, c_g = 0.37, -0.21
        r, rms = work.shifted(work.residual(x, b)[0], c_b, c_g)
        x[nb:2 * nb] += c_b
        x[2 * nb:] += c_g
        fresh, fresh_rms = work.residual(x, b)
        bound = 1e-13 * np.abs(work.L @ x).max()
        assert np.abs(r - fresh).max() <= bound
        assert abs(rms - fresh_rms) <= bound

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle",
                                      "cut-direction"))
    def test_one_residual_per_line_search_trial(self, tiny_ops, kind,
                                                monkeypatch):
        # one residual at the guess and one per trial point of the line
        # search, none after the pin
        cut = kind == "cut-direction"
        if cut:
            kind = "regular"
            monkeypatch.setattr(stepper._FourierFactor, "solve",
                                lambda self, v: np.full_like(v, np.nan))
        residual = stepper._StepWorkspace.residual
        calls = []

        def counted(self, x, b):
            calls.append(1)
            return residual(self, x, b)

        monkeypatch.setattr(stepper._StepWorkspace, "residual", counted)
        data, params = tiny_problem(tiny_ops, kind, amp=0.3)
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        state = stepper.initial_state(data, tiny_ops)
        backtracks = 0
        for _ in range(params.n_steps):
            calls.clear()
            state, report = stepper.solve_step(state, data, params,
                                               tiny_ops, work=work)
            assert len(calls) == 1 + report.newton_iters + report.backtracks
            backtracks += report.backtracks
        assert (backtracks > 0) == cut

    def test_direction_rhs_is_minus_R_r(self, tiny_ops):
        # the right-hand side is built by slices, bit for bit -(R r)
        data, params = tiny_problem(tiny_ops, "obstacle")
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)

        class Echo:
            def solve(self, v):
                return v

        R = row_map(tiny_ops, params.h)
        gen = np.random.default_rng(11)
        for _ in range(5):
            r = gen.standard_normal(work.L.shape[0]) \
                * 10.0 ** gen.integers(-12, 4, work.L.shape[0])
            work._lu = Echo()
            rhs, _ = work.direction(data.phi0, r, stepper.StepReport())
            assert rhs.tobytes() == (-(R @ r)).tobytes()

    def test_zero_pivot_leaves_the_fourier_path(self, tiny_ops,
                                                monkeypatch):
        # a Fourier factor that meets a zero pivot hands the step to the
        # exact LU, which a truly singular Jacobian still fails
        def zero_pivot(*args):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(stepper, "_FourierFactor", zero_pivot)
        data, params = tiny_problem(tiny_ops, amp=0.3)
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        state = stepper.initial_state(data, tiny_ops)
        new, report = stepper.solve_step(state, data, params, tiny_ops,
                                         work=work)
        assert report.exact_lu and work.rings is None
        assert report.refactors == 1
        work.stale()
        monkeypatch.setattr(stepper._StepWorkspace, "newton_matrix",
                            lambda self, phi, average=False: 0 * self.L)
        with pytest.raises(RuntimeError, match="singular"):
            stepper.solve_step(new, data, params, tiny_ops, work=work)

    def test_newton_failure_carries_residual(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, amp=0.3)
        params.newton_max = 0
        state = stepper.initial_state(data, tiny_ops)
        with pytest.raises(NewtonFailure) as info:
            stepper.solve_step(state, data, params, tiny_ops)
        assert info.value.residual is not None


class TestRun:
    def test_single_step_horizon(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, t_final=1e-3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        assert len(traj.states) == 2

    def test_stationary_trajectory_constant(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        params = stepper.SchemeParams(h=1e-3, t_final=5e-3, tau=0.1,
                                      sigma=0.1, eps=0.5)
        data = stepper.problem_data(tiny_ops,
                                    np.zeros(tiny_ops.mesh.n_bulk), pair)
        traj = stepper.run(data, params, tiny_ops)
        for s in traj.states:
            assert np.abs(s.phi).max() < 1e-11
            assert np.abs(s.mu).max() < 1e-11

    def test_hooks_called_per_state(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, t_final=3e-3)
        seen = []
        traj = stepper.run(data, params, tiny_ops,
                           hooks=(lambda s, r: seen.append((s.n, r)),))
        assert [n for n, _ in seen] == [0, 1, 2, 3]
        assert seen[0][1] is None and seen[1][1] is not None
        assert traj.ok

    def test_partial_trajectory_on_failure(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, amp=0.3, t_final=5e-3)
        params.newton_max = 0
        traj = stepper.run(data, params, tiny_ops)
        assert not traj.ok
        assert traj.failed_step == 0
        assert len(traj.states) == 1
        assert isinstance(traj.failure, NewtonFailure)

    @pytest.mark.parametrize("which", ("f", "g"))
    def test_nan_source_fails_run(self, tiny_ops, which):
        size = (tiny_ops.mesh.n_bulk if which == "f"
                else tiny_ops.mesh.n_bdry)
        source = np.zeros(size)
        source[0] = np.nan
        data, params = tiny_problem(tiny_ops, t_final=2e-3,
                                    **{which: source})
        traj = stepper.run(data, params, tiny_ops)
        assert not traj.ok
        assert isinstance(traj.failure, NewtonFailure)
        assert traj.failed_step == 0

    def test_refactors_count_every_factorization(self, tiny_ops,
                                                 tiny_renumbered_ops,
                                                 monkeypatch):
        calls = recording_factors(monkeypatch)
        # Fourier factors on the ring mesh, exact LUs on its renumbered copy
        for ops, kind in ((tiny_ops, "fourier"),
                          (tiny_renumbered_ops, "exact")):
            calls.clear()
            data, params = tiny_problem(ops, "log", amp=0.3, t_final=8e-3)
            traj = stepper.run(data, params, ops)
            assert traj.ok
            assert len(calls) == sum(r.refactors for r in traj.reports[1:])
            assert len(calls) >= 1
            assert set(calls) == {kind}

    # a non-finite direction, and a finite one with backward error 1
    # on a mesh without ring numbering, where every factor is an exact LU
    @pytest.mark.parametrize("bad", (np.nan, 0.0), ids=("nan", "zero"))
    def test_failed_symmetric_lu_falls_back_to_pivoted(self,
                                                       tiny_renumbered_ops,
                                                       monkeypatch, bad):
        ops = tiny_renumbered_ops
        real = stepper.splu
        solves = []

        class BadSolve:
            def solve(self, b):
                return np.full_like(b, bad)

        class CountingSolve:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                solves.append(b.shape)
                return self.lu.solve(b)

        def failing_symmetric_splu(A, **kwargs):
            if kwargs.get("options", {}).get("SymmetricMode"):
                return BadSolve()
            return CountingSolve(real(A, **kwargs))

        monkeypatch.setattr(stepper, "splu", failing_symmetric_splu)
        data, params = tiny_problem(ops, "obstacle", amp=0.3, t_final=8e-3)
        traj = stepper.run(data, params, ops)
        assert traj.ok
        reports = traj.reports[1:]
        assert all(r.exact_lu for r in reports)
        # the interior obstacle Jacobian is constant: one symmetric LU,
        # rejected, then one pivoted LU serves every later direction
        assert sum(r.fallbacks for r in reports) == 1
        assert sum(r.refactors for r in reports) == 2
        assert len(solves) == sum(r.linsolves for r in reports) - 1
        assert len(solves) > 1

    # a residual of size 1e200 overflowed the 2-norms of the backward
    # error, whose test then read inf <= inf and kept a zero direction
    @pytest.mark.parametrize("size", (1.0, 1e150, 1e200, 1e300))
    def test_backward_error_of_a_huge_residual_is_measured(
            self, tiny_renumbered_ops, monkeypatch, size):
        real = stepper.splu

        class ZeroSolve:
            def solve(self, b):
                return np.zeros_like(b)

        def zero_symmetric_splu(A, **kwargs):
            if kwargs.get("options", {}).get("SymmetricMode"):
                return ZeroSolve()
            return real(A, **kwargs)

        monkeypatch.setattr(stepper, "splu", zero_symmetric_splu)
        ops = tiny_renumbered_ops
        data, params = tiny_problem(ops, "obstacle", amp=0.3)
        work = stepper._StepWorkspace(ops, data.pair, params)
        assert work.rings is None
        r = size * np.random.default_rng(3).uniform(-1.0, 1.0,
                                                    work.L.shape[0])
        report = stepper.StepReport()
        dx, final = work.direction(data.phi0, r, report)
        assert final
        assert (report.refactors, report.fallbacks) == (2, 1)
        assert np.abs(dx).max() > 0.0

    def test_obstacle_interior_run_factorizes_once(self, tiny_ops):
        # strictly inside (-1, 1) the obstacle's Yosida derivative is 0,
        # so the Jacobian is constant and its first LU contracts forever
        data, params = tiny_problem(tiny_ops, "obstacle", amp=0.3,
                                    t_final=8e-3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        assert all(np.abs(s.phi).max() < 1.0 for s in traj.states)
        assert sum(r.refactors for r in traj.reports[1:]) == 1

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_extrapolated_start_needs_no_more_iterations(self, tiny_ops,
                                                         kind):
        # the same steps, one workspace, each started at the old level
        data, params = tiny_problem(tiny_ops, kind, amp=0.3, t_final=2e-2)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        state = stepper.initial_state(data, tiny_ops)
        plain = 0
        for _ in range(params.n_steps):
            state, report = stepper.solve_step(state, data, params,
                                               tiny_ops, work=work)
            plain += report.newton_iters
        assert sum(r.newton_iters for r in traj.reports[1:]) <= plain

    def test_zero_viscosity_marked_outside_theory(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, tau=0.0, sigma=0.0,
                                    t_final=2e-3)
        assert not stepper.step_guard(params, data.pair).ok
        assert stepper.run(data, params, tiny_ops).ok

    def test_lyapunov_monotone_without_sources(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, amp=0.25, seed=3,
                                    t_final=0.1, eps=0.2)
        traj = stepper.run(data, params, tiny_ops)
        vals = [diagnostics.lyapunov(s, data.pair, params.eps, params.h,
                                     tiny_ops)
                for s in traj.states]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def ring_ops(request, rings, sectors):
    if (rings, sectors) == (40, 160):
        return request.getfixturevalue("desk_ops")
    return diskfem.assemble(diskfem.gen_disk_mesh(rings, sectors))


# cases outside the step guard: the potential and the parameters
OUTSIDE_GUARD = {"inviscid": ("log", dict(tau=0.0, sigma=0.0)),
                 "obstacle-eps0.01": ("obstacle", dict(eps=0.01)),
                 "obstacle-eps0.002": ("obstacle", dict(eps=0.002))}


class TestFourierFactor:
    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle")
                             + tuple(OUTSIDE_GUARD))
    @pytest.mark.parametrize("rings, sectors", (
        (1, 5), (2, 8), (3, 7), (4, 16), (40, 160)))
    def test_solves_the_averaged_jacobian(self, request, rings, sectors,
                                          kind):
        # the unpivoted LU is stable where R J is quasi-definite, inside
        # the step guard; outside it the growth must still stay small
        ops = ring_ops(request, rings, sectors)
        pair, kw = OUTSIDE_GUARD.get(kind, (kind, {}))
        data, params = tiny_problem(ops, pair, **{"eps": 0.1, **kw})
        work = stepper._StepWorkspace(ops, data.pair, params)
        assert work.rings == (rings, sectors)
        gen = np.random.default_rng(7)
        # nodes on both sides of +-1, where the derivatives jump
        phi = gen.uniform(-1.3, 1.3, ops.mesh.n_bulk)
        A = work.newton_matrix(phi, average=True).tocsc()
        v = gen.uniform(-1.0, 1.0, A.shape[0])
        factor = stepper._FourierFactor(A, rings, sectors)
        assert np.abs(factor._lower[1:]).max() <= 100.0
        x = factor.solve(v)
        assert np.linalg.norm(A @ x - v) <= 1e-12 * np.linalg.norm(v)
        want = splu(A).solve(v)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("rings, sectors", (
        (1, 5), (2, 8), (4, 16), (40, 160)))
    def test_mode_blocks_form_one_band_three_wide(self, request, rings,
                                                  sectors):
        ops = ring_ops(request, rings, sectors)
        data, params = tiny_problem(ops, "obstacle", eps=0.1)
        work = stepper._StepWorkspace(ops, data.pair, params)
        phi = np.random.default_rng(7).uniform(-1.3, 1.3, ops.mesh.n_bulk)
        A = work.newton_matrix(phi, average=True)
        factor = stepper._FourierFactor(A, rings, sectors)
        assert (factor.kl, factor.ku) == (3, 3)

    @pytest.mark.parametrize("rings, sectors", ((4, 16), (40, 160)))
    def test_factor_is_a_function_of_the_values(self, request, rings,
                                                sectors):
        # the same matrix with every row's entries in reversed order, not
        # canonicalized: the center's mode-0 entries sum S couplings,
        # which must not depend on the order the rows list them in
        ops = ring_ops(request, rings, sectors)
        data, params = tiny_problem(ops, "obstacle", eps=0.1)
        work = stepper._StepWorkspace(ops, data.pair, params)
        phi = np.random.default_rng(7).uniform(-1.3, 1.3, ops.mesh.n_bulk)
        A = work.newton_matrix(phi, average=True).sorted_indices()
        ptr = A.indptr
        row = np.repeat(np.arange(A.shape[0]), np.diff(ptr))
        order = (ptr[:-1] + ptr[1:] - 1)[row] - np.arange(A.nnz)
        reversed_rows = sp.csr_matrix(
            (A.data[order], A.indices[order], ptr), shape=A.shape)
        assert not reversed_rows.has_sorted_indices
        factor = stepper._FourierFactor(A, rings, sectors)
        other = stepper._FourierFactor(reversed_rows, rings, sectors)
        for name in ("_lower", "_upper", "_inv_diag"):
            assert getattr(factor, name).tobytes() \
                == getattr(other, name).tobytes()

    def test_singular_matrix_raises_like_splu(self, tiny_ops):
        # no entry in the center's phi column: exactly singular
        data, params = tiny_problem(tiny_ops)
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        keep = np.ones(work.L.shape[0])
        keep[0] = 0.0
        A = (work.newton_matrix(data.phi0) @ sp.diags(keep)).tocsc()
        with pytest.raises(RuntimeError):
            splu(A)
        with pytest.raises(RuntimeError, match="exactly singular"):
            stepper._FourierFactor(A, *work.rings)

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_average_of_a_radial_state_is_the_jacobian(self, small_ops,
                                                       kind):
        cfg = replace(cli.RunConfig(), ic="radial-bump(1.5, 0.7)")
        phi = cli.build_initial(cfg, small_ops.mesh)
        data, params = tiny_problem(small_ops, kind, eps=0.1)
        work = stepper._StepWorkspace(small_ops, data.pair, params)
        RJ = work.newton_matrix(phi)
        graph_terms = abs(RJ - row_map(small_ops, params.h) @ work.L).max()
        assert graph_terms > 0.0
        gap = abs(work.newton_matrix(phi, average=True) - RJ).max()
        assert gap <= 1e-12 * graph_terms

    def test_active_obstacle_keeps_its_fourier_factor(self, desk_ops,
                                                      monkeypatch):
        # no node is active at phi0, so the first factor is the Fourier
        # factor of R L, exact as L is rotation invariant; the frozen-graph
        # iteration on it contracts fast enough to keep it
        data, params = pinned_obstacle_problem(desk_ops)
        kinds = recording_factors(monkeypatch)
        traj = stepper.run(data, params, desk_ops)
        assert traj.ok
        assert kinds == ["fourier"]
        assert not any(r.exact_lu for r in traj.reports[1:])
        assert len(kinds) == sum(r.refactors for r in traj.reports[1:])

    def test_average_failing_on_its_first_update_ends_the_fourier_path(
            self, monkeypatch):
        # eps tau = h: at eps = 0.01 the average of phi0 (no node active)
        # serves its first update only, and the average rebuilt on the
        # active set goes stale on its first update, so every later factor
        # is the exact LU; rebuilding averages would cost about ten
        # factors per step
        ops = diskfem.assemble(diskfem.gen_disk_mesh(4, 16))
        data, params = pinned_obstacle_problem(ops, eps=0.01, t_final=4e-2,
                                               seed=8)
        kinds = recording_factors(monkeypatch)
        traj = stepper.run(data, params, ops)
        assert traj.ok
        assert kinds[:2] == ["fourier", "fourier"] and len(kinds) > 2
        assert all(kind == "exact" for kind in kinds[2:]), kinds
        assert all(r.exact_lu for r in traj.reports[1:])
        assert len(kinds) == sum(r.refactors for r in traj.reports[1:])
        assert len(kinds) <= params.n_steps // 4

    def test_run_leaving_the_fourier_path_leaves_the_shared_layout(
            self, monkeypatch):
        # the runs on one ops share its step operator; the data of the
        # test above end the Fourier path, which only the run's own
        # workspace may forget
        ops = diskfem.assemble(diskfem.gen_disk_mesh(4, 16))
        data, params = pinned_obstacle_problem(ops, eps=0.01, t_final=4e-2,
                                               seed=8)
        kinds = recording_factors(monkeypatch)
        for _ in range(2):
            kinds.clear()
            work = stepper._StepWorkspace(ops, data.pair, params)
            assert work.rings == (4, 16)
            traj = stepper.run(data, params, ops)
            assert traj.ok and traj.reports[-1].exact_lu
            assert kinds[0] == "fourier"
        assert len(ops.step_operators) == 1

    def test_active_set_run_keeps_its_average_and_matches_oracle(
            self, tiny_ops):
        # the sources of test_matches_oracle_with_active_set push nodes
        # beyond +-1, so the average is not the Jacobian; each state is
        # checked against the dense fixed-point oracle
        x = tiny_ops.mesh.vertices[:, 0]
        fn, gn = 1000.0 * x, 1000.0 * x[tiny_ops.mesh.boundary_loop]
        data, params = tiny_problem(tiny_ops, "obstacle", eps=0.1, f=fn,
                                    g=gn, t_final=6e-3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        reports = traj.reports[1:]
        assert not any(r.exact_lu for r in reports)
        assert sum(r.refactors for r in reports) == 1
        assert (np.abs(traj.states[-1].phi) > 1.0).any()
        for prev, new in zip(traj.states, traj.states[1:]):
            phi_o, mu_o, w_o = reference.fixed_point_step(
                prev, data, params, tiny_ops, fn, gn)
            assert np.abs(new.phi - phi_o).max() < 1e-8
            assert np.abs(new.mu - mu_o).max() < 1e-8
            assert np.abs(new.w - w_o).max() < 1e-8

    def test_cut_fourier_direction_switches_to_exact_lu(self, tiny_ops,
                                                        monkeypatch):
        # a non-finite direction fails every trial of the line search; the
        # log resolvent cannot even evaluate such a trial point
        monkeypatch.setattr(stepper._FourierFactor, "solve",
                            lambda self, v: np.full_like(v, np.nan))
        for kind in ("regular", "log"):
            data, params = tiny_problem(tiny_ops, kind, amp=0.3)
            traj = stepper.run(data, params, tiny_ops)
            assert traj.ok, (kind, traj.failure)
            assert all(r.exact_lu for r in traj.reports[1:])
            # the Fourier factor, then the exact LU that replaced it
            assert traj.reports[1].refactors == 2

    def test_backtracks_count_line_search_halvings(self, tiny_ops,
                                                  monkeypatch):
        # a non-finite direction is halved to alpha = 1/8 before the
        # exact LU replaces its factor; the exact directions are full steps
        monkeypatch.setattr(stepper._FourierFactor, "solve",
                            lambda self, v: np.full_like(v, np.nan))
        data, params = tiny_problem(tiny_ops, amp=0.3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        assert [r.backtracks for r in traj.reports[1:]] \
            == [3] + [0] * (params.n_steps - 1)

    def test_ring_numbered_mesh_of_another_shape_is_solved_exactly(self):
        mesh = diskfem.gen_disk_mesh(3, 8)
        mesh.vertices[2] *= 1.1  # one vertex of the inner ring moves out
        ops = diskfem.assemble(mesh)
        data, params = tiny_problem(ops)
        assert stepper._StepWorkspace(ops, data.pair, params).rings is None
        traj = stepper.run(data, params, ops)
        assert traj.ok
        assert all(r.exact_lu for r in traj.reports[1:])

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle",
                                      "active-obstacle"))
    def test_renumbered_mesh_runs_exact_lu_to_the_same_states(self, kind):
        mesh = diskfem.gen_disk_mesh(4, 16)
        copy, new = renumbered(mesh, seed=3)
        ops, ops_r = diskfem.assemble(mesh), diskfem.assemble(copy)
        if kind == "active-obstacle":
            data, params = pinned_obstacle_problem(ops, t_final=2e-2)
        else:
            data, params = tiny_problem(ops, kind, amp=0.3, t_final=2e-2)

        def moved(v):
            out = np.empty_like(v)
            out[new] = v
            return out

        f_r = None if data.f is None else moved(data.f)
        # boundary arrays follow the loop, which keeps its order
        data_r = stepper.problem_data(ops_r, moved(data.phi0), data.pair,
                                      f=f_r, g=data.g)
        traj = stepper.run(data, params, ops)
        traj_r = stepper.run(data_r, params, ops_r)
        assert traj.ok and traj_r.ok
        assert not any(r.exact_lu for r in traj.reports[1:])
        assert all(r.exact_lu for r in traj_r.reports[1:])
        tol = 10.0 * params.n_steps * params.newton_tol
        last, last_r = traj.states[-1], traj_r.states[-1]
        for name in ("phi", "mu"):
            gap = getattr(last_r, name)[new] - getattr(last, name)
            assert np.abs(gap).max() <= tol
        for name in ("psi", "w"):
            gap = getattr(last_r, name) - getattr(last, name)
            assert np.abs(gap).max() <= tol


@pytest.fixture()
def traj(tiny_ops):
    data, params = tiny_problem(tiny_ops, t_final=6e-3, amp=0.2)
    return stepper.run(data, params, tiny_ops)


class TestInterpolants:
    def test_grid_points(self, traj):
        h = traj.params.h
        for n in (1, 3, 5):
            vals = stepper.interpolants(traj, n * h)
            assert np.allclose(vals["hat"]["phi"], traj.states[n].phi,
                               atol=1e-14)
            assert np.array_equal(vals["bar"]["phi"], traj.states[n].phi)

    def test_midpoint_average(self, traj):
        h = traj.params.h
        vals = stepper.interpolants(traj, 2.5 * h)
        want = 0.5 * (traj.states[2].phi + traj.states[3].phi)
        assert np.abs(vals["hat"]["phi"] - want).max() < 1e-14
        assert np.array_equal(vals["bar"]["phi"], traj.states[3].phi)

    def test_left_open_convention_at_zero(self, traj):
        vals = stepper.interpolants(traj, 0.0)
        assert np.array_equal(vals["hat"]["phi"], traj.states[0].phi)
        assert np.array_equal(vals["bar"]["phi"], traj.states[1].phi)

    def test_out_of_range(self, traj):
        with pytest.raises(OutOfRange):
            stepper.interpolants(traj, -1e-3)
        with pytest.raises(OutOfRange):
            stepper.interpolants(traj, 7e-3)

    def test_gap_identity(self, tiny_ops, traj):
        lhs, rhs = diagnostics.interpolant_gap_identity(traj, tiny_ops)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def streamed(tiny_ops, path, stride=1, **params_kw):
    """Run the tiny problem with its checkpoints streamed to ``path``
    through the program's writer; returns the trajectory."""
    data, params = tiny_problem(tiny_ops, **params_kw)
    with checkpoint.Writer() as writer, \
            checkpoint.Stream(writer, path, stride) as stream:
        return stepper.run(data, params, tiny_ops, hooks=(stream,))


class TestCheckpoints:
    def test_roundtrip(self, tiny_ops, tmp_path):
        path = tmp_path / "states.txt"
        traj = streamed(tiny_ops, path, t_final=3e-3)
        back = stepper.load_states(path)
        assert len(back) == len(traj.states)
        for a, b in zip(traj.states, back):
            assert (a.n, a.t) == (b.n, b.t)
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.psi, b.psi)
            assert np.array_equal(a.w, b.w)

    def test_stride(self, tiny_ops, tmp_path):
        path = tmp_path / "states.txt"
        streamed(tiny_ops, path, stride=2, t_final=6e-3)
        back = stepper.load_states(path)
        assert [s.n for s in back] == [0, 2, 4, 6]
