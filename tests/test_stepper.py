import math

import numpy as np
import pytest

from chbs import diagnostics, diskfem, graphs, reference, stepper
from chbs.errors import NewtonFailure, OutOfRange


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

    def test_trace_mismatch_reports_node(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        phi0 = np.zeros(tiny_ops.mesh.n_bulk)
        data = stepper.problem_data(tiny_ops, phi0, pair)
        data.psi0 = data.psi0.copy()
        data.psi0[3] = 0.5
        params = stepper.SchemeParams(h=1e-3, t_final=1e-2)
        rep = stepper.validate(data, params, tiny_ops)
        assert not rep.ok
        assert any("node 3" in v for v in rep.violations)

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
        fn = np.zeros(tiny_ops.mesh.n_bulk)
        gn = np.zeros(tiny_ops.mesh.n_bdry)
        new, _ = stepper.solve_step(state, data, params, tiny_ops,
                                    fn=fn, gn=gn)
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
            r.linsolves - 2 for r in reports)
        fn = np.zeros(tiny_ops.mesh.n_bulk)
        gn = np.zeros(tiny_ops.mesh.n_bdry)
        for prev, new in zip(traj.states, traj.states[1:]):
            phi_o, mu_o, w_o = reference.fixed_point_step(
                prev, data, params, tiny_ops, fn, gn)
            assert np.abs(new.phi - phi_o).max() < 1e-8
            assert np.abs(new.mu - mu_o).max() < 1e-8
            assert np.abs(new.w - w_o).max() < 1e-8

    def test_augmented_means_conserved(self, tiny_ops):
        x = tiny_ops.mesh.vertices[:, 0]
        data, params = tiny_problem(tiny_ops, f=0.5 + x,
                                    g=np.ones(tiny_ops.mesh.n_bdry))
        state = stepper.initial_state(data, tiny_ops)
        h = params.h
        m0 = diskfem.mean_bulk(tiny_ops, state.phi + h * state.mu)
        mg0 = diskfem.mean_bdry(tiny_ops, state.psi + h * state.w)
        for _ in range(3):
            state, _ = stepper.solve_step(state, data, params, tiny_ops)
            assert abs(diskfem.mean_bulk(tiny_ops, state.phi + h * state.mu)
                       - m0) < 1e-10
            assert abs(diskfem.mean_bdry(tiny_ops, state.psi + h * state.w)
                       - mg0) < 1e-10

    def test_trace_consistency(self, tiny_ops):
        data, params = tiny_problem(tiny_ops)
        state = stepper.initial_state(data, tiny_ops)
        new, _ = stepper.solve_step(state, data, params, tiny_ops)
        assert np.array_equal(new.psi,
                              new.phi[tiny_ops.mesh.boundary_loop])

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_phi_jacobian_block_positive(self, tiny_ops, kind):
        # symmetrized order-parameter block of the Newton matrix stays
        # positive definite inside the step-size guard
        data, params = tiny_problem(tiny_ops, kind)
        work = stepper._StepWorkspace(tiny_ops, data.pair, params)
        phi = data.phi0
        d_b = graphs.yosida_bulk_prime(data.pair.bulk, params.eps, phi)
        d_g = graphs.yosida_boundary_prime(
            data.pair.boundary, params.eps, data.pair.rho, phi[work.loop])
        A = (work.A21_const
             + tiny_ops.M_bulk.multiply(d_b[None, :])
             + work.P.T @ tiny_ops.M_bdry.multiply(d_g[None, :]) @ work.P)
        A = A.toarray()
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert eigs.min() > 0.0

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
                                                 monkeypatch):
        real = stepper.splu
        calls = []

        class SolveOnly:
            def __init__(self, lu):
                self.solve = lu.solve

        def counting_splu(A):
            calls.append(A.shape)
            return SolveOnly(real(A))

        monkeypatch.setattr(stepper, "splu", counting_splu)
        data, params = tiny_problem(tiny_ops, "log", amp=0.3, t_final=8e-3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        assert len(calls) == sum(r.refactors for r in traj.reports[1:])
        assert len(calls) >= 1

    def test_obstacle_interior_run_factorizes_once(self, tiny_ops):
        # strictly inside (-1, 1) the obstacle's Yosida derivative is 0,
        # so the Jacobian is constant and its first LU contracts forever
        data, params = tiny_problem(tiny_ops, "obstacle", amp=0.3,
                                    t_final=8e-3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.ok
        assert all(np.abs(s.phi).max() < 1.0 for s in traj.states)
        assert sum(r.refactors for r in traj.reports[1:]) == 1

    def test_zero_viscosity_marked_outside_theory(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, tau=0.0, sigma=0.0,
                                    t_final=2e-3)
        traj = stepper.run(data, params, tiny_ops)
        assert traj.outside_theory
        assert traj.ok

    def test_lyapunov_monotone_without_sources(self, tiny_ops):
        data, params = tiny_problem(tiny_ops, amp=0.25, seed=3,
                                    t_final=0.1, eps=0.2)
        traj = stepper.run(data, params, tiny_ops)
        vals = [diagnostics.lyapunov(s, data.pair, params.eps, params.h,
                                     tiny_ops)
                for s in traj.states]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


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


class TestCheckpoints:
    def test_roundtrip(self, tiny_ops, tmp_path):
        data, params = tiny_problem(tiny_ops, t_final=3e-3)
        traj = stepper.run(data, params, tiny_ops)
        path = tmp_path / "states.txt"
        stepper.save_trajectory(traj, path)
        back = stepper.load_states(path)
        assert len(back) == len(traj.states)
        for a, b in zip(traj.states, back):
            assert a.n == b.n
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.psi, b.psi)
            assert np.array_equal(a.w, b.w)

    def test_stride(self, tiny_ops, tmp_path):
        data, params = tiny_problem(tiny_ops, t_final=6e-3)
        traj = stepper.run(data, params, tiny_ops)
        path = tmp_path / "states.txt"
        stepper.save_trajectory(traj, path, stride=2)
        back = stepper.load_states(path)
        assert [s.n for s in back] == [0, 2, 4, 6]
