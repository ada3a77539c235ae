import dataclasses
import math

import numpy as np
import pytest

from chbs import diagnostics, diskfem, graphs, stepper
from chbs.errors import GridMismatch, MeanMismatch


def zero_state(ops, value=0.0):
    phi = np.full(ops.mesh.n_bulk, value)
    return stepper.SchemeState(0, 0.0, phi, np.zeros(ops.mesh.n_bulk),
                               diskfem.trace(ops, phi),
                               np.zeros(ops.mesh.n_bdry))


def run_tiny(ops, kind="regular", amp=0.15, seed=5, steps=5, f=None, g=None,
             eps=0.5, h=1e-3):
    pair = graphs.preset_pair(kind)
    params = stepper.SchemeParams(h=h, t_final=steps * h, tau=0.1,
                                  sigma=0.1, eps=eps)
    gen = np.random.default_rng(seed)
    phi0 = amp * gen.uniform(-1.0, 1.0, ops.mesh.n_bulk)
    data = stepper.problem_data(ops, phi0, pair, f=f, g=g)
    return data, params, stepper.run(data, params, ops)


def frozen_traj(ops, phi, params, n_states, stride=1):
    """Synthetic trajectory holding one state at every recorded time."""
    states = []
    for k in range(n_states):
        n = k * stride
        states.append(stepper.SchemeState(
            n, n * params.h, phi.copy(), np.zeros(ops.mesh.n_bulk),
            diskfem.trace(ops, phi), np.zeros(ops.mesh.n_bdry)))
    guard = stepper.GuardReport(math.inf, True)
    return stepper.Trajectory(states, [None] * n_states, params, guard)


class TestEnergy:
    def test_zero_state_regular(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        e = diagnostics.energy(zero_state(tiny_ops), pair, tiny_ops)
        want = 0.25 * tiny_ops.bulk.measure + 0.25 * tiny_ops.bdry.measure
        assert e == pytest.approx(want, rel=1e-13)

    def test_pure_state_has_no_energy(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        e = diagnostics.energy(zero_state(tiny_ops, 1.0), pair, tiny_ops)
        assert abs(e) < 1e-12

    def test_obstacle_outside_domain_is_infinite(self, tiny_ops):
        pair = graphs.preset_pair("obstacle")
        state = zero_state(tiny_ops)
        state.phi[4] = 1.5
        assert diagnostics.energy(state, pair, tiny_ops) == math.inf
        e_reg = diagnostics.energy(state, pair, tiny_ops,
                                   mode="regularized", eps=0.5)
        assert math.isfinite(e_reg)

    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_regularized_below_true(self, tiny_ops, kind, rng):
        pair = graphs.preset_pair(kind)
        phi = 0.8 * rng.uniform(-1, 1, tiny_ops.mesh.n_bulk)
        state = zero_state(tiny_ops)
        state.phi = phi
        state.psi = diskfem.trace(tiny_ops, phi)
        et = diagnostics.energy(state, pair, tiny_ops)
        for eps in (0.5, 0.1):
            ee = diagnostics.energy(state, pair, tiny_ops,
                                    mode="regularized", eps=eps)
            assert ee <= et + 1e-12


class TestLyapunov:
    def test_initial_state_equals_regularized_energy(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        state = zero_state(tiny_ops, 0.3)
        lyap = diagnostics.lyapunov(state, pair, 0.5, 1e-3, tiny_ops)
        e = diagnostics.energy(state, pair, tiny_ops, mode="regularized",
                               eps=0.5)
        assert lyap == pytest.approx(e, rel=1e-14)

    def test_viscous_part_is_quadratic(self, tiny_ops, rng):
        pair = graphs.preset_pair("regular")
        state = zero_state(tiny_ops, 0.2)
        e = diagnostics.energy(state, pair, tiny_ops, mode="regularized",
                               eps=0.5)
        state.mu = rng.standard_normal(tiny_ops.mesh.n_bulk)
        one = diagnostics.lyapunov(state, pair, 0.5, 1e-3, tiny_ops) - e
        state.mu = 2.0 * state.mu
        four = diagnostics.lyapunov(state, pair, 0.5, 1e-3, tiny_ops) - e
        assert four == pytest.approx(4.0 * one, rel=1e-12)


class TestApriori:
    def test_stationary_run_has_zero_dissipation(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        params = stepper.SchemeParams(h=1e-3, t_final=4e-3, tau=0.1,
                                      sigma=0.1, eps=0.5)
        data = stepper.problem_data(tiny_ops,
                                    np.zeros(tiny_ops.mesh.n_bulk), pair)
        traj = stepper.run(data, params, tiny_ops)
        rep = diagnostics.apriori_monitor(traj, pair, params, tiny_ops)
        assert rep.visc_bulk_dissipation < 1e-20
        assert rep.visc_bdry_dissipation < 1e-20

    def test_sums_grow_with_horizon(self, tiny_ops):
        data, params, traj = run_tiny(tiny_ops, steps=8, amp=0.3)
        full = diagnostics.apriori_monitor(traj, data.pair, params, tiny_ops)
        short = stepper.Trajectory(traj.states[:4], traj.reports[:4],
                                   params, traj.guard)
        part = diagnostics.apriori_monitor(short, data.pair, params,
                                           tiny_ops)
        for key, val in part.as_dict().items():
            assert val <= full.as_dict()[key] + 1e-15


class TestBoundarySide:
    """Boundary entries against dense sums over the boundary M and K, with
    tau != sigma and rho != 1 so that a swapped side shows."""

    def test_boundary_fields_match_dense_sums(self, tiny_ops):
        ops = tiny_ops
        pair = graphs.preset_pair("regular", rho=2.0)
        pA, pB = (stepper.SchemeParams(h=h, t_final=4e-3, tau=0.1,
                                       sigma=0.3, eps=0.5)
                  for h in (2e-3, 1e-3))
        phi0 = 0.3 * np.random.default_rng(5).uniform(-1.0, 1.0,
                                                      ops.mesh.n_bulk)
        xb = ops.mesh.vertices[ops.mesh.boundary_loop, 0]
        g = 0.2 + 0.1 * xb
        data = stepper.problem_data(ops, phi0, pair)
        data_g = stepper.problem_data(ops, phi0, pair, g=g)
        trajA = stepper.run(data, pA, ops)
        trajB = stepper.run(data, pB, ops)
        trajG = stepper.run(data_g, pB, ops)
        assert trajA.ok and trajB.ok and trajG.ok

        M = ops.bdry.M.toarray()
        K = ops.bdry.K.toarray()
        lumped = M.sum(axis=1)

        def mean(v):
            return lumped @ v / lumped.sum()

        def dual(v):
            u = np.linalg.lstsq(K, M @ (v - mean(v)), rcond=None)[0]
            return math.sqrt(u @ K @ u)

        h = pB.h
        psi = [s.psi for s in trajB.states]
        w = [s.w for s in trajB.states]
        rep = diagnostics.apriori_monitor(trajB, pair, pB, ops)
        assert rep.sup_psi_h1_sq == pytest.approx(
            max(v @ (M + K) @ v for v in psi[1:]), rel=1e-12)
        assert rep.visc_bdry_dissipation == pytest.approx(
            0.3 * sum((b - a) @ M @ (b - a) / h
                      for a, b in zip(psi, psi[1:])), rel=1e-12)
        assert rep.h_sup_w_l2_sq == pytest.approx(
            h * max(v @ M @ v for v in w[1:]), rel=1e-12)
        assert rep.sup_env_bdry == pytest.approx(
            max(lumped @ graphs.moreau_envelope(pair.boundary, 1.0, v)
                for v in psi[1:]), rel=1e-12)

        coarse = [s.psi for s in trajA.states]
        diffs = [a - b for a, b in zip(coarse, psi[::2])]
        rep = diagnostics.cauchy_distance(trajA, trajB, ops)
        assert rep.c_h_bdry == pytest.approx(
            max(math.sqrt(d @ M @ d) for d in diffs), rel=1e-12)
        assert rep.l2v_bdry == pytest.approx(
            math.sqrt(sum(pA.h * d @ (M + K) @ d for d in diffs[1:])),
            rel=1e-12)

        diffs = [a - s.psi for a, s in zip(psi, trajG.states)]
        rep = diagnostics.cont_dep(trajB, trajG, data, data_g, ops)
        assert rep.lhs_terms["sup_dual_bdry"] == pytest.approx(
            max(dual(d) for d in diffs[1:]), rel=1e-9)
        assert rep.lhs_terms["l2_h1_bdry"] == pytest.approx(
            math.sqrt(sum(h * d @ (M + K) @ d for d in diffs[1:])),
            rel=1e-12)
        assert rep.rhs_terms["l2_dual_g"] == pytest.approx(
            math.sqrt(pB.n_steps * h) * (
                dual(g) + math.sqrt(lumped.sum()) * abs(mean(g))), rel=1e-9)


class TestContDep:
    def test_identical_runs(self, tiny_ops):
        data, params, traj = run_tiny(tiny_ops)
        rep = diagnostics.cont_dep(traj, traj, data, data, tiny_ops)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.ratio is None

    def test_mean_mismatch_rejected(self, tiny_ops):
        dataA, params, trajA = run_tiny(tiny_ops)
        pair = dataA.pair
        dataB = stepper.problem_data(tiny_ops, dataA.phi0 + 0.1, pair)
        trajB = stepper.run(dataB, params, tiny_ops)
        with pytest.raises(MeanMismatch):
            diagnostics.cont_dep(trajA, trajB, dataA, dataB, tiny_ops)

    def test_initial_only_perturbation_rhs(self, small_ops):
        # interior zero-mean perturbation leaves only the bulk dual term
        pair = graphs.preset_pair("regular")
        params = stepper.SchemeParams(h=1e-3, t_final=3e-3, tau=0.1,
                                      sigma=0.1, eps=0.5)
        base = np.zeros(small_ops.mesh.n_bulk)
        dataA = stepper.problem_data(small_ops, base, pair)
        bump = np.zeros(small_ops.mesh.n_bulk)
        r2 = (small_ops.mesh.vertices ** 2).sum(axis=1)
        inner = r2 < 0.4
        bump[inner] = 1e-2 * (0.4 - r2[inner])
        bump -= diskfem.mean(small_ops.bulk, bump)
        # keep the boundary untouched: shift interior nodes only
        loop = small_ops.mesh.boundary_loop
        bump[loop] = 0.0
        bump -= diskfem.mean(small_ops.bulk, bump)
        bump[loop] = 0.0
        corr = diskfem.mean(small_ops.bulk, bump)
        interior = np.ones_like(bump, dtype=bool)
        interior[loop] = False
        bump[interior] -= corr * small_ops.bulk.measure / float(
            small_ops.bulk.lumped[interior].sum())
        dataB = stepper.problem_data(small_ops, base + bump, pair)
        trajA = stepper.run(dataA, params, small_ops)
        trajB = stepper.run(dataB, params, small_ops)
        rep = diagnostics.cont_dep(trajA, trajB, dataA, dataB, small_ops)
        want = diskfem.dual_norm(small_ops.bulk, bump)
        assert rep.rhs == pytest.approx(want, rel=1e-9)
        assert rep.rhs_terms["dual_psi0"] == 0.0
        assert rep.rhs_terms["l2_dual_f"] == 0.0

    def test_ratio_invariant_under_stride(self, tiny_ops):
        # frozen pairs make the metric exactly stride-independent
        pair = graphs.preset_pair("regular")
        phiA = np.zeros(tiny_ops.mesh.n_bulk)
        x = tiny_ops.mesh.vertices[:, 0]
        phiB = 1e-3 * (x - diskfem.mean(tiny_ops.bulk, x))
        p_full = stepper.SchemeParams(h=1e-3, t_final=8e-3, tau=0.1,
                                      sigma=0.1, eps=0.5)
        p_half = stepper.SchemeParams(h=1e-3, t_final=8e-3, tau=0.1,
                                      sigma=0.1, eps=0.5)
        dataA = stepper.problem_data(tiny_ops, phiA, pair)
        dataB = stepper.problem_data(tiny_ops, phiB, pair)
        r1 = diagnostics.cont_dep(frozen_traj(tiny_ops, phiA, p_full, 9),
                                  frozen_traj(tiny_ops, phiB, p_full, 9),
                                  dataA, dataB, tiny_ops)
        r2 = diagnostics.cont_dep(frozen_traj(tiny_ops, phiA, p_half, 5, 2),
                                  frozen_traj(tiny_ops, phiB, p_half, 5, 2),
                                  dataA, dataB, tiny_ops)
        assert r1.ratio == pytest.approx(r2.ratio, abs=1e-9)

    def test_grid_mismatch(self, tiny_ops):
        data, params, trajA = run_tiny(tiny_ops, steps=4)
        _, _, trajB = run_tiny(tiny_ops, steps=6)
        with pytest.raises(GridMismatch):
            diagnostics.cont_dep(trajA, trajB, data, data, tiny_ops)


class TestCauchyDistance:
    def test_self_distance_zero(self, tiny_ops):
        _, _, traj = run_tiny(tiny_ops)
        rep = diagnostics.cauchy_distance(traj, traj, tiny_ops)
        assert rep.c_h == 0.0
        assert rep.l2v == 0.0

    def test_stationary_refinement_zero(self, tiny_ops):
        pair = graphs.preset_pair("regular")
        phi0 = np.zeros(tiny_ops.mesh.n_bulk)
        pA = stepper.SchemeParams(h=2e-3, t_final=8e-3, tau=0.1, sigma=0.1,
                                  eps=0.5)
        pB = stepper.SchemeParams(h=1e-3, t_final=8e-3, tau=0.1, sigma=0.1,
                                  eps=0.5)
        tA = stepper.run(stepper.problem_data(tiny_ops, phi0, pair), pA,
                         tiny_ops)
        tB = stepper.run(stepper.problem_data(tiny_ops, phi0, pair), pB,
                         tiny_ops)
        rep = diagnostics.cauchy_distance(tA, tB, tiny_ops)
        assert rep.c_h < 1e-11
        assert rep.c_h_bdry < 1e-11

    def test_non_nested_rejected(self, tiny_ops):
        _, _, trajA = run_tiny(tiny_ops, steps=4)
        _, _, trajB = run_tiny(tiny_ops, steps=6)
        with pytest.raises(GridMismatch):
            diagnostics.cauchy_distance(trajA, trajB, tiny_ops)


class TestObstacleViolation:
    def test_zero_inside_box(self, tiny_ops):
        _, _, traj = run_tiny(tiny_ops, kind="obstacle", amp=0.2)
        rep = diagnostics.obstacle_violation(traj)
        assert rep.max == 0.0

    def test_detects_overshoot(self, tiny_ops):
        _, params, traj = run_tiny(tiny_ops, kind="obstacle", amp=0.2)
        traj.states[-1].phi[0] = 1.25
        traj.states[-1].psi[2] = -1.1
        rep = diagnostics.obstacle_violation(traj)
        assert rep.bulk == pytest.approx(0.25)
        assert rep.bdry == pytest.approx(0.1)
        assert rep.max == pytest.approx(0.25)


def stream_csv(path, traj, data, params, ops, stride=1):
    """run.csv of ``traj`` as :func:`diagnostics.csv_hook` writes it; the
    callback sees the file's lines after each state."""
    with open(path, "w", encoding="utf-8") as fh:
        hook = diagnostics.csv_hook(fh, data.pair, params, ops,
                                    stride=stride)
        for state, report in zip(traj.states, traj.reports):
            hook(state, report)
            yield path.read_text().splitlines()


class TestCsv:
    def test_schema_and_roundtrip(self, tiny_ops, tmp_path):
        data, params, traj = run_tiny(tiny_ops, steps=3)
        records = [diagnostics.make_record(s, r, data.pair, params, tiny_ops)
                   for s, r in zip(traj.states, traj.reports)]
        path = tmp_path / "run.csv"
        lines = list(stream_csv(path, traj, data, params, tiny_ops))[-1]
        assert lines[0] == diagnostics.CSV_HEADER
        assert len(lines) == 1 + len(records)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == 0.0
        # 17 significant digits survive the text roundtrip
        assert float(lines[2].split(",")[2]) == records[1].energy_true

    def test_rows_stream_as_they_are_made(self, tiny_ops, tmp_path):
        data, params, traj = run_tiny(tiny_ops, steps=4)
        # the header and the row format follow DiagRecord's fields
        want = [",".join(diagnostics.DiagRecord.__annotations__)]
        for s, r in zip(traj.states[::2], traj.reports[::2]):
            rec = diagnostics.make_record(s, r, data.pair, params, tiny_ops)
            cells = dataclasses.astuple(rec)
            want.append(",".join(["%d" % cells[0]]
                                 + ["%.17g" % v for v in cells[1:-1]]
                                 + ["%d" % cells[-1]]))
        seen = stream_csv(tmp_path / "run.csv", traj, data, params,
                          tiny_ops, stride=2)
        # each row is on disk as soon as it is made
        for k, lines in enumerate(seen):
            assert lines == want[:2 + k // 2]

    def test_augmented_masses_constant_in_csv(self, tiny_ops, tmp_path):
        data, params, traj = run_tiny(tiny_ops, steps=6, amp=0.3)
        records = [diagnostics.make_record(s, r, data.pair, params, tiny_ops)
                   for s, r in zip(traj.states, traj.reports)]
        vals = [r.mass_bulk_aug for r in records]
        assert max(vals) - min(vals) < 1e-9
        valsg = [r.mass_bdry_aug for r in records]
        assert max(valsg) - min(valsg) < 1e-9


def record_state(ops, kind, seed=3):
    """A state with nonzero potentials; obstacle values leave [-1, 1] on
    both sides, log values stay inside (-1, 1)."""
    gen = np.random.default_rng(seed)
    amp = 0.9 if kind == "log" else 1.3
    phi = amp * gen.uniform(-1.0, 1.0, ops.mesh.n_bulk)
    if kind == "obstacle":
        phi[0] = -1.25                           # the center, a bulk node
        phi[ops.mesh.boundary_loop[0]] = 1.2
    return stepper.SchemeState(3, 0.03, phi,
                               gen.uniform(-2.0, 2.0, ops.mesh.n_bulk),
                               diskfem.trace(ops, phi),
                               gen.uniform(-2.0, 2.0, ops.mesh.n_bdry))


class TestMakeRecord:
    @pytest.mark.parametrize("kind", ("regular", "log", "obstacle"))
    def test_fields_are_the_printed_sums(self, tiny_ops, kind):
        # run.csv stays byte-identical only while each field is this sum,
        # in this order, of these M, K and lumped products; a reordered
        # sum changes the last bit for some of the ten states
        ops = tiny_ops
        pair = graphs.preset_pair(kind, rho=2.0)
        params = stepper.SchemeParams(h=1e-2, t_final=3e-2, eps=0.3)
        h, eps = params.h, params.eps
        Mb, Kb, lb = ops.bulk.M, ops.bulk.K, ops.bulk.lumped
        Mg, Kg, lg = ops.bdry.M, ops.bdry.K, ops.bdry.lumped
        report = stepper.StepReport(newton_iters=4)
        for seed in range(10):
            state = record_state(ops, kind, seed)
            phi, mu, psi, w = state.phi, state.mu, state.psi, state.w
            grad = 0.5 * float(phi @ (Kb @ phi)) \
                + 0.5 * float(psi @ (Kg @ psi))
            pi_b = pair.bulk_pi.primitive(phi)
            pi_g = pair.boundary_pi.primitive(psi)
            e_true = grad + float(lb @ (pair.bulk.primitive(phi) + pi_b)) \
                + float(lg @ (pair.boundary.primitive(psi) + pi_g))
            e_eps = grad \
                + float(lb @ (graphs.moreau_envelope(pair.bulk, eps, phi)
                              + pi_b)) \
                + float(lg @ (graphs.moreau_envelope(pair.boundary,
                                                     eps * pair.rho, psi)
                              + pi_g))
            lyap = e_eps + 0.5 * h * float(mu @ (Mb @ mu)) \
                + 0.5 * h * float(w @ (Mg @ w))
            want = (3, 0.03, e_true, e_eps, lyap,
                    float(lb @ (phi + h * mu)) / ops.bulk.measure,
                    float(lg @ (psi + h * w)) / ops.bdry.measure,
                    math.sqrt(float(phi @ (Mb @ phi))
                              + float(phi @ (Kb @ phi))),
                    math.sqrt(float(psi @ (Mg @ psi))
                              + float(psi @ (Kg @ psi))),
                    4)
            rec = diagnostics.make_record(state, report, pair, params, ops)
            assert dataclasses.astuple(rec) == want, seed
            assert math.isinf(rec.energy_true) == (kind == "obstacle")
            assert all(math.isfinite(v) for v in want[3:])
            # the public readers sum the same terms
            assert diagnostics.energy(state, pair, ops) == e_true
            assert diagnostics.energy(state, pair, ops, mode="regularized",
                                      eps=eps) == e_eps
            assert diagnostics.lyapunov(state, pair, eps, h, ops) == lyap

    def test_one_stiffness_product_and_primitive_per_side(self,
                                                          monkeypatch):
        ops = diskfem.assemble(diskfem.gen_disk_mesh(2, 8))
        pair = graphs.preset_pair("log")
        params = stepper.SchemeParams(h=1e-2, t_final=3e-2, eps=0.3)
        state = record_state(ops, "log")
        want = diagnostics.make_record(state, None, pair, params, ops)

        class Counted:
            def __init__(self, A):
                self.A, self.calls = A, 0

            def __matmul__(self, v):
                self.calls += 1
                return self.A @ v

        for part in (ops.bulk, ops.bdry):
            part.K, part.M = Counted(part.K), Counted(part.M)
        primitives = []
        plain = graphs.Perturbation.primitive

        def counted(pi, r):
            primitives.append(r)
            return plain(pi, r)

        monkeypatch.setattr(graphs.Perturbation, "primitive", counted)
        assert diagnostics.make_record(state, None, pair, params,
                                       ops) == want
        # a stiffness product and a perturbation primitive per side; mass
        # products of the value field (H1 norm) and the potential
        # (Lyapunov value)
        assert [(p.K.calls, p.M.calls) for p in (ops.bulk, ops.bdry)] \
            == [(1, 2), (1, 2)]
        assert len(primitives) == 2
