"""Energies, masses, a-priori monitors and trajectory comparison metrics.

Everything here is a read-only consumer of trajectories.  The potential
terms of the energy use the lumped mass weights (the integral of the
nodal interpolant); gradient terms use the consistent stiffness.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import diskfem, graphs, stepper
from .errors import GridMismatch, MeanMismatch

CSV_HEADER = ("n,t,energy_true,energy_eps,lyapunov,mass_bulk_aug,"
              "mass_bdry_aug,phi_h1,psi_h1,newton_iters")


def energy(state, pair, ops, mode="true", eps=None):
    """Total free energy of one state.

    ``mode='true'`` uses the unregularized potentials and returns +inf as
    soon as one nodal value leaves the graph domain; ``mode='regularized'``
    substitutes the inf-convolution envelopes with parameter ``eps``
    (scaled by rho on the boundary).
    """
    if mode == "regularized" and eps is None:
        raise ValueError("regularized energy needs eps")
    if mode not in ("true", "regularized"):
        raise ValueError("mode must be 'true' or 'regularized'")
    grad, pot = [], []
    for part, v, graph, pi, eps_eff in (
            (ops.bulk, state.phi, pair.bulk, pair.bulk_pi, eps),
            (ops.bdry, state.psi, pair.boundary, pair.boundary_pi,
             None if eps is None else eps * pair.rho)):
        conv = (graph.primitive(v) if mode == "true"
                else graphs.moreau_envelope(graph, eps_eff, v))
        grad.append(0.5 * float(v @ (part.K @ v)))
        pot.append(float(part.lumped @ (conv + pi.primitive(v))))
    # this summation order keeps the printed energies bit-stable
    return grad[0] + grad[1] + pot[0] + pot[1]


def _lyapunov(e_eps, state, h, ops):
    mu2 = float(state.mu @ (ops.M_bulk @ state.mu))
    w2 = float(state.w @ (ops.M_bdry @ state.w))
    return e_eps + 0.5 * h * mu2 + 0.5 * h * w2


def lyapunov(state, pair, eps, h, ops):
    """Regularized energy plus the step-weighted potential norms.

    This is the quantity the scheme dissipates for source-free runs when
    the step-size guard holds.
    """
    return _lyapunov(energy(state, pair, ops, mode="regularized", eps=eps),
                     state, h, ops)


@dataclass
class DiagRecord:
    """Per-state diagnostics row."""

    n: int
    t: float
    energy_true: float
    energy_eps: float
    lyapunov: float
    mass_bulk_aug: float
    mass_bdry_aug: float
    phi_h1: float
    psi_h1: float
    newton_iters: int


def make_record(state, report, pair, params, ops):
    """Build the diagnostics row for one state."""
    e_eps = energy(state, pair, ops, mode="regularized", eps=params.eps)
    return DiagRecord(
        n=state.n,
        t=state.t,
        energy_true=energy(state, pair, ops, mode="true"),
        energy_eps=e_eps,
        lyapunov=_lyapunov(e_eps, state, params.h, ops),
        mass_bulk_aug=diskfem.mean_bulk(ops, state.phi + params.h * state.mu),
        mass_bdry_aug=diskfem.mean_bdry(ops, state.psi + params.h * state.w),
        phi_h1=diskfem.norms_bulk(ops, state.phi)["h1"],
        psi_h1=diskfem.norms_bdry(ops, state.psi)["h1"],
        newton_iters=0 if report is None else report.newton_iters,
    )


def record_hook(records, pair, params, ops, stride=1):
    """Hook for :func:`chbs.stepper.run` appending rows to ``records``."""

    def hook(state, report):
        if state.n % stride == 0:
            records.append(make_record(state, report, pair, params, ops))

    return hook


def write_csv(records, path):
    """Write diagnostics rows with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
                     % (r.n, r.t, r.energy_true, r.energy_eps, r.lyapunov,
                        r.mass_bulk_aug, r.mass_bdry_aug, r.phi_h1,
                        r.psi_h1, r.newton_iters))


@dataclass
class AprioriReport:
    """Implementable subset of the uniform-estimate left-hand side."""

    sup_phi_h1_sq: float
    sup_psi_h1_sq: float
    visc_bulk_dissipation: float
    visc_bdry_dissipation: float
    h_sup_mu_l2_sq: float
    h_sup_w_l2_sq: float
    sup_env_bulk: float
    sup_env_bdry: float

    def as_dict(self):
        return dict(self.__dict__)

    def max_value(self):
        return max(self.as_dict().values())


def apriori_monitor(traj, pair, params, ops):
    """Running suprema and dissipation sums along a trajectory.

    Suprema run over the computed states (the step functions exclude the
    initial level); the dissipation sums are the viscosity-weighted
    squared difference quotients.
    """
    if not traj.states:
        raise ValueError("empty trajectory")
    states = traj.states
    h = params.h
    sup_phi = sup_psi = 0.0
    sup_mu = sup_w = 0.0
    sup_env_b = sup_env_g = 0.0
    diss_b = diss_g = 0.0
    for k in range(1, len(states)):
        s = states[k]
        sup_phi = max(sup_phi, diskfem.norms_bulk(ops, s.phi)["h1"] ** 2)
        sup_psi = max(sup_psi, diskfem.norms_bdry(ops, s.psi)["h1"] ** 2)
        sup_mu = max(sup_mu, float(s.mu @ (ops.M_bulk @ s.mu)))
        sup_w = max(sup_w, float(s.w @ (ops.M_bdry @ s.w)))
        env_b = float(ops.bulk.lumped
                      @ graphs.moreau_envelope(pair.bulk, params.eps, s.phi))
        env_g = float(ops.bdry.lumped
                      @ graphs.moreau_envelope(pair.boundary,
                                               params.eps * pair.rho, s.psi))
        sup_env_b = max(sup_env_b, env_b)
        sup_env_g = max(sup_env_g, env_g)
        dphi = s.phi - states[k - 1].phi
        dpsi = s.psi - states[k - 1].psi
        diss_b += float(dphi @ (ops.M_bulk @ dphi)) / h
        diss_g += float(dpsi @ (ops.M_bdry @ dpsi)) / h
    return AprioriReport(
        sup_phi_h1_sq=sup_phi,
        sup_psi_h1_sq=sup_psi,
        visc_bulk_dissipation=params.tau * diss_b,
        visc_bdry_dissipation=params.sigma * diss_g,
        h_sup_mu_l2_sq=h * sup_mu,
        h_sup_w_l2_sq=h * sup_w,
        sup_env_bulk=sup_env_b,
        sup_env_bdry=sup_env_g,
    )


@dataclass
class ContDepReport:
    """Solution-difference versus data-difference norms for paired runs."""

    lhs: float
    rhs: float
    ratio: float
    lhs_terms: dict
    rhs_terms: dict


def _dual_style(part, v):
    return diskfem.dual_norm(part, v) \
        + math.sqrt(part.measure) * abs(diskfem.mean(part, v))


def _check_same_grid(trajA, trajB):
    if len(trajA.states) != len(trajB.states):
        raise GridMismatch("trajectories record different numbers of states")
    tA, tB = trajA.times(), trajB.times()
    if not np.allclose(tA, tB, rtol=0.0, atol=1e-12):
        raise GridMismatch("trajectories record different times")
    if trajA.states[0].phi.shape != trajB.states[0].phi.shape:
        raise GridMismatch("trajectories live on different meshes")


def cont_dep(trajA, trajB, dataA, dataB, ops):
    """Continuous-dependence metric for two runs with matching means.

    The left side collects the sup of the dual norms of the state
    differences plus the step-rule time integrals of their H1 norms; the
    right side collects the dual norms of the initial differences plus
    the step-rule integrals of the source differences in the dual-style
    norm (zero-mean part through the Green operator plus the mean paired
    against constants).
    """
    _check_same_grid(trajA, trajB)
    m_b = abs(diskfem.mean_bulk(ops, dataA.phi0)
              - diskfem.mean_bulk(ops, dataB.phi0))
    m_g = abs(diskfem.mean_bdry(ops, dataA.psi0)
              - diskfem.mean_bdry(ops, dataB.psi0))
    if m_b > 1e-10 or m_g > 1e-10:
        raise MeanMismatch("initial mean gap bulk=%.3e boundary=%.3e"
                           % (m_b, m_g))
    tA = trajA.times()
    h_rec = float(tA[1] - tA[0]) if len(tA) > 1 else trajA.params.h

    sup_dual_b = sup_dual_g = 0.0
    int_h1_b = int_h1_g = 0.0
    for k, (sA, sB) in enumerate(zip(trajA.states, trajB.states)):
        dphi = sA.phi - sB.phi
        dpsi = sA.psi - sB.psi
        sup_dual_b = max(sup_dual_b, diskfem.dual_norm(ops.bulk, dphi))
        sup_dual_g = max(sup_dual_g, diskfem.dual_norm(ops.bdry, dpsi))
        if k >= 1:
            int_h1_b += h_rec * diskfem.norms_bulk(ops, dphi)["h1"] ** 2
            int_h1_g += h_rec * diskfem.norms_bdry(ops, dpsi)["h1"] ** 2
    lhs_terms = {
        "sup_dual_bulk": sup_dual_b,
        "sup_dual_bdry": sup_dual_g,
        "l2_h1_bulk": math.sqrt(int_h1_b),
        "l2_h1_bdry": math.sqrt(int_h1_g),
    }

    h = trajA.params.h
    n_steps = trajA.params.n_steps
    dphi0 = dataA.phi0 - dataB.phi0
    dpsi0 = dataA.psi0 - dataB.psi0
    src_b = src_g = 0.0
    for n in range(n_steps):
        df = stepper.average_source(dataA.f, n, h, ops.mesh.n_bulk) \
            - stepper.average_source(dataB.f, n, h, ops.mesh.n_bulk)
        dg = stepper.average_source(dataA.g, n, h, ops.mesh.n_bdry) \
            - stepper.average_source(dataB.g, n, h, ops.mesh.n_bdry)
        if np.any(df):
            src_b += h * _dual_style(ops.bulk, df) ** 2
        if np.any(dg):
            src_g += h * _dual_style(ops.bdry, dg) ** 2
    rhs_terms = {
        "dual_phi0": diskfem.dual_norm(ops.bulk, dphi0),
        "dual_psi0": diskfem.dual_norm(ops.bdry, dpsi0),
        "l2_dual_f": math.sqrt(src_b),
        "l2_dual_g": math.sqrt(src_g),
    }
    lhs = sum(lhs_terms.values())
    rhs = sum(rhs_terms.values())
    ratio = lhs / rhs if rhs > 0.0 else None
    return ContDepReport(lhs, rhs, ratio, lhs_terms, rhs_terms)


@dataclass
class CauchyReport:
    """Distances between a run and a finer-in-time run at shared times."""

    c_h: float
    l2v: float
    c_h_bdry: float
    l2v_bdry: float


def cauchy_distance(trajA, trajB, ops):
    """Compare a trajectory with one computed at a refined step.

    ``trajB`` must record an integer multiple of ``trajA``'s intervals
    (the degenerate multiple 1 compares equal grids).  The sup metric is
    over shared times; the integral metric uses the coarse spacing.
    """
    NA = len(trajA.states) - 1
    NB = len(trajB.states) - 1
    if NA < 1 or NB < 1 or NB % NA != 0:
        raise GridMismatch("refined run must nest the coarse one "
                           "(%d vs %d intervals)" % (NA, NB))
    if trajA.states[0].phi.shape != trajB.states[0].phi.shape:
        raise GridMismatch("trajectories live on different meshes")
    k = NB // NA
    h = float(trajA.times()[1] - trajA.times()[0])
    c_h = l2v = 0.0
    c_hg = l2vg = 0.0
    for n in range(NA + 1):
        nb = diskfem.norms_bulk(ops, trajA.states[n].phi
                                - trajB.states[k * n].phi)
        ng = diskfem.norms_bdry(ops, trajA.states[n].psi
                                - trajB.states[k * n].psi)
        c_h = max(c_h, nb["l2"])
        c_hg = max(c_hg, ng["l2"])
        if n >= 1:
            l2v += h * nb["h1"] ** 2
            l2vg += h * ng["h1"] ** 2
    return CauchyReport(c_h, math.sqrt(l2v), c_hg, math.sqrt(l2vg))


@dataclass
class ViolationReport:
    bulk: float
    bdry: float

    @property
    def max(self):
        return max(self.bulk, self.bdry)


def obstacle_violation(traj):
    """Largest overshoot of the unit box over all states and nodes."""
    vb = vg = 0.0
    for s in traj.states:
        vb = max(vb, float(np.maximum(np.abs(s.phi) - 1.0, 0.0).max()))
        vg = max(vg, float(np.maximum(np.abs(s.psi) - 1.0, 0.0).max()))
    return ViolationReport(vb, vg)


def interpolant_gap_identity(traj, ops):
    """Both sides of the time-interpolant gap identity for the bulk field.

    The left side integrates |hat - bar|^2 in the mass norm with 2-point
    Gauss quadrature per interval (exact: the integrand is quadratic in
    time); the right side is the closed form (h^2/3) |d/dt hat|^2.
    Returns ``(lhs, rhs)``.
    """
    h = traj.params.h
    N = len(traj.states) - 1
    gauss = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
    lhs = 0.0
    rhs = 0.0
    for n in range(N):
        for xi in gauss:
            t = (n + xi) * h
            vals = stepper.interpolants(traj, t)
            gap = vals["hat"]["phi"] - vals["bar"]["phi"]
            lhs += 0.5 * h * float(gap @ (ops.M_bulk @ gap))
        d = traj.states[n + 1].phi - traj.states[n].phi
        rhs += float(d @ (ops.M_bulk @ d)) / h
    rhs *= h * h / 3.0
    return lhs, rhs
