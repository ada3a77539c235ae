"""Energies, masses, a-priori monitors and trajectory comparison metrics.

Everything here is a read-only consumer of trajectories.  The potential
terms of the energy use the lumped mass weights (the integral of the
nodal interpolant); gradient terms use the consistent stiffness.  Each
diagnostic loops over :func:`sides`; the per-state quantities read each
side's value field in one pass (:func:`_energies`).
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import diskfem, graphs, stepper
from .errors import GridMismatch, MeanMismatch


def _energies(state, pair, ops, eps):
    """The true and the regularized energy of ``state`` (None without
    ``eps``; ``eps * rho`` on the boundary) and the H1 norm of each side's
    value field v, read in one pass per side: one stiffness product, one
    mass product and one perturbation primitive."""
    grad, pot, pot_eps, h1 = [], [], [], []
    for (part, val, _), graph, pi, scale in zip(
            sides(ops), (pair.bulk, pair.boundary),
            (pair.bulk_pi, pair.boundary_pi), (1.0, pair.rho)):
        v = getattr(state, val)
        vKv = float(v @ (part.K @ v))
        p = pi.primitive(v)
        grad.append(0.5 * vKv)
        pot.append(float(part.lumped @ (graph.primitive(v) + p)))
        if eps is not None:
            pot_eps.append(float(part.lumped @ (
                graphs.moreau_envelope(graph, eps * scale, v) + p)))
        h1.append(math.sqrt(max(float(v @ (part.M @ v)) + vKv, 0.0)))
    # this summation order keeps the printed energies bit-stable
    e_eps = grad[0] + grad[1] + pot_eps[0] + pot_eps[1] if pot_eps else None
    return grad[0] + grad[1] + pot[0] + pot[1], e_eps, h1


def energy(state, pair, ops, eps=None):
    """Total free energy of one state.

    Without ``eps`` the unregularized potentials are used, and the energy
    is +inf as soon as one nodal value leaves the graph domain; with
    ``eps`` the inf-convolution envelopes with that parameter (scaled by
    rho on the boundary) replace them.
    """
    return _energies(state, pair, ops, eps)[0 if eps is None else 1]


def _lyapunov(e_eps, state, h, ops):
    mu2 = float(state.mu @ (ops.bulk.M @ state.mu))
    w2 = float(state.w @ (ops.bdry.M @ state.w))
    return e_eps + 0.5 * h * mu2 + 0.5 * h * w2


def lyapunov(state, pair, eps, h, ops):
    """Regularized energy plus the step-weighted potential norms.

    This is the quantity the scheme dissipates for source-free runs when
    the step-size guard holds.
    """
    return _lyapunov(energy(state, pair, ops, eps=eps), state, h, ops)


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
    e_true, e_eps, h1 = _energies(state, pair, ops, params.eps)
    masses = [diskfem.mean(part, getattr(state, val)
                           + params.h * getattr(state, pot))
              for part, val, pot in sides(ops)]
    return DiagRecord(state.n, state.t, e_true, e_eps,
                      _lyapunov(e_eps, state, params.h, ops), *masses, *h1,
                      0 if report is None else report.newton_iters)


# the run.csv columns are DiagRecord's fields, in order
CSV_HEADER = ",".join(f.name for f in fields(DiagRecord))
_CSV_ROW = ",".join("%d" if f.type is int else "%.17g"
                    for f in fields(DiagRecord)) + "\n"


def csv_hook(fh, pair, params, ops, stride=1):
    """Hook for :func:`chbs.stepper.run` writing run.csv to the text file
    ``fh``: the header at once, then every ``stride``-th state's row with
    17 significant digits, flushed as soon as it is made."""
    fh.write(CSV_HEADER + "\n")

    def hook(state, report):
        if state.n % stride == 0:
            record = make_record(state, report, pair, params, ops)
            fh.write(_CSV_ROW % astuple(record))
            fh.flush()

    return hook


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


def sides(ops):
    """The (part, value field, potential field) triple of each side, bulk
    first; the fields are attribute names of a scheme state."""
    return ((ops.bulk, "phi", "mu"), (ops.bdry, "psi", "w"))


def _interleave(bulk, bdry):
    """Alternate the per-side values: bulk[0], bdry[0], bulk[1], ..."""
    return [x for pair in zip(bulk, bdry) for x in pair]


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
    per_side = []
    for (part, val, pot), graph, eps_eff, visc in zip(
            sides(ops), (pair.bulk, pair.boundary),
            (params.eps, params.eps * pair.rho), (params.tau, params.sigma)):
        sup_h1 = sup_pot = sup_env = diss = 0.0
        for prev, s in zip(states, states[1:]):
            v, u = getattr(s, val), getattr(s, pot)
            sup_h1 = max(sup_h1, diskfem.norms(part, v)["h1"] ** 2)
            sup_pot = max(sup_pot, float(u @ (part.M @ u)))
            sup_env = max(sup_env, float(
                part.lumped @ graphs.moreau_envelope(graph, eps_eff, v)))
            dv = v - getattr(prev, val)
            diss += float(dv @ (part.M @ dv)) / h
        per_side.append((sup_h1, visc * diss, h * sup_pot, sup_env))
    # the report's fields alternate bulk and boundary
    return AprioriReport(*_interleave(*per_side))


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


def check_means(dataA, dataB, ops):
    """The initial states of a pair of problems; :class:`MeanMismatch`
    unless both start with the same mean on each side."""
    initA = stepper.initial_state(dataA, ops)
    initB = stepper.initial_state(dataB, ops)
    gaps = [abs(diskfem.mean(part, getattr(initA, val))
                - diskfem.mean(part, getattr(initB, val)))
            for part, val, _ in sides(ops)]
    if any(gap > 1e-10 for gap in gaps):
        raise MeanMismatch("initial mean gap bulk=%.3e boundary=%.3e"
                           % tuple(gaps))
    return initA, initB


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
    initA, initB = check_means(dataA, dataB, ops)
    tA = trajA.times()
    h_rec = float(tA[1] - tA[0]) if len(tA) > 1 else trajA.params.h
    h = trajA.params.h
    lhs_sides, rhs_sides = [], []
    for (part, val, _), src in zip(sides(ops), ("f", "g")):
        sup_dual = int_h1 = 0.0
        for k, (sA, sB) in enumerate(zip(trajA.states, trajB.states)):
            dv = getattr(sA, val) - getattr(sB, val)
            sup_dual = max(sup_dual, diskfem.dual_norm(part, dv))
            if k >= 1:
                int_h1 += h_rec * diskfem.norms(part, dv)["h1"] ** 2
        src_sq = 0.0
        for n in range(trajA.params.n_steps):
            ds = stepper.average_source(getattr(dataA, src), n, h,
                                        part.lumped.size) \
                - stepper.average_source(getattr(dataB, src), n, h,
                                         part.lumped.size)
            if np.any(ds):
                src_sq += h * _dual_style(part, ds) ** 2
        dv0 = getattr(initA, val) - getattr(initB, val)
        lhs_sides.append((sup_dual, math.sqrt(int_h1)))
        rhs_sides.append((diskfem.dual_norm(part, dv0), math.sqrt(src_sq)))
    # this key order is the summation order of lhs and rhs
    lhs_terms = dict(zip(("sup_dual_bulk", "sup_dual_bdry", "l2_h1_bulk",
                          "l2_h1_bdry"), _interleave(*lhs_sides)))
    rhs_terms = dict(zip(("dual_phi0", "dual_psi0", "l2_dual_f",
                          "l2_dual_g"), _interleave(*rhs_sides)))
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
    out = []
    for part, val, _ in sides(ops):
        sup_l2 = int_h1 = 0.0
        for n in range(NA + 1):
            nrm = diskfem.norms(part, getattr(trajA.states[n], val)
                                - getattr(trajB.states[k * n], val))
            sup_l2 = max(sup_l2, nrm["l2"])
            if n >= 1:
                int_h1 += h * nrm["h1"] ** 2
        out += [sup_l2, math.sqrt(int_h1)]
    return CauchyReport(*out)


@dataclass
class ViolationReport:
    bulk: float
    bdry: float

    @property
    def max(self):
        return max(self.bulk, self.bdry)


def obstacle_violation(traj):
    """Largest overshoot of the unit box over all states and nodes."""
    return ViolationReport(*(
        max([0.0] + [float(np.maximum(np.abs(getattr(s, val)) - 1.0,
                                      0.0).max()) for s in traj.states])
        for val in ("phi", "psi")))


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
            lhs += 0.5 * h * float(gap @ (ops.bulk.M @ gap))
        d = traj.states[n + 1].phi - traj.states[n].phi
        rhs += float(d @ (ops.bulk.M @ d)) / h
    rhs *= h * h / 3.0
    return lhs, rhs
