"""Implicit time stepping for the coupled bulk-surface system.

Each step solves the monolithic nonlinear system for the new bulk order
parameter, bulk chemical potential and boundary potential (the boundary
order parameter is the trace of the bulk one, eliminated exactly).  The
graph nonlinearities are applied nodally and multiplied by the consistent
mass matrices; the solver is a damped semismooth Newton method with a
line search.  After convergence one constant added to each potential
pins the augmented mean values to rounding level.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp
from scipy.linalg.blas import ztbsv
from scipy.sparse.linalg import splu

from . import checkpoint, diskfem, graphs
from .errors import (IterationFailure, NewtonFailure, OutOfRange,
                     ParseError, ValidationFailure)

_GAUSS3_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
# decreasing regularizations of the strong compatibility check
STRONG_EPS_LADDER = (0.4, 0.2, 0.1, 0.05)
# smallest line-search step before the Newton solve counts as stagnated
DAMPING_MIN = 1.0 / 1024.0
# samples of the compatibility check in the step guard, 0.1-0.6 ms a call
GUARD_COMPAT_SAMPLES = 401


@dataclass
class SchemeParams:
    """Time-stepping parameters.

    ``tau`` and ``sigma`` are the bulk and boundary viscosity
    coefficients, ``eps`` the graph regularization parameter.  Zero
    viscosities are accepted but flagged as outside the well-posedness
    guard.
    """

    h: float
    t_final: float
    tau: float = 0.1
    sigma: float = 0.1
    eps: float = 0.1
    newton_tol: float = 1e-10
    newton_max: int = 50

    def check(self):
        bad = []
        if not 0.0 < self.h < math.inf:
            bad.append("time step h must be positive and finite")
        if not self.t_final >= self.h:
            bad.append("t_final must be at least one step")
        elif self.h > 0.0:
            steps = self.t_final / self.h
            if not (math.isfinite(steps) and abs(steps - round(steps))
                    <= 1e-9 * max(1.0, steps)):
                bad.append("t_final must be a whole number of steps "
                           "(t_final/h = %.17g)" % steps)
        if not 0.0 < self.eps <= 1.0:
            bad.append("eps must lie in (0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            bad.append("tau must lie in [0, 1]")
        if not 0.0 <= self.sigma <= 1.0:
            bad.append("sigma must lie in [0, 1]")
        if not 0.0 < self.newton_tol < math.inf:
            bad.append("newton_tol must be positive and finite")
        if not self.newton_max >= 1:
            bad.append("newton_max must be at least 1")
        return bad

    @property
    def n_steps(self):
        return int(round(self.t_final / self.h))


@dataclass
class ProblemData:
    """Initial data, sources and the potential pair.

    Only the bulk initial level ``phi0`` is data: the boundary one is its
    trace, which :func:`initial_state` takes.  Sources may be ``None``
    (zero), a nodal array (constant in time) or a callable ``t -> nodal
    array``.
    """

    phi0: np.ndarray
    f: object
    g: object
    pair: graphs.PotentialPair


def problem_data(ops, phi0, pair, f=None, g=None):
    """Assemble a :class:`ProblemData`; ``ops`` is unread, and stays in
    the signature because the benchmark in perfbench/ passes it."""
    return ProblemData(np.asarray(phi0, dtype=float), f, g, pair)


@dataclass
class SchemeState:
    """One time level.  ``psi`` is the boundary trace of ``phi``."""

    n: int
    t: float
    phi: np.ndarray
    mu: np.ndarray
    psi: np.ndarray
    w: np.ndarray


@dataclass
class StepReport:
    """Solver counts of one step.

    ``refactors`` counts every factorization of the Newton matrix, Fourier
    or exact, and ``fallbacks`` the pivoted ones among them that replaced
    a symmetric LU (see ``_StepWorkspace``).  ``linsolves`` counts every
    Newton solve, a rejected symmetric one included; the step makes no
    other linear solve.  ``backtracks`` counts the halvings of the line
    search.  ``exact_lu`` says whether the step ended on the exact LU of
    the Jacobian rather than on a rotation average; the Fourier path
    never resumes, so it stays true for the rest of the run.
    """

    newton_iters: int = 0
    final_residual: float = math.nan
    linsolves: int = 0
    refactors: int = 0
    fallbacks: int = 0
    backtracks: int = 0
    exact_lu: bool = False


@dataclass
class GuardReport:
    h_max: float
    ok: bool
    reason: str = ""


@dataclass
class Trajectory:
    """Computed states plus per-step solver reports.

    ``reports[0]`` is ``None`` (the initial state is given, not solved).
    On a solver failure the partial trajectory is kept and ``failure``
    holds the raised error.  Whether the run lies inside the theory is
    judged on the data before it starts (:func:`step_guard`), not here.
    """

    states: list
    reports: list
    params: SchemeParams
    failure: Exception = None
    failed_step: int = None

    def times(self):
        return np.array([s.t for s in self.states])

    @property
    def ok(self):
        return self.failure is None


@dataclass
class ValidationReport:
    ok: bool
    violations: list
    strong_norms: list = field(default_factory=list)
    strong_plateau: bool = None

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationFailure(self.violations)
        return self


def step_guard(params, pair):
    """Largest step compatible with the monotone-solver theory, and
    whether the run lies inside that theory.

    The bound is tau / (2 L) in the bulk and sigma / (2 L_Gamma) on the
    boundary; with vanishing viscosity the bound is unsatisfiable.  The
    theory also needs the pair to be compatible at the run's eps,
    |beta_eps| <= rho |beta_{Gamma,eps rho}| + c0, which
    :func:`chbs.graphs.check_compatibility` samples on two grids of
    ``GUARD_COMPAT_SAMPLES`` points; a pair that fails it is outside the
    theory whatever the step.
    """
    L, Lg = pair.bulk_pi.lipschitz, pair.boundary_pi.lipschitz
    term_b = math.inf if L == 0.0 else params.tau / (2.0 * L)
    term_g = math.inf if Lg == 0.0 else params.sigma / (2.0 * Lg)
    h_max = min(term_b, term_g)
    reasons = []
    if params.tau == 0.0 or params.sigma == 0.0:
        reasons.append("outside discrete well-posedness theory")
    elif not params.h < h_max:
        reasons.append("step exceeds h_max")
    compat = graphs.check_compatibility(pair, params.eps,
                                        GUARD_COMPAT_SAMPLES)
    if not compat.ok:
        reasons.append(str(compat))
    return GuardReport(h_max, not reasons, "; ".join(reasons))


def average_source(source, n, h, size):
    """Average of the source over step ``n`` by 3-point Gauss quadrature.

    Exact for sources polynomial in time up to degree five.
    """
    if not callable(source):
        return source_at(source, n * h, size)
    acc = np.zeros(size)
    for t, weight in zip(_gauss_times(n, h), _GAUSS3_WEIGHTS):
        acc += weight * np.asarray(source(t), dtype=float)
    return acc


def _gauss_times(n, h):
    """The quadrature nodes of step ``n`` at which sources are evaluated."""
    return [n * h + 0.5 * h * (node + 1.0) for node in _GAUSS3_NODES]


def source_at(source, t, size):
    """Nodal value of a source at time ``t`` (zero for ``None``)."""
    if source is None:
        return np.zeros(size)
    if not callable(source):
        return np.asarray(source, dtype=float).copy()
    return np.asarray(source(t), dtype=float)


def initial_state(data, ops):
    """Time level zero: both potentials start at zero."""
    phi = np.asarray(data.phi0, dtype=float).copy()
    return SchemeState(0, 0.0, phi, np.zeros(ops.mesh.n_bulk),
                       diskfem.trace(ops, phi), np.zeros(ops.mesh.n_bdry))


def validate(data, params, ops, strong=False):
    """Check the admissibility of problem data and parameters.

    Sources must have one finite value per node: array sources are checked
    once, callable ones at every quadrature node of the run.
    With ``strong=True`` additionally evaluates the compatibility
    expression  -Lap(phi0) + beta_eps(phi0) + pi(phi0) - f(0)  in the
    discrete H1 norm over the regularizations ``STRONG_EPS_LADDER`` and
    reports whether those norms plateau (relative growth of the last rung
    below ten percent).
    """
    param_violations = params.check()
    violations = list(param_violations)
    pair = data.pair
    phi0 = np.asarray(data.phi0, dtype=float)
    if phi0.shape[0] != ops.mesh.n_bulk:
        violations.append("phi0 has %d entries, mesh has %d vertices"
                          % (phi0.shape[0], ops.mesh.n_bulk))
        return ValidationReport(False, violations)
    for part, v, graph in ((ops.bulk, phi0, pair.bulk),
                           (ops.bdry, diskfem.trace(ops, phi0),
                            pair.boundary)):
        m = diskfem.mean(part, v)
        if not graph.contains(m, interior=True):
            violations.append("%s mean %.6g not interior to the %s graph "
                              "domain" % (part.name, m, part.name))
        if not np.isfinite(graph.primitive(v)).all():
            violations.append("initial %s potential energy is infinite"
                              % part.name)
    for name, source, size in (("f", data.f, ops.mesh.n_bulk),
                               ("g", data.g, ops.mesh.n_bdry)):
        # arrays are constant in time; a callable is checked at every time
        # average_source evaluates it at, which needs a valid step grid
        times = [0.0]
        if callable(source):
            times = [] if param_violations else [
                t for n in range(params.n_steps)
                for t in _gauss_times(n, params.h)]
        for t in times:
            values = source_at(source, t, size)
            if values.shape != (size,):
                violations.append("source %s has shape %s, expected (%d,)"
                                  % (name, values.shape, size))
                break
            if not np.isfinite(values).all():
                violations.append("source %s has non-finite entries" % name)
                break

    report = ValidationReport(not violations, violations)
    if strong and not violations:
        f0 = source_at(data.f, 0.0, ops.mesh.n_bulk)
        lap = ops.bulk.solver("mass").solve(ops.bulk.K @ phi0, "mass solve")
        norms = []
        for eps in STRONG_EPS_LADDER:
            e = lap + graphs.yosida(pair.bulk, eps, phi0) \
                + pair.bulk_pi(phi0) - f0
            norms.append(diskfem.norms(ops.bulk, e)["h1"])
        report.strong_norms = norms
        if len(norms) >= 2 and norms[-2] > 0.0:
            report.strong_plateau = (norms[-1] - norms[-2]) <= 0.1 * norms[-2]
        else:
            report.strong_plateau = True
    return report


def _ring_layout(mesh, L):
    """``(rings, sectors)`` of a ring-numbered mesh, else ``None``.

    Ring numbering is that of :func:`chbs.diskfem.gen_disk_mesh`: vertex
    0 is the center, then come the rings of S vertices each, and the
    boundary loop is the outer ring in order.  The step operator ``L``
    must also commute, to rounding, with the rotation by one sector,
    which excludes a ring-numbered mesh of another shape.
    """
    nb, S = mesh.n_bulk, mesh.n_bdry
    if S < 3 or nb == 1 or (nb - 1) % S or not np.array_equal(
            mesh.boundary_loop, np.arange(nb - S, nb)):
        return None
    rings = (nb - 1) // S
    ring = _ring_unknowns(rings, S)
    turn = np.arange(L.shape[0])
    turn[ring] = np.roll(ring, -1, axis=1)
    if abs(L[turn][:, turn] - L).max() > 1e-10 * abs(L).max():
        return None
    return rings, S


def _ring_unknowns(rings, sectors):
    """Indices of the ring unknowns of x = (phi, mu, w), one row per ring.

    The rows interleave the two bulk fields ring by ring, phi_1, mu_1,
    ..., phi_R, mu_R, and end with w on the boundary; the center's phi
    and mu (indices 0 and N_bulk) are left out.
    """
    nb = 1 + rings * sectors
    phi = np.arange(1, nb).reshape(rings, 1, sectors)
    bulk = np.concatenate([phi, phi + nb], axis=1).reshape(-1, sectors)
    return np.vstack([bulk, np.arange(2 * nb, 2 * nb + sectors)])


class _FourierFactor:
    """Direct solver for the rotation average of a ring-mesh matrix ``A``.

    On a ring mesh with R rings of S sectors the unknowns x = (phi, mu,
    w) form G = 2R + 1 rings of S values plus the center's phi and mu.  A
    matrix that commutes with the rotation by one sector couples two
    rings by a circulant, read here from the first row of each ring, so
    the orthonormal real FFT along the rings splits A x = v into S//2 + 1
    independent complex mode blocks of G unknowns; the center's two join
    the mode-0 block (Swarztrauber & Sweet, SIAM J. Numer. Anal. 10,
    1973).  Rows other than the first of each ring are not read, so for a
    matrix that is not rotation invariant this solves its circulant
    stencil, not A.

    The factor orders the center's phi and mu first and then mode m's
    ring unknowns at 2 + m G, in the order of ``_ring_unknowns``: phi and
    mu interleaved ring by ring, w last.  A ring couples only to itself
    and its neighbours, and the center only to the first ring, so the
    whole block-diagonal matrix is one band, three wide on each side
    (mu_k to phi_(k-1) below, phi_k to mu_(k+1) above).  The widths
    ``kl`` and ``ku`` are read from the entries.

    The band is factored once, in place and without pivoting
    (``_band_lu``), and each solve applies the factors with two BLAS
    triangular band solves (``ztbsv``): the unit lower triangle, kl wide,
    then the upper one, ku wide, held as U D^-1 with a unit diagonal and
    followed by a multiply by 1/D.  Pivots buy nothing here: inside the
    step guard R J is quasi-definite (see ``_StepWorkspace``), and so are
    its rotation average and the average's mode blocks, which factor
    stably without pivoting in any symmetric order (Vanderbei, SIAM J.
    Optim. 5, 1995).  The multipliers stay below 2 on the 40x160
    averages, and below 19 on the averages outside the guard that the
    tests check (zero viscosity, the obstacle at small eps).  No backward
    error is checked: a Fourier direction is never final, and a poor one
    is caught by the contraction rule or the line-search cut, which end
    the Fourier path.  A zero or non-finite pivot raises RuntimeError,
    upon which the step leaves the Fourier path for the exact LU
    (``_StepWorkspace.direction``).
    """

    def __init__(self, A, rings, sectors):
        S = sectors
        ring = _ring_unknowns(rings, S)
        center = np.array([0, 1 + rings * S])
        G = ring.shape[0]
        self.shape = (rings, S)
        self.n_modes = n_modes = S // 2 + 1
        # place of every unknown in the mode-0 block (the center's two
        # first) and its sector (0 at the center)
        place = np.empty(A.shape[0], dtype=np.int64)
        sector = np.zeros(A.shape[0], dtype=np.int64)
        place[ring] = 2 + np.arange(G)[:, None]
        sector[ring] = np.arange(S)
        place[center] = np.arange(2)
        A = A.tocsr()

        rows = A[ring[:, 0]].tocoo()
        a, b, j = 2 + rows.row, place[rows.col], sector[rows.col]
        on_ring = b >= 2
        # ring to ring: one circulant stencil per coupled pair of rings
        pairs, pair = np.unique(a[on_ring] * (G + 2) + b[on_ring],
                                return_inverse=True)
        stencil = np.zeros((pairs.size, S))
        np.add.at(stencil, (pair, j[on_ring]), rows.data[on_ring])
        # mode m multiplies by sum_d c[d] exp(+2 pi i m d / S)
        lam = np.conj(np.fft.rfft(stencil, axis=1))
        ring_a, ring_b = np.divmod(pairs, G + 2)
        # the center couples to the rings through mode 0 only, which the
        # orthonormal FFT makes the ring sum over sqrt(S)
        c_rows = A[center].tocoo()
        c_cols = place[c_rows.col]
        center_a = np.concatenate([a[~on_ring], c_rows.row])
        center_b = np.concatenate([b[~on_ring], c_cols])
        center_values = np.concatenate([
            math.sqrt(S) * rows.data[~on_ring],
            np.where(c_cols >= 2, c_rows.data / math.sqrt(S), c_rows.data)])
        gaps = np.concatenate([ring_a - ring_b, center_a - center_b])
        self.kl = kl = max(int(gaps.max()), 0)
        self.ku = ku = max(int(-gaps.min()), 0)
        # general band storage: A[i, k] at ab[ku + i - k, k]
        ab = np.zeros((kl + ku + 1, 2 + G * n_modes), dtype=complex)
        ab[(ku + ring_a - ring_b)[:, None],
           ring_b[:, None] + G * np.arange(n_modes)] = lam
        np.add.at(ab, (ku + center_a - center_b, center_b), center_values)
        # a zero pivot gives inf or NaN, refused below without a warning
        with np.errstate(all="ignore"):
            _band_lu(ab, kl, ku, G)
        if not (ab[ku].all() and np.isfinite(ab).all()):
            raise RuntimeError("Factor is exactly singular")
        # BLAS band storage of the unit lower triangle and of U D^-1, D
        # the diagonal of U: a unit-diagonal solve and a multiply by 1/D
        # are faster than the solve with U
        self._lower = np.asfortranarray(ab[ku:])
        self._upper = np.asfortranarray(ab[:ku + 1] / ab[ku])
        self._inv_diag = 1.0 / ab[ku]

    def solve(self, v):
        R, S = self.shape
        nb, G = 1 + R * S, 2 * R + 1
        # the rows of _ring_unknowns, filled through views: phi and mu
        # interleaved ring by ring, w last
        rows = np.empty((G, S))
        bulk = rows[:-1].reshape(R, 2, S)
        bulk[:, 0] = v[1:nb].reshape(R, S)
        bulk[:, 1] = v[nb + 1:2 * nb].reshape(R, S)
        rows[-1] = v[2 * nb:]
        b = np.empty(2 + G * self.n_modes, dtype=complex)
        b[0], b[1] = v[0], v[nb]
        b[2:].reshape(self.n_modes, G).T[...] = np.fft.rfft(
            rows, axis=1, norm="ortho")
        y = ztbsv(self.kl, self._lower, b, lower=1, diag=1, overwrite_x=1)
        y = ztbsv(self.ku, self._upper, y, diag=1, overwrite_x=1)
        y *= self._inv_diag
        rows = np.fft.irfft(y[2:].reshape(self.n_modes, G).T, n=S, axis=1,
                            norm="ortho")
        bulk = rows[:-1].reshape(R, 2, S)
        x = np.empty(v.shape)
        x[0], x[nb] = y[0].real, y[1].real
        x[1:nb].reshape(R, S)[...] = bulk[:, 0]
        x[nb + 1:2 * nb].reshape(R, S)[...] = bulk[:, 1]
        x[2 * nb:] = rows[-1]
        return x


def _band_lu(ab, kl, ku, G):
    """Unpivoted LU, in place, of the band ``ab`` of ``_FourierFactor``:
    the center's two columns, then the mode blocks of G columns each,
    one column of every block at a time.  The blocks do not couple, so
    updates that would cross a block's end are skipped."""
    n = ab.shape[1]
    for k in range(2):
        nt = min(kl, n - 1 - k)
        ab[ku + 1:ku + 1 + nt, k] /= ab[ku, k]
        for s in range(1, min(ku, n - 1 - k) + 1):
            ab[ku + 1 - s:ku + 1 - s + nt, k + s] -= \
                ab[ku + 1:ku + 1 + nt, k] * ab[ku - s, k + s]
    blocks = ab[:, 2:].reshape(ab.shape[0], -1, G)
    for j in range(G):
        nt = min(kl, G - 1 - j)
        low = blocks[ku + 1:ku + 1 + nt, :, j]
        low /= blocks[ku, :, j]
        for s in range(1, min(ku, G - 1 - j) + 1):
            blocks[ku + 1 - s:ku + 1 - s + nt, :, j + s] -= \
                low * blocks[ku - s, :, j + s]


class _StepOperator:
    """The parts of a step that do not depend on eps.

    The step operator ``L`` and the row map ``R`` (see ``_StepWorkspace``),
    the ring layout of ``L`` (``_ring_layout``) and the pinning columns
    ``pins`` = (L e_mu, L e_w), e_mu and e_w being the all-ones vectors
    on mu and on w, depend only on ``ops``, h, tau, sigma and the two
    perturbation slopes.  :meth:`of` builds them once per such key and
    keeps them in ``ops.step_operators``, read-only afterwards, so the
    members of an eps sweep share one; the factor state stays with each
    workspace.
    """

    def __init__(self, ops, h, tau, sigma, sb, sg):
        mesh = ops.mesh
        nb, ng = mesh.n_bulk, mesh.n_bdry
        self.P = P = sp.csr_matrix(
            (np.ones(ng), (np.arange(ng), mesh.boundary_loop)),
            shape=(ng, nb))
        self.E = sp.eye(2 * nb + ng, nb, k=-nb, format="csr")
        self.E_phi = sp.eye(2 * nb + ng, nb, format="csr")
        Mb, Kb = ops.bulk.M, ops.bulk.K
        Mg, Kg = ops.bdry.M, ops.bdry.K
        self.L = L = sp.bmat(
            [[Mb / h, Mb + Kb, None],
             [(tau / h + sb) * Mb + Kb
              + P.T @ ((sigma / h + sg) * Mg + Kg) @ P, -Mb, -(P.T @ Mg)],
             [(Mg / h) @ P, None, Mg + Kg]], format="csr")
        self.R = sp.bmat([[None, sp.eye(nb), None],
                          [-h * sp.eye(nb), None, None],
                          [None, None, -h * sp.eye(ng)]], format="csr")
        self.rings = _ring_layout(mesh, L)
        e_mu, e_w = np.zeros(L.shape[0]), np.zeros(L.shape[0])
        e_mu[nb:2 * nb] = 1.0
        e_w[2 * nb:] = 1.0
        self.pins = L @ e_mu, L @ e_w

    @classmethod
    def of(cls, ops, pair, params):
        """The operator on ``ops`` for the values of ``pair`` and
        ``params`` it depends on, built on the first call."""
        key = (params.h, params.tau, params.sigma, pair.bulk_pi.slope,
               pair.boundary_pi.slope)
        if key not in ops.step_operators:
            ops.step_operators[key] = cls(ops, *key)
        return ops.step_operators[key]


class _StepWorkspace:
    """Per-run state of the Newton steps: the reuse of one factor.

    A step solves r(x) = L x - b_n + E n(phi) = 0 for x = (phi, mu, w): L
    is the linear part of the step equations, b_n the load of level n and
    E puts the nodal graph term n(phi) on the mu rows.  So the Jacobian
    L + E n'(phi) E_phi^T moves only with the graph derivatives, which
    drift slowly along a trajectory, and one factor of it serves many
    Newton updates, across iterations and time steps.  L, R, the ring
    layout and the pinning columns, which give the residual after the
    mean pin from the one before it (``shifted``), do not depend on eps
    and come from the ``_StepOperator`` shared on ``ops``; the factor
    (``_lu``, ``_fresh``) and whether the run is still on the Fourier
    path (``rings``) are the workspace's own.

    Two Newton matrices are used, both row-mapped by R (below).  On a
    ring-numbered mesh (see ``_ring_layout``) L commutes with the rotation
    by one sector and only the nodal graph derivatives d break that
    symmetry.  There the run starts on the rotation average of the
    Jacobian: d is replaced by its mean over each ring of the bulk and
    over the boundary loop (T. F. Chan's optimal circulant, SIAM J. Sci.
    Stat. Comput. 9, 1988), which ``_FourierFactor`` solves mode by mode,
    at a fraction of the fill of an LU of the whole matrix.  On any other
    mesh the factor is the exact LU of R J from the start.

    One rule, read from the iteration itself, judges every factor (the
    simplified-Newton rule of Hairer & Wanner, Solving ODEs II, IV.8, and
    Deuflhard 2004): the factor goes stale (``stale``) after an accepted
    update whose contraction theta = rms_new / rms_old exceeds the
    threshold of its kind, and when the line search cuts below alpha =
    1/4 a direction that did not come from a fresh exact LU (a non-finite
    direction always is cut).  The next direction builds a factor of the
    same kind at the current iterate, except that a Fourier factor cut by
    the line search, or stale on the first update it served, ends the
    Fourier path: a fresh rotation average that does not contract cannot
    be helped by another average, and every later factor is the exact LU.
    How far a factor may drift depends on what a new one costs: on the
    40x160 mesh a Fourier solve costs about a tenth of an exact one and a
    Fourier factorization about a twenty-fifth, so the threshold is
    ``THETA_MAX_FOURIER`` = 0.15 for a Fourier factor and ``THETA_MAX`` =
    0.05 for an exact LU.  On the regular and log desk runs the average
    contracts at theta of about 1e-5 and one Fourier factor serves the
    whole run.  The active-set obstacle data of the benchmark start with
    no node beyond +-1, so their first factor is the Fourier factor of
    R L, exact as L is rotation invariant.  The frozen-graph iteration on
    it contracts at theta of 0.06 in the median and 0.12 at most (ic seed
    8), so that one factor serves 100 steps, which the threshold of an
    exact LU would not allow.  While every node of an obstacle run
    stays strictly inside (-1, 1) the Yosida derivative is 0, the
    Jacobian is constant and its first factor serves the whole run.

    Neither simpler rule works.  A fixed age refactorizes every few
    directions whether or not the old factor still contracts, and most of
    the run goes into factorizations that change nothing.  Never
    refactorizing lets a moving active set (obstacle graph, eps = 0.05)
    slow the iteration to a crawl: one exact LU for 100 steps costs 641
    Newton iterations where the contraction rule needs about 300.
    Rebuilding every stale average as an average, first update or not,
    rebuilds one at almost every step where no average contracts: the
    active-set obstacle data at eps = 0.01 (eps tau = h, ic seed 8, 100
    steps) built 380 Fourier factors and tripled the wall time, against
    13 factors under this rule.  The decision reads residuals only, never
    timings, so runs stay deterministic; correctness rests on the exact
    residual, not on the factor being current.

    The exact LU is of R J, not of J: the row map R orders the block rows
    as (mu, -h phi, -h w).  Inside the step guard R J is then symmetric
    quasi-definite, with a positive definite (phi, phi) block and a
    negative definite (mu, w) block, except that the graph terms
    M diag(d) of its (phi, phi) block are not symmetric.  Such a matrix
    factors stably in any symmetric order without pivoting (Vanderbei,
    SIAM J. Optim. 5, 1995), so SuperLU runs in symmetric mode on a
    minimum-degree order of R J + (R J)^T.  With partial pivoting, the
    default, the pivots undo the fill-reducing order and the factors hold
    about twice the entries.  Nothing guarantees stability outside the
    theory (zero viscosity, say), so the first direction of each
    symmetric LU is checked: if it is non-finite or its backward error
    exceeds ``BACKWARD_TOL``, the pivoted LU of R J replaces it until the
    next refactorization.
    """

    # On the active-set obstacle case 0.01-0.05 give about the same
    # counts for an exact LU; at 0.1 one that contracts slowly is kept
    # and some runs need 680 iterations instead of 300.  For a Fourier
    # factor 0.15 and 0.3 give the same counts.
    THETA_MAX = 0.05
    THETA_MAX_FOURIER = 0.15
    # relative backward error ||R J dx + R r|| / ||R r|| a symmetric LU's
    # first direction must meet; the pivoted LU meets it by far
    BACKWARD_TOL = 1e-8

    def __init__(self, ops, pair, params):
        self.ops = ops
        self.pair = pair
        self.params = params
        self.loop = ops.mesh.boundary_loop
        self.nb = ops.mesh.n_bulk
        op = _StepOperator.of(ops, pair, params)
        self.P, self.E, self.E_phi = op.P, op.E, op.E_phi
        self.L, self.R, self.pins = op.L, op.R, op.pins
        # (rings, sectors) while the run uses Fourier factors, else None
        self.rings = op.rings
        self._lu = None
        self._fresh = True  # the factor has served no update yet
        # the right-hand side of every direction, reused: a fresh array
        # per direction raised the peak RSS of the benchmark's 100-step
        # active-set obstacle run from 87-93 MB to 88-101 MB, most likely
        # through the layout of the heap
        self._rhs = np.empty(self.L.shape[0])

    def load(self, state, fn, gn):
        """b_n: the old level ``state`` and the averaged sources."""
        p = self.params
        Mb, Mg = self.ops.bulk.M, self.ops.bdry.M
        b_mu = Mb @ ((p.tau / p.h) * state.phi + fn)
        b_mu[self.loop] += Mg @ ((p.sigma / p.h) * state.psi + gn)
        return np.concatenate([Mb @ (state.phi / p.h + state.mu), b_mu,
                               Mg @ (state.psi / p.h + state.w)])

    def residual(self, x, b):
        """Return ``(r, rms)`` with r = L x - b + E n(phi)."""
        pair, eps = self.pair, self.params.eps
        phi = x[:self.nb]
        r = self.L @ x - b
        r_mu = r[self.nb:2 * self.nb]
        r_mu += self.ops.bulk.M @ graphs.yosida(pair.bulk, eps, phi)
        r_mu[self.loop] += self.ops.bdry.M @ graphs.yosida(
            pair.boundary, eps * pair.rho, phi[self.loop])
        return r, _rms(r)

    def shifted(self, r, c_b, c_g):
        """Turn the residual r at x, in place, into the residual at x with
        c_b added to mu and c_g to w; returns ``(r, rms)``.  The graph term
        reads phi alone, so r moves by c_b L e_mu + c_g L e_w."""
        pin_mu, pin_w = self.pins
        r += c_b * pin_mu
        r += c_g * pin_w
        return r, _rms(r)

    def jacobian_matrix(self, phi, average=False):
        """J at ``phi``; with ``average`` its rotation average on the ring
        mesh, where the graph derivatives are replaced by their mean over
        each ring of the bulk and over the boundary loop."""
        pair, eps = self.pair, self.params.eps
        d_b = graphs.yosida_prime(pair.bulk, eps, phi)
        d_g = graphs.yosida_prime(pair.boundary, eps * pair.rho,
                                  phi[self.loop])
        if average:
            rings, sectors = self.rings
            ring_means = d_b[1:].reshape(rings, sectors).mean(axis=1)
            d_b = np.concatenate([d_b[:1], np.repeat(ring_means, sectors)])
            d_g = np.full(d_g.shape, d_g.mean())
        N = self.ops.bulk.M.multiply(d_b[None, :]) \
            + self.P.T @ self.ops.bdry.M.multiply(d_g[None, :]) @ self.P
        return self.L + self.E @ N @ self.E_phi.T

    def direction(self, phi, r, report):
        """Newton direction for residual ``r``; returns ``(dx, final)``.

        Solves (R J) dx = -R r with the current factor, built at ``phi``
        when there is none.  ``final`` says that dx comes from a fresh
        exact LU, so a rebuild cannot do better.  Solves, factorizations
        and fallbacks are counted in ``report``.
        """
        nb, h = self.nb, self.params.h
        # -R r, whose rows are (-r_mu, h r_phi, h r_w), in the one buffer
        rhs = self._rhs
        np.negative(r[nb:2 * nb], out=rhs[:nb])
        np.multiply(h, r[:nb], out=rhs[nb:2 * nb])
        np.multiply(h, r[2 * nb:], out=rhs[2 * nb:])
        final = False
        if self._lu is None:
            self._fresh = True
            report.refactors += 1
            if self.rings is not None:
                try:
                    self._lu = _FourierFactor(
                        self.R @ self.jacobian_matrix(phi, average=True),
                        *self.rings)
                except RuntimeError:
                    # the unpivoted LU met a zero or non-finite pivot:
                    # leave the Fourier path for the exact LU
                    self.rings = None
            if self._lu is None:
                A = (self.R @ self.jacobian_matrix(phi)).tocsc()
                self._lu = splu(A, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options=dict(SymmetricMode=True))
                dx = self._lu.solve(rhs)
                report.linsolves += 1
                # NaN-safe: a non-finite dx fails the comparison
                if (np.linalg.norm(A @ dx - rhs)
                        <= self.BACKWARD_TOL * np.linalg.norm(rhs)):
                    return dx, True
                self._lu = None  # free the rejected factors first
                self._lu = splu(A)
                report.refactors += 1
                report.fallbacks += 1
                final = True
        report.linsolves += 1
        return self._lu.solve(rhs), final

    def accepted(self, rms_old, rms_new):
        """Judge the factor by the contraction of one accepted update."""
        first, self._fresh = self._fresh, False
        theta_max = (self.THETA_MAX if self.rings is None
                     else self.THETA_MAX_FOURIER)
        # NaN-safe: a non-finite theta marks the factor stale
        if not rms_new <= theta_max * rms_old:
            self.stale(end_fourier=first)

    def stale(self, end_fourier=True):
        """Drop the factor, which also frees it before the next one is
        built; with ``end_fourier`` every later factor is the exact LU."""
        self._lu = None
        if end_fourier:
            self.rings = None


def solve_step(state, data, params, ops, work=None, guess=None):
    """Advance one time level.

    The Newton iteration starts at ``guess``, a vector x = (phi, mu, w),
    when one is given, and at the old level otherwise; the sources enter
    as their step averages (:func:`average_source`).  Returns
    ``(new_state, StepReport)``.  Raises NewtonFailure when the damped
    iteration stagnates; linear solver errors propagate.

    ``params.newton_tol`` bounds the rms of the residual r, whose rows are
    integrals against the P1 basis functions and so scale with the local
    element area, not nodal values.  The nodal accuracy it buys therefore
    differs by mesh: on the 250-step regular desk run (40x160 mesh), each
    step solved once from ``run``'s extrapolated guess and once from the
    old level, both meeting newton_tol = 1e-10, differ by up to 5.1e-9 in
    nodal w, 3.9e-9 in mu and 8e-11 in phi.

    After convergence one constant per side pins the augmented means.
    The residual of the pinned x, which the ``newton_tol`` check and
    ``final_residual`` read, is the last accepted residual plus that
    rank-two shift (``_StepWorkspace.shifted``), not a fresh evaluation.
    """
    if work is None:
        work = _StepWorkspace(ops, data.pair, params)

    h, nb = params.h, work.nb
    tol_inner = 0.25 * params.newton_tol
    b = work.load(state,
                  average_source(data.f, state.n, h, ops.mesh.n_bulk),
                  average_source(data.g, state.n, h, ops.mesh.n_bdry))
    # a copy of the guess, as the means are pinned in x itself below
    x = (np.concatenate([state.phi, state.mu, state.w]) if guess is None
         else np.array(guess, dtype=float))
    r, rms = work.residual(x, b)
    report = StepReport()
    # "not rms <= tol" rather than "rms > tol": a NaN residual must keep
    # iterating until it fails, never pass as converged
    while not rms <= tol_inner:
        if report.newton_iters >= params.newton_max:
            raise NewtonFailure("no convergence in %d iterations"
                                % params.newton_max, residual=rms)
        dx, final = work.direction(x[:nb], r, report)
        alpha = 1.0
        while True:
            x_c = x + alpha * dx
            try:
                r_c, rms_c = work.residual(x_c, b)
            except IterationFailure:
                # the log resolvent cannot evaluate the trial point (a
                # non-finite direction, say): reject it like a worse one
                r_c, rms_c = None, math.inf
            if rms_c < rms or rms_c <= tol_inner:
                work.accepted(rms, rms_c)
                x, r, rms = x_c, r_c, rms_c
                break
            alpha *= 0.5
            report.backtracks += 1
            if alpha < 0.25 and not final:
                # an old or averaged factor produced a poor direction;
                # rebuild it as an exact LU and retry
                work.stale()
                dx, final = work.direction(x[:nb], r, report)
                alpha = 1.0
                continue
            if alpha < DAMPING_MIN:
                raise NewtonFailure("line search stagnated", residual=rms)
        report.newton_iters += 1

    # the stiffness annihilates constants, so one constant per side puts
    # the augmented means m(phi + h mu) and m(psi + h w) back at the old
    # level's values, to rounding, whatever the Newton tolerance
    phi, mu, w = np.split(x, [nb, 2 * nb])
    psi = phi[work.loop]
    c_b = diskfem.mean(ops.bulk, state.phi - phi + h * (state.mu - mu)) / h
    c_g = diskfem.mean(ops.bdry, state.psi - psi + h * (state.w - w)) / h
    mu += c_b
    w += c_g
    _, rms = work.shifted(r, c_b, c_g)
    if not rms <= params.newton_tol:
        raise NewtonFailure("post-enforcement residual %.3e above tolerance"
                            % rms, residual=rms)
    report.final_residual = rms
    report.exact_lu = work.rings is None
    new = SchemeState(state.n + 1, (state.n + 1) * h, phi, mu, psi, w)
    return new, report


def _rms(r):
    return math.sqrt(float(r @ r) / r.size)


def _predict(history):
    """Polynomial extrapolation of the levels in ``history`` to the next.

    ``history`` holds the last one to three x = (phi, mu, w), oldest
    first: the guess is x_n, 2 x_n - x_{n-1} or
    3 x_n - 3 x_{n-1} + x_{n-2}, the usual starting value of the
    simplified Newton iteration of implicit integrators (Hairer & Wanner,
    Solving ODEs II, IV.8).  Over 100 steps on a 40x160 mesh the Newton
    iterations of the regular, log and active-set obstacle runs fall from
    201/200/305 to 127/117/175; the linear guess gives 196/145/228 and a
    cubic one 121/114/159.
    """
    if len(history) == 1:
        return history[-1]
    if len(history) == 2:
        return 2.0 * history[-1] - history[-2]
    return 3.0 * (history[-1] - history[-2]) + history[-3]


def run(data, params, ops, hooks=()):
    """Iterate the stepper from time zero to the final time.

    Each Newton solve starts from the extrapolation of the last three
    levels (fewer at the first two steps, see ``_predict``).  Diagnostic
    hooks are invoked as ``hook(state, report)`` for the initial state
    (report ``None``) and after every accepted step.  On a solver failure
    the partial trajectory is returned with the failure attached.
    """
    work = _StepWorkspace(ops, data.pair, params)
    state = initial_state(data, ops)
    traj = Trajectory([state], [None], params)
    for hook in hooks:
        hook(state, None)
    # run's own copies, so the trajectory need not keep its states
    history = deque([np.concatenate([state.phi, state.mu, state.w])],
                    maxlen=3)
    for n in range(params.n_steps):
        try:
            state, report = solve_step(state, data, params, ops, work=work,
                                       guess=_predict(history))
        except (NewtonFailure, IterationFailure) as exc:
            traj.failure = exc
            traj.failed_step = n
            return traj
        history.append(np.concatenate([state.phi, state.mu, state.w]))
        traj.states.append(state)
        traj.reports.append(report)
        for hook in hooks:
            hook(state, report)
    return traj


def interpolants(traj, t):
    """Piecewise-linear and right-endpoint values at time ``t``.

    ``hat`` interpolates linearly between the enclosing states; ``bar``
    is the right-endpoint step function on left-open intervals, whose
    value at t = 0 is the first computed state.
    """
    h = traj.params.h
    N = len(traj.states) - 1
    T = N * h
    if t < -1e-12 or t > T * (1.0 + 1e-12) + 1e-300:
        raise OutOfRange("t=%.17g outside [0, %.17g]" % (t, T))
    t = min(max(t, 0.0), T)
    n = min(int(math.floor(t / h + 1e-9)), N - 1)
    theta = min(max(t / h - n, 0.0), 1.0)
    lo, hi = traj.states[n], traj.states[n + 1]
    hat = {name: (1.0 - theta) * getattr(lo, name)
           + theta * getattr(hi, name)
           for name in ("phi", "mu", "psi", "w")}
    k = min(max(int(math.ceil(t / h - 1e-9)), 1), N)
    bar_state = traj.states[k]
    bar = {name: getattr(bar_state, name).copy()
           for name in ("phi", "mu", "psi", "w")}
    return {"hat": hat, "bar": bar}


def load_states(path):
    """Read a checkpoint file back into a list of states.

    Every block has one line per row, so an empty line is an empty row.
    A file cut inside a block (no final newline, a missing row, or rows
    of one side that differ in length) raises ParseError.
    """
    states = []
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text and not text.endswith("\n"):
        raise ParseError("checkpoint file ends inside a line")
    lines = text.splitlines()
    size = 1 + len(checkpoint.FIELDS)  # the head line and one per field
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if len(head) != 3 or head[0] != "state" or i + size > len(lines):
            raise ParseError("bad checkpoint block at line %d" % (i + 1))
        try:
            n, t = int(head[1]), float(head[2])
            rows = [np.array(line.split(), dtype=float)
                    for line in lines[i + 1:i + size]]
        except ValueError:
            raise ParseError("malformed checkpoint entry near line %d"
                             % (i + 1)) from None
        state = SchemeState(n, t, **dict(zip(checkpoint.FIELDS, rows)))
        if state.phi.size != state.mu.size or state.psi.size != state.w.size:
            raise ParseError("checkpoint block at line %d has rows of "
                             "unequal length" % (i + 1))
        states.append(state)
        i += size
    return states
