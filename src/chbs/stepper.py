"""Implicit time stepping for the coupled bulk-surface system.

Each step solves the monolithic nonlinear system for the new bulk order
parameter, bulk chemical potential and boundary potential (the boundary
order parameter is the trace of the bulk one, eliminated exactly).  The
graph nonlinearities are applied nodally and multiplied by the consistent
mass matrices; the solver is a damped semismooth Newton method with a
line search.  After convergence the two linear balance equations are
re-solved exactly, which pins the augmented mean values to rounding
level.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp
from scipy.sparse.linalg import splu

from . import checkpoint, diskfem, graphs
from .errors import (IterationFailure, LinSolveFailure, NewtonFailure,
                     OutOfRange, ParseError, ValidationFailure)

_GAUSS3_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
# decreasing regularizations of the strong compatibility check
STRONG_EPS_LADDER = (0.4, 0.2, 0.1, 0.05)
# smallest line-search step before the Newton solve counts as stagnated
DAMPING_MIN = 1.0 / 1024.0


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
        if not self.h > 0.0:
            bad.append("time step h must be positive")
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
        return bad

    @property
    def n_steps(self):
        return int(round(self.t_final / self.h))


@dataclass
class ProblemData:
    """Initial data, sources and the potential pair.

    Sources may be ``None`` (zero), a nodal array (constant in time) or a
    callable ``t -> nodal array``.
    """

    phi0: np.ndarray
    psi0: np.ndarray
    f: object
    g: object
    pair: graphs.PotentialPair


def problem_data(ops, phi0, pair, f=None, g=None):
    """Assemble a :class:`ProblemData`, deriving psi0 as the trace of phi0."""
    phi0 = np.asarray(phi0, dtype=float)
    return ProblemData(phi0, diskfem.trace(ops, phi0), f, g, pair)


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

    ``refactors`` counts every factorization of the Newton matrix and
    ``fallbacks`` the pivoted ones among them that replaced a symmetric
    LU (see ``_StepWorkspace``).  ``linsolves`` counts every Newton solve,
    a rejected symmetric one included, plus the two balance re-solves.
    """

    newton_iters: int = 0
    final_residual: float = math.nan
    linsolves: int = 0
    refactors: int = 0
    fallbacks: int = 0


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
    holds the raised error.
    """

    states: list
    reports: list
    params: SchemeParams
    guard: GuardReport
    failure: Exception = None
    failed_step: int = None

    @property
    def outside_theory(self):
        return not self.guard.ok

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
    """Largest step compatible with the monotone-solver theory.

    The bound is tau / (2 L) in the bulk and sigma / (2 L_Gamma) on the
    boundary; with vanishing viscosity the bound is unsatisfiable.
    """
    L, Lg = pair.lipschitz_bulk, pair.lipschitz_boundary
    term_b = math.inf if L == 0.0 else params.tau / (2.0 * L)
    term_g = math.inf if Lg == 0.0 else params.sigma / (2.0 * Lg)
    h_max = min(term_b, term_g)
    if params.tau == 0.0 or params.sigma == 0.0:
        return GuardReport(h_max, False,
                           "outside discrete well-posedness theory")
    ok = params.h < h_max
    return GuardReport(h_max, ok, "" if ok else "step exceeds h_max")


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
    psi0 = np.asarray(data.psi0, dtype=float)
    if phi0.shape[0] != ops.mesh.n_bulk:
        violations.append("phi0 has %d entries, mesh has %d vertices"
                          % (phi0.shape[0], ops.mesh.n_bulk))
        return ValidationReport(False, violations)
    tr = diskfem.trace(ops, phi0)
    sides = [(ops.bulk, phi0, pair.bulk), (ops.bdry, psi0, pair.boundary)]
    if psi0.shape != tr.shape or not np.array_equal(tr, psi0):
        bad = (np.nonzero(tr != psi0)[0] if psi0.shape == tr.shape
               else np.array([0]))
        violations.append(
            "psi0 is not the trace of phi0 (first mismatch at boundary "
            "node %d)" % int(bad[0]))
        # psi0 may not even have one entry per boundary node
        del sides[1]
    for part, v, graph in sides:
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
        lap = ops.mass_bulk_solver().solve(ops.K_bulk @ phi0,
                                           "mass solve")
        norms = []
        for eps in STRONG_EPS_LADDER:
            e = lap + graphs.yosida_bulk(pair.bulk, eps, phi0) \
                + pair.bulk_pi(phi0) - f0
            norms.append(diskfem.norms_bulk(ops, e)["h1"])
        report.strong_norms = norms
        if len(norms) >= 2 and norms[-2] > 0.0:
            report.strong_plateau = (norms[-1] - norms[-2]) <= 0.1 * norms[-2]
        else:
            report.strong_plateau = True
    return report


class _StepWorkspace:
    """Per-run cache: the step operator L and the LU reuse.

    A step solves r(x) = L x - b_n + E n(phi) = 0 for x = (phi, mu, w): L
    is the linear part of the step equations, b_n the load of level n and
    E puts the nodal graph term n(phi) on the mu rows.  So the Jacobian
    L + E n'(phi) E_phi^T moves only with the graph derivatives, which
    drift slowly along a trajectory, and one LU serves many Newton
    updates, across iterations and time steps.  Whether it
    still serves is read from the iteration itself (the simplified-Newton
    rule of Hairer & Wanner, Solving ODEs II, IV.8, and Deuflhard 2004):
    after each accepted update the contraction factor
    theta = rms_new / rms_old is compared with ``THETA_MAX``, and a larger
    theta marks the LU stale, so the next direction refactorizes at the
    current iterate.  A line search that backtracks below alpha = 1/4 on
    an old LU also forces a fresh one.  While every node of an obstacle
    run stays strictly inside (-1, 1) the Yosida derivative is 0, the
    Jacobian is constant and its first LU serves the whole run.

    Neither simpler rule works.  A fixed age refactorizes every few
    directions whether or not the old LU still contracts, and most of the
    run goes into factorizations that change nothing.  Never refactorizing
    lets a moving active set (obstacle graph, eps = 0.05) slow the
    iteration to a crawl: one LU for 100 steps costs 641 Newton
    iterations where the contraction rule needs about 300.  The decision
    reads residuals only, never timings, so runs stay deterministic;
    correctness rests on the exact residual, not on the LU being current.

    The LU is of R J, not of J: the row map R orders the block rows as
    (mu, -h phi, -h w).  Inside the step guard R J is then symmetric
    quasi-definite, with a positive definite (phi, phi) block and a
    negative definite (mu, w) block, except that the graph terms
    M diag(d) of its (phi, phi) block are not symmetric.  Such a matrix factors stably in any symmetric
    order without pivoting (Vanderbei, SIAM J. Optim. 5, 1995), so SuperLU
    runs in symmetric mode on a minimum-degree order of R J + (R J)^T.
    With partial pivoting, the default, the pivots undo the fill-reducing
    order and the factors hold about twice the entries.  Nothing
    guarantees stability outside the theory (zero viscosity, say), so the
    first direction of each symmetric LU is checked: if it is non-finite
    or its backward error exceeds ``BACKWARD_TOL``, the pivoted LU of R J
    replaces it until the next refactorization.
    """

    # On the active-set obstacle case 0.01-0.05 give about the same
    # factorization and iteration counts; at 0.1 an LU that contracts
    # slowly is kept and some runs need 680 iterations instead of 300.
    THETA_MAX = 0.05
    # relative backward error ||R J dx + R r|| / ||R r|| a symmetric LU's
    # first direction must meet; the pivoted LU meets it by far
    BACKWARD_TOL = 1e-8

    def __init__(self, ops, pair, params):
        self.ops = ops
        self.pair = pair
        self.params = params
        mesh = ops.mesh
        self.loop = mesh.boundary_loop
        nb, ng = mesh.n_bulk, mesh.n_bdry
        self.nb = nb
        self.P = P = sp.csr_matrix(
            (np.ones(ng), (np.arange(ng), self.loop)), shape=(ng, nb))
        self.E = sp.eye(2 * nb + ng, nb, k=-nb, format="csr")
        self.E_phi = sp.eye(2 * nb + ng, nb, format="csr")
        h, tau, sigma = params.h, params.tau, params.sigma
        sb = pair.bulk_pi.slope
        sg = pair.boundary_pi.slope
        Mb, Kb = ops.M_bulk, ops.K_bulk
        Mg, Kg = ops.M_bdry, ops.K_bdry
        self.L = sp.bmat(
            [[Mb / h, Mb + Kb, None],
             [(tau / h + sb) * Mb + Kb
              + P.T @ ((sigma / h + sg) * Mg + Kg) @ P, -Mb, -(P.T @ Mg)],
             [(Mg / h) @ P, None, Mg + Kg]], format="csc")
        self.R = sp.bmat([[None, sp.eye(nb), None],
                          [-h * sp.eye(nb), None, None],
                          [None, None, -h * sp.eye(ng)]], format="csr")
        self._lu = None

    def load(self, state, fn, gn):
        """b_n: the old level ``state`` and the averaged sources."""
        p = self.params
        Mb, Mg = self.ops.M_bulk, self.ops.M_bdry
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
        r_mu += self.ops.M_bulk @ graphs.yosida_bulk(pair.bulk, eps, phi)
        r_mu[self.loop] += self.ops.M_bdry @ graphs.yosida_boundary(
            pair.boundary, eps, pair.rho, phi[self.loop])
        return r, math.sqrt(float(r @ r) / r.size)

    def jacobian_matrix(self, phi):
        pair, eps = self.pair, self.params.eps
        d_b = graphs.yosida_bulk_prime(pair.bulk, eps, phi)
        d_g = graphs.yosida_boundary_prime(pair.boundary, eps, pair.rho,
                                           phi[self.loop])
        N = self.ops.M_bulk.multiply(d_b[None, :]) \
            + self.P.T @ self.ops.M_bdry.multiply(d_g[None, :]) @ self.P
        return self.L + self.E @ N @ self.E_phi.T

    def direction(self, phi, r, report, fresh=False):
        """Newton direction for residual ``r``; returns ``(dx, factored)``.

        Solves (R J) dx = -R r.  R J at ``phi`` is factorized first when
        ``fresh`` is set or the LU is stale; ``factored`` says whether
        that happened.  Solves, factorizations and fallbacks are counted
        in ``report``.
        """
        rhs = -(self.R @ r)
        factored = fresh or self._lu is None
        if factored:
            self._lu = None  # free the old factors first
            A = (self.R @ self.jacobian_matrix(phi)).tocsc()
            self._lu = splu(A, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))
            dx = self._lu.solve(rhs)
            report.refactors += 1
            report.linsolves += 1
            # NaN-safe: a non-finite dx fails the comparison
            if (np.linalg.norm(A @ dx - rhs)
                    <= self.BACKWARD_TOL * np.linalg.norm(rhs)):
                return dx, True
            self._lu = None  # free the rejected factors first
            self._lu = splu(A)
            report.refactors += 1
            report.fallbacks += 1
        report.linsolves += 1
        return self._lu.solve(rhs), factored

    def observe(self, rms_old, rms_new):
        """Mark the LU stale when an accepted update contracts too little.

        Dropping the LU here also frees its factors before the next
        factorization builds new ones.  A non-finite ratio marks it stale.
        """
        if not rms_new <= self.THETA_MAX * rms_old:
            self._lu = None


def solve_step(state, data, params, ops, fn=None, gn=None, work=None):
    """Advance one time level.

    Returns ``(new_state, StepReport)``.  Raises NewtonFailure when the
    damped iteration stagnates; linear solver errors propagate.
    """
    if work is None:
        work = _StepWorkspace(ops, data.pair, params)
    if fn is None:
        fn = average_source(data.f, state.n, params.h, ops.mesh.n_bulk)
    if gn is None:
        gn = average_source(data.g, state.n, params.h, ops.mesh.n_bdry)

    h, nb = params.h, work.nb
    tol_inner = 0.25 * params.newton_tol
    b = work.load(state, fn, gn)
    x = np.concatenate([state.phi, state.mu, state.w])
    r, rms = work.residual(x, b)
    report = StepReport()
    # "not rms <= tol" rather than "rms > tol": a NaN residual must keep
    # iterating until it fails, never pass as converged
    while not rms <= tol_inner:
        if report.newton_iters >= params.newton_max:
            raise NewtonFailure("no convergence in %d iterations"
                                % params.newton_max, residual=rms)
        dx, fresh = work.direction(x[:nb], r, report)
        alpha = 1.0
        while True:
            x_c = x + alpha * dx
            r_c, rms_c = work.residual(x_c, b)
            if rms_c < rms or rms_c <= tol_inner:
                work.observe(rms, rms_c)
                x, r, rms = x_c, r_c, rms_c
                break
            alpha *= 0.5
            if alpha < 0.25 and not fresh:
                # stale LU produced a poor direction; rebuild and retry
                dx, fresh = work.direction(x[:nb], r, report, fresh=True)
                alpha = 1.0
                continue
            if alpha < DAMPING_MIN:
                raise NewtonFailure("line search stagnated", residual=rms)
        report.newton_iters += 1

    # re-solve the two linear balances exactly; this pins the augmented
    # mean values at rounding level independently of the Newton tolerance
    phi = x[:nb].copy()  # a view would keep all of x alive in the state
    mu = diskfem.inv_neumann_shifted(ops, state.mu - (phi - state.phi) / h)
    w = diskfem.inv_shifted_bdry(
        ops, state.w - (phi[work.loop] - state.psi) / h)
    report.linsolves += 2
    _, rms = work.residual(np.concatenate([phi, mu, w]), b)
    if not rms <= params.newton_tol:
        raise NewtonFailure("post-enforcement residual %.3e above tolerance"
                            % rms, residual=rms)
    report.final_residual = rms
    new = SchemeState(state.n + 1, (state.n + 1) * h, phi, mu,
                      phi[work.loop].copy(), w)
    return new, report


def run(data, params, ops, hooks=()):
    """Iterate the stepper from time zero to the final time.

    Diagnostic hooks are invoked as ``hook(state, report)`` for the
    initial state (report ``None``) and after every accepted step.  On a
    solver failure the partial trajectory is returned with the failure
    attached.
    """
    guard = step_guard(params, data.pair)
    work = _StepWorkspace(ops, data.pair, params)
    state = initial_state(data, ops)
    traj = Trajectory([state], [None], params, guard)
    for hook in hooks:
        hook(state, None)
    for n in range(params.n_steps):
        try:
            state, report = solve_step(state, data, params, ops, work=work)
        except (NewtonFailure, LinSolveFailure, IterationFailure) as exc:
            traj.failure = exc
            traj.failed_step = n
            return traj
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


def save_trajectory(traj, path, stride=1):
    """Write the text checkpoint format, one block per recorded state.

    ``cli`` streams the same blocks during a run with
    :class:`chbs.checkpoint.Stream`; both print them with
    :func:`chbs.checkpoint.format_block`.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for state in traj.states:
            if state.n % stride == 0:
                fh.write(checkpoint.format_block(
                    state.n, state.t,
                    [getattr(state, name).tolist()
                     for name in checkpoint.FIELDS]))


def load_states(path):
    """Read a checkpoint file back into a list of states.

    A file cut inside a block (no final newline, a missing row, or rows
    of one side that differ in length) raises ParseError.
    """
    states = []
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text and not text.endswith("\n"):
        raise ParseError("checkpoint file ends inside a line")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head[0] != "state" or len(head) != 3 or i + 5 > len(lines):
            raise ParseError("bad checkpoint block at line %d" % (i + 1))
        try:
            n, t = int(head[1]), float(head[2])
            rows = [np.array([float(x) for x in lines[i + 1 + j].split()])
                    for j in range(4)]
        except ValueError:
            raise ParseError("malformed checkpoint entry near line %d"
                             % (i + 1)) from None
        if rows[0].size != rows[1].size or rows[2].size != rows[3].size:
            raise ParseError("checkpoint block at line %d has rows of "
                             "unequal length" % (i + 1))
        states.append(SchemeState(n, t, rows[0], rows[1], rows[2], rows[3]))
        i += 5
    return states
