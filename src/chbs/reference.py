"""Independent brute-force cross-checks for the fast paths.

Everything here deliberately avoids the production solve routes: the
resolvent oracle is plain bisection, the envelope oracle minimizes over a
grid, and the time-step oracle is a dense lagged-nonlinearity fixed-point
iteration.  They are slow and only meant for tiny inputs inside tests and
the self-test command.
"""

import math

import numpy as np

from . import graphs


def resolvent_bisect(graph, eps_eff, r, tol=1e-14, max_iter=500):
    """Bisection solve of J + eps_eff * beta(J) = r for a scalar r.

    Carries its own elementary formulas for the graph values, so it
    shares no code with the production solve route.
    """
    r = float(r)
    if graph.kind == graphs.OBSTACLE:
        return min(1.0, max(-1.0, r))
    if graph.kind == graphs.LOG:
        def beta(s):
            return math.log1p(s) - math.log1p(-s)

        tiny = 1e-14
        lo = max(min(r, 0.0), -1.0 + tiny)
        hi = min(max(r, 0.0), 1.0 - tiny)
    else:
        def beta(s):
            return s * s * s

        lo, hi = min(r, 0.0), max(r, 0.0)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f = mid + eps_eff * beta(mid) - r
        if abs(f) <= tol or hi - lo <= 4e-16 * max(1.0, abs(mid)):
            return mid
        if f > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def envelope_grid_min(graph, eps_eff, r, half_width=2.5, points=200001):
    """Direct grid minimization of the inf-convolution envelope."""
    r = float(r)
    lo = max(r - half_width, graph.lo)
    hi = min(r + half_width, graph.hi)
    s = np.linspace(lo, hi, points)
    vals = 0.5 / eps_eff * (r - s) ** 2 + graph.primitive(s)
    return float(np.min(vals))


def fixed_point_step(state, data, params, ops, fn, gn,
                     tol=1e-12, max_iter=100000):
    """Dense lagged-nonlinearity fixed-point solve of one time step.

    Solves the same nonlinear algebraic system as the Newton stepper, but
    by iterating linear solves in which the graph nonlinearities are
    frozen at the previous iterate.  Dense linear algebra throughout, so
    only usable on tiny meshes.  Returns (phi, mu, w).
    """
    h, tau, sigma, eps = params.h, params.tau, params.sigma, params.eps
    pair = data.pair
    loop = ops.mesh.boundary_loop
    Mb, Kb = ops.bulk.M.toarray(), ops.bulk.K.toarray()
    Mg, Kg = ops.bdry.M.toarray(), ops.bdry.K.toarray()
    nb, ng = Mb.shape[0], Mg.shape[0]
    T = np.zeros((ng, nb))
    T[np.arange(ng), loop] = 1.0

    sl_b = pair.bulk_pi.slope
    sl_g = pair.boundary_pi.slope

    n = 2 * nb + ng
    A = np.zeros((n, n))
    s_phi = slice(0, nb)
    s_mu = slice(nb, 2 * nb)
    s_w = slice(2 * nb, n)
    A[s_phi, s_phi] = Mb / h
    A[s_phi, s_mu] = Mb + Kb
    A[s_mu, s_phi] = (tau / h + sl_b) * Mb + Kb \
        + T.T @ ((sigma / h + sl_g) * Mg + Kg) @ T
    A[s_mu, s_mu] = -Mb
    A[s_mu, s_w] = -(T.T @ Mg)
    A[s_w, s_phi] = (Mg / h) @ T
    A[s_w, s_w] = Mg + Kg

    rhs_fixed = np.zeros(n)
    rhs_fixed[s_phi] = Mb @ (state.phi / h + state.mu)
    rhs_fixed[s_w] = Mg @ (state.psi / h + state.w)
    base_mu = (tau / h) * (Mb @ state.phi) + Mb @ fn \
        + T.T @ ((sigma / h) * (Mg @ state.psi) + Mg @ gn)

    Ainv = np.linalg.inv(A)

    def solve_with_frozen_graphs(phi):
        rhs = rhs_fixed.copy()
        rhs[s_mu] = base_mu \
            - Mb @ graphs.yosida_bulk(pair.bulk, eps, phi) \
            - T.T @ (Mg @ graphs.yosida_boundary(pair.boundary, eps,
                                                 pair.rho, phi[loop]))
        return Ainv @ rhs

    phi = state.phi.copy()
    for _ in range(max_iter):
        x = solve_with_frozen_graphs(phi)
        delta = float(np.max(np.abs(x[s_phi] - phi)))
        phi = x[s_phi]
        if delta <= tol:
            break
    else:
        raise RuntimeError("fixed-point oracle did not converge")
    x = solve_with_frozen_graphs(phi)
    return x[s_phi], x[s_mu], x[s_w]
