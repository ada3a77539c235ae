"""Maximal monotone graphs, resolvents, Yosida maps and double-well pairs.

Three graph families are supported: the cubic ``regular`` graph on the
whole line, the ``log`` graph on (-1, 1), and the ``obstacle`` graph (the
subdifferential of the indicator of [-1, 1]).  Each comes with its convex
primitive, its resolvent, the Yosida approximation and the associated
smoothed primitive (inf-convolution envelope).  A bulk graph and a
boundary graph are combined into a :class:`PotentialPair` together with
the compatibility constants ``rho`` and ``c0`` that bound the bulk
minimal section by the boundary one.

The graph maps (:func:`resolvent`, :func:`yosida`, :func:`yosida_prime`,
:func:`moreau_envelope`) all take ``(graph, eps_eff, r)`` and serve both
sides: the bulk passes ``eps_eff = eps`` and the boundary ``eps * rho``,
the scaling that keeps the compatibility bound valid with unchanged
constants.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationFailure, OutOfDomain

RESOLVENT_TOL = 1e-12
RESOLVENT_MAX_ITER = 200
# regularizations at which pair compatibility is sampled and fitted
COMPAT_EPS_GRID = (0.5, 0.1, 0.02)
# points of the scans that fit c0 and bound the minimal sections; open
# domain endpoints are inset by SCAN_INSET
SCAN_SAMPLES = 2001
SCAN_INSET = 1e-9

REGULAR = "regular"
LOG = "log"
OBSTACLE = "obstacle"


@dataclass(frozen=True)
class MonotoneGraph:
    """One maximal monotone graph with its convex primitive.

    Parameters
    ----------
    kind : str
        One of ``"regular"``, ``"log"``, ``"obstacle"``.
    param : float
        The family constant: unused for ``regular``, ``c1 > 1`` for
        ``log``, ``c2 > 0`` for ``obstacle``.  The constant only enters
        the paired perturbation; the graph itself does not depend on it.
    lo, hi : float
        Endpoints of the effective domain.
    closed : bool
        Whether finite endpoints belong to the effective domain.
    """

    kind: str
    param: float
    lo: float
    hi: float
    closed: bool

    def beta(self, r):
        """Single-valued graph value at interior points.

        For the obstacle graph this is 0 everywhere on [-1, 1]; values
        outside the domain are not meaningful and are clipped to 0.
        """
        r = np.asarray(r, dtype=float)
        if self.kind == REGULAR:
            # products, not r ** 3 or r ** 4: numpy sends integer powers
            # above 2 to libm pow, about 70x slower than the products on a
            # 6.4k-node vector, with a cost that varies with the values
            out = r * r * r
        elif self.kind == LOG:
            out = np.log1p(r) - np.log1p(-r)
        else:
            out = np.zeros_like(r)
        return out if out.ndim else float(out)

    def beta_prime(self, r):
        """Derivative of the single-valued part (0 for the obstacle)."""
        r = np.asarray(r, dtype=float)
        if self.kind == REGULAR:
            out = 3.0 * r ** 2
        elif self.kind == LOG:
            out = 2.0 / ((1.0 - r) * (1.0 + r))
        else:
            out = np.zeros_like(r)
        return out if out.ndim else float(out)

    def primitive(self, r):
        """Convex primitive, +inf outside its effective domain.

        Normalised so that the primitive vanishes at 0 and is nonnegative.
        """
        r = np.asarray(r, dtype=float)
        if self.kind == REGULAR:
            r2 = r * r
            out = 0.25 * (r2 * r2)
        elif self.kind == LOG:
            inside = np.abs(r) <= 1.0
            rc = np.where(inside, r, 0.0)
            val = _xlogx(1.0 + rc) + _xlogx(1.0 - rc)
            out = np.where(inside, val, np.inf)
        else:
            out = np.where(np.abs(r) <= 1.0, 0.0, np.inf)
        return out if out.ndim else float(out)

    def contains(self, r, interior=False):
        """Whether ``r`` lies in the effective domain (or its interior)."""
        if interior or not self.closed:
            return self.lo < r < self.hi
        return self.lo <= r <= self.hi


def _xlogx(u):
    """u log u for u >= 0, with its limit 0 at u = 0."""
    return np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0)), 0.0)


def regular_graph():
    """Cubic graph on the whole line."""
    return MonotoneGraph(REGULAR, 0.0, -math.inf, math.inf, False)


def log_graph(c1=2.0):
    """Logarithmic graph on the open interval (-1, 1); finite c1 > 1."""
    if not 1.0 < c1 < math.inf:
        raise ValueError("log family needs finite c1 > 1, got %g" % c1)
    return MonotoneGraph(LOG, float(c1), -1.0, 1.0, False)


def obstacle_graph(c2=1.0):
    """Indicator subdifferential on the closed [-1, 1]; finite c2 > 0."""
    if not 0.0 < c2 < math.inf:
        raise ValueError("obstacle family needs finite c2 > 0, got %g" % c2)
    return MonotoneGraph(OBSTACLE, float(c2), -1.0, 1.0, True)


@dataclass(frozen=True)
class Perturbation:
    """Linear anti-monotone term pi(r) = slope * r with quadratic primitive.

    ``offset`` is the additive constant of the primitive, chosen per
    family so that primitive-of-graph + primitive-of-perturbation equals
    the full double-well potential.
    """

    slope: float
    offset: float = 0.0

    @property
    def lipschitz(self):
        return abs(self.slope)

    def __call__(self, r):
        return self.slope * np.asarray(r, dtype=float)

    def primitive(self, r):
        r = np.asarray(r, dtype=float)
        return 0.5 * self.slope * r ** 2 + self.offset


@dataclass(frozen=True)
class PotentialPair:
    """Bulk and boundary double-well data with compatibility constants."""

    name: str
    bulk: MonotoneGraph
    bulk_pi: Perturbation
    boundary: MonotoneGraph
    boundary_pi: Perturbation
    rho: float = 1.0
    c0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not 0.0 <= self.c0 < math.inf:
            raise ValueError("c0 must be nonnegative and finite")
        if self.boundary.lo < self.bulk.lo or self.boundary.hi > self.bulk.hi:
            raise ValueError(
                "boundary graph domain must be contained in the bulk domain")


def _family(kind, c1, c2):
    if kind == REGULAR:
        return regular_graph(), Perturbation(-1.0, 0.25)
    if kind == LOG:
        g = log_graph(c1)
        return g, Perturbation(-2.0 * g.param, 0.0)
    if kind == OBSTACLE:
        g = obstacle_graph(c2)
        return g, Perturbation(-2.0 * g.param, g.param)
    raise ValueError("unknown potential family %r" % kind)


def preset_pair(name, c1=2.0, c2=1.0, rho=None, c0=None):
    """Build one of the shipped equal bulk/boundary pairs.

    With identical graphs on both sides the compatibility bound holds
    with rho = 1 and c0 = 0, which are the defaults.
    """
    graph, pi = _family(name, c1, c2)
    return PotentialPair(
        name,
        graph, pi, graph, pi,
        rho=1.0 if rho is None else float(rho),
        c0=0.0 if c0 is None else float(c0),
    )


def mixed_pair(bulk_kind, boundary_kind, c1=2.0, c2=1.0, rho=None, c0=None):
    """Build a pair with different bulk and boundary families.

    When ``rho``/``c0`` are not given they are fitted by sampling the two
    Yosida maps over ``COMPAT_EPS_GRID`` and taking the worst gap (plus
    a small slack).  The fitted constants are not unique; any larger pair
    works as well.
    """
    bulk, bulk_pi = _family(bulk_kind, c1, c2)
    bdry, bdry_pi = _family(boundary_kind, c1, c2)
    if bdry.lo < bulk.lo or bdry.hi > bulk.hi:
        raise ValueError("boundary domain exceeds bulk domain; no valid pair")
    if rho is None:
        rho = 1.0
    if c0 is None:
        worst = max(_compat_gaps(bulk, bdry, eps, rho, SCAN_SAMPLES)[1].max()
                    for eps in COMPAT_EPS_GRID)
        c0 = max(float(worst), 0.0) + 1e-9
    return PotentialPair("%s/%s" % (bulk_kind, boundary_kind),
                         bulk, bulk_pi, bdry, bdry_pi,
                         rho=float(rho), c0=float(c0))


def _nodal(fn):
    """Let ``fn(graph, eps_eff, r)``, written for 1-d arrays, also map a
    scalar ``r`` to a float."""
    @functools.wraps(fn)
    def wrapper(graph, eps_eff, r):
        scalar = np.isscalar(r) or np.ndim(r) == 0
        out = fn(graph, eps_eff, np.atleast_1d(np.asarray(r, dtype=float)))
        return float(out[0]) if scalar else out
    return wrapper


@_nodal
def resolvent(graph, eps_eff, r):
    """Resolvent J with J + eps_eff * beta(J) containing r.

    Projection for the obstacle graph, Cardano's root in sinh form with
    one Newton polish for the cubic, and Newton's method in s = atanh(J)
    for the log graph.  Accepts scalars or arrays.
    """
    if not eps_eff > 0.0:
        raise ValueError("eps_eff must be positive")
    if graph.kind == OBSTACLE:
        return np.clip(r, -1.0, 1.0)
    if graph.kind == REGULAR:
        # J + eps J^3 = r is sinh(3t) = 1.5 a r for J = (2/a) sinh(t)
        a = math.sqrt(3.0 * eps_eff)
        j = (2.0 / a) * np.sinh(np.arcsinh(1.5 * a * r) / 3.0)
        return j - (j + eps_eff * (j * j * j) - r) \
            / (1.0 + 3.0 * eps_eff * (j * j))
    # J = tanh(s) turns the equation into g(s) = tanh(s) + 2 eps s - r = 0
    # with g increasing, concave for s > 0 and convex for s < 0: Newton
    # from s = 0 moves monotonically to the root, and |J| <= 1 throughout;
    # its first iterate from s = 0 is r / (1 + 2 eps), where it starts
    s = r / (1.0 + 2.0 * eps_eff)
    j = np.tanh(s)
    for _ in range(RESOLVENT_MAX_ITER):
        f = j + 2.0 * eps_eff * s - r
        worst = float(np.max(np.abs(f), initial=0.0))
        if worst <= RESOLVENT_TOL:
            return j
        s -= f / ((1.0 - j) * (1.0 + j) + 2.0 * eps_eff)
        j = np.tanh(s)
    raise IterationFailure(
        "log resolvent stalled at residual %.3e (eps_eff=%g)"
        % (worst, eps_eff))


@_nodal
def yosida(graph, eps_eff, r):
    """Yosida approximation (r - J) / eps_eff, Lipschitz constant 1/eps_eff."""
    return (r - resolvent(graph, eps_eff, r)) / eps_eff


@_nodal
def yosida_prime(graph, eps_eff, r):
    """Nodal derivative of :func:`yosida` (semismooth for the obstacle)."""
    if graph.kind == OBSTACLE:
        # generalized derivative: 0 on [-1, 1] (including the kinks)
        return np.where(np.abs(r) > 1.0, 1.0 / eps_eff, 0.0)
    j = resolvent(graph, eps_eff, r)
    # far out the log resolvent tanh(s) rounds to +-1, where beta' is +inf
    # and J' = 0 is the limit
    with np.errstate(divide="ignore"):
        jp = 1.0 / (1.0 + eps_eff * graph.beta_prime(j))
    return (1.0 - jp) / eps_eff


@_nodal
def moreau_envelope(graph, eps_eff, r):
    """Inf-convolution smoothing of the convex primitive.

    Evaluated through the resolvent:
    (1 / (2 eps_eff)) (r - J)^2 + primitive(J).  Always finite, between 0
    and the unsmoothed primitive.
    """
    j = resolvent(graph, eps_eff, r)
    return 0.5 / eps_eff * (r - j) ** 2 + graph.primitive(j)


def minimal_section(graph, r):
    """Least-modulus element of the graph at r; OutOfDomain outside D."""
    r = float(r)
    if graph.kind == OBSTACLE:
        if abs(r) > 1.0:
            raise OutOfDomain("%.17g outside [-1, 1]" % r)
        # at the endpoints the graph is a vertical half line containing 0
        return 0.0
    if graph.kind == LOG:
        if abs(r) >= 1.0:
            raise OutOfDomain("%.17g outside (-1, 1)" % r)
        return float(graph.beta(r))
    return float(graph.beta(r))


def _compat_gaps(bulk, boundary, eps, rho, samples):
    """Sample points and gaps |beta_eps| - rho |beta_{Gamma,eps}|.

    ``samples`` points span the boundary-graph domain and ``samples``
    more the whole-line window [-5, 5] (the Yosida maps are globally
    defined).  The c0 fit and the check both sample through here.
    """
    b_lo = boundary.lo if math.isfinite(boundary.lo) else -3.0
    b_hi = boundary.hi if math.isfinite(boundary.hi) else 3.0
    pts = np.concatenate([np.linspace(b_lo, b_hi, samples),
                          np.linspace(-5.0, 5.0, samples)])
    gap = np.abs(yosida(bulk, eps, pts)) \
        - rho * np.abs(yosida(boundary, eps * rho, pts))
    return pts, gap


@dataclass
class CompatReport:
    """Result of sampling the Yosida compatibility inequality."""

    ok: bool
    worst_margin: float
    worst_r: float
    samples: int
    eps: float
    rho: float
    c0: float

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        return ("compatibility %s: worst margin %.3e at r=%.6g "
                "(eps=%g, rho=%g, c0=%g, %d samples)"
                % (status, self.worst_margin, self.worst_r,
                   self.eps, self.rho, self.c0, self.samples))


def check_compatibility(pair, eps, samples):
    """Sample |beta_eps| <= rho |beta_{Gamma,eps}| + c0 and report the margin.

    Points span the boundary-graph domain plus a whole-line window (the
    Yosida maps are globally defined).  The margin of a sample is the
    amount by which the inequality fails; the report passes when no margin
    exceeds 1e-12.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if samples < 1:
        raise ValueError("need at least one sample")
    pts, gap = _compat_gaps(pair.bulk, pair.boundary, eps, pair.rho, samples)
    margin = gap - pair.c0
    k = int(np.argmax(margin))
    worst = float(margin[k])
    return CompatReport(ok=worst <= 1e-12, worst_margin=worst,
                        worst_r=float(pts[k]), samples=pts.size,
                        eps=eps, rho=pair.rho, c0=pair.c0)


def check_minimal_sections(pair):
    """Sample the minimal-section bound over the boundary-graph domain.

    Open domain endpoints are inset by ``SCAN_INSET``.  Returns the worst
    margin (positive means violated).
    """
    lo = pair.boundary.lo if math.isfinite(pair.boundary.lo) else -3.0
    hi = pair.boundary.hi if math.isfinite(pair.boundary.hi) else 3.0
    if not pair.boundary.closed:
        lo, hi = lo + SCAN_INSET, hi - SCAN_INSET
    worst = -math.inf
    for r in np.linspace(lo, hi, SCAN_SAMPLES):
        m = abs(minimal_section(pair.bulk, r)) \
            - pair.rho * abs(minimal_section(pair.boundary, r)) - pair.c0
        worst = max(worst, m)
    return worst
