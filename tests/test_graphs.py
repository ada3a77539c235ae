import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from chbs import graphs, reference
from chbs.errors import IterationFailure, OutOfDomain

ALL_KINDS = ("regular", "log", "obstacle")


def make_graph(kind):
    if kind == "regular":
        return graphs.regular_graph()
    if kind == "log":
        return graphs.log_graph(2.0)
    return graphs.obstacle_graph(1.0)


def sample_points(n):
    return np.linspace(-3.0, 3.0, n)


class TestResolvent:
    def test_obstacle_is_projection(self):
        g = make_graph("obstacle")
        assert graphs.resolvent(g, 0.5, 2.0) == 1.0
        assert graphs.resolvent(g, 0.5, -3.0) == -1.0
        assert graphs.resolvent(g, 2.0, 0.25) == 0.25

    def test_regular_exact_root(self):
        g = make_graph("regular")
        # J + J^3 = 2 has the exact root 1
        assert abs(graphs.resolvent(g, 1.0, 2.0) - 1.0) < 1e-12

    def test_log_fixes_origin(self):
        g = make_graph("log")
        assert graphs.resolvent(g, 0.1, 0.0) == 0.0

    def test_log_nan_raises(self):
        with pytest.raises(IterationFailure):
            graphs.resolvent(make_graph("log"), 0.1, np.array([0.5, np.nan]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("eps", (0.5, 0.1, 0.02, 1e-3))
    def test_matches_bisection_oracle(self, kind, eps):
        g = make_graph(kind)
        pts = sample_points(120)
        j = graphs.resolvent(g, eps, pts)
        for r, ji in zip(pts, j):
            assert abs(ji - reference.resolvent_bisect(g, eps, r)) < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_contraction(self, kind, rng):
        g = make_graph(kind)
        r = rng.uniform(-1.2, 1.2, 200)
        s = rng.uniform(-1.2, 1.2, 200)
        jr = graphs.resolvent(g, 0.3, r)
        js = graphs.resolvent(g, 0.3, s)
        assert np.all(np.abs(jr - js) <= np.abs(r - s) + 1e-14)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            graphs.resolvent(make_graph("regular"), 0.0, 1.0)


class TestYosida:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("eps", (1.0, 0.5, 0.1))
    def test_zero_at_origin_exactly(self, kind, eps):
        g = make_graph(kind)
        assert graphs.yosida(g, eps, 0.0) == 0.0
        assert graphs.yosida(g, eps * 2.0, 0.0) == 0.0

    def test_obstacle_values(self):
        g = make_graph("obstacle")
        assert graphs.yosida(g, 0.5, 2.0) == pytest.approx(2.0, abs=1e-14)
        assert graphs.yosida(g, 0.5 * 2.0, 3.0) == pytest.approx(
            2.0, abs=1e-14)

    def test_regular_value(self):
        g = make_graph("regular")
        assert graphs.yosida(g, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("eps", (0.5, 0.1))
    def test_bounded_by_minimal_section(self, kind, eps):
        g = make_graph(kind)
        if kind == "regular":
            pts = np.linspace(-3, 3, 301)
        else:
            pts = np.linspace(-1 + 1e-9, 1 - 1e-9, 301)
        for r in pts:
            assert abs(graphs.yosida(g, eps, float(r))) \
                <= abs(graphs.minimal_section(g, float(r))) + 1e-12

    @pytest.mark.filterwarnings("error")
    def test_log_prime_where_resolvent_rounds_to_one(self):
        g = make_graph("log")
        assert graphs.resolvent(g, 0.1, 6.0) == 1.0
        assert graphs.yosida_prime(g, 0.1, 6.0) == 10.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_lipschitz_and_monotone(self, kind, rng):
        g = make_graph(kind)
        eps, rho = 0.25, 1.5
        r = rng.uniform(-1.2, 1.2, 300)
        s = rng.uniform(-1.2, 1.2, 300)
        br = graphs.yosida(g, eps, r)
        bs = graphs.yosida(g, eps, s)
        assert np.all(np.abs(br - bs) <= np.abs(r - s) / eps + 1e-12)
        assert np.all((br - bs) * (r - s) >= -1e-14)
        gr = graphs.yosida(g, eps * rho, r)
        gs = graphs.yosida(g, eps * rho, s)
        assert np.all(np.abs(gr - gs) <= np.abs(r - s) / (eps * rho) + 1e-12)


class TestMoreauEnvelope:
    def test_obstacle_value(self):
        g = make_graph("obstacle")
        assert graphs.moreau_envelope(g, 0.5, 1.5) == pytest.approx(
            0.25, abs=1e-14)

    def test_zero_at_origin(self):
        for kind in ALL_KINDS:
            assert graphs.moreau_envelope(make_graph(kind), 0.3, 0.0) == 0.0

    def test_regular_value_against_grid_oracle(self):
        g = make_graph("regular")
        val = graphs.moreau_envelope(g, 1.0, 2.0)
        assert val == pytest.approx(0.75, abs=1e-12)
        assert val == pytest.approx(
            reference.envelope_grid_min(g, 1.0, 2.0), abs=1e-7)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_grid_oracle(self, kind):
        g = make_graph(kind)
        for r in (-1.1, -0.4, 0.3, 0.9, 1.3):
            got = graphs.moreau_envelope(g, 0.25, r)
            want = reference.envelope_grid_min(g, 0.25, r)
            assert got == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_between_zero_and_primitive(self, kind):
        g = make_graph(kind)
        pts = sample_points(301)
        env = graphs.moreau_envelope(g, 0.2, pts)
        assert np.all(env >= 0.0)
        assert np.all(env <= g.primitive(pts) + 1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_derivative_consistency(self, kind):
        # centered difference of the envelope approximates the Yosida map
        g = make_graph(kind)
        eps, delta = 0.5, 1e-4
        smooth_pts = (-0.7, -0.2, 0.45)
        kink_pts = (-1.05, 0.95, 1.1) if kind == "obstacle" else ()
        for r in smooth_pts:
            fd = (graphs.moreau_envelope(g, eps, r + delta)
                  - graphs.moreau_envelope(g, eps, r - delta)) / (2 * delta)
            assert abs(fd - graphs.yosida(g, eps, r)) < 1e-6
        for r in kink_pts:
            fd = (graphs.moreau_envelope(g, eps, r + delta)
                  - graphs.moreau_envelope(g, eps, r - delta)) / (2 * delta)
            assert abs(fd - graphs.yosida(g, eps, r)) < 1e-3


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestScalarConvention:
    """The graph maps are array code; a scalar follows numpy's 0-d rules."""

    # at the last point, with eps_eff = 0.1 * 1.5, (r - J) ** 2 of a numpy
    # scalar (libm pow) and of an array (a product) differ in the last bit
    PTS = (-2.5, -1.0, -0.999, -0.3, 0.0, 1e-7, 0.7, 1.0, 1.5, 3.0,
           -2.2699491416938162)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("fn", (graphs.resolvent, graphs.yosida,
                                    graphs.yosida_prime,
                                    graphs.moreau_envelope),
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("eps_eff", (0.1, 0.1 * 1.5), ids=("eps",
                                                               "eps-rho"))
    def test_scalars_lists_and_arrays_agree_bitwise(self, kind, fn,
                                                    eps_eff):
        g = make_graph(kind)
        whole = fn(g, eps_eff, np.array(self.PTS))
        assert bits(fn(g, eps_eff, list(self.PTS))) == bits(whole)
        for k, r in enumerate(self.PTS):
            value = fn(g, eps_eff, r)
            assert isinstance(value, float)
            assert isinstance(fn(g, eps_eff, np.asarray(r)), float)
            assert bits(fn(g, eps_eff, np.asarray(r))) == bits(value)
            assert bits(fn(g, eps_eff, [r])) == bits([value])
            assert bits(fn(g, eps_eff, np.array([r]))) == bits([value])
            if kind != "log":
                # the log Newton loop runs until its worst point
                # converges, so a longer array can take more iterations
                assert bits(whole[k]) == bits(value)


def scalar_minimal_section(graph, r):
    """The scalar minimal section that the array form replaced."""
    r = float(r)
    if graph.kind == "obstacle":
        if abs(r) > 1.0:
            raise OutOfDomain("%.17g outside [-1, 1]" % r)
        return 0.0
    if graph.kind == "log" and abs(r) >= 1.0:
        raise OutOfDomain("%.17g outside (-1, 1)" % r)
    return float(graph.beta(r))


def loop_minimal_sections(pair):
    """The scalar loop that check_minimal_sections replaced, as its
    oracle."""
    lo = pair.boundary.lo if math.isfinite(pair.boundary.lo) else -3.0
    hi = pair.boundary.hi if math.isfinite(pair.boundary.hi) else 3.0
    if not pair.boundary.closed:
        lo, hi = lo + graphs.SCAN_INSET, hi - graphs.SCAN_INSET
    worst = -math.inf
    for r in np.linspace(lo, hi, graphs.SCAN_SAMPLES):
        m = abs(scalar_minimal_section(pair.bulk, r)) \
            - pair.rho * abs(scalar_minimal_section(pair.boundary, r)) \
            - pair.c0
        worst = max(worst, m)
    return worst


MINIMAL_SECTION_PAIRS = tuple(
    graphs.preset_pair(name, rho=rho, c0=c0)
    for name in ALL_KINDS for rho in (0.5, 1.0, 2.0) for c0 in (0.0, 0.3)) \
    + tuple(graphs.mixed_pair(bulk, boundary) for bulk, boundary in (
        ("regular", "regular"), ("regular", "log"), ("regular", "obstacle"),
        ("log", "log"), ("obstacle", "log"), ("obstacle", "obstacle")))


class TestMinimalSection:
    @pytest.mark.parametrize("pair", MINIMAL_SECTION_PAIRS, ids=lambda p: (
        "%s-rho=%g-c0=%.3g" % (p.name, p.rho, p.c0)))
    def test_check_equals_the_scalar_loop(self, pair):
        got = graphs.check_minimal_sections(pair)
        assert isinstance(got, float)
        assert bits(got) == bits(loop_minimal_sections(pair))

    def test_check_and_loop_refuse_log_bulk_on_obstacle_boundary(self):
        # the obstacle scan reaches r = +-1, outside the log domain
        pair = graphs.mixed_pair("log", "obstacle")
        with pytest.raises(OutOfDomain):
            graphs.check_minimal_sections(pair)
        with pytest.raises(OutOfDomain):
            loop_minimal_sections(pair)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_array_equals_scalar_calls(self, kind):
        g = make_graph(kind)
        pts = np.linspace(-0.999, 0.999, 41) * (3.0 if kind == "regular"
                                                 else 1.0)
        assert bits(graphs.minimal_section(g, pts)) == bits(
            [scalar_minimal_section(g, r) for r in pts])

    @pytest.mark.parametrize("kind, pts, first", (
        ("obstacle", [0.5, 1.0, 1.5, -2.0], "1.5 outside the obstacle domain"),
        ("log", [0.0, -1.0, 1.0], "-1 outside the log domain"),
        ("log", [[0.2, 0.3], [1.25, -3.0]], "1.25 outside the log domain")))
    def test_array_names_its_first_point_outside(self, kind, pts, first):
        with pytest.raises(OutOfDomain, match=r"^%s$" % re.escape(first)):
            graphs.minimal_section(make_graph(kind), pts)

    def test_values(self):
        assert graphs.minimal_section(make_graph("obstacle"), 1.0) == 0.0
        assert graphs.minimal_section(make_graph("obstacle"), -1.0) == 0.0
        assert graphs.minimal_section(make_graph("regular"), -2.0) == -8.0
        assert graphs.minimal_section(make_graph("log"), 0.5) \
            == pytest.approx(math.log(3.0), rel=1e-14)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            graphs.minimal_section(make_graph("obstacle"), 1.0 + 1e-9)
        with pytest.raises(OutOfDomain):
            graphs.minimal_section(make_graph("log"), 1.0)


class TestPrimitives:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonnegative_and_zero_at_origin(self, kind):
        g = make_graph(kind)
        assert g.primitive(0.0) == 0.0
        pts = np.linspace(-3, 3, 601)
        vals = g.primitive(pts)
        assert np.all(vals >= 0.0)

    def test_log_primitive_endpoint(self):
        g = make_graph("log")
        assert g.primitive(1.0) == pytest.approx(2 * math.log(2.0),
                                                 rel=1e-14)
        assert g.primitive(1.0 + 1e-12) == math.inf

    def test_cli_import_leaves_scipy_special_out(self):
        src = os.path.dirname(os.path.dirname(graphs.__file__))
        code = ("import sys, chbs.cli; print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.special')))")
        proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_double_well_shapes(self):
        # graph primitive plus perturbation primitive recovers the wells
        pair = graphs.preset_pair("regular")
        for r in (-1.5, -1.0, 0.0, 0.5, 1.0, 2.0):
            w = pair.bulk.primitive(r) + pair.bulk_pi.primitive(r)
            assert w == pytest.approx(0.25 * (r * r - 1.0) ** 2, abs=1e-12)
        pair = graphs.preset_pair("obstacle", c2=1.5)
        for r in (-1.0, -0.3, 0.8, 1.0):
            w = pair.bulk.primitive(r) + pair.bulk_pi.primitive(r)
            assert w == pytest.approx(1.5 * (1.0 - r * r), abs=1e-12)
        pair = graphs.preset_pair("log", c1=2.0)
        w = pair.bulk.primitive(0.5) + pair.bulk_pi.primitive(0.5)
        want = 1.5 * math.log(1.5) + 0.5 * math.log(0.5) - 2.0 * 0.25
        assert w == pytest.approx(want, rel=1e-13)


class TestCompatibility:
    @pytest.mark.parametrize("name", ALL_KINDS)
    @pytest.mark.parametrize("eps", (0.5, 0.25, 0.05))
    def test_equal_pairs_pass(self, name, eps):
        rep = graphs.check_compatibility(graphs.preset_pair(name), eps, 301)
        assert rep.ok
        assert rep.worst_margin <= 1e-12

    def test_undersized_rho_fails(self):
        pair = graphs.mixed_pair("regular", "obstacle", rho=0.5, c0=0.0)
        rep = graphs.check_compatibility(pair, 0.01, 801)
        assert not rep.ok
        assert rep.worst_margin > 0.0
        assert abs(rep.worst_r) <= 1.0 + 0.2

    @pytest.mark.parametrize("bulk, boundary",
                             (("regular", "obstacle"), ("log", "obstacle")))
    def test_fitted_mixed_pair_passes(self, bulk, boundary):
        # the log/obstacle gap peaks at the obstacle kinks r = +-1, which
        # the fit must sample as the check does
        pair = graphs.mixed_pair(bulk, boundary)
        assert pair.rho == 1.0
        assert pair.c0 > 0.0
        for eps in (0.5, 0.1, 0.02):
            assert graphs.check_compatibility(pair, eps, 801).ok

    def test_minimal_section_bound_for_presets(self):
        for name in ALL_KINDS:
            assert graphs.check_minimal_sections(
                graphs.preset_pair(name)) <= 1e-12

    def test_domain_inclusion_enforced(self):
        with pytest.raises(ValueError):
            graphs.mixed_pair("log", "regular")

    @pytest.mark.parametrize("value", (math.inf, math.nan))
    @pytest.mark.parametrize("build", (
        graphs.log_graph, graphs.obstacle_graph,
        lambda x: graphs.preset_pair("regular", rho=x),
        lambda x: graphs.preset_pair("regular", c0=x)),
        ids=("c1", "c2", "rho", "c0"))
    def test_non_finite_constants_rejected(self, build, value):
        with pytest.raises(ValueError):
            build(value)
