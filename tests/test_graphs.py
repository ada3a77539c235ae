import math
import os
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


class TestMinimalSection:
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
