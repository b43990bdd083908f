"""Tests for the certificate layer.

Analytic energy sequences: a decaying series E(t) = E(0) e^{-14t} (gamma = 1,
mu^2 = 8) sits far below its allowance e^{4 nu gamma^2 dt}; a growing series
E(t) = E(0) e^{4t} (gamma = 2, mu^2 = 2) still passes because the allowance
grows at e^{16 dt}; anything faster than the allowance must fail.
"""

import math

import numpy as np
import pytest

from robinslab.domain import SOBOLEV_S, Discretization, ModelParams, random_field3, sobolev_norm
from robinslab.picard import PicardProblem, picard_solve, select_horizon
from robinslab.verify import (
    Certificate,
    contraction_check,
    apriori_bounds_check,
    elliptic_bound_check,
    fixed_point_residual_check,
    gronwall_energy_check,
    growth_bound_check,
    make_certificate,
    min_order_certificate,
    order_certificate,
    run_certificates,
    start_uniqueness_solve,
    transform_oracle_certificate,
    uniqueness_check,
)

A = math.pi
PARAMS = ModelParams(a=A, nu=1.0, gamma=2.0, beta=1.0)


class TestCertificate:
    def test_margin_and_pass(self):
        c = make_certificate("x", 0.5, 1.0)
        assert c.passed and c.margin == pytest.approx(1.0)
        c = make_certificate("x", 2.0, 1.0)
        assert not c.passed and c.margin == pytest.approx(-0.5)

    def test_zero_measurement_has_no_margin(self):
        c = make_certificate("x", 0.0, 1.0)
        assert c.passed and c.margin is None

    def test_describe_states_pass_fail(self):
        assert make_certificate("x", 0.5, 1.0).describe().startswith("PASS x:")
        assert make_certificate("x", 2.0, 1.0).describe().startswith("FAIL x:")

    def test_order_window(self):
        assert order_certificate("o", 1.95).passed
        assert order_certificate("o", 2.19).passed
        assert not order_certificate("o", 2.5).passed

    def test_min_order(self):
        assert min_order_certificate("o", 1.91, 1.8).passed
        assert not min_order_certificate("o", 1.5, 1.8).passed
        assert not min_order_certificate("o", 0.0, 1.8).passed

    def test_runner_converts_exceptions(self):
        certs = run_certificates(
            [
                ("fine", lambda: make_certificate("fine", 0.0, 1.0)),
                ("boom", lambda: 1 / 0),
            ]
        )
        assert [c.passed for c in certs] == [True, False]
        assert "ZeroDivisionError" in certs[1].details["error"]

    def test_runner_flattens_certificate_lists(self):
        certs = run_certificates(
            [("pair", lambda: [make_certificate("a", 0, 1), make_certificate("b", 0, 1)])]
        )
        assert [c.name for c in certs] == ["a", "b"]


class TestGronwall:
    def test_decaying_series_passes(self):
        p = ModelParams(a=A, nu=1.0, gamma=1.0, beta=1.0)
        t = np.linspace(0.0, 1.0, 9)
        e = 3.0 * np.exp(-14.0 * t)
        c = gronwall_energy_check(t, e, p)
        assert c.passed
        assert c.measured == pytest.approx(math.exp(-18.0 * t[1]), rel=1e-12)

    def test_growing_series_within_allowance_passes(self):
        t = np.linspace(0.0, 1.0, 9)
        e = np.exp(4.0 * t)  # growth rate 4 < allowance rate 16
        assert gronwall_energy_check(t, e, PARAMS).passed

    def test_violation_fails(self):
        p = ModelParams(a=A, nu=1.0, gamma=1.0, beta=1.0)
        t = np.linspace(0.0, 1.0, 9)
        e = np.exp(20.0 * t)  # rate 20 > allowance rate 4
        c = gronwall_energy_check(t, e, p)
        assert not c.passed

    def test_zero_energy_run_passes(self):
        c = gronwall_energy_check([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], PARAMS)
        assert c.passed and c.measured == 0.0

    def test_energy_from_nothing_fails(self):
        c = gronwall_energy_check([0.0, 1.0], [0.0, 1.0], PARAMS)
        assert not c.passed and c.measured == math.inf

    def test_ratios_take_no_overflowing_or_underflowing_intermediate(self):
        # numpy's error state is the one the CLI runs under
        t = [0.0, 1.0]
        decade = math.log(10.0)
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            # 4 nu gamma^2 = 400 at gamma 10: e1 e^{400} overflows for e1 = 1e300
            p = ModelParams(a=A, nu=1.0, gamma=10.0, beta=1.0)
            big = gronwall_energy_check(t, [1e300, 1e308], p)
            assert big.passed and big.measured == pytest.approx(math.exp(8 * decade - 400.0))
            # e2 / e1 = 1e600 overflows and e^{-1000} underflows to 0, yet
            # the ratio is a violation by e^{381}
            fast = ModelParams(a=A, nu=1.0, gamma=math.sqrt(250.0), beta=1.0)
            lifted = gronwall_energy_check(t, [1e-300, 1e300], fast)
            assert not lifted.passed
            assert lifted.measured == pytest.approx(math.exp(600 * decade - 1000.0), rel=1e-12)
            # past the largest float the ratio reads inf, not an error
            beyond = gronwall_energy_check(t, [1e-300, 1e300], PARAMS)
            assert not beyond.passed and beyond.measured == math.inf
            assert gronwall_energy_check(t, [0.0, 1e-300], p).measured == math.inf
            assert gronwall_energy_check(t, [0.0, 0.0], p).measured == 0.0
            assert gronwall_energy_check(t, [1e300, 0.0], p).measured == 0.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            gronwall_energy_check([0.0, 0.0], [1.0, 1.0], PARAMS)
        with pytest.raises(ValueError):
            gronwall_energy_check([0.0], [1.0], PARAMS)
        with pytest.raises(ValueError, match="energies must be nonnegative"):
            gronwall_energy_check([0.0, 1.0], [1.0, -1.0], PARAMS)

    def test_measured_propagated_run_passes(self, rng):
        from robinslab.heat import RobinPropagator

        disc = Discretization(k_max=4, n_z=257, l_z=20.0)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
        prop = RobinPropagator(w0, PARAMS)
        ts = [0.0, 0.1, 0.3, 0.6, 1.0]
        es = [sobolev_norm(prop.at(t), 2, A) ** 2 for t in ts]
        assert gronwall_energy_check(ts, es, PARAMS).passed


class TestBoundsChecks:
    def test_growth_bound(self):
        assert growth_bound_check([0.9, 1.02], 1.0).passed
        assert not growth_bound_check([1.2], 1.0).passed
        assert growth_bound_check([], 1.0).measured == 0.0

    def test_contraction(self):
        assert contraction_check([0.3, 0.5]).passed
        assert not contraction_check([0.3, 0.6]).passed
        assert contraction_check([]).passed

    def test_iterator_ratios_are_counted(self):
        c = growth_bound_check(iter([0.9, 1.02, 0.5]), 1.0)
        assert c.passed and c.measured == 1.02 and c.details["samples"] == 3
        c = contraction_check(r for r in (0.3, 0.1))
        assert c.passed and c.measured == 0.3 and c.details["sweeps"] == 2


class TestNonFiniteFails:
    """A NaN anywhere among the measurements fails the certificate."""

    @pytest.mark.parametrize("ratios", [[0.3, math.nan], [math.nan, 0.3], [math.nan]])
    def test_contraction(self, ratios):
        c = contraction_check(ratios)
        assert not c.passed and math.isnan(c.measured)

    def test_growth_and_elliptic_bounds(self):
        for check in (growth_bound_check, elliptic_bound_check):
            c = check([0.9, math.nan, 0.5], 1.0)
            assert not c.passed and math.isnan(c.measured)

    def test_gronwall(self):
        c = gronwall_energy_check([0.0, 0.5, 1.0], [1.0, 1.0, math.nan], PARAMS)
        assert not c.passed and math.isnan(c.measured)

    def test_apriori_bounds(self, small_run):
        _, _, res = small_run
        v_norms, w_norms = slice_norms(res.state)
        v_norms[2] = math.nan
        certs = apriori_bounds_check(v_norms, w_norms, res.problem.horizon, PARAMS)
        assert [c.passed for c in certs] == [False, True]
        assert math.isnan(certs[0].measured)


@pytest.fixture(scope="module")
def small_run():
    disc = Discretization(k_max=4, n_z=129, l_z=20.0, n_t=17)
    gen = np.random.default_rng(11)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    res = picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.0)))
    return v0, w0, res


def slice_norms(state):
    """Per-slice ||v||_{H^{s+1}} and ||w||_{H^s}, as the picard command takes them."""
    v_norms = [sobolev_norm(v, SOBOLEV_S + 1, A) for v in state.v_slices]
    w_norms = [sobolev_norm(w, SOBOLEV_S, A) for w in state.omega_slices]
    return v_norms, w_norms


class TestSolverChecks:
    def test_apriori_bounds(self, small_run):
        v0, w0, res = small_run
        v_norms, w_norms = slice_norms(res.state)
        # slice 0 is the data itself, so the balls match norms of v0 and w0
        assert v_norms[0] == sobolev_norm(v0, SOBOLEV_S + 1, A)
        assert w_norms[0] == sobolev_norm(w0, SOBOLEV_S, A)
        certs = apriori_bounds_check(v_norms, w_norms, res.problem.horizon, PARAMS)
        assert [c.name for c in certs] == ["apriori-velocity", "apriori-vorticity"]
        assert all(c.passed for c in certs)

    def test_fixed_point_residual(self, small_run):
        v0, w0, res = small_run
        assert fixed_point_residual_check(res).passed

    def test_uniqueness(self, small_run):
        v0, w0, res = small_run
        with start_uniqueness_solve(res.problem) as second:
            c = uniqueness_check(res, second)
        assert c.passed
        assert c.measured <= 1e-7

    def test_contraction_of_run(self, small_run):
        _, _, res = small_run
        assert contraction_check(res.ratios).passed

    def test_a_refused_oracle_step_fails_route_agreement_with_its_message(self, rng):
        # the wall mode grows at about gamma^2 = 36, so one step of c = 0.15 is refused
        disc = Discretization(k_max=2, n_z=65, l_z=20.0)
        params = ModelParams(a=A, nu=1.0, gamma=6.0, beta=1.0)
        w0 = random_field3(disc, rng, kind="robin", gamma=params.gamma)
        [cert] = run_certificates(
            [
                (
                    "heat-route-agreement",
                    lambda: transform_oracle_certificate(w0, 0.3, params, n_steps=1),
                )
            ]
        )
        assert cert.name == "heat-route-agreement" and not cert.passed
        assert cert.details["error"].startswith("ValueError: Crank-Nicolson step")
        assert "raise n_steps" in cert.details["error"]

    def test_transform_oracle_agreement_at_calibrated_resolution(self, rng):
        disc = Discretization(k_max=4, n_z=513, l_z=20.0)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
        assert transform_oracle_certificate(w0, 0.3, PARAMS, n_steps=1000).passed
