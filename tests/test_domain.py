"""Tests for fields, Sobolev norms, z derivatives and dealiased products.

Expected values for the worked examples are derived by an independent
symbolic oracle (sympy differentiation + exact integration) and frozen
below, so the discrete norms are checked against closed forms rather than
against themselves.
"""

import dataclasses
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from robinslab.domain import (
    Discretization,
    ModelParams,
    SpectralField3,
    d_z,
    field3_from_profile,
    field_from_lateral_values,
    lateral_values,
    multi_indices,
    pointwise_product,
    product_ratio,
    random_field3,
    sobolev_norm,
    zero_field3,
)

A = math.pi

# --- symbolic oracle -------------------------------------------------------


def oracle_hs_norm_sinsin_exp(s: int) -> float:
    """H^s norm of sin(x1) sin(x2) e^{-z} on (0,pi)^2 x (0,inf) via sympy."""
    x1, x2, z = sp.symbols("x1 x2 z", positive=True)
    f = sp.sin(x1) * sp.sin(x2) * sp.exp(-z)
    total = sp.Integer(0)
    for a1, a2, a3 in multi_indices(s):
        d = sp.diff(f, x1, a1, x2, a2, z, a3)
        total += sp.integrate(
            sp.integrate(sp.integrate(d**2, (z, 0, sp.oo)), (x2, 0, sp.pi)),
            (x1, 0, sp.pi),
        )
    return float(sp.sqrt(total))


# Frozen oracle outputs (a = pi): each derivative term contributes pi^2/8,
# and there are 1 / 10 / 20 multi-indices for s = 0 / 2 / 3.
L2_SINSIN_EXP = 1.1107207345395915  # sqrt(pi^2/8)
H2_SINSIN_EXP = 3.5124073655203634  # sqrt(10*pi^2/8)
H3_SINSIN_EXP = 4.9672941328980510  # sqrt(20*pi^2/8)


def eigen_exp_field(disc: Discretization, rate: float = 1.0, mode=(1, 1)):
    return field3_from_profile(disc, mode, np.exp(-rate * disc.z))


def fine_disc(k_max=2, n_z=4001, l_z=20.0):
    return Discretization(k_max=k_max, n_z=n_z, l_z=l_z)


class TestOracle:
    def test_symbolic_oracle_matches_frozen_values(self):
        """The sympy oracle reproduces the frozen closed-form constants."""
        assert oracle_hs_norm_sinsin_exp(0) == pytest.approx(L2_SINSIN_EXP, rel=1e-12)
        assert oracle_hs_norm_sinsin_exp(2) == pytest.approx(H2_SINSIN_EXP, rel=1e-12)


class TestSobolevNorm:
    def test_zero_field_norm_zero(self):
        disc = Discretization(k_max=3, n_z=64, l_z=20.0)
        assert sobolev_norm(zero_field3(disc), 2, A) == 0.0

    def test_l2_of_decaying_eigenmode(self):
        # trapezoid error ~ dz^2/6 |g'(0)| -> ~4e-6 relative at n_z = 4001
        f = eigen_exp_field(fine_disc())
        assert sobolev_norm(f, 0, A) == pytest.approx(L2_SINSIN_EXP, rel=1e-5)

    def test_h2_of_decaying_eigenmode(self):
        f = eigen_exp_field(fine_disc())
        assert sobolev_norm(f, 2, A) == pytest.approx(H2_SINSIN_EXP, rel=1e-5)

    def test_h3_of_decaying_eigenmode(self):
        f = eigen_exp_field(fine_disc())
        assert sobolev_norm(f, 3, A) == pytest.approx(H3_SINSIN_EXP, rel=1e-5)

    def test_single_mode_parseval(self):
        """L2 norm equals (a/2) * sqrt(z-integral of the squared profile)."""
        disc = fine_disc(n_z=801)
        prof = np.exp(-1.3 * disc.z) * (1.0 + disc.z)
        f = field3_from_profile(disc, (2, 1), prof)
        from scipy.integrate import trapezoid

        expected = 0.5 * A * math.sqrt(trapezoid(prof**2, dx=disc.dz))
        assert sobolev_norm(f, 0, A) == pytest.approx(expected, rel=1e-13)

    def test_rejects_order_above_supported_max(self):
        f = eigen_exp_field(fine_disc(n_z=64))
        with pytest.raises(ValueError):
            sobolev_norm(f, 4, A)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_monotone_in_s(self, seed):
        """H^s norms are nondecreasing in s for any field."""
        disc = Discretization(k_max=3, n_z=96, l_z=20.0)
        f = random_field3(disc, np.random.default_rng(seed))
        norms = [sobolev_norm(f, s, A) for s in range(4)]
        assert norms == sorted(norms)

    def test_norm_convergence_second_order(self):
        """Trapezoid + FD norm converges at order ~2 in the z grid."""
        errs = []
        for n_z in (251, 501, 1001):
            f = eigen_exp_field(fine_disc(n_z=n_z))
            errs.append(abs(sobolev_norm(f, 2, A) - H2_SINSIN_EXP))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order == pytest.approx(2.0, abs=0.3)


class TestDz:
    def test_exponential_profile_first_derivative(self):
        # one-sided end stencil dominates: error ~ dz^2/3 |f'''| ~ 3e-5
        disc = fine_disc(n_z=2001)
        f = eigen_exp_field(disc)
        df = d_z(f, 1)
        err = np.max(np.abs(df.coeffs[0, 0] + np.exp(-disc.z)))
        assert err < 1e-4

    def test_second_derivative_of_sine_profile(self):
        disc = fine_disc(n_z=2001)
        prof = np.sin(np.pi * disc.z / disc.l_z)
        f = field3_from_profile(disc, (1, 1), prof)
        d2 = d_z(f, 2)
        expected = -((np.pi / disc.l_z) ** 2) * prof
        assert np.max(np.abs(d2.coeffs[0, 0] - expected)) < 1e-6

    def test_constant_profile_derivative_vanishes(self):
        disc = Discretization(k_max=1, n_z=32, l_z=5.0)
        f = field3_from_profile(disc, (1, 1), np.ones(disc.n_z))
        assert np.max(np.abs(d_z(f, 1).coeffs)) < 1e-13
        assert np.max(np.abs(d_z(f, 2).coeffs)) < 1e-12

    def test_rejects_unsupported_order(self):
        f = eigen_exp_field(fine_disc(n_z=64))
        with pytest.raises(ValueError):
            d_z(f, 3)

    def test_first_derivative_second_order_convergence(self):
        errs = []
        for n_z in (101, 201, 401):
            disc = fine_disc(k_max=1, n_z=n_z)
            df = d_z(eigen_exp_field(disc), 1)
            errs.append(np.max(np.abs(df.coeffs[0, 0] + np.exp(-disc.z))))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order == pytest.approx(2.0, abs=0.2)


class TestFields:
    def test_coefficients_immutable(self):
        f = eigen_exp_field(fine_disc(n_z=64))
        with pytest.raises(ValueError):
            f.coeffs[0, 0, 0] = 1.0

    def test_shape_mismatch_rejected(self):
        disc = Discretization(k_max=2, n_z=64, l_z=10.0)
        with pytest.raises(ValueError):
            SpectralField3(np.zeros((2, 2, 63)), disc)

    def test_mismatched_discretizations_rejected(self):
        f = eigen_exp_field(fine_disc(n_z=64))
        g = eigen_exp_field(fine_disc(n_z=128))
        with pytest.raises(ValueError):
            pointwise_product(f, g)

    def test_mode_outside_band_rejected(self):
        disc = Discretization(k_max=2, n_z=64, l_z=10.0)
        with pytest.raises(ValueError):
            field3_from_profile(disc, (3, 1), np.ones(disc.n_z))


class TestCollocation:
    def test_roundtrip_is_identity_on_resolved_band(self, rng):
        disc = Discretization(k_max=5, n_z=48, l_z=15.0)
        f = random_field3(disc, rng)
        g = field_from_lateral_values(lateral_values(f), disc)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13

    def test_grid_smaller_than_band_rejected(self, rng):
        disc = Discretization(k_max=5, n_z=16, l_z=15.0)
        with pytest.raises(ValueError):
            lateral_values(random_field3(disc, rng), 4)
        with pytest.raises(ValueError):
            field_from_lateral_values(np.zeros((4, 4, disc.n_z)), disc)

    def test_product_matches_loop_based_transform(self):
        """Collocation product agrees with an explicit O(M^2) sine analysis."""
        disc = Discretization(k_max=3, n_z=16, l_z=10.0)
        rng = np.random.default_rng(7)
        u = random_field3(disc, rng)
        v = random_field3(disc, rng)
        w = pointwise_product(u, v)

        m = 2 * disc.k_max + 1
        xj = np.arange(1, m + 1) / (m + 1)  # collocation nodes / a

        def synth(field):
            vals = np.zeros((m, m, disc.n_z))
            for k1 in range(1, disc.k_max + 1):
                for k2 in range(1, disc.k_max + 1):
                    vals += (
                        field.coeffs[k1 - 1, k2 - 1][None, None, :]
                        * np.sin(np.pi * k1 * xj)[:, None, None]
                        * np.sin(np.pi * k2 * xj)[None, :, None]
                    )
            return vals

        prod_vals = synth(u) * synth(v)
        ref = np.zeros_like(w.coeffs)
        for k1 in range(1, disc.k_max + 1):
            for k2 in range(1, disc.k_max + 1):
                weight = (
                    np.sin(np.pi * k1 * xj)[:, None, None]
                    * np.sin(np.pi * k2 * xj)[None, :, None]
                )
                ref[k1 - 1, k2 - 1] = (2.0 / (m + 1)) ** 2 * np.sum(
                    prod_vals * weight, axis=(0, 1)
                )
        assert np.max(np.abs(w.coeffs - ref)) < 1e-12

    def test_product_aliasing_shrinks_with_padding(self):
        """Unresolved-tail aliasing decays fast as the collocation grid grows."""
        disc = Discretization(k_max=8, n_z=16, l_z=10.0)
        prof = np.exp(-disc.z)
        u = field3_from_profile(disc, (1, 1), prof)
        v = field3_from_profile(disc, (2, 2), prof)
        results = {}
        for m in (17, 35, 401):
            vals = lateral_values(u, m) * lateral_values(v, m)
            results[m] = field_from_lateral_values(vals, disc).coeffs
        err_default = np.max(np.abs(results[17] - results[401]))
        err_padded = np.max(np.abs(results[35] - results[401]))
        assert err_default < 5e-4
        assert err_padded < err_default / 4.0


class TestProductRatio:
    def test_eigenmode_self_product_finite_positive(self):
        f = eigen_exp_field(fine_disc(n_z=513))
        r = product_ratio(f, f, 2, A)
        assert 0.0 < r < 10.0

    def test_scaling_invariance(self):
        f = eigen_exp_field(fine_disc(n_z=257))
        g = field3_from_profile(fine_disc(n_z=257), (2, 1), np.exp(-2 * fine_disc(n_z=257).z))
        base = product_ratio(f, g, 2, A)
        scaled = product_ratio(f.scaled(2.0), g.scaled(3.0), 2, A)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_zero_norm_factor_rejected(self):
        disc = fine_disc(n_z=64)
        with pytest.raises(ValueError):
            product_ratio(eigen_exp_field(disc), zero_field3(disc), 2, A)

    def test_ensemble_bound_holds_on_held_out_fields(self):
        """Max ratio over a calibration ensemble caps held-out ratios within 5%."""
        disc = Discretization(k_max=4, n_z=128, l_z=20.0)
        cal_rng = np.random.default_rng(100)
        cal = [
            product_ratio(
                random_field3(disc, cal_rng), random_field3(disc, cal_rng), 2, A
            )
            for _ in range(100)
        ]
        c_work = max(cal)
        held_rng = np.random.default_rng(200)
        held = [
            product_ratio(
                random_field3(disc, held_rng), random_field3(disc, held_rng), 2, A
            )
            for _ in range(50)
        ]
        assert max(held) <= 1.05 * c_work


class TestValidation:
    def test_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            ModelParams(a=-1.0, nu=1.0, gamma=1.0, beta=0.5)
        with pytest.raises(ValueError):
            ModelParams(a=1.0, nu=0.0, gamma=1.0, beta=0.5)

    def test_params_carry_no_sobolev_index(self):
        # the index is the constant SOBOLEV_S, not a field a run could set
        assert [f.name for f in dataclasses.fields(ModelParams)] == ["a", "nu", "gamma", "beta"]
        with pytest.raises(TypeError):
            ModelParams(a=1.0, nu=1.0, gamma=1.0, beta=0.5, s=2)

    def test_disc_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Discretization(k_max=0, n_z=64, l_z=10.0)
        with pytest.raises(ValueError):
            Discretization(k_max=2, n_z=4, l_z=10.0)
        with pytest.raises(ValueError):
            Discretization(k_max=2, n_z=64, l_z=10.0, n_t=1)

    def test_tail_check(self):
        disc = Discretization(k_max=2, n_z=64, l_z=10.0)
        with pytest.raises(ValueError):
            disc.check_tail(rate=1.0)
        disc.check_tail(rate=3.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
