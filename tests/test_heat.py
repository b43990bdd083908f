"""Tests for the Robin heat propagator and its finite-difference cross-check.

Closed forms used below:

  moment of e^{-c z}      2*gamma / (c + gamma)          (l_z tail negligible)
  w0 = (1+z) e^{-z}       slab part (z/2) e^{-z}  at gamma = 1
  eigenmode e^{-gamma z}  w(t) = e^{nu (gamma^2 - mu^2) t} w0, slab part zero

The Crank-Nicolson oracle marches the same PDE with an unrelated scheme
(ghost-point tridiagonal theta-stepping, no slab/wall splitting), so
transform-vs-oracle agreement checks both routes at once.  The oracle
itself is held to the N-th power of the dense per-mode Crank-Nicolson
matrix, written from the ghost-point stencil with numpy alone.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from robinslab.domain import (
    Discretization,
    ModelParams,
    SpectralField3,
    field3_from_profile,
    random_field3,
    sobolev_norm,
    zero_field3,
)
from robinslab.heat import (
    COMPAT_WARNING,
    RobinPropagator,
    boundary_residual,
    build_transform_bundle,
    calibrate_growth_constant,
    exp_weighted_moment,
    fd_robin_oracle,
    growth_ratios,
    warn_if_incompatible,
)

A = math.pi
PARAMS = ModelParams(a=A, nu=1.0, gamma=2.0, beta=1.0, s=2)


def eigen_field(disc, gamma, mode=(1, 1)):
    return field3_from_profile(disc, mode, np.exp(-gamma * disc.z))


def dense_cn_matrix(n_z, h, gamma, mu2, c):
    """(M, rate): the Crank-Nicolson step M = (I - cL)^{-1} (I + cL) of one mode
    and the largest real part of L's spectrum, L written densely from the stencil.

    The unknowns are w_0 (the wall) .. w_{n_z-2}; w_{n_z-1} = 0 is the
    Dirichlet cap.  The centred Robin condition (w_1 - w_{-1}) / 2h + gamma w_0 = 0
    gives the ghost value w_{-1} = w_1 + 2 h gamma w_0, which the wall row's
    second difference (w_{-1} - 2 w_0 + w_1) / h^2 takes in.
    """
    n = n_z - 1
    stencil = np.zeros((n, n))
    for j in range(n):
        stencil[j, j] = -2.0
        if j > 0:
            stencil[j, j - 1] = 1.0
        if j + 1 < n:
            stencil[j, j + 1] = 1.0
    stencil[0, 1] += 1.0  # the ghost value's w_1
    stencil[0, 0] += 2.0 * h * gamma  # the ghost value's 2 h gamma w_0
    lap = stencil / h**2 - mu2 * np.eye(n)
    step = np.linalg.solve(np.eye(n) - c * lap, np.eye(n) + c * lap)
    return step, float(np.max(np.linalg.eigvals(lap).real))


class TestMoment:
    def test_kernel_profile_has_unit_moment(self):
        # numerator and denominator integrate the same array, so this is
        # exact, not approximate
        disc = Discretization(k_max=2, n_z=257, l_z=20.0)
        m = exp_weighted_moment(eigen_field(disc, PARAMS.gamma), PARAMS.gamma)
        assert m[0, 0] == 1.0

    def test_cubed_decay_closed_form(self):
        # moment of e^{-3 gamma z} = 2 gamma / (4 gamma) = 1/2, reached at
        # Simpson's fourth order (measured 4.9e-5 -> 1.5e-6 -> 9.7e-8)
        errs = {}
        for n_z in (513, 1025):
            disc = Discretization(k_max=1, n_z=n_z, l_z=20.0)
            f = field3_from_profile(disc, (1, 1), np.exp(-3 * PARAMS.gamma * disc.z))
            errs[n_z] = abs(exp_weighted_moment(f, PARAMS.gamma)[0, 0] - 0.5)
        assert errs[513] < 1e-4
        assert 12.0 < errs[513] / errs[1025] < 20.0

    def test_residue_moment_vanishes_on_grid(self, rng):
        disc = Discretization(k_max=3, n_z=257, l_z=20.0)
        f = random_field3(disc, rng, kind="generic")
        m = exp_weighted_moment(f, PARAMS.gamma)
        weight = np.exp(-PARAMS.gamma * disc.z)
        residue = f.coeffs - m[:, :, None] * weight
        left = simpson(residue * weight, dx=disc.dz, axis=-1)
        assert np.max(np.abs(left)) < 1e-14 * np.max(np.abs(f.coeffs))

    def test_rejects_nonpositive_gamma(self):
        disc = Discretization(k_max=1, n_z=65, l_z=20.0)
        with pytest.raises(ValueError):
            exp_weighted_moment(eigen_field(disc, 1.0), 0.0)


class TestTransform:
    def test_slab_part_of_eigen_profile_is_exactly_zero(self):
        disc = Discretization(k_max=2, n_z=257, l_z=20.0)
        slab, moments = build_transform_bundle(eigen_field(disc, PARAMS.gamma), PARAMS.gamma)
        assert np.max(np.abs(slab)) == 0.0
        assert moments[0, 0] == 1.0

    def test_analytic_slab_closed_form(self):
        # gamma = 1, w0 = (1+z) e^{-z}: moment 3/2, slab part (z/2) e^{-z}
        errs = {}
        for n_z in (513, 1025):
            disc = Discretization(k_max=1, n_z=n_z, l_z=20.0)
            f = field3_from_profile(disc, (1, 1), (1 + disc.z) * np.exp(-disc.z))
            slab, moments = build_transform_bundle(f, 1.0)
            assert moments[0, 0] == pytest.approx(1.5, rel=1e-6)
            errs[n_z] = np.max(np.abs(slab[0, 0] - 0.5 * disc.z * np.exp(-disc.z)))
        assert errs[513] < 5e-4
        assert 3.0 < errs[513] / errs[1025] < 5.0  # second-order sweep

    def test_slab_wall_value_second_order_small(self):
        # the sweep pins the slab part at the wall only up to its dz^2
        # quadrature error
        vals = {}
        for n_z in (513, 1025):
            disc = Discretization(k_max=2, n_z=n_z, l_z=20.0)
            f = random_field3(
                disc, np.random.default_rng(9), kind="robin", gamma=PARAMS.gamma
            )
            slab, _ = build_transform_bundle(f, PARAMS.gamma)
            vals[n_z] = np.max(np.abs(slab[:, :, 0]))
        assert vals[513] < 1e-4
        assert 3.0 < vals[513] / vals[1025] < 5.0


class TestPropagator:
    def test_eigenmode_decay_rate_is_exact(self):
        # residue is exactly zero, so only the explicit exponential factor acts
        disc = Discretization(k_max=2, n_z=513, l_z=20.0)
        w0 = eigen_field(disc, PARAMS.gamma)
        t = 0.5
        w = RobinPropagator(w0, PARAMS).at(t)
        factor = math.exp(PARAMS.nu * (PARAMS.gamma**2 - 2.0) * t)
        err = np.max(np.abs(w.coeffs - factor * w0.coeffs))
        assert err < 1e-14 * factor

    def test_mode22_worked_decay_factor(self):
        # gamma = 1, mode (2,2): rate nu (gamma^2 - mu^2) = -7, so
        # t = 0.2 scales the field by e^{-1.4}
        params = ModelParams(a=A, nu=1.0, gamma=1.0, beta=1.0, s=2)
        disc = Discretization(k_max=2, n_z=257, l_z=20.0)
        w0 = eigen_field(disc, 1.0, mode=(2, 2))
        w = RobinPropagator(w0, params).at(0.2)
        ratio = w.coeffs[1, 1, 5] / w0.coeffs[1, 1, 5]
        assert ratio == pytest.approx(math.exp(-1.4), rel=1e-14)

    def test_time_zero_reconstruction(self):
        errs = {}
        for n_z in (257, 513):
            disc = Discretization(k_max=2, n_z=n_z, l_z=20.0)
            f = random_field3(
                disc, np.random.default_rng(9), kind="robin", gamma=PARAMS.gamma
            )
            w = RobinPropagator(f, PARAMS).at(0.0)
            errs[n_z] = np.max(np.abs(w.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert errs[513] < 5e-3
        assert errs[513] < errs[257]

    def test_negative_time_rejected(self):
        disc = Discretization(k_max=1, n_z=65, l_z=20.0)
        prop = RobinPropagator(eigen_field(disc, PARAMS.gamma), PARAMS)
        with pytest.raises(ValueError):
            prop.at(-0.1)

    def test_nonpositive_gamma_rejected(self):
        disc = Discretization(k_max=1, n_z=65, l_z=20.0)
        params = ModelParams(a=A, nu=1.0, gamma=-1.0, beta=1.0, s=2)
        with pytest.raises(ValueError):
            RobinPropagator(eigen_field(disc, 1.0), params)

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        beta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_linearity(self, alpha, beta):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0)
        rng = np.random.default_rng(21)
        f = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
        g = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
        mix = SpectralField3(alpha * f.coeffs + beta * g.coeffs, disc)
        lhs = RobinPropagator(mix, PARAMS).at(0.2).coeffs
        rhs = (
            alpha * RobinPropagator(f, PARAMS).at(0.2).coeffs
            + beta * RobinPropagator(g, PARAMS).at(0.2).coeffs
        )
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_incompatible_data_warns(self, capsys):
        # e^{-z} with gamma = 2 leaves a wall residual ratio of 1/3
        disc = Discretization(k_max=1, n_z=257, l_z=20.0)
        f = field3_from_profile(disc, (1, 1), np.exp(-disc.z))
        warn_if_incompatible(f, PARAMS.gamma)
        assert capsys.readouterr() == ("", COMPAT_WARNING + "\n")
        # the propagator itself never warns: only the heat command asks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RobinPropagator(f, PARAMS)
        assert capsys.readouterr() == ("", "")

    def test_compatible_data_does_not_warn(self, capsys):
        disc = Discretization(k_max=1, n_z=257, l_z=20.0)
        warn_if_incompatible(eigen_field(disc, PARAMS.gamma), PARAMS.gamma)
        assert capsys.readouterr() == ("", "")


class TestOracleAgreement:
    def test_oracle_matches_exact_eigenmode_decay(self):
        disc = Discretization(k_max=2, n_z=1025, l_z=20.0)
        w0 = eigen_field(disc, PARAMS.gamma)
        t = 0.5
        exact = math.exp(PARAMS.nu * (PARAMS.gamma**2 - 2.0) * t) * w0.coeffs
        fd = fd_robin_oracle(w0, t, PARAMS, n_steps=2000)
        err = np.max(np.abs(fd.coeffs - exact)) / np.max(np.abs(exact))
        assert err < 1e-3  # measured 8.9e-4: dt^2 + dz^2 at this resolution

    @settings(max_examples=40, deadline=None)
    @given(
        n_z=st.sampled_from([9, 17, 33]),
        gamma=st.floats(min_value=0.1, max_value=8.0),
        t=st.floats(min_value=0.01, max_value=1.0),
        n_steps=st.integers(min_value=1, max_value=64),
    )
    def test_oracle_is_the_dense_crank_nicolson_power(self, n_z, gamma, t, n_steps):
        disc = Discretization(k_max=2, n_z=n_z, l_z=20.0)
        params = ModelParams(a=A, nu=1.0, gamma=gamma, beta=1.0, s=2)
        c = 0.5 * params.nu * t / n_steps
        mu2 = disc.mode_rates(A) ** 2
        steps = {
            (k1, k2): dense_cn_matrix(n_z, disc.dz, gamma, mu2[k1, k2], c)
            for k1 in range(2) for k2 in range(2)
        }
        # (0, 0) has the smallest mu, so the fastest growing wall mode
        assume(c * steps[0, 0][1] <= 0.5)
        wall_only = np.zeros((2, 2, n_z))
        wall_only[:, :, 0] = [[1.0, -2.0], [0.5, 3.0]]
        robin = random_field3(disc, np.random.default_rng(n_z), kind="robin", gamma=gamma)
        for coeffs in (wall_only, robin.coeffs):
            want = np.zeros_like(coeffs)
            for (k1, k2), (step, _) in steps.items():
                power = np.linalg.matrix_power(step, n_steps)
                want[k1, k2, :-1] = power @ coeffs[k1, k2, :-1]
            got = fd_robin_oracle(SpectralField3(coeffs, disc), t, params, n_steps=n_steps)
            assert np.max(np.abs(got.coeffs - want)) <= 1e-12 * np.max(np.abs(want))

    def test_oracle_time_zero_is_identity(self):
        disc = Discretization(k_max=2, n_z=129, l_z=20.0)
        w0 = eigen_field(disc, PARAMS.gamma)
        fd = fd_robin_oracle(w0, 0.0, PARAMS)
        assert np.array_equal(fd.coeffs, w0.coeffs)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_oracle_rejects_a_time_that_is_not_finite(self, t):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                fd_robin_oracle(eigen_field(disc, PARAMS.gamma), t, PARAMS, n_steps=10)

    @pytest.mark.parametrize("n_steps", [2.0, 2.5, "2", None, True])
    def test_oracle_rejects_a_step_count_that_is_not_an_integer(self, n_steps):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0)
        with pytest.raises(ValueError, match="integer"):
            fd_robin_oracle(eigen_field(disc, PARAMS.gamma), 0.3, PARAMS, n_steps=n_steps)

    def test_oracle_accepts_a_numpy_integer_step_count(self):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0)
        w0 = eigen_field(disc, PARAMS.gamma)
        got = fd_robin_oracle(w0, 0.3, PARAMS, n_steps=np.int64(10))
        assert np.array_equal(got.coeffs, fd_robin_oracle(w0, 0.3, PARAMS, n_steps=10).coeffs)

    def test_transform_matches_oracle_on_compatible_data(self):
        rng = np.random.default_rng(77)
        errs = []
        for n_z, n_steps in ((257, 500), (513, 1000)):
            disc = Discretization(k_max=4, n_z=n_z, l_z=20.0)
            f = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
            tr = RobinPropagator(f, PARAMS).at(0.3)
            fd = fd_robin_oracle(f, 0.3, PARAMS, n_steps=n_steps)
            errs.append(np.max(np.abs(tr.coeffs - fd.coeffs)) / np.max(np.abs(fd.coeffs)))
        assert errs[1] < 5e-3  # measured 2.1e-3 at n_z = 513
        order = math.log2(errs[0] / errs[1])
        assert order > 1.8  # joint dz, dt refinement; measured 1.91


class TestSemigroup:
    def test_eigenmode_composition_is_exact(self):
        disc = Discretization(k_max=2, n_z=513, l_z=20.0)
        w0 = eigen_field(disc, PARAMS.gamma)
        prop = RobinPropagator(w0, PARAMS)
        w_direct = prop.at(0.5)
        w_two_leg = RobinPropagator(prop.at(0.3), PARAMS).at(0.2)
        defect = np.max(np.abs(w_two_leg.coeffs - w_direct.coeffs))
        assert defect < 1e-12 * np.max(np.abs(w_direct.coeffs))

    def test_generic_composition_defect_small_on_fine_grid(self):
        # re-splitting the intermediate field costs O(dz^2); at this grid the
        # defect sits near 5e-10
        params = ModelParams(a=A, nu=1.0, gamma=1.25, beta=1.0, s=2)
        disc = Discretization(k_max=1, n_z=50001, l_z=25.0)
        f = random_field3(disc, np.random.default_rng(5), kind="generic")
        prop = RobinPropagator(f, params)
        w_direct = prop.at(0.5)
        w_two_leg = RobinPropagator(prop.at(0.3), params).at(0.2)
        defect = np.max(np.abs(w_two_leg.coeffs - w_direct.coeffs)) / np.max(
            np.abs(w_direct.coeffs)
        )
        assert defect < 1e-8

    def test_composition_defect_decays_at_second_order(self):
        params = ModelParams(a=A, nu=1.0, gamma=1.25, beta=1.0, s=2)
        defects = []
        for n_z in (2001, 4001):
            disc = Discretization(k_max=1, n_z=n_z, l_z=25.0)
            f = random_field3(disc, np.random.default_rng(5), kind="generic")
            prop = RobinPropagator(f, params)
            w_direct = prop.at(0.5)
            w_two_leg = RobinPropagator(prop.at(0.3), params).at(0.2)
            defects.append(
                np.max(np.abs(w_two_leg.coeffs - w_direct.coeffs))
                / np.max(np.abs(w_direct.coeffs))
            )
        order = math.log2(defects[0] / defects[1])
        assert 1.8 < order < 2.2


class TestGrowthAndSmoothing:
    def test_calibrated_constant_pinned_by_identity(self):
        # at a = pi every resolved rate has mu^2 >= 2, so all t > 0 ratios
        # fall below the t = 0 identity and the constant is exactly 1
        disc = Discretization(k_max=4, n_z=257, l_z=20.0)
        c = calibrate_growth_constant(20, 2, [0.0, 0.1, 0.5, 1.0], 7, PARAMS, disc)
        assert c == 1.0

    def test_held_out_fields_under_margin(self):
        disc = Discretization(k_max=4, n_z=257, l_z=20.0)
        c = calibrate_growth_constant(20, 2, [0.0, 0.1, 0.5, 1.0], 7, PARAMS, disc)
        rng = np.random.default_rng(1234)
        rate = PARAMS.nu * PARAMS.gamma**2
        for _ in range(10):
            f = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
            base = sobolev_norm(f, 2, A)
            prop = RobinPropagator(f, PARAMS)
            for t in (0.1, 0.5, 1.0):
                ratio = sobolev_norm(prop.at(t), 2, A) * math.exp(-rate * t) / base
                assert ratio <= 1.1 * c

    def test_growth_ratios_pin_time_zero_at_exactly_one(self):
        # at(0) reproduces w0 only up to representation error, so the t = 0
        # entry is the identity's exact 1.0, not a measurement; zero fields
        # are skipped
        disc = Discretization(k_max=2, n_z=129, l_z=20.0)
        f = random_field3(disc, np.random.default_rng(4), kind="robin", gamma=PARAMS.gamma)
        ratios = growth_ratios([f, zero_field3(disc), f], [0.0, 0.2], 2, PARAMS)
        assert len(ratios) == 4
        assert ratios[0] == ratios[2] == 1.0
        assert ratios[1] == ratios[3] < 1.0
        at_zero = sobolev_norm(RobinPropagator(f, PARAMS).at(0.0), 2, A)
        assert at_zero != sobolev_norm(f, 2, A)

    def test_growth_seed_reproducibility(self):
        disc = Discretization(k_max=3, n_z=129, l_z=20.0)
        c1 = calibrate_growth_constant(5, 2, [0.0, 0.5], 3, PARAMS, disc)
        c2 = calibrate_growth_constant(5, 2, [0.0, 0.5], 3, PARAMS, disc)
        assert c1 == c2

    def test_instant_smoothing_of_rough_data(self):
        # extend the mode band of rough 1/(k1 k2) data: the t = 0 norm grows
        # a lot, the t = 0.1 norm barely moves
        disc16 = Discretization(k_max=16, n_z=257, l_z=20.0)
        disc8 = Discretization(k_max=8, n_z=257, l_z=20.0)
        f16 = random_field3(
            disc16, np.random.default_rng(3), kind="flat", gamma=PARAMS.gamma
        )
        f8 = SpectralField3(f16.coeffs[:8, :8], disc8)
        rough_growth = sobolev_norm(f16, 2, A) / sobolev_norm(f8, 2, A)
        assert rough_growth > 2.0
        n16 = sobolev_norm(RobinPropagator(f16, PARAMS).at(0.1), 2, A)
        n8 = sobolev_norm(RobinPropagator(f8, PARAMS).at(0.1), 2, A)
        assert abs(n16 - n8) / n16 < 0.05


class TestBoundaryResidual:
    def test_single_mode_closed_form_under_refinement(self):
        # profile e^{-2 gamma z}: residual (a/2)|gamma| = pi at gamma = 2,
        # reached at second order in dz (the one-sided stencil dominates)
        errs = {}
        for n_z in (513, 1025, 2049):
            disc = Discretization(k_max=1, n_z=n_z, l_z=20.0)
            f = field3_from_profile(disc, (1, 1), np.exp(-2 * PARAMS.gamma * disc.z))
            errs[n_z] = abs(boundary_residual(f, PARAMS.gamma, A) - math.pi)
        assert errs[2049] < 5e-3
        assert 3.0 < errs[513] / errs[1025] < 5.0
        assert 3.0 < errs[1025] / errs[2049] < 5.0

    def test_compatible_profile_residual_is_stencil_error_only(self):
        # the continuum residual of e^{-gamma z} is zero; what remains is
        # the one-sided derivative's O(dz^2)
        vals = {}
        for n_z in (1025, 2049):
            disc = Discretization(k_max=2, n_z=n_z, l_z=20.0)
            vals[n_z] = boundary_residual(eigen_field(disc, PARAMS.gamma), PARAMS.gamma, A)
        assert vals[1025] < 2e-3
        assert 3.0 < vals[1025] / vals[2049] < 5.0
