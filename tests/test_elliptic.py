"""Tests for the per-mode Robin-wall elliptic inverse.

The cross-check oracle discretizes each mode's two-point problem a second
way: dense matrix, one-sided (not ghost-point) closure of the wall
condition, and an 8x finer grid, solved with numpy's generic dense solver.
Agreement between the two routes at shared grid points is the correctness
evidence; neither route reuses the other's code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinslab import elliptic
from robinslab.domain import (
    Discretization,
    SpectralField3,
    field3_from_profile,
    random_field3,
    sobolev_norm,
    zero_field3,
)
from robinslab.elliptic import (
    RESONANCE_TOL,
    calibrate_elliptic_constant,
    elliptic_ratios,
    interior_residual,
    require_admissible,
    solve_elliptic,
)
from robinslab.errors import ResonanceError, SingularSystemError

A = math.pi


def dense_mode_oracle(f_vals: np.ndarray, mu2: float, beta: float, l_z: float) -> np.ndarray:
    """Independent solve of -v'' + mu2 v = f, v'(0) + beta v(0) = 0, v(l_z) = 0.

    One-sided second-order wall closure and a dense LU solve, so it shares
    neither the boundary treatment nor the linear algebra with the module
    under test.
    """
    n = f_vals.shape[0]
    h = l_z / (n - 1)
    m = np.zeros((n, n))
    rhs = np.zeros(n)
    m[0, 0] = -3.0 / (2 * h) + beta
    m[0, 1] = 4.0 / (2 * h)
    m[0, 2] = -1.0 / (2 * h)
    for j in range(1, n - 1):
        m[j, j - 1] = -1.0 / h**2
        m[j, j] = 2.0 / h**2 + mu2
        m[j, j + 1] = -1.0 / h**2
        rhs[j] = f_vals[j]
    m[n - 1, n - 1] = 1.0
    return np.linalg.solve(m, rhs)


def mode_matrix(mu2: float, beta: float, dz: float, n: int) -> np.ndarray:
    """Dense matrix of one mode's ghost-point Robin system, written out."""
    h2 = dz * dz
    m = np.diag(np.full(n, 2.0 / h2 + mu2))
    m[0, 0] = 2.0 / h2 - 2.0 * beta / dz + mu2
    m += np.diag(np.full(n - 1, -1.0 / h2), 1) + np.diag(np.full(n - 1, -1.0 / h2), -1)
    m[0, 1] = -2.0 / h2
    return m


class TestAdmissibility:
    def test_resonant_coefficient_is_flagged(self):
        # a = pi makes the mode rates |k| = sqrt(k1^2 + k2^2)
        disc = Discretization(k_max=3, n_z=64, l_z=20.0)
        with pytest.raises(ResonanceError) as exc:
            require_admissible(math.sqrt(2.0), disc, A)
        assert exc.value.modes == ((1, 1),)

    def test_resonance_window_boundaries(self):
        disc = Discretization(k_max=2, n_z=64, l_z=20.0)
        f = field3_from_profile(disc, (1, 2), np.exp(-disc.z))
        mu = math.sqrt(5.0)
        with pytest.raises(ResonanceError) as exc:
            solve_elliptic(f, mu + 5e-9, A)
        assert (1, 2) in exc.value.modes
        solve_elliptic(f, mu + 2e-8, A)  # just outside the window

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    def test_solver_raises_exactly_when_inadmissible(self, beta):
        disc = Discretization(k_max=2, n_z=16, l_z=20.0)
        f = field3_from_profile(disc, (1, 1), np.exp(-disc.z))
        gap = np.min(np.abs(beta - disc.lateral.mu(A)))
        if gap >= RESONANCE_TOL:
            solve_elliptic(f, beta, A)
        else:
            with pytest.raises(ResonanceError):
                solve_elliptic(f, beta, A)


class TestSolve:
    def test_zero_source_gives_zero(self):
        disc = Discretization(k_max=3, n_z=128, l_z=20.0)
        v = solve_elliptic(zero_field3(disc), 1.0, A)
        assert np.max(np.abs(v.coeffs)) == 0.0

    def test_robin_compatible_exponential_closed_form(self):
        # v = e^{-beta z} satisfies the wall condition exactly, so
        # f = (mu^2 - beta^2) e^{-beta z} must return it; the Dirichlet cap
        # at l_z = 20 adds only an e^{-20} tail.
        disc = Discretization(k_max=2, n_z=512, l_z=20.0)
        beta = 1.0
        prof = np.exp(-beta * disc.z)
        coeffs = np.zeros((2, 2, disc.n_z))
        for k1 in (1, 2):
            for k2 in (1, 2):
                mu2 = float(k1**2 + k2**2)
                coeffs[k1 - 1, k2 - 1] = (mu2 - beta**2) * prof
        f = SpectralField3(coeffs, disc)
        v = solve_elliptic(f, beta, A)
        expected = np.broadcast_to(prof, (2, 2, disc.n_z))
        err = np.max(np.abs(v.coeffs - expected))
        assert err < 1e-3

    def test_linearity_to_machine_precision(self, rng):
        disc = Discretization(k_max=3, n_z=128, l_z=20.0)
        f = random_field3(disc, rng, kind="generic")
        g = random_field3(disc, rng, kind="generic")
        lhs = solve_elliptic(
            SpectralField3(0.7 * f.coeffs - 2.5 * g.coeffs, disc), 1.0, A
        )
        rhs = 0.7 * solve_elliptic(f, 1.0, A).coeffs - 2.5 * solve_elliptic(g, 1.0, A).coeffs
        assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_interior_residual_is_solver_exact(self, rng):
        disc = Discretization(k_max=3, n_z=256, l_z=20.0)
        f = random_field3(disc, rng, kind="generic")
        v = solve_elliptic(f, 1.0, A)
        assert interior_residual(v, f, A) < 1e-10

    def test_against_dense_one_sided_oracle(self, rng):
        # coarse ghost-point solve vs dense one-sided solve at 8x resolution
        l_z = 20.0
        n_c, n_f = 129, 1025
        disc_f = Discretization(k_max=2, n_z=n_f, l_z=l_z)
        disc_c = Discretization(k_max=2, n_z=n_c, l_z=l_z)
        f_fine = random_field3(disc_f, rng, kind="generic")
        f_coarse = SpectralField3(f_fine.coeffs[:, :, ::8], disc_c)
        v = solve_elliptic(f_coarse, 1.0, A)
        for k1 in (1, 2):
            for k2 in (1, 2):
                mu2 = float(k1**2 + k2**2)
                ref = dense_mode_oracle(f_fine.coeffs[k1 - 1, k2 - 1], mu2, 1.0, l_z)
                got = v.coeffs[k1 - 1, k2 - 1]
                err = np.max(np.abs(got - ref[::8]))
                assert err < 1e-3 * max(1.0, np.max(np.abs(ref)))

    def test_wall_condition_satisfied_by_solution(self, rng):
        # one-sided wall derivative of the solve obeys v'(0) + beta v(0) = 0
        # up to the stencil's O(dz^2)
        disc = Discretization(k_max=2, n_z=1025, l_z=20.0)
        f = random_field3(disc, rng, kind="generic")
        v = solve_elliptic(f, 1.0, A)
        dz = disc.dz
        c = v.coeffs
        deriv = (-3.0 * c[:, :, 0] + 4.0 * c[:, :, 1] - c[:, :, 2]) / (2 * dz)
        resid = np.max(np.abs(deriv + 1.0 * c[:, :, 0]))
        assert resid < 5e-3 * max(1.0, np.max(np.abs(c)))

    def test_condition_cap_triggers(self, monkeypatch):
        disc = Discretization(k_max=2, n_z=64, l_z=20.0)
        f = field3_from_profile(disc, (1, 1), np.exp(-disc.z))
        monkeypatch.setattr(elliptic, "CONDITION_CAP", 1.0)
        # the cap is checked when the operator is built, so drop any cached one
        elliptic.elliptic_operator.cache_clear()
        with pytest.raises(SingularSystemError):
            solve_elliptic(f, 1.0, A)

    def test_refusal_threshold_is_worst_dense_one_norm_condition(self, monkeypatch):
        disc = Discretization(k_max=3, n_z=64, l_z=20.0)
        worst = max(
            np.linalg.cond(mode_matrix(mu**2, 1.0, disc.dz, disc.n_z - 1), 1)
            for mu in disc.lateral.mu(A).ravel()
        )
        build = elliptic.elliptic_operator.__wrapped__
        monkeypatch.setattr(elliptic, "CONDITION_CAP", worst * (1.0 + 1e-9))
        build(1.0, A, disc)
        monkeypatch.setattr(elliptic, "CONDITION_CAP", worst * (1.0 - 1e-9))
        with pytest.raises(SingularSystemError, match="exceeds cap"):
            build(1.0, A, disc)

    def test_block_with_zero_rcond_reads_as_infinite_condition(self, monkeypatch):
        disc = Discretization(k_max=3, n_z=64, l_z=20.0)
        real_dgtcon = elliptic.dgtcon
        calls = 0

        def dgtcon(*args, **kwargs):
            nonlocal calls
            calls += 1
            rcond, info = real_dgtcon(*args, **kwargs)
            # the fourth distinct mode, (3, 1), reads as exactly singular
            return (0.0 if calls == 4 else rcond), info

        monkeypatch.setattr(elliptic, "dgtcon", dgtcon)
        with pytest.raises(SingularSystemError, match=r"mode \(3, 1\) .* estimate inf"):
            elliptic.elliptic_operator.__wrapped__(1.0, A, disc)

    def test_shared_factors_hold_each_mode_factored_alone(self):
        disc = Discretization(k_max=3, n_z=64, l_z=20.0)
        n = disc.n_z - 1
        # beta = 3.5 takes the wall row's diagonal below its neighbour's
        # coupling in most modes, so their blocks swap rows as they factor
        for beta in (1.0, 3.5):
            dl, d, du, du2, ipiv = elliptic.elliptic_operator.__wrapped__(beta, A, disc).factors
            for b, mu in enumerate(disc.lateral.mu(A).ravel()):
                m = mode_matrix(mu**2, beta, disc.dz, n)
                want = elliptic.dgttrf(np.diag(m, -1), np.diag(m).copy(), np.diag(m, 1))
                o = b * n
                got = (
                    dl[o : o + n - 1], d[o : o + n], du[o : o + n - 1],
                    du2[o : o + n - 2], ipiv[o : o + n] - o, 0,
                )
                assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


class TestCalibration:
    def test_single_eigenfunction_ensemble_ratio(self):
        # f = sin(x1) sin(x2) e^{-z} with beta = 1: the solve returns f itself
        # (mu^2 - beta^2 = 1), so the ratio is ||f||_{H^2} / ||f||_{L^2} and
        # every derivative factor is 1 -> sqrt(#multi-indices) = sqrt(10).
        disc = Discretization(k_max=2, n_z=1025, l_z=30.0)
        f = field3_from_profile(disc, (1, 1), np.exp(-disc.z))
        (c,) = elliptic_ratios([f], A, 1.0)
        assert c == pytest.approx(math.sqrt(10.0), rel=5e-3)

    def test_seed_reproducibility(self):
        disc = Discretization(k_max=3, n_z=128, l_z=20.0)
        c1 = calibrate_elliptic_constant(42, disc, A, 1.0)
        c2 = calibrate_elliptic_constant(42, disc, A, 1.0)
        c3 = calibrate_elliptic_constant(43, disc, A, 1.0)
        assert c1 == c2
        assert c1 != c3

    def test_held_out_fields_under_margin(self, rng):
        disc = Discretization(k_max=3, n_z=256, l_z=20.0)
        c = calibrate_elliptic_constant(2024, disc, A, 1.0)
        for _ in range(10):
            f = random_field3(disc, rng, kind="generic")
            denom = sobolev_norm(f, 0, A)
            ratio = sobolev_norm(solve_elliptic(f, 1.0, A), 2, A) / denom
            assert ratio <= 1.1 * c

    def test_empty_ensemble_rejected(self):
        disc = Discretization(k_max=2, n_z=64, l_z=20.0)
        # an empty ensemble, or one of zero fields only, yields no ratio at all
        assert elliptic_ratios([], A, 1.0) == []
        assert elliptic_ratios([zero_field3(disc)], A, 1.0) == []
