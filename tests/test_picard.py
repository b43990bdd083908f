"""Tests for horizon selection, Duhamel quadrature and the Picard sweep.

Worked example frozen below: growth constant 2, nu = gamma = 1,
||w0||_{H^s} = 1, ||v0||_{H^{s+1}} = 0 give amplification 2e, ball radius
M = 2e and horizon T = 1/(16e), bound by the data term.
"""

import dataclasses
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robinslab import picard
from robinslab.domain import (
    MAX_DERIVATIVE_ORDER,
    SOBOLEV_S,
    Discretization,
    ModelParams,
    SpectralField3,
    field3_from_profile,
    random_field3,
    sobolev_norm,
    zero_field3,
)
from robinslab.errors import NoConvergenceError, NonFiniteError
from robinslab.heat import RobinPropagator
from robinslab.picard import (
    PICARD_TOL,
    HorizonSelection,
    PicardProblem,
    PicardState,
    duhamel_apply,
    duhamel_tables,
    horizon_from_norms,
    picard_solve,
    picard_step,
    select_horizon,
    tabulates,
    x_distance,
    x_norm,
)
from robinslab.report import parse_config

A = math.pi
PARAMS = ModelParams(a=A, nu=1.0, gamma=2.0, beta=1.0)
T_WORKED = 1.0 / (16.0 * math.e)  # 0.022992465073215146


class TestHorizon:
    def test_worked_example(self):
        p = ModelParams(a=A, nu=1.0, gamma=1.0, beta=1.0)
        h = horizon_from_norms(0.0, 1.0, 2.0, p)
        assert h.T == pytest.approx(T_WORKED, rel=1e-14)
        assert h.M == pytest.approx(2.0 * math.e, rel=1e-14)
        assert h.binding == "data-bound"
        assert h.constraint_value <= 1.0

    def test_zero_data_unit_cap(self):
        h = horizon_from_norms(0.0, 0.0, 1.5, PARAMS)
        assert h.T == 1.0
        assert h.M == 0.0
        assert h.binding == "unit cap"

    def test_growth_constant_below_one_rejected(self):
        with pytest.raises(ValueError):
            horizon_from_norms(0.0, 1.0, 0.99, PARAMS)

    def test_negative_norms_rejected(self):
        with pytest.raises(ValueError):
            horizon_from_norms(-1.0, 1.0, 2.0, PARAMS)

    @pytest.mark.parametrize(
        "constant, gamma, match",
        [
            (math.nan, 2.0, "growth constant nan is not finite"),
            (math.inf, 2.0, "growth constant inf is not finite"),
            # nu gamma^2 = 1600: e^{1600} overflows a float
            (1.0, 40.0, r"amplification 1 e\^\{nu gamma\^2\} overflows at nu gamma\^2 = 1600"),
            # e^{700} is finite, 1e10 times it is not
            (1e10, math.sqrt(700.0), r"amplification 1e\+10 e\^\{nu gamma\^2\} overflows"),
        ],
    )
    def test_non_finite_constant_or_amplification_is_a_non_finite_error(
        self, constant, gamma, match
    ):
        params = dataclasses.replace(PARAMS, gamma=gamma)
        with pytest.raises(NonFiniteError, match=match):
            horizon_from_norms(0.1, 1.0, constant, params)

    @settings(max_examples=100, deadline=None)
    @given(
        nv=st.floats(min_value=0.0, max_value=100.0),
        nw=st.floats(min_value=0.0, max_value=100.0),
        c=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_selection_always_satisfies_its_constraint(self, nv, nw, c):
        h = horizon_from_norms(nv, nw, c, PARAMS)
        assert 0.0 < h.T <= 1.0
        assert h.constraint_value <= 1.0
        assert h.binding in {"data-bound", "propagator-bound", "unit cap"}

    @settings(max_examples=200, deadline=None)
    @given(
        nv=st.floats(min_value=0.0, max_value=1e6),
        nw=st.floats(min_value=0.0, max_value=1e6),
        c=st.floats(min_value=1.0, max_value=10.0),
        nu=st.floats(min_value=1e-3, max_value=10.0),
        gamma=st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_only_the_data_and_propagator_bounds_bind_nonzero_data(self, nv, nw, c, nu, gamma):
        # amp = C e^{nu gamma^2} >= 1, so M = 2||v0|| + R <= 2R gives
        # 1/(2M) >= 1/(4R) > 1/(8R), and 1/(2 amp) <= 1/2 < 1
        assume(nv > 0.0 or nw > 0.0)
        h = horizon_from_norms(nv, nw, c, dataclasses.replace(PARAMS, nu=nu, gamma=gamma))
        amp = c * math.exp(nu * gamma**2)
        r = amp * (nw + 2.0 * nv)
        assert h.binding in {"data-bound", "propagator-bound"}
        assert h.T == min(1.0 / (8.0 * r), 1.0 / (2.0 * amp))
        assert h.T <= 1.0 / (2.0 * h.M) and h.T < 1.0

    def test_select_measures_field_norms(self, rng):
        disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
        v0 = random_field3(disc, rng, kind="vspace")
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
        h = select_horizon(v0, w0, PARAMS, 1.0)
        ref = horizon_from_norms(
            sobolev_norm(v0, 3, A), sobolev_norm(w0, 2, A), 1.0, PARAMS
        )
        assert h == ref

    def test_sobolev_index_above_derivative_support_rejected(self, rng):
        # the horizon reads v in H^{s+1}, the highest order the norms support;
        # one index more would need a derivative order they refuse
        assert SOBOLEV_S + 1 == MAX_DERIVATIVE_ORDER
        disc = Discretization(k_max=2, n_z=65, l_z=20.0, n_t=5)
        f = random_field3(disc, rng, kind="robin", gamma=2.0)
        with pytest.raises(ValueError, match="above supported maximum"):
            sobolev_norm(f, SOBOLEV_S + 2, A)


class TestDuhamel:
    def test_constant_eigen_forcing_closed_form(self):
        # w0 = 0, g = G e^{-gamma z} on mode (1,1): w(t) = G (e^{rt} - 1)/r
        # with r = nu (gamma^2 - mu^2) = 2
        disc = Discretization(k_max=2, n_z=513, l_z=20.0, n_t=33)
        prof = np.exp(-PARAMS.gamma * disc.z)
        g = field3_from_profile(disc, (1, 1), 0.7 * prof)
        t = np.linspace(0.0, 0.5, disc.n_t)
        base = RobinPropagator(zero_field3(disc), PARAMS)
        slices = duhamel_apply(base, [base.flow.analyse(g.coeffs)] * disc.n_t, t)
        r = PARAMS.nu * (PARAMS.gamma**2 - 2.0)
        for i in (8, 16, 32):
            exact = 0.7 * (math.exp(r * t[i]) - 1.0) / r * prof
            err = np.max(np.abs(slices[i - 1].coeffs[0, 0] - exact))
            assert err < 1e-3 * np.max(np.abs(exact))  # measured 8.1e-5

    def test_zero_forcing_reduces_to_propagation(self, rng):
        disc = Discretization(k_max=2, n_z=129, l_z=20.0, n_t=5)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
        prop = RobinPropagator(w0, PARAMS)
        zeros = [prop.flow.analyse(zero_field3(disc).coeffs)] * disc.n_t
        t = np.linspace(0.0, 0.2, disc.n_t)
        slices = duhamel_apply(prop, zeros, t)
        assert len(slices) == disc.n_t - 1  # slice 0 is w0, which the caller holds
        for i in range(1, disc.n_t):
            assert np.array_equal(slices[i - 1].coeffs, prop.at(t[i]).coeffs)

    def test_zero_forcing_through_the_synthesis_table_reduces_to_propagation(self, rng):
        disc = Discretization(k_max=2, n_z=129, l_z=20.0, n_t=5)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
        prop = RobinPropagator(w0, PARAMS)
        zeros = [prop.flow.analyse(zero_field3(disc).coeffs)] * disc.n_t
        t = np.linspace(0.0, 0.2, disc.n_t)
        _, synthesis = duhamel_tables(prop.flow)
        slices = duhamel_apply(prop, zeros, t, synthesis)
        assert len(slices) == disc.n_t - 1
        for i in range(1, disc.n_t):
            want = prop.at(t[i]).coeffs
            assert np.max(np.abs(slices[i - 1].coeffs - want)) <= 1e-13 * np.max(np.abs(want))

    def test_validation(self):
        disc = Discretization(k_max=1, n_z=65, l_z=20.0, n_t=5)
        w0 = zero_field3(disc)
        base = RobinPropagator(w0, PARAMS)
        x = base.state
        with pytest.raises(ValueError):
            duhamel_apply(base, [x], np.array([0.0]))
        with pytest.raises(ValueError):  # fewer forcing states than grid nodes
            duhamel_apply(base, [x] * 4, np.linspace(0.0, 0.5, disc.n_t))
        flat = HorizonSelection(
            T=0.0, M=0.0, growth_constant=1.0, binding="unit cap", constraint_value=0.0
        )
        with pytest.raises(ValueError, match="horizon must be positive"):
            PicardProblem(w0, w0, PARAMS, flat)


class TestTabulation:
    @pytest.mark.parametrize(
        "config, tabulated",
        [
            ("picard_smooth.json", True),  # 64 rows x 32 slices >= 256
            ("picard_zero.json", False),  # 16 rows x 8 slices < 256
            ("heat_eigenmode.json", False),  # n_z 1024
            ("elliptic_eigenmode.json", False),  # n_z 512
        ],
    )
    def test_shipped_grids(self, config, tabulated):
        path = Path(__file__).resolve().parents[1] / "configs" / config
        disc = parse_config(json.loads(path.read_text())).disc
        assert tabulates(disc) is tabulated

    @pytest.mark.parametrize(
        "k_max, n_z, n_t, tabulated",
        [
            (4, 65, 9, True),
            (3, 129, 9, False),  # 72 rows per sweep, fewer than n_z
            (3, 129, 17, True),
            (8, 384, 33, True),
            (8, 385, 33, False),  # past TABLE_MAX_N_Z
        ],
    )
    def test_problem_holds_tables_where_the_grid_tabulates(self, k_max, n_z, n_t, tabulated):
        disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0, n_t=n_t)
        gen = np.random.default_rng(n_z)
        v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
        w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
        horizon = HorizonSelection(
            T=0.01, M=1.0, growth_constant=1.0, binding="unit cap", constraint_value=0.0
        )
        problem = PicardProblem(v0, w0, PARAMS, horizon)
        assert tabulates(disc) is tabulated
        if tabulated:
            assert problem.forcing_analysis.shape == (n_z, n_z - 1)
            assert problem.synthesis.shape == (n_z - 1, n_z)
            assert np.array_equal(problem.forcing_state, v0.coeffs @ problem.forcing_analysis)
        else:
            assert problem.forcing_analysis is None and problem.synthesis is None
            want = problem.w0_propagator.flow.analyse(picard.d_z(v0).coeffs)
            assert np.array_equal(problem.forcing_state, want)


class TestPicardSolve:
    def test_zero_data_is_already_the_fixed_point(self):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0, n_t=5)
        zero = zero_field3(disc)
        h = select_horizon(zero, zero, PARAMS, 1.0)
        res = picard_solve(PicardProblem(zero, zero, PARAMS, h))
        assert res.iterations == 1
        assert res.diffs == (0.0,)
        assert res.problem.horizon.binding == "unit cap"

    def test_decoupled_eigen_data_closed_form(self):
        # v0 = 0 never moves, so w propagates freely: w(t) = e^{rt} w0 with
        # r = nu (gamma^2 - 2); the second sweep repeats the first exactly
        disc = Discretization(k_max=2, n_z=513, l_z=20.0, n_t=17)
        prof = np.exp(-PARAMS.gamma * disc.z)
        w0 = field3_from_profile(disc, (1, 1), 0.1 * prof)
        v0 = zero_field3(disc)
        res = picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.0)))
        assert res.iterations == 2
        assert res.diffs[1] == 0.0
        r = PARAMS.nu * (PARAMS.gamma**2 - 2.0)
        worst = 0.0
        for t_i, w in zip(res.problem.t_grid, res.state.omega_slices):
            exact = 0.1 * math.exp(r * t_i) * prof
            worst = max(worst, np.max(np.abs(w.coeffs[0, 0] - exact)))
        assert worst < 1e-12

    def test_small_smooth_data_contracts(self, rng):
        disc = Discretization(k_max=4, n_z=129, l_z=20.0, n_t=17)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
        v0 = random_field3(disc, rng, kind="vspace", amplitude=0.05)
        res = picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.0)))
        assert res.iterations <= 30
        assert all(r <= 0.55 for r in res.ratios)
        # slice 0 pinned to the data
        assert np.array_equal(res.state.v_slices[0].coeffs, v0.coeffs)
        assert np.array_equal(res.state.omega_slices[0].coeffs, w0.coeffs)

    def test_iterate_stays_inside_certified_ball(self, rng):
        disc = Discretization(k_max=4, n_z=129, l_z=20.0, n_t=17)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
        v0 = random_field3(disc, rng, kind="vspace", amplitude=0.05)
        res = picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.0)))
        h = res.problem.horizon
        v_bound = 2.0 * sobolev_norm(v0, 3, A)
        w_bound = (
            h.growth_constant
            * math.exp(PARAMS.nu * PARAMS.gamma**2 * h.T)
            * (sobolev_norm(w0, 2, A) + 2.0 * h.T * sobolev_norm(v0, 3, A))
        )
        assert max(sobolev_norm(v, 3, A) for v in res.state.v_slices) <= 1.1 * v_bound
        assert max(sobolev_norm(w, 2, A) for w in res.state.omega_slices) <= 1.1 * w_bound
        assert x_norm(res.state, PARAMS) <= h.M

    def test_converged_iterate_is_a_fixed_point(self, rng):
        disc = Discretization(k_max=4, n_z=129, l_z=20.0, n_t=17)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
        v0 = random_field3(disc, rng, kind="vspace", amplitude=0.05)
        res = picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.0)))
        extra = picard_step(res.state, res.problem)
        assert extra.v_slices[0] is v0 and extra.omega_slices[0] is w0
        assert x_distance(extra, res.state, PARAMS) <= 2.0 * PICARD_TOL * res.diffs[0]

    def test_sweep_cap_raises(self, rng, monkeypatch):
        disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
        v0 = random_field3(disc, rng, kind="vspace", amplitude=0.05)
        h = select_horizon(v0, w0, PARAMS, 1.0)
        monkeypatch.setattr(picard, "MAX_SWEEPS", 1)
        with pytest.raises(NoConvergenceError, match="1 sweeps"):
            picard_solve(PicardProblem(v0, w0, PARAMS, h))

    def test_a_sweep_cap_of_zero_raises_no_convergence(self, rng, monkeypatch):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0, n_t=5)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
        v0 = random_field3(disc, rng, kind="vspace", amplitude=0.05)
        h = select_horizon(v0, w0, PARAMS, 1.0)
        monkeypatch.setattr(picard, "MAX_SWEEPS", 0)
        with pytest.raises(NoConvergenceError, match="0 sweeps"):
            picard_solve(PicardProblem(v0, w0, PARAMS, h))

    def test_ball_guard_raises(self, rng):
        disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
        w0 = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
        v0 = random_field3(disc, rng, kind="vspace", amplitude=0.05)
        squeezed = HorizonSelection(
            T=1e-3, M=1e-8, growth_constant=1.0, binding="data-bound",
            constraint_value=0.0,
        )
        with pytest.raises(NoConvergenceError, match="certified ball"):
            picard_solve(PicardProblem(v0, w0, PARAMS, squeezed))

    def test_non_finite_data_raises(self):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0, n_t=5)
        bad = np.zeros((2, 2, disc.n_z))
        bad[0, 0, 3] = np.nan
        from robinslab.domain import SpectralField3

        w0 = SpectralField3(bad, disc)
        v0 = zero_field3(disc)
        h = select_horizon(v0, w0, PARAMS, 1.0)
        with pytest.raises(NonFiniteError):
            PicardProblem(v0, w0, PARAMS, h)

    def test_nan_slice_propagates_through_the_distance(self):
        disc = Discretization(k_max=2, n_z=65, l_z=20.0, n_t=5)
        zero = zero_field3(disc)
        nan = SpectralField3(np.full((2, 2, disc.n_z), np.nan), disc)
        clean = PicardState((zero,) * 5, (zero,) * 5)
        dirty = PicardState((zero,) * 5, (zero, zero, nan, zero, zero))
        assert math.isnan(x_norm(dirty, PARAMS))
        assert math.isnan(x_distance(dirty, clean, PARAMS))
        assert math.isnan(x_distance(clean, dirty, PARAMS))
        assert x_distance(clean, clean, PARAMS) == 0.0

    def test_sweep_turning_non_finite_raises(self, monkeypatch):
        # zero data is its own fixed point, so a NaN lost by the distance
        # would read as a first sweep that did not move
        disc = Discretization(k_max=2, n_z=65, l_z=20.0, n_t=5)
        nan = SpectralField3(np.full((2, 2, disc.n_z), np.nan), disc)
        real_step = picard.picard_step

        def poisoned_step(state, *args, **kwargs):
            new = real_step(state, *args, **kwargs)
            return dataclasses.replace(new, omega_slices=new.omega_slices[:-1] + (nan,))

        monkeypatch.setattr(picard, "picard_step", poisoned_step)
        zero = zero_field3(disc)
        h = select_horizon(zero, zero, PARAMS, 1.0)
        with pytest.raises(NonFiniteError, match="sweep 1"):
            picard_solve(PicardProblem(zero, zero, PARAMS, h))

    def test_mismatched_grids_rejected(self, rng):
        d1 = Discretization(k_max=2, n_z=65, l_z=20.0, n_t=5)
        d2 = Discretization(k_max=2, n_z=129, l_z=20.0, n_t=5)
        v0, w0 = zero_field3(d1), zero_field3(d2)
        h = select_horizon(v0, w0, PARAMS, 1.0)
        with pytest.raises(ValueError):
            PicardProblem(v0, w0, PARAMS, h)


def problem_data(seed=8):
    """(v0, w0) of a small contracting problem, built afresh on every call."""
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(seed)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    return v0, w0


def problem_of(v0, w0):
    return PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.5))


class TestPicardProblem:
    def test_problem_owns_the_time_grid(self):
        problem = problem_of(*problem_data())
        want = np.linspace(0.0, problem.horizon.T, problem.v0.disc.n_t)
        assert np.array_equal(problem.t_grid, want)
        assert not problem.t_grid.flags.writeable

    def test_start_with_the_wrong_slice_count_rejected(self):
        problem = problem_of(*problem_data())
        short = PicardState((problem.v0,) * 5, (problem.w0,) * 5)
        with pytest.raises(ValueError, match="must hold 9 slices"):
            picard_solve(problem, initial_state=short)
        ragged = PicardState((problem.v0,) * 9, (problem.w0,) * 8)
        with pytest.raises(ValueError, match="must hold 9 slices"):
            picard_solve(problem, initial_state=ragged)

    def test_start_on_another_discretization_rejected(self):
        problem = problem_of(*problem_data())
        # same array shapes, so only the discretization tells them apart
        deeper = Discretization(k_max=3, n_z=129, l_z=30.0, n_t=9)
        moved = SpectralField3(problem.w0.coeffs, deeper)
        start = PicardState((problem.v0,) * 9, (moved,) * 9)
        with pytest.raises(ValueError, match="problem's discretization"):
            picard_solve(problem, initial_state=start)

    def test_no_solve_state_outlives_its_problem(self):
        v0, w0 = problem_data()
        w0_ref = weakref.ref(w0)
        problem = problem_of(v0, w0)
        r = picard_solve(problem)
        assert r.iterations >= 2
        del r, problem, w0
        gc.collect()
        assert w0_ref() is None

    def test_interleaved_problems_solve_as_if_alone(self):
        first = picard_solve(problem_of(*problem_data(8))).state
        picard_solve(problem_of(*problem_data(9)))
        # equal to the first problem, built from distinct objects
        again = picard_solve(problem_of(*problem_data(8))).state
        assert again.iteration_index == first.iteration_index
        for field, want in zip(
            again.v_slices + again.omega_slices, first.v_slices + first.omega_slices, strict=True
        ):
            assert field is not want
            assert np.array_equal(field.coeffs, want.coeffs)
