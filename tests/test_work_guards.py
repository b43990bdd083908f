"""Guards on how much work a sweep does and on what the command imports.

One Picard sweep evaluates the Duhamel term in the spectral state.  On a
grid that tabulates, it goes through the two z-operator tables of its
problem: it makes no flow analysis, no sine transform and no backward
FFT.  On any other grid it analyses each forcing slice with the flow of
w0.  Either way it builds no propagator and never evaluates one
through RobinPropagator.at.  What the data alone feed into a sweep (their
elliptic solve, the state of d_z(v0), the one propagator of w0 and the
tables) a solve computes once, with the same transforms whatever n_t or
the number of sweeps, and a slice holding the data reuses it.  A
converging solve takes no norm for its ball guard beyond the start's,
and the elliptic band is factored once per geometry, not once per solve.
The transform route checks gamma and builds one flow per geometry, which
every analysis, synthesis, propagator, sampler and Picard problem on it
shares, with its one read-only rates table.  A
solve, from its config to its error budget, builds one lateral rate table
per (k_max, a) and one collocation pair per point count, which equal
discretizations share.  One
RobinPropagator.at synthesizes with one backward real FFT and no sine
transform.  An H^3 norm applies the second-difference stencil once and
differentiates that profile for order 3 rather than recomputing it.  The
Crank-Nicolson oracle factors one
block-diagonal band for all lateral modes as LDL^T, so whether it refuses a
step does not depend on the data, and makes one tridiagonal solve per step
over the modes that carry data alone; it keeps the modes uncoupled and
never touches the transform route.  The growth sampler synthesizes each
nonzero field's states at all its times at once and never goes through
RobinPropagator.at: on a grid of at most TABLE_MAX_N_Z points by two
products with the flow's tables, which cost one sine transform and one
backward FFT per call and build no propagator, and which it shares with
every sampler and Picard problem of that flow; elsewhere by one
synthesize call per field.  Importing the command module must not pull
in scipy.signal, scipy.integrate, scipy.optimize, scipy.sparse.linalg, scipy.linalg,
scipy.fft, scipy.special or scipy's array-API layer with the numpy.f2py and
numpy.testing it loads, which cost every command set-up time and memory.
No module imports scipy, and only the kernel module names it: importing
the command module runs none of scipy's package code and does not import
traceback, and an elliptic run on eigenmode data never loads numpy.random.
Only the worker module forks
or opens a pipe, so every child process goes through its one fork, reap
and kill path.  Every name the package or one of its modules lists in
__all__ must exist.
"""

import ast
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robinslab
from robinslab import cli, domain, elliptic, heat, picard, report
from robinslab.domain import Discretization, ModelParams, SpectralField3, random_field3
from robinslab.picard import (
    HorizonSelection, PicardProblem, PicardState, picard_solve, picard_step, select_horizon,
)

PARAMS = ModelParams(a=math.pi, nu=1.0, gamma=2.0, beta=1.0)


def _count_propagator_work(monkeypatch):
    """Count RobinPropagator builds and .at calls, RobinFlow analyses and
    heat's sine transforms and backward FFTs wherever they are called from;
    returns the live counts."""
    counts = _count_calls(monkeypatch, heat, "dst", "c2r")
    counts.update(at=0, build=0, analysis=0)
    real_at, real_init = heat.RobinPropagator.at, heat.RobinPropagator.__init__
    real_analyse = heat.RobinFlow.analyse

    def counting_at(self, t):
        counts["at"] += 1
        return real_at(self, t)

    def counting_init(self, *args, **kwargs):
        counts["build"] += 1
        real_init(self, *args, **kwargs)

    def counting_analyse(self, values):
        counts["analysis"] += 1
        return real_analyse(self, values)

    monkeypatch.setattr(heat.RobinPropagator, "at", counting_at)
    monkeypatch.setattr(heat.RobinPropagator, "__init__", counting_init)
    monkeypatch.setattr(heat.RobinFlow, "analyse", counting_analyse)
    return counts


def test_one_sweep_analyses_per_slice_and_builds_nothing(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    assert not picard.tabulates(disc)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    horizon = HorizonSelection(
        T=0.02, M=1.0, growth_constant=1.0, binding="unit cap", constraint_value=0.0
    )
    counts = _count_propagator_work(monkeypatch)
    problem = PicardProblem(v0, w0, PARAMS, horizon)
    # the propagator of w0, and the states of d_z(v0) and of w0
    assert counts == {"at": 0, "build": 1, "analysis": 2, "dst": 2, "c2r": 0}
    state = picard_step(PicardState((v0,) * disc.n_t, (w0,) * disc.n_t), problem)
    assert counts == {"at": 0, "build": 1, "analysis": 2, "dst": 2, "c2r": disc.n_t - 1}
    new = picard_step(state, problem)
    assert len(new.omega_slices) == disc.n_t
    # every slice but slice 0, which holds the data
    n = disc.n_t - 1
    assert counts == {"at": 0, "build": 1, "analysis": 2 + n, "dst": 2 + n, "c2r": 2 * n}


# on a grid that tabulates: the propagator of w0 (its build, its state and
# that state's sine transform), then one analysis of the identity rows,
# with its one sine transform, for the forcing table and one backward FFT
# for the synthesis table; the state of d_z(v0) is a product with the
# forcing table
SETUP_WORK = {"at": 0, "build": 1, "analysis": 2, "dst": 2, "c2r": 1}


def test_a_tabulating_sweep_makes_no_analysis_and_no_transform(monkeypatch):
    disc = Discretization(k_max=4, n_z=65, l_z=20.0, n_t=9)
    assert picard.tabulates(disc)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    horizon = HorizonSelection(
        T=0.02, M=1.0, growth_constant=1.0, binding="unit cap", constraint_value=0.0
    )
    problem = PicardProblem(v0, w0, PARAMS, horizon)
    counts = _count_propagator_work(monkeypatch)
    # the constant start, then a state whose slices all differ but slice 0
    state = picard_step(PicardState((v0,) * disc.n_t, (w0,) * disc.n_t), problem)
    new = picard_step(state, problem)
    assert len(new.omega_slices) == disc.n_t
    assert counts == dict.fromkeys(SETUP_WORK, 0)


@pytest.mark.parametrize("n_t", [3, 9, 17])
def test_problem_setup_makes_a_fixed_number_of_transforms(monkeypatch, n_t):
    disc = Discretization(k_max=6, n_z=65, l_z=20.0, n_t=n_t)
    assert picard.tabulates(disc)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    horizon = select_horizon(v0, w0, PARAMS, 1.5)
    counts = _count_propagator_work(monkeypatch)
    problem = PicardProblem(v0, w0, PARAMS, horizon)
    assert counts == SETUP_WORK
    assert picard_solve(problem).iterations >= 2
    assert counts == SETUP_WORK


def test_converging_solve_takes_no_norm_for_its_ball_guard(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    calls = []
    real_norm = domain.sobolev_norm

    def counting_norm(f, s, a):
        calls.append(s)
        return real_norm(f, s, a)

    monkeypatch.setattr(domain, "sobolev_norm", counting_norm)
    monkeypatch.setattr(picard, "sobolev_norm", counting_norm)
    result = picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.5)))
    assert result.problem.horizon.M > 0.0
    assert result.iterations >= 2  # the guard is reached after every non-final sweep
    # 2 for the horizon, 2 for the constant-in-time start, 2 per slice per sweep
    assert len(calls) == 4 + 2 * disc.n_t * result.iterations


def test_a_solve_computes_what_the_data_feed_once(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    solves = []
    real_solve = picard.solve_elliptic

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(picard, "solve_elliptic", counting_solve)
    counts = _count_propagator_work(monkeypatch)
    result = picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.5)))
    assert result.iterations >= 2
    # once per problem: the data's solve, the one propagator of w0 and the
    # states of w0 and of d_z(v0); the constant start holds the data in
    # every slice, so its sweep adds nothing, and each later sweep skips
    # slice 0
    later = (result.iterations - 1) * (disc.n_t - 1)
    assert len(solves) == 1 + later
    assert counts["build"] == 1 and counts["at"] == 0
    assert counts["analysis"] == 2 + later


def test_second_elliptic_solve_neither_factors_nor_band_solves(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    gen = np.random.default_rng(12)
    first = random_field3(disc, gen, kind="generic")
    second = random_field3(disc, gen, kind="generic")
    want = elliptic.solve_elliptic(second, PARAMS.beta, PARAMS.a).coeffs
    elliptic.solve_elliptic(first, PARAMS.beta, PARAMS.a)

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve on a known geometry must reuse its checked factors")

    for name in ("dgttrf", "dgtcon", "require_admissible"):
        monkeypatch.setattr(elliptic, name, forbidden)
    got = elliptic.solve_elliptic(second, PARAMS.beta, PARAMS.a).coeffs
    assert np.array_equal(got, want)


def test_an_operator_build_factors_once_and_estimates_each_distinct_mode(monkeypatch):
    disc = Discretization(k_max=4, n_z=129, l_z=20.0)
    counts = _count_calls(monkeypatch, elliptic, "dgttrf", "dgtcon")
    elliptic.elliptic_operator.__wrapped__(PARAMS.beta, PARAMS.a, disc)
    # mu depends on |k| only, so k_max (k_max + 1) / 2 modes are distinct
    assert counts == {"dgttrf": 1, "dgtcon": 10}


def test_the_transform_route_checks_and_builds_one_flow_per_geometry():
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    gen = np.random.default_rng(13)
    fields = [random_field3(disc, gen, kind="generic") for _ in range(3)]
    f = random_field3(disc, np.random.default_rng(14), kind="robin", gamma=PARAMS.gamma)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    horizon = HorizonSelection(
        T=0.02, M=1.0, growth_constant=1.0, binding="unit cap", constraint_value=0.0
    )
    heat.robin_flow.cache_clear()
    flow = heat.robin_flow(PARAMS.nu, PARAMS.gamma, PARAMS.a, disc)
    flow.synthesize(flow.analyse(f.coeffs))
    first, second = (heat.RobinPropagator(g, PARAMS) for g in fields[:2])
    first.at(0.1)
    heat.growth_ratios([f], (0.0, 0.1), PARAMS)
    problem = PicardProblem(v0, f, PARAMS, horizon)
    assert heat.robin_flow.cache_info().misses == 1
    assert first.flow is second.flow is problem.w0_propagator.flow is flow
    assert second.flow.rates is first.flow.rates
    assert not flow.rates.flags.writeable
    assert not first.state.flags.writeable
    slower = ModelParams(a=PARAMS.a, nu=0.5, gamma=PARAMS.gamma, beta=PARAMS.beta)
    other = heat.RobinPropagator(fields[2], slower)
    assert heat.robin_flow.cache_info().misses == 2
    assert np.array_equal(other.flow.rates, 0.5 * flow.rates)


def test_a_solve_builds_each_lateral_basis_table_once():
    raw = {
        "params": {"a": PARAMS.a, "nu": PARAMS.nu, "gamma": PARAMS.gamma, "beta": PARAMS.beta},
        "disc": {"k_max": 3, "n_z": 65, "l_z": 20.0},
        "seed": 1,
    }
    basis = domain.LateralBasis
    tables = (basis.mu, basis.collocation, basis.norm_weights)
    for cache in tables + (elliptic.elliptic_operator, heat.robin_flow):
        cache.cache_clear()
    config = report.parse_config(raw)
    disc, params = config.disc, config.params
    other = Discretization(k_max=3, n_z=129, l_z=10.0).lateral
    assert other == disc.lateral and other.mu(params.a) is disc.lateral.mu(params.a)
    f = random_field3(disc, np.random.default_rng(15), kind="robin", gamma=params.gamma)
    v = elliptic.solve_elliptic(f, params.beta, params.a)
    w = heat.RobinPropagator(f, params).at(0.1)
    product = domain.pointwise_product(v, w)
    for field in (f, v, w, product):
        domain.sobolev_norm(field, 2, params.a)
    cli._error_budget(config, [0.0])
    # one mu table for (k_max, a), one collocation pair for the padded grid,
    # one weight table for (a, s); every other read is a hit
    assert [t.cache_info().misses for t in tables] == [1, 1, 1]
    assert all(t.cache_info().hits > 0 for t in tables)


def _count_calls(monkeypatch, module, *names):
    """Wrap each named kernel of module to count its calls; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:

        def call(*args, _name=name, _real=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)
    return counts


def test_one_evaluation_makes_one_fft_and_no_sine_transform(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(4), kind="robin", gamma=PARAMS.gamma)
    prop = heat.RobinPropagator(f, PARAMS)
    counts = _count_calls(monkeypatch, heat, "c2r", "dst")
    prop.at(0.3)
    assert counts == {"c2r": 1, "dst": 0}


def test_h3_norm_applies_the_second_difference_once(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(3), kind="generic")
    calls = []
    real_dz2 = domain._dz2

    def counting_dz2(c, dz):
        calls.append(c.shape)
        return real_dz2(c, dz)

    monkeypatch.setattr(domain, "_dz2", counting_dz2)
    assert domain.sobolev_norm(f, 3, PARAMS.a) > 0.0
    assert calls == [f.coeffs.shape]


@pytest.mark.parametrize("k_max", [1, 4])
def test_oracle_factors_once_and_solves_once_per_step(monkeypatch, k_max):
    disc = Discretization(k_max=k_max, n_z=65, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(k_max), kind="robin", gamma=PARAMS.gamma)
    counts = _count_calls(monkeypatch, heat, "dpttrf", "dpttrs")
    heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=11)
    assert counts == {"dpttrf": 1, "dpttrs": 11}


def _count_heat_rows(monkeypatch, *names):
    """Wrap each named heat kernel to record the length of its first
    argument (the rows of the band it factors or solves) per call."""
    rows = {name: [] for name in names}
    for name in names:

        def call(d, *args, _name=name, _real=getattr(heat, name), **kwargs):
            rows[_name].append(len(d))
            return _real(d, *args, **kwargs)

        monkeypatch.setattr(heat, name, call)
    return rows


def test_oracle_factors_every_mode_and_steps_the_modes_with_data(monkeypatch):
    disc = Discretization(k_max=3, n_z=65, l_z=20.0)
    profile = random_field3(disc, np.random.default_rng(6), kind="robin", gamma=PARAMS.gamma)
    coeffs = np.zeros_like(profile.coeffs)
    coeffs[0, 1] = profile.coeffs[0, 1]
    coeffs[2, 0] = profile.coeffs[2, 0]
    rows = _count_heat_rows(monkeypatch, "dpttrf", "dpttrs")
    heat.fd_robin_oracle(SpectralField3(coeffs, disc), 0.3, PARAMS, n_steps=11)
    assert rows == {"dpttrf": [9 * 64], "dpttrs": [2 * 64] * 11}


def test_oracle_of_a_zero_field_is_exact_zeros_with_no_solve(monkeypatch):
    disc = Discretization(k_max=3, n_z=65, l_z=20.0)
    rows = _count_heat_rows(monkeypatch, "dpttrf", "dpttrs", "dstevd")
    for n_steps, route in ((11, "march"), (2000, "eigen")):
        assert heat.oracle_route(disc, n_steps) == route
        out = heat.fd_robin_oracle(domain.zero_field3(disc), 0.3, PARAMS, n_steps=n_steps).coeffs
        assert out.shape == (3, 3, 65) and np.all(out == 0.0)
    assert rows == {"dpttrf": [9 * 64] * 2, "dpttrs": [], "dstevd": []}


def test_dense_oracle_takes_one_eigendecomposition_and_no_step(monkeypatch):
    # heat's route agreement on picard_smooth.json: every mode carries data
    disc = Discretization(k_max=8, n_z=256, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(21), kind="robin", gamma=PARAMS.gamma)
    counts = _count_calls(monkeypatch, heat, "dpttrf", "dpttrs", "dstevd")
    heat.fd_robin_oracle(f, 0.5, PARAMS, n_steps=2000)
    assert counts == {"dpttrf": 1, "dpttrs": 0, "dstevd": 1}


def test_one_mode_on_a_long_grid_marches(monkeypatch):
    # heat's route agreement on heat_eigenmode.json: one mode of four has data
    disc = Discretization(k_max=2, n_z=1024, l_z=20.0)
    f = domain.field3_from_profile(disc, (1, 1), np.exp(-PARAMS.gamma * disc.z))
    counts = _count_calls(monkeypatch, heat, "dpttrf", "dpttrs", "dstevd")
    heat.fd_robin_oracle(f, 0.5, PARAMS, n_steps=2000)
    assert counts == {"dpttrf": 1, "dpttrs": 2000, "dstevd": 0}


def test_oracle_refuses_a_step_whatever_modes_carry_data():
    # at gamma 6 on 65 points the (1, 1) wall mode grows at about 21 > 1 / c
    # = 6.7 for c = 0.15, while the (4, 4) mode, mu^2 = 32, decays
    params = ModelParams(a=math.pi, nu=1.0, gamma=6.0, beta=1.0)
    disc = Discretization(k_max=4, n_z=65, l_z=20.0)
    profile = np.exp(-params.gamma * disc.z)
    corner = domain.field3_from_profile(disc, (4, 4), profile)
    with pytest.raises(ValueError, match="raise n_steps"):
        heat.fd_robin_oracle(corner, 0.3, params, n_steps=1)
    # the same block alone, as the (1, 1) mode of a box where mu^2 = 32
    alone = domain.field3_from_profile(Discretization(k_max=1, n_z=65, l_z=20.0), (1, 1), profile)
    narrow = ModelParams(a=math.pi / 4, nu=1.0, gamma=6.0, beta=1.0)
    assert np.all(np.isfinite(heat.fd_robin_oracle(alone, 0.3, narrow, n_steps=1).coeffs))


@pytest.mark.parametrize(
    "times", [(0.1,), (0.0, 0.1, 0.5, 1.0), (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0)]
)
def test_growth_ratios_synthesize_once_per_nonzero_field(monkeypatch, times):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    gen = np.random.default_rng(11)
    fields = [random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma) for _ in range(3)]
    fields.insert(1, domain.zero_field3(disc))
    heat.robin_flow.cache_clear()
    counts = _count_propagator_work(monkeypatch)
    syntheses = _count_calls(monkeypatch, heat.RobinFlow, "synthesize")
    ratios = heat.growth_ratios(fields, times, PARAMS)
    assert len(ratios) == 3 * len(times)
    # the grid tabulates: one analysis and one synthesis of the identity
    # make the flow's two tables, and each field is two products with them
    assert disc.n_z <= heat.TABLE_MAX_N_Z
    assert syntheses == {"synthesize": 1}
    assert counts == {"at": 0, "build": 0, "analysis": 1, "dst": 1, "c2r": 1}


def test_growth_ratios_past_the_table_size_synthesize_each_propagator_once(monkeypatch):
    disc = Discretization(k_max=2, n_z=1024, l_z=20.0)
    assert disc.n_z > heat.TABLE_MAX_N_Z
    gen = np.random.default_rng(11)
    fields = [random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma) for _ in range(3)]
    fields.insert(1, domain.zero_field3(disc))
    heat.robin_flow.cache_clear()
    counts = _count_propagator_work(monkeypatch)
    syntheses = _count_calls(monkeypatch, heat.RobinFlow, "synthesize")
    ratios = heat.growth_ratios(fields, heat.CALIBRATION_TIMES, PARAMS)
    assert len(ratios) == 3 * len(heat.CALIBRATION_TIMES)
    assert syntheses == {"synthesize": 3}
    assert counts == {"at": 0, "build": 3, "analysis": 3, "dst": 3, "c2r": 3}
    assert "synthesis_table" not in vars(heat.robin_flow(PARAMS.nu, PARAMS.gamma, PARAMS.a, disc))


def test_samplers_and_a_picard_problem_share_one_synthesis_table_per_flow(monkeypatch):
    disc = Discretization(k_max=4, n_z=65, l_z=20.0, n_t=9)
    assert picard.tabulates(disc)
    gen = np.random.default_rng(16)
    fields = [random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma) for _ in range(3)]
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    horizon = HorizonSelection(
        T=0.02, M=1.0, growth_constant=1.0, binding="unit cap", constraint_value=0.0
    )
    heat.robin_flow.cache_clear()
    counts = _count_propagator_work(monkeypatch)
    heat.growth_ratios(fields, heat.CALIBRATION_TIMES, PARAMS)
    # one analysis table per call, one synthesis table per flow
    assert counts == {"at": 0, "build": 0, "analysis": 1, "dst": 1, "c2r": 1}
    heat.growth_ratios(fields, heat.CALIBRATION_TIMES, PARAMS)
    assert counts == {"at": 0, "build": 0, "analysis": 2, "dst": 2, "c2r": 1}
    problem = PicardProblem(v0, fields[0], PARAMS, horizon)
    # the propagator of w0 and the forcing table; no second synthesis table
    assert counts == {"at": 0, "build": 1, "analysis": 4, "dst": 4, "c2r": 1}
    flow = heat.robin_flow(PARAMS.nu, PARAMS.gamma, PARAMS.a, disc)
    assert problem.synthesis is flow.synthesis_table
    assert not flow.synthesis_table.flags.writeable
    assert heat.robin_flow.cache_info().misses == 1


def test_oracle_keeps_lateral_modes_uncoupled():
    disc = Discretization(k_max=4, n_z=129, l_z=20.0)
    profile = random_field3(disc, np.random.default_rng(5), kind="robin", gamma=PARAMS.gamma)
    coeffs = np.zeros_like(profile.coeffs)
    coeffs[1, 2] = profile.coeffs[1, 2]
    out = heat.fd_robin_oracle(SpectralField3(coeffs, disc), 0.3, PARAMS, n_steps=50).coeffs
    others = np.ones(out.shape[:2], dtype=bool)
    others[1, 2] = False
    assert np.any(out[1, 2] != 0.0)
    assert np.all(out[others] == 0.0)


def test_oracle_runs_without_the_transform_route(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(9), kind="robin", gamma=PARAMS.gamma)
    routes = ((40, "march"), (400, "eigen"))
    want = [heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=n).coeffs for n, _ in routes]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use the transform route")

    for name in ("dst", "c2r", "dtbtrs", "robin_flow", "RobinFlow", "RobinPropagator"):
        monkeypatch.setattr(heat, name, forbidden)
    for (n_steps, route), before in zip(routes, want):
        assert heat.oracle_route(disc, n_steps) == route
        got = heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=n_steps).coeffs
        assert np.array_equal(got, before)


def test_importing_the_cli_does_not_load_heavy_scipy_modules():
    src = str(Path(robinslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    heavy = (
        "scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.sparse.linalg",
        "scipy.linalg", "scipy.fft", "scipy.special", "scipy._lib._array_api",
        "numpy.f2py", "numpy.testing",
    )
    probe = f"import sys, robinslab.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_the_cli_runs_no_scipy_package_code_and_draws_no_rng_without_random_data(tmp_path):
    """The kernels are bound without running scipy/__init__.py, the worker's
    traceback is imported only when a child fails, an elliptic run on
    eigenmode data never loads numpy.random, and a later import of
    scipy.linalg and scipy.fft reuses the extension modules bound first."""
    src = str(Path(robinslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    config = Path(__file__).resolve().parents[1] / "configs" / "elliptic_eigenmode.json"
    argv = ["--command", "elliptic", "--config", str(config), "--out", str(tmp_path / "run")]
    probe = (
        "import sys, robinslab.cli\n"
        "loaded = [m for m in ('scipy', 'traceback') if m in sys.modules]\n"
        f"code = robinslab.cli.main({argv!r})\n"
        "loaded += [m for m in ('numpy.random',) if m in sys.modules]\n"
        "import scipy.linalg, scipy.fft\n"
        "from robinslab import _kernels\n"
        "reused = [\n"
        "    sys.modules['scipy.linalg.lapack']._flapack is _kernels._flapack,\n"
        "    sys.modules['scipy.fft._pocketfft.basic'].pfft is _kernels._pocketfft,\n"
        "]\n"
        "print(code, loaded, reused)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "0 [] [True, True]"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _names_scipy(path) -> bool:
    """Whether a file's code, outside its docstrings and comments, names
    scipy: in an import or in a string, such as a module name handed to
    importlib."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    strings = (
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    )
    return any(re.search(r"\bscipy\b", text) for text in strings) or any(
        name.split(".")[0] == "scipy" for name in _imported_modules(path)
    )


def test_only_the_kernel_module_imports_scipy():
    """No module imports scipy, and the kernel module, which binds its
    extension files by location, is the only one that names it at all."""
    files = sorted(Path(robinslab.__file__).parent.rglob("*.py"))
    importers = [
        path.name
        for path in files
        if any(name.split(".")[0] == "scipy" for name in _imported_modules(path))
    ]
    assert importers == []
    assert [path.name for path in files if _names_scipy(path)] == ["_kernels.py"]


def _os_names(path):
    """The os attributes a file uses and the names it imports from os."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os":
                yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (alias.name for alias in node.names)


def test_only_the_worker_module_forks_or_opens_pipes():
    package = Path(robinslab.__file__).parent
    forkers = [
        path.name
        for path in sorted(package.rglob("*.py"))
        if {"fork", "forkpty", "pipe", "pipe2"} & set(_os_names(path))
    ]
    assert forkers == ["worker.py"]


def test_every_exported_name_resolves():
    modules = [robinslab] + [
        importlib.import_module(f"robinslab.{info.name}")
        for info in pkgutil.iter_modules(robinslab.__path__)
    ]
    assert len(modules) > 1
    assert "LateralBasis" in domain.__all__
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
