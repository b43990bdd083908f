"""The batched and spectral-space routes against the loops they replaced.

Each reference below is the earlier algorithm written out in full:

  Duhamel    the O(n_t^2) sum of RobinPropagator.at over every (slice, node)
             pair, against the spectral-state recurrence in duhamel_apply;
  split      the backward exponential-kernel sweep as a Python loop over the
             z grid, against the single banded triangular solve;
  elliptic   one tridiagonal LAPACK dgtsv per lateral mode (scipy's banded
             solve for a band of width one each side), against the one
             block-diagonal band factored once per geometry and solved with
             its factors;
  lateral    zero-padded type-1 DSTs along both lateral axes, against the
             cached dense sine-matrix contractions;
  norm       the sum over every multi-index of trapezoid integrals, against
             the per-z-order weight table and closed-form trapezoid;
  stencils   the z-derivative and residual stencils as separate copies,
             strided per z profile, against the one wall stencil and the
             one second difference run over the flattened array, on C,
             Fortran and strided-view layouts;
  oracle     symmetrised Crank-Nicolson stepping with one LDL^T
             factorisation and n_steps solves per lateral mode, against the
             one block-diagonal factorisation and one solve per step over
             the modes that carry data, on fields with and without
             data-free modes; and the unsymmetrised ghost-row matrix with an
             explicit half-step and one LU solve per step, per mode,
             against the same batched oracle;
  Simpson    scipy.integrate.simpson, against the uniform-grid composite
             Simpson in heat;
  kernels    scipy's public scipy.fft.dst / irfft and scipy.linalg.lapack,
             against the transforms and LAPACK routines robinslab._kernels
             binds from scipy's extension files, on every call shape the
             solver makes;
  synthesis  the slab values from a type-1 DST and their z derivative from
             a type-1 DCT, against the one backward real FFT of
             RobinPropagator.synthesize;
  analysis   the type-1 DST of the split's slab part and the split's wall
             moments, and the slab and wall rate formulas, against the one
             state array of RobinFlow.analyse and the flow's one rates table;
  tables     RobinFlow.analyse of d_z and RobinPropagator.synthesize, against
             the two z-operator tables a PicardProblem holds for its sweeps;
  held-out   the calibrate command's own held-out ratio loops, against the
             ratio samplers elliptic_ratios and growth_ratios (one stacked
             synthesis per field, by the flow's tables on grids of at most
             TABLE_MAX_N_Z points, at the shipped grids too), and the
             calibrate command's whole output built in process from the
             elliptic loop and the growth sampler, against the command
             whose forked child samples them;
  snapshot   csv.writer row by row, against the one-pass snapshot writer;
  guard      the ball guard taking x_norm after every sweep, against the
             guard that takes it only once the start's norm plus the moves
             passes the radius;
  sweep      a sweep recomputing every slice's elliptic solve, product and
             forcing state (by the problem's tables) and the propagator of
             w0, against the sweep that takes what the data alone feed from
             the work its PicardProblem computed once, and the uniqueness
             check's skewed start, whose slices share one pair, against the
             same sweep taking that pair's integrand once; a start with no
             grid of its own, against the same sweeps on linspace(0, T, n_t);
  uniqueness the second solve run in process after the main one, then
             x_distance, against the forked worker whose slices stream
             back, both for the certificate and for the picard command's
             whole output;
  residual   the extra sweep from the converged iterate run in process,
             against the forked child that sends back its certificate,
             both for the certificate and for the picard command's whole
             output.

The recurrence, the banded sweep, the sine matrices, the weight table, the
half-step oracle, the one-FFT synthesis, the tables and the growth
sampler on a tabulating grid reorder floating-point sums, so they are
held to a tolerance a few hundred ulps wide (1e-13 relative for the
growth ratios); the stacked elliptic solve, the shared stencils, the
batched oracle, the in-module Simpson, the bound kernels, the one-array
analysis and rates, the elliptic sampler, the growth sampler on a larger
grid, the two sweeps and the two uniqueness and residual routes run the
same arithmetic and must agree bit for bit; the snapshot
writers and the picard outputs must agree byte for byte, and
the two guards must stop at the same sweep.
"""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.fft import dst
from scipy.integrate import simpson, trapezoid
from scipy.linalg import lapack
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

import robinslab
from robinslab import _kernels, cli, elliptic, heat, picard, verify
from robinslab.cli import main
from robinslab.domain import (
    SOBOLEV_S,
    Discretization,
    ModelParams,
    SpectralField3,
    _dz1,
    _dz2,
    d_z,
    field3_from_profile,
    field_from_lateral_values,
    lateral_values,
    multi_indices,
    pointwise_product,
    random_field3,
    sobolev_norm,
)
from robinslab.elliptic import elliptic_ratios, interior_residual, solve_elliptic
from robinslab.heat import (
    CALIBRATION_TIMES,
    RobinPropagator,
    _simpson,
    fd_robin_oracle,
    growth_ratios,
    robin_flow,
)
from robinslab.errors import NoConvergenceError
from robinslab.picard import (
    DIVERGENCE_FACTOR,
    MAX_SWEEPS,
    PICARD_TOL,
    PicardProblem,
    PicardState,
    duhamel_apply,
    duhamel_tables,
    picard_solve,
    picard_step,
    select_horizon,
    x_distance,
    x_norm,
)
from robinslab.report import write_snapshot
from robinslab.verify import (
    fixed_point_residual_check, make_certificate, start_uniqueness_solve, uniqueness_check,
)
from robinslab.worker import Worker

A = math.pi
PARAMS = ModelParams(a=A, nu=1.0, gamma=2.0, beta=1.0)


def flow_of(gamma, disc):
    """The Robin flow of PARAMS with gamma replaced, on disc."""
    return robin_flow(PARAMS.nu, gamma, PARAMS.a, disc)


def duhamel_by_sum(w0, g_slices, horizon, params):
    """P_{t_i} w0 plus the trapezoid rule on every cell, summed via .at."""
    n_t = len(g_slices)
    t = np.linspace(0.0, horizon, n_t)
    dt = t[1] - t[0]
    base = RobinPropagator(w0, params)
    props = [RobinPropagator(g, params) for g in g_slices]
    out = [w0.coeffs]
    for i in range(1, n_t):
        total = base.at(t[i]).coeffs.copy()
        for j in range(i):
            total += 0.5 * dt * props[j].at(t[i] - t[j]).coeffs
            total += 0.5 * dt * props[j + 1].at(t[i] - t[j + 1]).coeffs
        out.append(total)
    return out


def slab_by_loop(omega0, gamma):
    """Backward sweep c_j = e^{-gamma dz} c_{j+1} + (gamma dz/2)(f_j + e^{-gamma dz} f_{j+1})."""
    disc = omega0.disc
    weight = np.exp(-gamma * disc.z)
    cross = simpson(omega0.coeffs * weight, dx=disc.dz, axis=-1) / simpson(
        weight * weight, dx=disc.dz
    )
    residue = omega0.coeffs - cross[:, :, None] * weight
    decay = np.exp(-gamma * disc.dz)
    half = 0.5 * gamma * disc.dz
    slab = np.zeros_like(residue)
    for j in range(disc.n_z - 2, -1, -1):
        slab[:, :, j] = decay * slab[:, :, j + 1] + half * (
            residue[:, :, j] + decay * residue[:, :, j + 1]
        )
    return slab


def elliptic_by_mode(f, beta, a):
    """Ghost-point Robin row, Dirichlet cap, one tridiagonal solve per mode."""
    disc = f.disc
    n = disc.n_z - 1
    h2 = disc.dz**2
    rates = disc.lateral.mu(a)
    out = np.zeros_like(f.coeffs)
    for k1 in range(disc.k_max):
        for k2 in range(disc.k_max):
            mu2 = rates[k1, k2] ** 2
            ab = np.zeros((3, n))
            ab[1, :] = 2.0 / h2 + mu2
            ab[1, 0] = 2.0 / h2 - 2.0 * beta / disc.dz + mu2
            ab[0, 1:] = -1.0 / h2
            ab[0, 1] = -2.0 / h2
            ab[2, :-1] = -1.0 / h2
            out[k1, k2, :n] = lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], f.coeffs[k1, k2, :n])[3]
    return out


def test_recurrence_matches_sum_of_propagator_evaluations():
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(42)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma)
    g_slices = [random_field3(disc, gen, kind="generic") for _ in range(disc.n_t)]
    t_grid = np.linspace(0.0, 0.3, disc.n_t)
    got = duhamel_apply(
        RobinPropagator(w0, PARAMS),
        [flow_of(PARAMS.gamma, disc).analyse(g.coeffs) for g in g_slices],
        t_grid,
        flow_of(PARAMS.gamma, disc).synthesize(np.eye(disc.n_z - 1)),
    )
    ref = duhamel_by_sum(w0, g_slices, 0.3, PARAMS)
    for field, want in zip(got, ref[1:], strict=True):
        rel = np.max(np.abs(field.coeffs - want)) / np.max(np.abs(want))
        assert rel <= 1e-12


@pytest.mark.parametrize("n_z", [65, 256, 1024])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_banded_bundle_sweep_matches_backward_loop(n_z, gamma):
    disc = Discretization(k_max=3, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(n_z), kind="generic")
    got, _ = flow_of(gamma, disc)._split(f.coeffs)
    ref = slab_by_loop(f, gamma)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("k_max, n_z, beta", [(8, 256, 1.0), (3, 129, -0.7), (1, 1024, 2.5)])
def test_stacked_elliptic_solve_is_bit_identical_to_per_mode(k_max, n_z, beta):
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(k_max * n_z), kind="generic")
    assert np.array_equal(solve_elliptic(f, beta, A).coeffs, elliptic_by_mode(f, beta, A))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 2, 40)])
def test_elliptic_solve_rejects_a_non_finite_source(bad, where):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    coeffs = random_field3(disc, np.random.default_rng(6), kind="generic").coeffs.copy()
    coeffs[where] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_elliptic(SpectralField3(coeffs, disc), 1.0, A)


def lateral_by_dst(coeffs, m):
    """Zero-pad to (m, m) modes, one type-1 DST per lateral axis."""
    k_max = coeffs.shape[0]
    padded = np.zeros((m, m, coeffs.shape[-1]))
    padded[:k_max, :k_max, :] = coeffs
    return dst(dst(padded, type=1, axis=0), type=1, axis=1) / 4.0


def project_by_dst(vals, k_max):
    m = vals.shape[0]
    full = dst(dst(vals, type=1, axis=0), type=1, axis=1) / (m + 1) ** 2
    return full[:k_max, :k_max, :]


def dz_by_stencil(c, dz, order):
    """Second-order centered z stencils with their own one-sided end rows."""
    out = np.empty_like(c)
    if order == 1:
        out[..., 1:-1] = (c[..., 2:] - c[..., :-2]) / (2.0 * dz)
        out[..., 0] = (-3.0 * c[..., 0] + 4.0 * c[..., 1] - c[..., 2]) / (2.0 * dz)
        out[..., -1] = (3.0 * c[..., -1] - 4.0 * c[..., -2] + c[..., -3]) / (2.0 * dz)
        return out
    h2 = dz * dz
    out[..., 1:-1] = (c[..., 2:] - 2.0 * c[..., 1:-1] + c[..., :-2]) / h2
    out[..., 0] = (2.0 * c[..., 0] - 5.0 * c[..., 1] + 4.0 * c[..., 2] - c[..., 3]) / h2
    out[..., -1] = (2.0 * c[..., -1] - 5.0 * c[..., -2] + 4.0 * c[..., -3] - c[..., -4]) / h2
    return out


def norm_by_multi_index(f, s, a):
    """sqrt(a^2/4 sum_alpha kx^a1 ky^a2 trapezoid((d_z^a3 c)^2)) term by term."""
    disc = f.disc
    dz = disc.dz
    profiles = [f.coeffs]
    if s >= 1:
        profiles.append(dz_by_stencil(f.coeffs, dz, 1))
    if s >= 2:
        profiles.append(dz_by_stencil(f.coeffs, dz, 2))
    if s >= 3:
        profiles.append(dz_by_stencil(dz_by_stencil(f.coeffs, dz, 2), dz, 1))
    k = np.arange(1, disc.k_max + 1, dtype=float)
    kfac1 = (np.pi * k[:, None] / a) ** 2 * np.ones((1, disc.k_max))
    kfac2 = (np.pi * k[None, :] / a) ** 2 * np.ones((disc.k_max, 1))
    zints = [trapezoid(p * p, dx=dz, axis=-1) for p in profiles]
    acc = 0.0
    for a1, a2, a3 in multi_indices(s):
        acc += float(np.sum(kfac1**a1 * kfac2**a2 * zints[a3]))
    return math.sqrt(0.25 * a * a * acc)


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("k_max", [1, 2, 3, 8])
@pytest.mark.parametrize("pad", ["k_max", "2k_max+1", "3k_max"])
def test_sine_matrices_match_padded_dst(k_max, pad):
    m = {"k_max": k_max, "2k_max+1": 2 * k_max + 1, "3k_max": 3 * k_max}[pad]
    disc = Discretization(k_max=k_max, n_z=64, l_z=20.0)
    gen = np.random.default_rng(100 * k_max + m)
    f = random_field3(disc, gen, kind="generic")
    vals = lateral_values(f, m)
    assert vals.shape == (m, m, disc.n_z)
    assert relative_gap(vals, lateral_by_dst(f.coeffs, m)) <= 1e-13
    probe = gen.normal(size=(m, m, disc.n_z))
    got = field_from_lateral_values(probe, disc).coeffs
    assert relative_gap(got, project_by_dst(probe, k_max)) <= 1e-13


@pytest.mark.parametrize("k_max", [1, 2, 3, 8])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["generic", "vspace"])
def test_weight_table_norm_matches_multi_index_sum(k_max, s, kind):
    disc = Discretization(k_max=k_max, n_z=129, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(10 * k_max + s), kind=kind)
    want = norm_by_multi_index(f, s, A)
    assert abs(sobolev_norm(f, s, A) - want) <= 1e-13 * want


def test_shared_stencils_are_bit_identical_to_their_copies():
    disc = Discretization(k_max=3, n_z=97, l_z=20.0)
    gen = np.random.default_rng(97)
    v = random_field3(disc, gen, kind="generic")
    f = random_field3(disc, gen, kind="vspace")
    c, dz = v.coeffs, disc.dz
    assert np.array_equal(d_z(v, 1).coeffs, dz_by_stencil(c, dz, 1))
    assert np.array_equal(d_z(v, 2).coeffs, dz_by_stencil(c, dz, 2))

    # interior_residual's former inline Laplacian, h^2 written as dz**2
    lap = (c[:, :, 2:] - 2.0 * c[:, :, 1:-1] + c[:, :, :-2]) / dz**2
    assert np.array_equal(d_z(v, 2).coeffs[:, :, 1:-1], lap)
    mu2 = disc.lateral.mu(A)[:, :, None] ** 2
    res = -lap + mu2 * c[:, :, 1:-1] - f.coeffs[:, :, 1:-1]
    want = float(np.max(np.abs(res)) / np.max(np.abs(f.coeffs)))
    assert interior_residual(v, f, A) == want
    zero = SpectralField3(np.zeros_like(c), disc)
    assert interior_residual(v, zero, A) == float(
        np.max(np.abs(-lap + mu2 * c[:, :, 1:-1]))
    )


LAYOUTS = ("C", "Fortran", "z-strided view", "lateral-strided view", "transposed view")


def laid_out(c, layout):
    """The values of c in the given memory layout."""
    if layout == "C":
        return c
    if layout == "Fortran":
        return np.asfortranarray(c)
    if layout == "z-strided view":
        wide = np.zeros(c.shape[:-1] + (2 * c.shape[-1],))
        wide[..., ::2] = c
        return wide[..., ::2]
    if layout == "lateral-strided view":
        tall = np.zeros((2 * c.shape[0],) + c.shape[1:])
        tall[::2] = c
        return tall[::2]
    return np.ascontiguousarray(c.transpose(1, 0, 2)).transpose(1, 0, 2)


@pytest.mark.parametrize("k_max, n_z", [(3, 97), (1, 97), (3, 4), (1, 4)])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_stencils_and_norms_match_the_strided_reference_on_every_layout(k_max, n_z, layout):
    c = np.random.default_rng(k_max * n_z).normal(size=(k_max, k_max, n_z))
    arr = laid_out(c, layout)
    assert np.array_equal(arr, c)
    dz = 20.0 / (n_z - 1)
    assert np.array_equal(_dz1(arr, dz), dz_by_stencil(c, dz, 1))
    assert np.array_equal(_dz2(arr, dz), dz_by_stencil(c, dz, 2))
    if n_z < 8:  # below the smallest Discretization
        return
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    field = SpectralField3(arr, disc)
    for s in range(4):
        got = sobolev_norm(field, s, A)
        assert got == sobolev_norm(SpectralField3(c, disc), s, A)
        want = norm_by_multi_index(SpectralField3(c, disc), s, A)
        assert abs(got - want) <= 1e-13 * want


def oracle_by_mode(omega0, t, params, n_steps):
    """Symmetrised Crank-Nicolson with a Robin ghost row: one LDL^T and loop per mode.

    Raises ValueError where a mode's I - cL is not positive definite.
    """
    disc = omega0.disc
    nu, gamma = params.nu, params.gamma
    h = disc.dz
    dt = t / n_steps
    n_unknown = disc.n_z - 1
    mu = disc.lateral.mu(params.a)
    if t == 0:
        return omega0.coeffs.copy()
    out = np.zeros_like(omega0.coeffs)
    for k1 in range(disc.k_max):
        for k2 in range(disc.k_max):
            mu2 = mu[k1, k2] ** 2
            diag = np.full(n_unknown, -2.0 / h**2 - mu2)
            diag[0] = (-2.0 + 2.0 * h * gamma) / h**2 - mu2
            off = np.full(n_unknown - 1, 1.0 / h**2)
            off[0] = math.sqrt(2.0) / h**2
            c = 0.5 * nu * dt
            d, e, info = dpttrf(1.0 - c * diag, -c * off)
            if info > 0:
                raise ValueError("I - cL is not positive definite")
            assert info == 0
            w = omega0.coeffs[k1, k2, :n_unknown].copy()
            w[0] /= math.sqrt(2.0)
            for _ in range(n_steps):
                x, info = dpttrs(d, e, w)
                assert info == 0
                x *= 2.0
                x -= w
                w = x
            w[0] *= math.sqrt(2.0)
            out[k1, k2, :n_unknown] = w
    return out


def oracle_by_mode_half_step(omega0, t, params, n_steps):
    """Crank-Nicolson on the unsymmetrised ghost-row matrix: an explicit
    half-step and one LU solve per step, one factorisation and loop per mode."""
    disc = omega0.disc
    nu, gamma = params.nu, params.gamma
    h = disc.dz
    dt = t / n_steps
    n_unknown = disc.n_z - 1
    mu = disc.lateral.mu(params.a)
    if t == 0:
        return omega0.coeffs.copy()
    out = np.zeros_like(omega0.coeffs)
    for k1 in range(disc.k_max):
        for k2 in range(disc.k_max):
            mu2 = mu[k1, k2] ** 2
            diag = np.full(n_unknown, -2.0 / h**2 - mu2)
            diag[0] = (-2.0 + 2.0 * h * gamma) / h**2 - mu2
            upper = np.full(n_unknown - 1, 1.0 / h**2)
            upper[0] = 2.0 / h**2
            lower = np.full(n_unknown - 1, 1.0 / h**2)
            c = 0.5 * nu * dt
            dl, d, du, du2, ipiv, info = dgttrf(-c * lower, 1.0 - c * diag, -c * upper)
            assert info == 0
            w = omega0.coeffs[k1, k2, :n_unknown].copy()
            for _ in range(n_steps):
                rhs = (1.0 + c * diag) * w
                rhs[:-1] += c * upper * w[1:]
                rhs[1:] += c * lower * w[:-1]
                w, info = dgttrs(dl, d, du, du2, ipiv, rhs)
                assert info == 0
            out[k1, k2, :n_unknown] = w
    return out


ORACLE_CASES = ((0.0, 7), (0.3, 1), (0.3, 7), (0.3, 500))


def oracle_refuses(n_z, gamma, n_steps):
    """The grid's cases whose growing wall mode outruns one step of c = 0.15.

    At gamma = 6 the discrete wall rate exceeds 1 / c = 6.7 (23 at n_z = 65,
    nearer gamma^2 = 36 on finer grids), except on the coarse n_z = 9 grid,
    where it is 4.5.
    """
    return gamma == 6.0 and n_steps == 1 and n_z > 9


def oracle_fields(k_max, n_z, gamma):
    """A random Robin field, an eigenmode field, and the random field with
    one row of modes zeroed (at k_max 1, every mode)."""
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(k_max * n_z), kind="robin", gamma=gamma)
    eigen = field3_from_profile(disc, (k_max, 1), np.exp(-gamma * disc.z))
    zeroed = f.coeffs.copy()
    zeroed[k_max // 2] = 0.0
    return f, eigen, SpectralField3(zeroed, disc)


@pytest.mark.parametrize("k_max", [1, 2, 4])
@pytest.mark.parametrize("n_z", [9, 65, 257, 1024])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_batched_oracle_is_bit_identical_to_per_mode(k_max, n_z, gamma, monkeypatch):
    """The march, on every case whatever route the rule picks, steps only
    the modes with data, and the rest stay exactly 0."""
    monkeypatch.setattr(heat, "oracle_route", lambda disc, n_steps: "march")
    params = ModelParams(a=A, nu=1.0, gamma=gamma, beta=1.0)
    for field in oracle_fields(k_max, n_z, gamma):
        for t, n_steps in ORACLE_CASES:
            if oracle_refuses(n_z, gamma, n_steps):
                with pytest.raises(ValueError, match="not positive definite"):
                    oracle_by_mode(field, t, params, n_steps)
                with pytest.raises(ValueError, match="raise n_steps"):
                    fd_robin_oracle(field, t, params, n_steps=n_steps)
                continue
            want = oracle_by_mode(field, t, params, n_steps)
            got = fd_robin_oracle(field, t, params, n_steps=n_steps).coeffs
            assert np.array_equal(got, want)


@pytest.mark.parametrize("k_max", [1, 2, 4])
@pytest.mark.parametrize("n_z", [9, 65, 257, 1024])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_oracle_matches_per_mode_on_the_route_it_picks(k_max, n_z, gamma):
    """The eigen route is the march's discrete solution up to roundoff;
    modes without data stay exactly 0 on either route."""
    params = ModelParams(a=A, nu=1.0, gamma=gamma, beta=1.0)
    for field in oracle_fields(k_max, n_z, gamma):
        for t, n_steps in ORACLE_CASES:
            if oracle_refuses(n_z, gamma, n_steps):
                with pytest.raises(ValueError, match="raise n_steps"):
                    fd_robin_oracle(field, t, params, n_steps=n_steps)
                continue
            want = oracle_by_mode(field, t, params, n_steps)
            got = fd_robin_oracle(field, t, params, n_steps=n_steps).coeffs
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
            assert np.all(got[~np.any(field.coeffs[..., :-1] != 0.0, axis=-1)] == 0.0)


@pytest.mark.parametrize("k_max", [1, 2, 4])
@pytest.mark.parametrize("n_z", [9, 65, 257, 1024])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_symmetric_oracle_matches_the_half_step_lu_formulation(k_max, n_z, gamma):
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    params = ModelParams(a=A, nu=1.0, gamma=gamma, beta=1.0)
    f = random_field3(disc, np.random.default_rng(k_max * n_z), kind="robin", gamma=gamma)
    for t, n_steps in ORACLE_CASES:
        if oracle_refuses(n_z, gamma, n_steps):
            continue
        want = oracle_by_mode_half_step(f, t, params, n_steps)
        got = fd_robin_oracle(f, t, params, n_steps=n_steps).coeffs
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("n_z", list(range(8, 40)) + [64, 65, 256, 257, 1023, 1024])
def test_simpson_is_bit_identical_to_scipy(n_z):
    disc = Discretization(k_max=3, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(n_z), kind="generic")
    weight = np.exp(-2.0 * disc.z)
    y = f.coeffs * weight
    assert np.array_equal(_simpson(y, disc.dz), simpson(y, dx=disc.dz, axis=-1))
    assert _simpson(weight * weight, disc.dz) == simpson(weight * weight, dx=disc.dz)
    moment = simpson(y, dx=disc.dz, axis=-1) / simpson(weight * weight, dx=disc.dz)
    assert np.array_equal(flow_of(2.0, disc)._split(f.coeffs)[1], moment)


def held_out_elliptic_by_loop(params, disc, seed, size):
    """Elliptic ratios of a seeded generic ensemble, one field after another."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(size):
        f = random_field3(disc, rng, kind="generic")
        denom = sobolev_norm(f, SOBOLEV_S - 2, params.a)
        if denom == 0.0:
            continue
        v = solve_elliptic(f, params.beta, params.a)
        ratios.append(sobolev_norm(v, SOBOLEV_S, params.a) / denom)
    return ratios


def held_out_growth_by_loop(params, disc, seed, size, times):
    """Normalised growth ratios of a seeded Robin ensemble at every time."""
    rng = np.random.default_rng(seed)
    rate = params.nu * params.gamma**2
    ratios = []
    for _ in range(size):
        w0 = random_field3(disc, rng, kind="robin", gamma=params.gamma)
        base = sobolev_norm(w0, SOBOLEV_S, params.a)
        if base == 0.0:
            continue
        prop = RobinPropagator(w0, params)
        for t in times:
            grown = sobolev_norm(prop.at(t), SOBOLEV_S, params.a)
            ratios.append(grown * math.exp(-rate * t) / base)
    return ratios


def assert_growth_ratios_match(got, want, disc):
    """growth_ratios against the .at loop: to 1e-13 relative on a grid whose
    sampler takes the dense tables, bit for bit on one that keeps the
    transforms."""
    assert len(got) == len(want)
    if disc.n_z <= heat.TABLE_MAX_N_Z:
        assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-13
    else:
        assert got == want


# (k_max, n_z) of the shipped configs and of the convergence sweeps' grids
KERNEL_GRIDS = [(8, 256), (2, 1024), (4, 257), (4, 513)]


@pytest.mark.parametrize("k_max, n_z", KERNEL_GRIDS)
def test_bound_transforms_are_bit_identical_to_scipy_fft(k_max, n_z, monkeypatch):
    rng = np.random.default_rng(k_max * n_z)
    vals = rng.standard_normal((k_max, k_max, n_z))
    coeffs = rng.standard_normal((k_max, k_max, n_z - 2))
    strided = vals[..., 1:-1]
    assert not strided.flags.c_contiguous and coeffs.flags.c_contiguous
    for x in (strided, coeffs):
        assert np.array_equal(_kernels.dst(x, 1, axis=-1), scipy.fft.dst(x, type=1, axis=-1))
    spectrum = vals + 1j * rng.standard_normal(vals.shape)
    for lastsize in (2 * n_z - 2, 2 * n_z - 1):
        assert np.array_equal(
            _kernels.c2r(spectrum, lastsize),
            scipy.fft.irfft(spectrum, lastsize, axis=-1, norm="forward"),
        )
    # and as RobinPropagator.synthesize calls them
    seen = []

    def spy(x, lastsize):
        got = _kernels.c2r(x, lastsize)
        assert np.array_equal(got, scipy.fft.irfft(x, lastsize, axis=-1, norm="forward"))
        seen.append((x.shape, lastsize))
        return got

    monkeypatch.setattr(heat, "c2r", spy)
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    f = random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)
    RobinPropagator(f, PARAMS).at(0.1)
    assert seen == [((k_max, k_max, n_z), 2 * (n_z - 1))]


@pytest.mark.parametrize("k_max, n_z", KERNEL_GRIDS)
def test_the_flow_analysis_is_the_sine_analysis_of_the_split_then_its_moments(k_max, n_z):
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(n_z), kind="robin", gamma=PARAMS.gamma)
    slab, moments = flow_of(PARAMS.gamma, disc)._split(f.coeffs)
    prop = RobinPropagator(f, PARAMS)
    state = prop.state
    assert state.shape == (k_max, k_max, n_z - 1)
    assert not state.flags.writeable
    assert np.array_equal(state[..., :-1], dst(slab[..., 1:-1], type=1, axis=-1) / (n_z - 1))
    assert np.array_equal(state[..., -1], moments)
    assert np.array_equal(prop.flow.analyse(f.coeffs), state)
    # the rates of the slab modes and of the wall moments, as two formulas
    nu, gamma = PARAMS.nu, PARAMS.gamma
    zeta = (np.pi * np.arange(1, n_z - 1, dtype=float) / disc.l_z)[None, None, :]
    mu = disc.lateral.mu(PARAMS.a)
    mu2 = (mu * mu)[:, :, None]
    rates = prop.flow.rates
    assert rates.shape == state.shape
    assert np.array_equal(rates[..., :-1], -nu * (mu2 + zeta**2))
    assert np.array_equal(rates[..., -1], nu * (gamma * gamma - mu2[:, :, 0]))


def synthesize_by_dst_and_dct(prop, state):
    """Slab values from a type-1 DST, minus 1/gamma times their z derivative
    from a type-1 DCT of zeta-weighted modes, plus the wall profile."""
    slab_modes, wall_moments = state[..., :-1], state[..., -1]
    disc, gamma = prop.flow.disc, prop.flow.gamma
    n_z, l_z = disc.n_z, disc.l_z
    slab_vals = np.zeros(slab_modes.shape[:-1] + (n_z,))
    slab_vals[..., 1:-1] = dst(slab_modes, type=1, axis=-1) / 2.0
    zeta = np.pi * np.arange(1, n_z - 1, dtype=float) / l_z
    packed = np.zeros_like(slab_vals)
    packed[..., 1:-1] = 0.5 * (slab_modes * zeta)
    slab_dz = scipy.fft.dct(packed, type=1, axis=-1)
    return (
        -slab_dz / gamma
        + slab_vals
        + wall_moments[:, :, None] * np.exp(-gamma * disc.z)
    )


@pytest.mark.parametrize("k_max, n_z", KERNEL_GRIDS)
def test_one_fft_synthesis_matches_the_sine_and_cosine_transforms(k_max, n_z):
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(n_z), kind="robin", gamma=PARAMS.gamma)
    prop = RobinPropagator(f, PARAMS)
    for t in (0.0, 1e-4, 0.1, 1.0):
        state = prop.state_at(t)
        want = synthesize_by_dst_and_dct(prop, state)
        got = prop.synthesize(state).coeffs
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
@pytest.mark.parametrize("k_max, n_z", KERNEL_GRIDS)
def test_tabulated_duhamel_operators_match_the_transform_route(k_max, n_z, gamma):
    params = dataclasses.replace(PARAMS, gamma=gamma)
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    gen = np.random.default_rng(n_z)
    flow = flow_of(gamma, disc)
    analysis, synthesis = duhamel_tables(flow)
    assert analysis.shape == (n_z, n_z - 1) and synthesis.shape == (n_z - 1, n_z)
    assert not analysis.flags.writeable and not synthesis.flags.writeable
    for kind in ("vspace", "generic"):
        f = random_field3(disc, gen, kind=kind)
        want = flow.analyse(d_z(f).coeffs)
        assert relative_gap(f.coeffs @ analysis, want) <= 1e-13
    prop = RobinPropagator(random_field3(disc, gen, kind="robin", gamma=gamma), params)
    for t in (0.0, 1e-3, 0.01):
        state = prop.state_at(t)
        assert relative_gap(state @ synthesis, prop.synthesize(state).coeffs) <= 1e-13
    # the tables are the flow's route run on identity rows
    assert np.array_equal(analysis, flow.analyse(_dz1(np.eye(n_z), disc.dz)))
    assert np.array_equal(synthesis, flow.synthesize(np.eye(n_z - 1)))


LAPACK_SITES = (
    (heat, "dtbtrs"), (heat, "dpttrf"), (heat, "dpttrs"), (heat, "dstevd"),
    (elliptic, "dgttrf"), (elliptic, "dgtcon"), (elliptic, "dgttrs"),
)


def _copied(values):
    return tuple(np.array(v, copy=True) if isinstance(v, np.ndarray) else v for v in values)


@pytest.mark.parametrize("k_max, n_z", KERNEL_GRIDS)
def test_bound_lapack_routines_are_bit_identical_to_scipy_lapack(k_max, n_z, monkeypatch):
    """Every LAPACK call the flow's split, the oracle and the elliptic operator make.

    Each call runs first through scipy.linalg.lapack and then, once any
    argument it overwrote is restored, through the bound routine on the
    same arrays: some routines round differently on differently aligned
    copies of the same values.
    """
    seen = []
    for module, name in LAPACK_SITES:

        def spy(*args, _name=name, _bound=getattr(module, name), **kwargs):
            saved = _copied(args)
            want = _copied(getattr(lapack, _name)(*args, **kwargs))
            for arg, copy in zip(args, saved):
                if isinstance(arg, np.ndarray) and arg.flags.writeable:
                    np.copyto(arg, copy)
            got = _bound(*args, **kwargs)
            assert len(got) == len(want), _name
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), _name
            seen.append(_name)
            return got

        monkeypatch.setattr(module, name, spy)
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(n_z), kind="robin", gamma=PARAMS.gamma)
    flow_of(PARAMS.gamma, disc)._split(f.coeffs)
    fd_robin_oracle(f, 0.3, PARAMS, n_steps=3)
    eigen_steps = heat.ORACLE_EIGEN_RATIO * (n_z - 1) // k_max**2 + 1
    assert heat.oracle_route(disc, eigen_steps) == "eigen"
    fd_robin_oracle(f, 0.3, PARAMS, n_steps=eigen_steps)
    elliptic.elliptic_operator.__wrapped__(PARAMS.beta, A, disc).solve(f)
    assert set(seen) == {name for _, name in LAPACK_SITES}


def _bad_input(bad, dtype):
    """A (2, 9) input that is not an aligned `dtype` array in the way `bad` names."""
    if bad is list:
        return np.ones((2, 9), dtype=dtype).tolist()
    if bad == "unaligned":
        size = np.dtype(dtype).itemsize
        x = np.frombuffer(bytes(size * 18 + 1), dtype=dtype, offset=1).reshape(2, 9)
        assert not x.flags.aligned
        return x
    return np.ones((2, 9), dtype=bad)


@pytest.mark.parametrize("bad", [np.float32, np.complex128, np.int64, ">f8", list, "unaligned"])
def test_bound_transforms_refuse_anything_but_aligned_float64(bad):
    with pytest.raises(ValueError, match="aligned float64"):
        _kernels.dst(_bad_input(bad, np.float64), 1)


@pytest.mark.parametrize("bad", [np.complex64, np.float64, np.int64, ">c16", list, "unaligned"])
def test_bound_c2r_refuses_anything_but_aligned_complex128(bad):
    with pytest.raises(ValueError, match="aligned complex128"):
        _kernels.c2r(_bad_input(bad, np.complex128), 16)


@pytest.mark.parametrize("shape, axis", [((3, 0), -1), ((0, 3), 0)])
def test_bound_transforms_refuse_an_empty_axis_as_scipy_does(shape, axis):
    x = np.ones(shape)
    with pytest.raises(ValueError, match="invalid number of data points"):
        _kernels.dst(x, 1, axis=axis)
    with pytest.raises(ValueError, match="invalid number of data points"):
        scipy.fft.dst(x, type=1, axis=axis)


@pytest.mark.parametrize("lastsize", [-2, 0, 1])
def test_bound_c2r_refuses_an_empty_axis(lastsize):
    with pytest.raises(ValueError, match="invalid number of data points"):
        _kernels.c2r(np.ones((3, 0), dtype=complex), lastsize)


@pytest.mark.parametrize("n, lastsize", [(9, 15), (9, 18), (9, 8), (9, -16), (1, 0), (1, 2)])
def test_bound_c2r_refuses_a_lastsize_scipy_would_pad_or_truncate_to(n, lastsize):
    with pytest.raises(ValueError, match="lastsize must be"):
        _kernels.c2r(np.ones((2, n), dtype=complex), lastsize)


def test_another_scipy_version_refuses_to_bind_the_kernels(tmp_path):
    """A scipy package first on the path whose version.py says 1.16.0 is the
    one found, and refused before any of its files is bound; its package
    code, which would raise, is never run."""
    fake = tmp_path / "scipy"
    fake.mkdir()
    (fake / "__init__.py").write_text("raise AssertionError('scipy/__init__.py ran')\n")
    (fake / "version.py").write_text("version = '1.16.0'\n")
    src = str(Path(robinslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), src, env.get("PYTHONPATH")]))
    probe = "import robinslab._kernels"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 1
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:"), out.stderr
    assert "1.16.0" in last and _kernels.SCIPY_VERSION in last


@pytest.mark.parametrize("seed", [0, 23])
def test_ratio_samplers_equal_the_held_out_loops(seed):
    disc = Discretization(k_max=3, n_z=64, l_z=20.0)
    params = PARAMS
    times = (0.1, 0.5, 1.0)
    generic_rng = np.random.default_rng(seed)
    generic = (random_field3(disc, generic_rng, kind="generic") for _ in range(6))
    want = held_out_elliptic_by_loop(params, disc, seed, 6)
    assert len(want) == 6
    assert elliptic_ratios(generic, A, params.beta) == want
    robin_rng = np.random.default_rng(seed + 1)
    robin = (
        random_field3(disc, robin_rng, kind="robin", gamma=params.gamma) for _ in range(6)
    )
    want = held_out_growth_by_loop(params, disc, seed + 1, 6, times)
    assert len(want) == 18
    assert_growth_ratios_match(growth_ratios(robin, times, params), want, disc)


@pytest.mark.parametrize("k_max, n_z", [(8, 256), (2, 1024), (4, 256)])
def test_growth_ratios_at_the_shipped_grids_equal_the_held_out_loop(k_max, n_z):
    """One synthesis per field for all its times, against one .at per time;
    a zero field in the stream is skipped and t = 0 records exactly 1.0."""
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    rng = np.random.default_rng(n_z + 2)
    fields = [random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma) for _ in range(4)]
    fields.insert(2, SpectralField3(np.zeros_like(fields[0].coeffs), disc))
    want = held_out_growth_by_loop(PARAMS, disc, n_z + 2, 4, CALIBRATION_TIMES)
    assert len(want) == 12
    got = growth_ratios(iter(fields), CALIBRATION_TIMES, PARAMS)
    assert_growth_ratios_match(got, want, disc)
    pinned = growth_ratios(iter(fields), (0.0,) + CALIBRATION_TIMES, PARAMS)
    assert pinned[0::4] == [1.0] * 4
    assert [r for i, r in enumerate(pinned) if i % 4] == got


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_calibrate_outputs_match_the_serial_held_out_loops(tmp_path, monkeypatch, seed):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "params": {"a": A, "nu": 1.0, "gamma": 2.0, "beta": 1.0},
        "disc": {"k_max": 2, "n_z": 129, "l_z": 20.0, "n_t": 5},
        "seed": seed,
        "initial_data": {"w": {"family": "eigenmode", "mode": [1, 1], "amplitude": 1.0}},
    }))

    def outputs(out):
        assert main(["--command", "calibrate", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("timing")
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "report.json"
        }
        return json.dumps(report, sort_keys=True, indent=2).encode(), files

    forked = outputs(tmp_path / "forked")
    disc = Discretization(k_max=2, n_z=129, l_z=20.0, n_t=5)
    # the growth list from the command's own sampler, in process; on this
    # grid it agrees with the .at loop to roundoff only
    robin_rng = np.random.default_rng(seed + 3)
    robin = (random_field3(disc, robin_rng, kind="robin", gamma=PARAMS.gamma) for _ in range(50))
    serial = [
        held_out_elliptic_by_loop(PARAMS, disc, seed + 2, 50),
        growth_ratios(robin, CALIBRATION_TIMES, PARAMS),
    ]
    want = held_out_growth_by_loop(PARAMS, disc, seed + 3, 50, CALIBRATION_TIMES)
    assert_growth_ratios_match(serial[1], want, disc)
    monkeypatch.setattr(cli, "_held_out", lambda worker, index: serial[index])
    in_process = outputs(tmp_path / "in_process")
    assert forked == in_process


def snapshot_by_csv_writer(path, field):
    """One csv.writer row per nonzero coefficient, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k1", "k2", "j", "coefficient"])
        coeffs = field.coeffs
        for k1, k2, j in zip(*np.nonzero(coeffs)):
            writer.writerow(
                [int(k1) + 1, int(k2) + 1, int(j), "{:.17g}".format(coeffs[k1, k2, j])]
            )


@pytest.mark.parametrize("k_max, n_z", [(1, 8), (3, 97), (8, 256)])
def test_snapshot_writer_is_byte_identical_to_csv_writer(tmp_path, k_max, n_z):
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    gen = np.random.default_rng(k_max + n_z)
    magnitudes = 10.0 ** gen.uniform(-300.0, 300.0, size=(k_max, k_max, n_z))
    signs = gen.choice([-1.0, 1.0], size=magnitudes.shape)
    coeffs = signs * magnitudes * (gen.uniform(size=magnitudes.shape) > 0.3)
    coeffs.flat[:7] = [1e-300, -1e300, 0.0, -0.0, 5e-324, -2.5e-310, np.nextafter(2.2e-308, 0)]
    field = SpectralField3(coeffs, disc)
    assert np.any(coeffs == 0.0) and np.any(coeffs < 0.0)
    assert np.sum((coeffs != 0.0) & (np.abs(coeffs) < np.finfo(float).tiny)) == 3
    write_snapshot(tmp_path / "one_pass.csv", field)
    snapshot_by_csv_writer(tmp_path / "by_row.csv", field)
    assert (tmp_path / "one_pass.csv").read_bytes() == (tmp_path / "by_row.csv").read_bytes()


def guard_sweep_by_every_norm(v0, w0, params, horizon):
    """picard_solve's loop with x_norm after every non-final sweep.

    Returns the sweep at which the iterate first leaves the guard ball, or
    None when the solve converges first.
    """
    n_t = v0.disc.n_t
    problem = PicardProblem(v0, w0, params, horizon)
    state = PicardState((v0,) * n_t, (w0,) * n_t, 0)
    diffs = []
    for _ in range(MAX_SWEEPS):
        new = picard_step(state, problem)
        diffs.append(x_distance(new, state, params))
        state = new
        if diffs[-1] <= PICARD_TOL * diffs[0]:
            return None
        if x_norm(state, params) > DIVERGENCE_FACTOR * horizon.M:
            return state.iteration_index
    raise AssertionError("reference loop hit the sweep cap")


def guard_sweep(v0, w0, params, horizon):
    try:
        picard_solve(PicardProblem(v0, w0, params, horizon))
    except NoConvergenceError as exc:
        return int(re.search(r"at sweep (\d+)", str(exc)).group(1))
    return None


def test_bounded_ball_guard_stops_where_the_per_sweep_guard_does():
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    horizon = select_horizon(v0, w0, PARAMS, 1.5)
    # guard radii below, between and above the first iterates' x_norms
    # (which grow here), so the guard trips at sweep 1, at sweep 2, and at
    # the largest radius never
    n_t = disc.n_t
    problem = PicardProblem(v0, w0, PARAMS, horizon)
    state = PicardState((v0,) * n_t, (w0,) * n_t, 0)
    norms = []
    for _ in range(3):
        state = picard_step(state, problem)
        norms.append(x_norm(state, PARAMS))
    levels = sorted(norms)
    radii = [0.5 * levels[0], 2.0 * levels[-1]]
    radii += [0.5 * (low + high) for low, high in zip(levels, levels[1:])]
    seen = set()
    for level in radii:
        radius = dataclasses.replace(horizon, M=level / DIVERGENCE_FACTOR)
        want = guard_sweep_by_every_norm(v0, w0, PARAMS, radius)
        assert guard_sweep(v0, w0, PARAMS, radius) == want
        seen.add(want)
    assert seen == {1, 2, None}


def sweep_by_every_slice(state, problem, t):
    """One sweep on the grid t recomputing every slice's integrand and
    forcing state, and the propagator of w0, by the problem's route: its
    tables if it holds them, the transforms otherwise."""
    v0, w0, params = problem.v0, problem.w0, problem.params
    dt = t[1] - t[0]
    integrands = [
        pointwise_product(v_j, d_z(solve_elliptic(w_j, params.beta, params.a))).coeffs
        for v_j, w_j in zip(state.v_slices, state.omega_slices)
    ]
    v_new = [v0]
    acc = np.zeros_like(v0.coeffs)
    for i in range(1, len(t)):
        acc = acc + 2.0 * dt * (integrands[i - 1] + integrands[i])
        v_new.append(SpectralField3(v0.coeffs + acc, v0.disc))
    if problem.forcing_analysis is None:
        flow = robin_flow(params.nu, params.gamma, params.a, v0.disc)
        states = [flow.analyse(d_z(v_j).coeffs) for v_j in state.v_slices]
    else:
        states = [v_j.coeffs @ problem.forcing_analysis for v_j in state.v_slices]
    w_new = duhamel_apply(RobinPropagator(w0, params), states, t, problem.synthesis)
    return v_new, [w0] + w_new


def small_problem(seed=8, k_max=3, n_z=129):
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0, n_t=9)
    gen = np.random.default_rng(seed)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    return PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.5))


def skewed_start(problem):
    """The uniqueness check's second guess: vorticity slices inflated by 10 percent."""
    n_t = problem.v0.disc.n_t
    return PicardState((problem.v0,) * n_t, (problem.w0.scaled(1.1),) * n_t)


def test_sweep_reusing_pinned_work_is_bit_identical_to_recomputing_it():
    problem = small_problem()
    v0, w0 = problem.v0, problem.w0
    n_t = v0.disc.n_t
    t_grid = np.linspace(0.0, problem.horizon.T, n_t)
    constant = PicardState((v0,) * n_t, (w0,) * n_t)
    # the two starts, then a state whose slice 0 alone holds the data
    for state in (constant, skewed_start(problem), picard_step(constant, problem)):
        got = picard_step(state, problem)
        want_v, want_w = sweep_by_every_slice(state, problem, t_grid)
        for field, want in zip(got.v_slices + got.omega_slices, want_v + want_w):
            assert np.array_equal(field.coeffs, want.coeffs)


def test_a_tabulating_sweep_reusing_pinned_work_is_bit_identical_to_recomputing_it():
    problem = small_problem(k_max=4, n_z=65)
    assert problem.synthesis is not None
    v0, w0 = problem.v0, problem.w0
    n_t = v0.disc.n_t
    constant = PicardState((v0,) * n_t, (w0,) * n_t)
    for state in (constant, skewed_start(problem), picard_step(constant, problem)):
        got = picard_step(state, problem)
        want_v, want_w = sweep_by_every_slice(state, problem, problem.t_grid)
        for field, want in zip(got.v_slices + got.omega_slices, want_v + want_w):
            assert np.array_equal(field.coeffs, want.coeffs)


@pytest.mark.parametrize("k_max, n_z", [(3, 129), (4, 65)])
def test_a_sweep_through_the_tables_matches_the_transform_sweep(k_max, n_z):
    tables = small_problem(k_max=k_max, n_z=n_z)
    transforms = small_problem(k_max=k_max, n_z=n_z)
    disc = tables.v0.disc
    tables.forcing_analysis, tables.synthesis = duhamel_tables(flow_of(PARAMS.gamma, disc))
    transforms.forcing_analysis = transforms.synthesis = None
    tables.forcing_state = tables.analyse_forcing(tables.v0)
    transforms.forcing_state = transforms.analyse_forcing(transforms.v0)
    constant = PicardState((tables.v0,) * disc.n_t, (tables.w0,) * disc.n_t)
    for state in (constant, picard_step(constant, transforms)):
        got, want = picard_step(state, tables), picard_step(state, transforms)
        for field, ref in zip(got.omega_slices, want.omega_slices, strict=True):
            assert relative_gap(field.coeffs, ref.coeffs) <= 1e-13
        assert all(
            np.array_equal(a.coeffs, b.coeffs)
            for a, b in zip(got.v_slices, want.v_slices, strict=True)
        )


def test_the_uniqueness_start_takes_its_shared_integrand_once(monkeypatch):
    problem = small_problem()
    starts = []
    monkeypatch.setattr(verify, "fork_solve", lambda problem, start: starts.append(start))
    start_uniqueness_solve(problem)
    (start,) = starts
    assert len({(id(v), id(w)) for v, w in zip(start.v_slices, start.omega_slices)}) == 1
    calls = []
    real_integrand = picard._integrand

    def counting_integrand(v, w, params):
        calls.append((v, w))
        return real_integrand(v, w, params)

    monkeypatch.setattr(picard, "_integrand", counting_integrand)
    got = picard_step(start, problem)
    assert len(calls) == 1
    want_v, want_w = sweep_by_every_slice(start, problem, problem.t_grid)
    for field, want in zip(got.v_slices + got.omega_slices, want_v + want_w, strict=True):
        assert np.array_equal(field.coeffs, want.coeffs)


def test_a_start_without_a_grid_solves_on_the_problem_grid():
    problem = small_problem()
    second = picard_solve(problem, initial_state=skewed_start(problem))
    t_grid = np.linspace(0.0, problem.horizon.T, problem.v0.disc.n_t)
    state = skewed_start(problem)
    for _ in range(second.iterations):
        v_slices, w_slices = sweep_by_every_slice(state, problem, t_grid)
        state = PicardState(tuple(v_slices), tuple(w_slices))
    for field, want in zip(
        second.state.v_slices + second.state.omega_slices,
        state.v_slices + state.omega_slices,
        strict=True,
    ):
        assert np.array_equal(field.coeffs, want.coeffs)


def uniqueness_by_second_solve(first):
    """The uniqueness check run in process: the second solve after the first."""
    second = picard_solve(first.problem, initial_state=skewed_start(first.problem))
    gap = x_distance(first.state, second.state, first.problem.params)
    return make_certificate(
        "uniqueness", gap, 10.0 * PICARD_TOL,
        sweeps_first=first.iterations, sweeps_second=second.iterations,
    )


def test_forked_uniqueness_check_is_bit_identical_to_the_second_solve_in_process():
    problem = small_problem()
    first = picard_solve(problem)
    with start_uniqueness_solve(problem) as second:
        forked = uniqueness_check(first, second)
    want = uniqueness_by_second_solve(first)
    assert forked.measured > 0.0
    assert forked == want


def test_forked_fixed_point_residual_is_the_in_process_record():
    first = picard_solve(small_problem())
    with Worker.fork(lambda: fixed_point_residual_check(first)) as residual:
        forked = residual.result()
    want = fixed_point_residual_check(first)
    assert forked.measured > 0.0
    assert forked == want


class InProcess:
    """Worker's interface, with the job run in the parent when its result is asked."""

    seconds = None

    def __init__(self, job):
        self._job = job

    @classmethod
    def fork(cls, job):
        return cls(job)

    def result(self):
        return self._job()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


def test_picard_outputs_match_the_in_process_uniqueness_route(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "params": {"a": A, "nu": 1.0, "gamma": 2.0, "beta": 1.0},
        "disc": {"k_max": 3, "n_z": 129, "l_z": 20.0, "n_t": 9},
        "seed": 8,
        "initial_data": {
            "v": {"family": "random", "kind": "vspace", "amplitude": 0.1},
            "w": {"family": "random", "kind": "robin", "amplitude": 0.05},
        },
    }))

    def outputs(out):
        assert main(["--command", "picard", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("timing")
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "report.json"
        }
        return json.dumps(report, sort_keys=True, indent=2).encode(), files

    forked = outputs(tmp_path / "forked")
    monkeypatch.setattr(
        cli, "uniqueness_check", lambda first, second: uniqueness_by_second_solve(first)
    )
    monkeypatch.setattr(cli, "Worker", InProcess)  # the residual sweep, after the main solve
    in_process = outputs(tmp_path / "in_process")
    assert forked == in_process
