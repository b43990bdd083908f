"""The batched and spectral-space routes against the loops they replaced.

Each reference below is the earlier algorithm written out in full:

  Duhamel    the O(n_t^2) sum of RobinPropagator.at over every (slice, node)
             pair, against the spectral-state recurrence in duhamel_apply;
  bundle     the backward exponential-kernel sweep as a Python loop over the
             z grid, against the single bidiagonal banded solve;
  elliptic   one tridiagonal solve_banded per lateral mode, against the one
             block-diagonal banded solve over all modes.

The recurrence and the banded sweep reorder floating-point sums, so they
are held to a tolerance a few hundred ulps wide; the stacked elliptic solve
runs the same eliminations on each block and must agree bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import solve_banded

from robinslab.domain import Discretization, ModelParams, random_field3
from robinslab.elliptic import solve_elliptic
from robinslab.heat import RobinPropagator, build_transform_bundle
from robinslab.picard import duhamel_apply

A = math.pi
PARAMS = ModelParams(a=A, nu=1.0, gamma=2.0, beta=1.0, s=2)


def duhamel_by_sum(w0, g_slices, horizon, params, quad_nodes):
    """P_{t_i} w0 plus the cell quadrature summed over every node, via .at."""
    n_t = len(g_slices)
    t = np.linspace(0.0, horizon, n_t)
    dt = t[1] - t[0]
    base = RobinPropagator(w0, params, check_compat=False)
    props = [RobinPropagator(g, params, check_compat=False) for g in g_slices]
    h = dt / (quad_nodes - 1)
    out = [w0.coeffs]
    for i in range(1, n_t):
        total = base.at(t[i]).coeffs.copy()
        for j in range(i):
            for sq in np.linspace(t[j], t[j + 1], quad_nodes):
                wq = h if t[j] < sq < t[j + 1] else 0.5 * h
                theta = (sq - t[j]) / dt
                lag = t[i] - sq
                if theta < 1.0:
                    total += wq * (1.0 - theta) * props[j].at(lag).coeffs
                if theta > 0.0:
                    total += wq * theta * props[j + 1].at(lag).coeffs
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
    rates = disc.mode_rates(a)
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
            out[k1, k2, :n] = solve_banded((1, 1), ab, f.coeffs[k1, k2, :n])
    return out


@pytest.mark.parametrize("quad_nodes", [2, 3, 4])
def test_recurrence_matches_sum_of_propagator_evaluations(quad_nodes):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(40 + quad_nodes)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma)
    g_slices = [random_field3(disc, gen, kind="generic") for _ in range(disc.n_t)]
    got = duhamel_apply(w0, g_slices, 0.3, PARAMS, quad_nodes)
    ref = duhamel_by_sum(w0, g_slices, 0.3, PARAMS, quad_nodes)
    assert got[0] is w0
    for field, want in zip(got[1:], ref[1:]):
        rel = np.max(np.abs(field.coeffs - want)) / np.max(np.abs(want))
        assert rel <= 1e-12


@pytest.mark.parametrize("n_z", [65, 256, 1024])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_banded_bundle_sweep_matches_backward_loop(n_z, gamma):
    disc = Discretization(k_max=3, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(n_z), kind="generic")
    got = build_transform_bundle(f, gamma).slab_init.coeffs
    ref = slab_by_loop(f, gamma)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("k_max, n_z, beta", [(8, 256, 1.0), (3, 129, -0.7), (1, 1024, 2.5)])
def test_stacked_elliptic_solve_is_bit_identical_to_per_mode(k_max, n_z, beta):
    disc = Discretization(k_max=k_max, n_z=n_z, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(k_max * n_z), kind="generic")
    assert np.array_equal(solve_elliptic(f, beta, A).coeffs, elliptic_by_mode(f, beta, A))
