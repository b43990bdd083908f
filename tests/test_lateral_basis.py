"""Closed-form tests of every lateral-basis consumer at box sizes a != pi.

At a = pi the rates pi*k/a equal k, which hides an `a` put in the wrong
place.  Each test below holds one consumer of the lateral basis to a closed
form at a = 2 and a = 5:

  ||sin(k1 pi x/a) sin(k2 pi y/a) e^{-z}||_{H^s}^2
      = (a^2 / 8) sum_{|alpha| <= s} (pi k1/a)^{2 alpha1} (pi k2/a)^{2 alpha2}
  wall residual of the same field   (a/2) |gamma - 1|
  resonance                         beta = pi sqrt(5)/a hits modes (1, 2), (2, 1)
  synthesis on m points             sin(k pi x_j / a), x_j = j a / (m + 1)
  error budget                      tail_mu_min = exp(-pi sqrt(2) l_z / a)

Every one of them reads the basis through domain.LateralBasis.
"""

import itertools
import math

import numpy as np
import pytest

from robinslab import cli
from robinslab.domain import (
    Discretization,
    field3_from_profile,
    field_from_lateral_values,
    lateral_values,
    random_field3,
    sobolev_norm,
)
from robinslab.elliptic import require_admissible
from robinslab.errors import ResonanceError
from robinslab.heat import boundary_residual
from robinslab.report import parse_config

SIZES = [2.0, 5.0]
MODES = [(1, 1), (1, 2), (3, 2)]


def hs_norm_closed_form(mode, s, a):
    kx, ky = (math.pi * k / a for k in mode)
    total = sum(
        kx ** (2 * a1) * ky ** (2 * a2)
        for a1, a2, a3 in itertools.product(range(s + 1), repeat=3)
        if a1 + a2 + a3 <= s
    )
    return math.sqrt(a * a / 8.0 * total)


@pytest.mark.parametrize("a", SIZES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("s", [0, 2, 3])
def test_sobolev_norm_of_a_decaying_mode(a, mode, s):
    disc = Discretization(k_max=3, n_z=8001, l_z=30.0)
    f = field3_from_profile(disc, mode, np.exp(-disc.z))
    want = hs_norm_closed_form(mode, s, a)
    assert abs(sobolev_norm(f, s, a) - want) <= 1e-5 * want


@pytest.mark.parametrize("a", SIZES)
@pytest.mark.parametrize("gamma", [0.5, 3.0])
def test_boundary_residual_of_a_decaying_mode(a, gamma):
    # (w_z + gamma w)(0) = gamma - 1 for the e^{-z} profile, and the wall
    # trace's L2 norm carries a/2 from the two lateral directions
    disc = Discretization(k_max=3, n_z=4001, l_z=20.0)
    f = field3_from_profile(disc, (1, 2), np.exp(-disc.z))
    want = 0.5 * a * abs(gamma - 1.0)
    assert abs(boundary_residual(f, gamma, a) - want) <= 1e-4 * want


@pytest.mark.parametrize("a", SIZES)
def test_resonance_names_both_mirror_modes(a):
    disc = Discretization(k_max=3, n_z=64, l_z=20.0)
    with pytest.raises(ResonanceError) as exc:
        require_admissible(math.pi * math.sqrt(5.0) / a, disc, a)
    assert exc.value.modes == ((1, 2), (2, 1))
    assert "(1, 2), (2, 1)" in str(exc.value)


@pytest.mark.parametrize("a", SIZES)
@pytest.mark.parametrize("m", [3, 7, 10])
def test_synthesis_samples_the_modes_on_the_collocation_grid(a, m):
    disc = Discretization(k_max=3, n_z=16, l_z=20.0)
    x = np.arange(1, m + 1) * a / (m + 1)
    profile = np.exp(-disc.z)
    for k1, k2 in MODES:
        f = field3_from_profile(disc, (k1, k2), profile)
        want = np.multiply.outer(
            np.outer(np.sin(k1 * math.pi * x / a), np.sin(k2 * math.pi * x / a)), profile
        )
        assert np.max(np.abs(lateral_values(f, m) - want)) <= 1e-14


@pytest.mark.parametrize("m", [None, 3, 10])
def test_projection_inverts_synthesis_on_the_band(m):
    disc = Discretization(k_max=3, n_z=16, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(5), kind="generic")
    back = field_from_lateral_values(lateral_values(f, m), disc)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-14 * np.max(np.abs(f.coeffs))


@pytest.mark.parametrize("a", SIZES)
def test_error_budget_takes_the_slowest_mode_tail(a):
    config = parse_config({
        "params": {"a": a, "nu": 1.0, "gamma": 2.0, "beta": 1.0},
        "disc": {"k_max": 2, "n_z": 64, "l_z": 30.0},
        "seed": 1,
    })
    budget = cli._error_budget(config, [0.0])
    want = math.exp(-math.pi * math.sqrt(2.0) / a * 30.0)
    assert budget["tail_mu_min"] == pytest.approx(want, rel=1e-13)
