"""Guards on how much work a sweep does and on what the command imports.

One Picard sweep evaluates the Duhamel term in the propagator's spectral
state: it builds one propagator for w0 and one per forcing slice, and never
evaluates a propagator through RobinPropagator.at.  An H^3 norm applies the
second-difference stencil once and differentiates that profile for order 3
rather than recomputing it.  The Crank-Nicolson oracle factors one
block-diagonal band for all lateral modes and makes one tridiagonal solve
per step, keeps the modes uncoupled, and never touches the transform
route.  Importing the command module must not pull in scipy.signal,
scipy.integrate, scipy.optimize or scipy.sparse.linalg, which cost every
command set-up time and memory.  Every name the package or one of its
modules lists in __all__ must exist.
"""

import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robinslab
from robinslab import domain, heat
from robinslab.domain import Discretization, ModelParams, SpectralField3, random_field3
from robinslab.picard import PicardState, picard_step

PARAMS = ModelParams(a=math.pi, nu=1.0, gamma=2.0, beta=1.0, s=2)


def test_one_sweep_builds_per_slice_and_never_evaluates(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    counts = {"at": 0, "build": 0}
    real_at, real_init = heat.RobinPropagator.at, heat.RobinPropagator.__init__

    def counting_at(self, t):
        counts["at"] += 1
        return real_at(self, t)

    def counting_init(self, *args, **kwargs):
        counts["build"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(heat.RobinPropagator, "at", counting_at)
    monkeypatch.setattr(heat.RobinPropagator, "__init__", counting_init)
    t_grid = np.linspace(0.0, 0.02, disc.n_t)
    state = PicardState(t_grid, (v0,) * disc.n_t, (w0,) * disc.n_t)
    new = picard_step(state, v0, w0, PARAMS)
    assert len(new.omega_slices) == disc.n_t
    assert counts["at"] == 0
    assert 0 < counts["build"] <= disc.n_t + 1


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
    counts = {"dgttrf": 0, "dgttrs": 0}

    def counting(name):
        real = getattr(heat, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(heat, "dgttrf", counting("dgttrf"))
    monkeypatch.setattr(heat, "dgttrs", counting("dgttrs"))
    heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=11)
    assert counts == {"dgttrf": 1, "dgttrs": 11}


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
    want = heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=40).coeffs

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use the transform route")

    for name in ("dst", "dct", "solve_banded", "build_transform_bundle", "RobinPropagator"):
        monkeypatch.setattr(heat, name, forbidden)
    got = heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=40).coeffs
    assert np.array_equal(got, want)


def test_importing_the_cli_does_not_load_heavy_scipy_modules():
    src = str(Path(robinslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, robinslab.cli; "
        "print([m for m in ('scipy.signal', 'scipy.integrate', 'scipy.optimize', "
        "'scipy.sparse.linalg') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    modules = [robinslab] + [
        importlib.import_module(f"robinslab.{info.name}")
        for info in pkgutil.iter_modules(robinslab.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
