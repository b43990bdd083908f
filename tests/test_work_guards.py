"""Guards on how much work a sweep does and on what the command imports.

One Picard sweep evaluates the Duhamel term in the spectral state: it
analyses each forcing slice with robin_state, builds no propagator, and
never evaluates one through RobinPropagator.at.  What the data alone feed
into a sweep (their elliptic solve, the state of d_z(v0) and the one
propagator of w0) a solve computes once, and a slice holding the data
reuses it.  A converging solve
takes no norm for its ball guard beyond the start's, propagators on one
geometry share their rates, and the elliptic band is factored once per
geometry, not once per solve.  One RobinPropagator.at synthesizes with one
backward real FFT and no sine transform.  An H^3 norm applies the second-difference
stencil once and differentiates that profile for order 3 rather than
recomputing it.  The Crank-Nicolson oracle factors one
block-diagonal band for all lateral modes as LDL^T and makes one
tridiagonal solve per step, keeps the modes uncoupled, and never touches the transform
route.  Importing the command module must not pull in scipy.signal,
scipy.integrate, scipy.optimize, scipy.sparse.linalg, scipy.linalg,
scipy.fft, scipy.special or scipy's array-API layer with the numpy.f2py and
numpy.testing it loads, which cost every command set-up time and memory;
only the kernel module imports scipy at all.  Only the worker module forks
or opens a pipe, so every child process goes through its one fork, reap
and kill path.  Every name the package or one of its modules lists in
__all__ must exist.
"""

import ast
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
from robinslab import domain, elliptic, heat, picard
from robinslab.domain import Discretization, ModelParams, SpectralField3, random_field3
from robinslab.picard import (
    HorizonSelection, PicardProblem, PicardState, picard_solve, picard_step, select_horizon,
)

PARAMS = ModelParams(a=math.pi, nu=1.0, gamma=2.0, beta=1.0, s=2)


def _count_propagator_work(monkeypatch):
    """Count RobinPropagator builds and .at calls, and robin_state analyses
    wherever they are called from; returns the live counts."""
    counts = {"at": 0, "build": 0, "analysis": 0}
    real_at, real_init = heat.RobinPropagator.at, heat.RobinPropagator.__init__
    real_state = heat.robin_state

    def counting_at(self, t):
        counts["at"] += 1
        return real_at(self, t)

    def counting_init(self, *args, **kwargs):
        counts["build"] += 1
        real_init(self, *args, **kwargs)

    def counting_state(*args, **kwargs):
        counts["analysis"] += 1
        return real_state(*args, **kwargs)

    monkeypatch.setattr(heat.RobinPropagator, "at", counting_at)
    monkeypatch.setattr(heat.RobinPropagator, "__init__", counting_init)
    monkeypatch.setattr(heat, "robin_state", counting_state)
    monkeypatch.setattr(picard, "robin_state", counting_state)
    return counts


def test_one_sweep_analyses_per_slice_and_builds_nothing(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(8)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    horizon = HorizonSelection(
        T=0.02, M=1.0, growth_constant=1.0, binding="unit cap", constraint_value=0.0
    )
    counts = _count_propagator_work(monkeypatch)
    problem = PicardProblem(v0, w0, PARAMS, horizon)
    # the propagator of w0, and the states of d_z(v0) and of w0
    assert counts == {"at": 0, "build": 1, "analysis": 2}
    state = picard_step(PicardState((v0,) * disc.n_t, (w0,) * disc.n_t), problem)
    assert counts == {"at": 0, "build": 1, "analysis": 2}
    new = picard_step(state, problem)
    assert len(new.omega_slices) == disc.n_t
    # every slice but slice 0, which holds the data
    assert counts == {"at": 0, "build": 1, "analysis": 2 + disc.n_t - 1}


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
    assert counts == {"at": 0, "build": 1, "analysis": 2 + later}


def test_second_elliptic_solve_neither_factors_nor_band_solves(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    gen = np.random.default_rng(12)
    first = random_field3(disc, gen, kind="generic")
    second = random_field3(disc, gen, kind="generic")
    want = elliptic.solve_elliptic(second, PARAMS.beta, PARAMS.a).coeffs
    elliptic.solve_elliptic(first, PARAMS.beta, PARAMS.a)

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve on a known geometry must reuse its factors")

    monkeypatch.setattr(elliptic, "dgttrf", forbidden)
    monkeypatch.setattr(elliptic, "solve_banded", forbidden, raising=False)
    got = elliptic.solve_elliptic(second, PARAMS.beta, PARAMS.a).coeffs
    assert np.array_equal(got, want)


def test_propagators_on_one_geometry_share_their_rates():
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    gen = np.random.default_rng(13)
    fields = [random_field3(disc, gen, kind="generic") for _ in range(3)]
    first, second = (heat.RobinPropagator(f, PARAMS) for f in fields[:2])
    assert second.rates is first.rates
    assert not first.rates.flags.writeable
    assert not first.state.flags.writeable
    slower = ModelParams(a=PARAMS.a, nu=0.5, gamma=PARAMS.gamma, beta=PARAMS.beta)
    other = heat.RobinPropagator(fields[2], slower)
    assert np.array_equal(other.rates, 0.5 * first.rates)


def _count_heat_calls(monkeypatch, *names):
    """Wrap each named heat kernel to count its calls; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:

        def call(*args, _name=name, _real=getattr(heat, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(heat, name, call)
    return counts


def test_one_evaluation_makes_one_fft_and_no_sine_transform(monkeypatch):
    disc = Discretization(k_max=3, n_z=129, l_z=20.0)
    f = random_field3(disc, np.random.default_rng(4), kind="robin", gamma=PARAMS.gamma)
    prop = heat.RobinPropagator(f, PARAMS)
    counts = _count_heat_calls(monkeypatch, "c2r", "dst")
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
    counts = _count_heat_calls(monkeypatch, "dpttrf", "dpttrs")
    heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=11)
    assert counts == {"dpttrf": 1, "dpttrs": 11}


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

    for name in ("dst", "c2r", "dtbtrs", "build_transform_bundle", "RobinPropagator"):
        monkeypatch.setattr(heat, name, forbidden)
    got = heat.fd_robin_oracle(f, 0.3, PARAMS, n_steps=40).coeffs
    assert np.array_equal(got, want)


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


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_kernel_module_imports_scipy():
    package = Path(robinslab.__file__).parent
    importers = [
        path.name
        for path in sorted(package.rglob("*.py"))
        if any(name.split(".")[0] == "scipy" for name in _imported_modules(path))
    ]
    assert importers == ["_kernels.py"]


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
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
