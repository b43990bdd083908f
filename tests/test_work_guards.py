"""Guards on how much work a sweep does and on what the command imports.

One Picard sweep evaluates the Duhamel term in the propagator's spectral
state: it builds one propagator for w0 and one per forcing slice, and never
evaluates a propagator through RobinPropagator.at.  An H^3 norm applies the
second-difference stencil once and differentiates that profile for order 3
rather than recomputing it.  Importing the command
module must not pull in scipy.signal, which costs every command set-up time
and memory.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import robinslab
from robinslab import domain, heat
from robinslab.domain import Discretization, ModelParams, random_field3
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


def test_importing_the_cli_does_not_load_scipy_signal():
    src = str(Path(robinslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, robinslab.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
