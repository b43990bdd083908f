"""Heat flow with a Robin wall condition, solved by an explicit splitting.

Per lateral mode the vorticity obeys w_t = nu * (w'' - mu^2 w) on z > 0 with
w'(0) + gamma*w(0) = 0.  The solver splits the initial field into

  * a wall-decay part:  (weighted moment of w0) * e^{-gamma z}, which evolves
    by the exact per-mode exponential exp(nu*(gamma^2 - mu^2) t), and
  * a slab part whose kernel convolution against gamma*e^{-gamma z} vanishes,
    reconstructed from an auxiliary field that evolves under all-Dirichlet
    boundary conditions and is propagated exactly in a z-sine basis.

The reconstruction is  w = -(1/gamma) * eta_z + eta + (cross) * e^{-gamma z}
with eta the auxiliary field; at t = 0 it reproduces w0 up to representation
error.  The auxiliary field comes from one bidiagonal banded solve over all
lateral modes at once.

RobinPropagator exposes this as a public spectral state: the z-sine slab
modes and the wall moments, each with its per-mode exponential rate, so the
flow is diagonal and t enters only through exp(rate * t).  Its synthesize
method maps any such state back to a field; `at` is state_at followed by
synthesize, and the Duhamel recurrence in picard sums states before one
synthesis per slice.

A Crank-Nicolson finite-difference oracle provides an independent route to
the same solution for cross-checks.  It lays every lateral mode's
tridiagonal system side by side as one block-diagonal band with zero
couplings between blocks, symmetrises it by scaling the wall unknown, and
factors it once as LDL^T.  Since I + cL = 2I - (I - cL), each time step is
one symmetric tridiagonal solve over all modes and two in-place updates,
with no explicit half-step.  It shares no code with the transform route.

The type-1 DST and DCT and the LAPACK solves (dtbtrs for the bundle,
dpttrf/dpttrs for the oracle) come from robinslab._kernels, which binds them
from scipy's extension files without importing scipy.fft or scipy.linalg.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from ._kernels import dct, dpttrf, dpttrs, dst, dtbtrs
from .domain import (
    Discretization,
    ModelParams,
    SpectralField3,
    random_field3,
    sobolev_norm,
    wall_slope,
)

__all__ = [
    "exp_weighted_moment",
    "build_transform_bundle",
    "warn_if_incompatible",
    "RobinPropagator",
    "fd_robin_oracle",
    "boundary_residual",
    "growth_ratio",
    "growth_ratios",
    "calibrate_growth_constant",
]

COMPAT_WARN_RATIO = 0.05
COMPAT_WARNING = (
    "warning: initial field does not satisfy the Robin wall condition; "
    "propagation continues but wall accuracy degrades"
)


def _simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson over the last axis of uniformly spaced samples.

    An even sample count integrates all but the last interval by Simpson
    and adds Cartwright's last-interval correction alpha y[-1] + beta y[-2]
    - eta y[-3], whose weights are 5dx/12, 2dx/3 and dx/12; both the weights
    and the sums are evaluated in the order scipy.integrate.simpson uses,
    which this matches bit for bit for three or more samples.
    """
    n = y.shape[-1]
    stop = n - 2 if n % 2 else n - 3
    out = np.sum(
        y[..., 0:stop:2] + 4.0 * y[..., 1 : stop + 1 : 2] + y[..., 2 : stop + 2 : 2], axis=-1
    )
    out *= dx / 3.0
    if n % 2 == 0:
        h = np.float64(dx)
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = (1 * h**3) / (6 * h * (h + h))
        out += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return out


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
def _wall_kernel(gamma: float, disc: Discretization) -> tuple[np.ndarray, np.floating]:
    """(e^{-gamma z} on the z grid, read-only; its Simpson mass Int e^{-2 gamma z} dz).

    They depend on gamma and the grid only, so every moment, residue and
    propagator of a run shares one copy; the last few geometries are kept.
    """
    weight = np.exp(-gamma * disc.z)
    return _readonly(weight), _simpson(weight * weight, disc.dz)


def exp_weighted_moment(omega0: SpectralField3, gamma: float) -> np.ndarray:
    """Per-mode moment 2*gamma*Int w0(z) e^{-gamma z} dz, shape (k_max, k_max).

    Computed with composite Simpson and normalized by the measured mass of
    the kernel (2*gamma*Int e^{-2 gamma z} dz, which is 1 up to truncation),
    so the residue field's weighted moment vanishes identically on the grid.
    """
    if gamma <= 0:
        raise ValueError(f"moment requires gamma > 0, got {gamma}")
    disc = omega0.disc
    weight, mass = _wall_kernel(float(gamma), disc)
    return _simpson(omega0.coeffs * weight, disc.dz) / mass


def build_transform_bundle(omega0: SpectralField3, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Split a field into slab and wall-decay parts.

    Returns (slab, wall_moments): the auxiliary slab field on the z grid,
    which vanishes at z = 0 and evolves all-Dirichlet, shape
    (k_max, k_max, n_z), and the per-mode coefficients of e^{-gamma z},
    shape (k_max, k_max).

    The slab part solves  -(1/gamma) c' + c = residue  with c(0) = 0 by a
    backward exponential-kernel sweep:

        c(z_j) = e^{-gamma dz} c(z_{j+1})
                 + (gamma dz / 2) * (f(z_j) + e^{-gamma dz} f(z_{j+1}))

    which is stable and O(n_z).  It is one unit upper-bidiagonal system per
    lateral mode, solved for all modes in a single banded triangular solve.
    """
    disc = omega0.disc
    cross = exp_weighted_moment(omega0, gamma)
    residue = omega0.coeffs - cross[:, :, None] * _wall_kernel(float(gamma), disc)[0]

    decay = np.exp(-gamma * disc.dz)
    half = 0.5 * gamma * disc.dz
    rhs = np.zeros_like(residue)
    rhs[:, :, :-1] = half * (residue[:, :, :-1] + decay * residue[:, :, 1:])
    bands = np.ones((2, disc.n_z))  # the unit diagonal (row 1) is never read
    bands[0, 1:] = -decay
    slab, info = dtbtrs(bands, rhs.reshape(-1, disc.n_z).T, uplo="U", diag="U", overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"triangular solve failed: info={info}")
    return slab.T.reshape(residue.shape), cross


# --- z-sine helpers (interior points carry the all-Dirichlet evolution) ----


def _z_sine_analyze(vals: np.ndarray) -> np.ndarray:
    n = vals.shape[-1]
    return dst(vals[..., 1:-1], type=1, axis=-1) / (n - 1)


def _z_sine_synthesize(coeffs: np.ndarray) -> np.ndarray:
    vals = dst(coeffs, type=1, axis=-1) / 2.0
    shape = list(vals.shape)
    shape[-1] += 2
    out = np.zeros(shape)
    out[..., 1:-1] = vals
    return out


def _z_cosine_eval(coeffs: np.ndarray) -> np.ndarray:
    """Values of sum_m c_m cos(m pi z / l_z) on the full grid."""
    shape = list(coeffs.shape)
    shape[-1] += 2
    packed = np.zeros(shape)
    packed[..., 1:-1] = 0.5 * coeffs
    return dct(packed, type=1, axis=-1)


def warn_if_incompatible(omega0: SpectralField3, gamma: float) -> None:
    """Print one warning line on stderr when omega0 misses the wall
    condition w'(0) + gamma w(0) = 0.

    The wall residual is taken relative to the size of its two terms; above
    COMPAT_WARN_RATIO propagation still works, with degraded wall accuracy.
    """
    c = omega0.coeffs
    deriv = wall_slope(c, omega0.disc.dz)
    res = np.sqrt(np.sum((deriv + gamma * c[:, :, 0]) ** 2))
    scale = np.sqrt(np.sum((np.abs(deriv) + np.abs(gamma * c[:, :, 0])) ** 2))
    if scale > 0 and res / scale > COMPAT_WARN_RATIO:
        print(COMPAT_WARNING, file=sys.stderr)


@lru_cache(maxsize=8)
def _propagator_geometry(
    nu: float, gamma: float, a: float, disc: Discretization
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(zeta, wall profile, slab rates, wall rates), read-only.

    They depend on the geometry only, so every propagator of a run shares
    one copy; the last few geometries are kept.
    """
    m = np.arange(1, disc.n_z - 1, dtype=float)
    zeta = (np.pi * m / disc.l_z)[None, None, :]
    mu = disc.mode_rates(a)
    mu2 = (mu * mu)[:, :, None]
    return (
        _readonly(zeta),
        _wall_kernel(gamma, disc)[0],
        _readonly(-nu * (mu2 + zeta**2)),
        _readonly(nu * (gamma * gamma - mu2[:, :, 0])),
    )


class RobinPropagator:
    """Reusable propagator: one decomposition, evaluation at any t >= 0.

    Spectral state, read-only:

    slab_modes    z-sine coefficients of the slab part at t = 0,
                  shape (k_max, k_max, n_z - 2)
    wall_moments  weighted wall moments at t = 0, shape (k_max, k_max)
    slab_rates    per-mode rates -nu (mu^2 + zeta^2) of slab_modes
    wall_rates    per-mode rates nu (gamma^2 - mu^2) of wall_moments

    At time t the state is (slab_modes e^{slab_rates t}, wall_moments
    e^{wall_rates t}).  The rates depend only on params and disc, so states
    of propagators sharing both may be combined linearly before synthesize;
    such propagators share one copy of the rates and the wall profile.
    """

    def __init__(self, omega0: SpectralField3, params: ModelParams):
        if params.gamma <= 0:
            raise ValueError("Robin heat propagator requires gamma > 0")
        self.params = params
        self.disc = omega0.disc
        slab, wall_moments = build_transform_bundle(omega0, params.gamma)
        self.slab_modes = _readonly(_z_sine_analyze(slab))
        self.wall_moments = _readonly(wall_moments)
        self._zeta, self._wall_profile, self.slab_rates, self.wall_rates = (
            _propagator_geometry(
                float(params.nu), float(params.gamma), float(params.a), omega0.disc
            )
        )

    def state_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(slab modes, wall moments) at time t."""
        if t < 0:
            raise ValueError(f"propagation time must be nonnegative, got {t}")
        return (
            self.slab_modes * np.exp(self.slab_rates * t),
            self.wall_moments * np.exp(self.wall_rates * t),
        )

    def synthesize(self, slab_modes: np.ndarray, wall_moments: np.ndarray) -> SpectralField3:
        """Field of a spectral state: slab values, their z derivative and the wall profile."""
        slab_vals = _z_sine_synthesize(slab_modes)
        slab_dz = _z_cosine_eval(slab_modes * self._zeta)
        coeffs = (
            -slab_dz / self.params.gamma
            + slab_vals
            + wall_moments[:, :, None] * self._wall_profile
        )
        return SpectralField3(coeffs, self.disc)

    def at(self, t: float) -> SpectralField3:
        return self.synthesize(*self.state_at(t))


def fd_robin_oracle(
    omega0: SpectralField3,
    t: float,
    params: ModelParams,
    n_steps: int = 2000,
) -> SpectralField3:
    """Crank-Nicolson finite-difference reference solution.

    Independent of the transform route: theta=1/2 stepping of the second
    difference L with a ghost-point Robin closure at z=0 and a Dirichlet cap
    at l_z.  Every lateral mode's tridiagonal system is one block of a
    block-diagonal band in (k1, k2) row-major order; the last off-diagonal
    entry of each block is zero, so no block couples to the next and each
    mode gets the arithmetic of its own solve.

    The ghost row makes L nonsymmetric (2/h^2 above the wall, 1/h^2 below);
    the wall unknown is scaled by 1/sqrt(2) on entry and by sqrt(2) on exit,
    which turns both entries into sqrt(2)/h^2 and A = I - cL into a symmetric
    tridiagonal matrix, factored once as LDL^T.  As I + cL = 2I - A, each
    step is x = 2 A^{-1} w - w: one solve and two in-place updates over all
    modes.  Raises ValueError when A is not positive definite, i.e. when
    the growing wall mode outruns the step and the Crank-Nicolson
    amplification is infinite or at most -1.  Used only for cross-checks.
    """
    if not math.isfinite(t):
        raise ValueError(f"oracle time must be finite, got {t}")
    if t < 0:
        raise ValueError("oracle time must be nonnegative")
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    disc = omega0.disc
    if t == 0:
        return SpectralField3(omega0.coeffs.copy(), disc)
    nu, gamma = params.nu, params.gamma
    h = disc.dz
    c = 0.5 * nu * (t / n_steps)
    n_unknown = disc.n_z - 1
    mu2 = (disc.mode_rates(params.a) ** 2).reshape(-1, 1)
    sqrt2 = math.sqrt(2.0)

    # symmetrised L = second difference with the Robin ghost row, minus mu^2
    diag = np.repeat(-2.0 / h**2 - mu2, n_unknown, axis=1)
    diag[:, 0] = (-2.0 + 2.0 * h * gamma) / h**2 - mu2[:, 0]
    off = np.full_like(diag, 1.0 / h**2)
    off[:, 0] = sqrt2 / h**2
    off[:, -1] = 0.0

    d, e, info = dpttrf((1.0 - c * diag).ravel(), (-c * off).ravel()[:-1])
    if info > 0:
        raise ValueError(
            f"Crank-Nicolson step t/n_steps = {t / n_steps:g} is too long for the "
            "growing wall mode (I - cL is not positive definite); raise n_steps"
        )
    if info != 0:
        raise RuntimeError(f"tridiagonal factorization failed: info={info}")
    w = omega0.coeffs[:, :, :n_unknown].copy()
    w[:, :, 0] /= sqrt2
    w = w.ravel()
    for _ in range(n_steps):
        x, info = dpttrs(d, e, w)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed: info={info}")
        x *= 2.0
        x -= w
        w = x
    out = np.zeros_like(omega0.coeffs)
    out[:, :, :n_unknown] = w.reshape(disc.k_max, disc.k_max, n_unknown)
    out[:, :, 0] *= sqrt2
    return SpectralField3(out, disc)


def boundary_residual(omega: SpectralField3, gamma: float, a: float) -> float:
    """L2 wall norm of the one-sided Robin residual (w_z + gamma w)|_{z=0}."""
    c = omega.coeffs
    res = wall_slope(c, omega.disc.dz) + gamma * c[:, :, 0]
    return float(0.5 * a * np.sqrt(np.sum(res * res)))


def growth_ratio(norm_t: float, norm_0: float, t: float, params: ModelParams) -> float:
    """Normalized growth ||w(t)|| e^{-nu gamma^2 t} / ||w0|| from precomputed norms."""
    rate = params.nu * params.gamma**2
    return norm_t * math.exp(-rate * t) / norm_0


def growth_ratios(
    fields: Iterable[SpectralField3],
    times: Sequence[float],
    s: int,
    params: ModelParams,
) -> list[float]:
    """growth_ratio per field and time, read lazily; zero fields skipped.

    The flow at t = 0 is the identity, so it records exactly 1.0 there:
    RobinPropagator.at(0) reproduces w0 only up to representation error.
    """
    ratios = []
    for w0 in fields:
        base = sobolev_norm(w0, s, params.a)
        if base == 0.0:
            continue
        prop = RobinPropagator(w0, params)
        for t in times:
            if t == 0.0:
                ratios.append(1.0)
                continue
            ratios.append(growth_ratio(sobolev_norm(prop.at(t), s, params.a), base, t, params))
    return ratios


def calibrate_growth_constant(
    ensemble_size: int,
    s: int,
    t_grid,
    seed: int,
    params: ModelParams,
    disc: Discretization,
) -> float:
    """Max of growth_ratios over a seeded random ensemble and t_grid.

    Ensemble members satisfy the Robin wall condition (the data class the
    propagator is built for).  Including t = 0 in the grid pins the result
    at >= 1.
    """
    if ensemble_size < 1:
        raise ValueError("calibration ensemble must be nonempty")
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    rng = np.random.default_rng(seed)
    fields = (
        random_field3(disc, rng, kind="robin", gamma=params.gamma)
        for _ in range(ensemble_size)
    )
    ratios = growth_ratios(fields, t_grid, s, params)
    if not ratios:
        raise ValueError("calibration ensemble produced no usable fields")
    return float(np.max(ratios))
