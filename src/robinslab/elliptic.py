"""Per-mode inverse of the Robin-wall Poisson operator.

Expanding -Delta v = f in lateral sine modes leaves, for each mode (k1, k2),
a two-point boundary value problem on [0, l_z]:

    -v'' + mu^2 v = f,   mu = pi*|k|/a,
    v'(0) + beta*v(0) = 0,   v(l_z) = 0.

The wall condition is closed with a centered ghost point, and the far end is
a Dirichlet cap standing in for decay at infinity, so each mode is a
tridiagonal system.  An EllipticOperator, built once per (beta, a, disc),
concatenates every mode's bands into one block-diagonal band (the couplings
between blocks zeroed), factors it once and holds the worst-mode condition
estimate; a solve is then the two triangular sweeps of those factors over
all modes.  Uniqueness fails exactly when beta collides with one of the
mode rates mu, so admissibility is checked first.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import dgtcon, dgttrf, dgttrs
from .domain import Discretization, SpectralField3, d_z, random_field3, sobolev_norm
from .errors import ResonanceError, SingularSystemError

__all__ = [
    "RESONANCE_TOL",
    "require_admissible",
    "EllipticOperator",
    "elliptic_operator",
    "solve_elliptic",
    "interior_residual",
    "elliptic_ratios",
    "calibrate_elliptic_constant",
]

# smallest gap between beta and a resolved mode rate that a solve accepts
RESONANCE_TOL = 1e-8
# worst-mode condition estimate above which a solve is refused
CONDITION_CAP = 1e12


def require_admissible(beta: float, disc: Discretization, a: float) -> None:
    """Raise ResonanceError naming every mode with rate pi*|k|/a within RESONANCE_TOL of beta."""
    gaps = np.abs(beta - disc.mode_rates(a))
    offending = tuple((int(k1) + 1, int(k2) + 1) for k1, k2 in np.argwhere(gaps < RESONANCE_TOL))
    if offending:
        raise ResonanceError(
            "Robin coefficient beta={:.12g} resonates with lateral mode(s) {} "
            "(gap below {:g})".format(beta, offending, RESONANCE_TOL),
            modes=offending,
        )


def _mode_bands(mu2: float, beta: float, dz: float, n_unknown: int) -> np.ndarray:
    """Banded matrix (ab form) of one mode's two-point problem."""
    h2 = dz * dz
    ab = np.zeros((3, n_unknown))
    ab[1, :] = 2.0 / h2 + mu2
    ab[1, 0] = 2.0 / h2 - 2.0 * beta / dz + mu2  # ghost-point Robin row
    ab[0, 1:] = -1.0 / h2
    ab[0, 1] = -2.0 / h2
    ab[2, :-1] = -1.0 / h2
    return ab


def _condition_estimate(ab: np.ndarray) -> float:
    """1-norm condition estimate of one mode's banded matrix; inf if singular."""
    # column sums of |A|: ab rows hold (upper, diag, lower) per column
    norm_a = np.max(np.abs(ab[0]) + np.abs(ab[1]) + np.abs(ab[2]))
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:  # an exactly zero pivot
        return math.inf
    rcond, _ = dgtcon(dl, d, du, du2, ipiv, norm_a, norm="1")
    return 1.0 / rcond if rcond > 0.0 else math.inf


@dataclass(frozen=True)
class EllipticOperator:
    """The Robin-wall inverse for one (beta, a, disc), all modes at once.

    disc            discretization the factors were built for
    factors         dgttrf's (dl, d, du, du2, ipiv) of the block-diagonal
                    system of length k_max**2 * (n_z - 1), modes in (k1, k2)
                    row-major order, couplings between blocks zeroed
    condition       1-norm condition estimate of the worst mode
    condition_mode  the (k1, k2) mode attaining it
    """

    disc: Discretization
    factors: tuple[np.ndarray, ...]
    condition: float
    condition_mode: tuple[int, int]

    def solve(self, f: SpectralField3) -> SpectralField3:
        disc = self.disc
        if f.disc != disc:
            raise ValueError("source field lives on a different discretization")
        n_unknown = disc.n_z - 1
        rhs = f.coeffs[:, :, :n_unknown].reshape(-1)
        # dgttrs checks nothing, and a NaN or inf would spread through its mode
        if not np.all(np.isfinite(rhs)):
            raise ValueError("elliptic source contains infs or NaNs")
        x, info = dgttrs(*self.factors, rhs)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed: info={info}")
        out = np.zeros_like(f.coeffs)
        out[:, :, :n_unknown] = x.reshape(disc.k_max, disc.k_max, n_unknown)
        return f.replace_coeffs(out)


@lru_cache(maxsize=8)
def elliptic_operator(beta: float, a: float, disc: Discretization) -> EllipticOperator:
    """Operator for one geometry; the last few are kept, since every solve of a run shares one."""
    n_unknown = disc.n_z - 1
    rates = disc.mode_rates(a)
    # each block leaves its unused corners ab[0, 0] and ab[2, -1] at zero, so
    # side by side they zero the couplings between neighbouring blocks
    blocks = [
        _mode_bands(rates[k1, k2] ** 2, beta, disc.dz, n_unknown)
        for k1 in range(disc.k_max)
        for k2 in range(disc.k_max)
    ]
    worst = (0.0, (1, 1))
    for k1 in range(disc.k_max):
        for k2 in range(k1 + 1):  # mu depends on |k| only; mirror symmetric
            cond = _condition_estimate(blocks[k1 * disc.k_max + k2])
            if cond > worst[0]:
                worst = (cond, (k1 + 1, k2 + 1))
    bands = np.concatenate(blocks, axis=1)
    # no coupling means no pivot crosses a block: each block is factored as alone
    *factors, info = dgttrf(bands[2, :-1], bands[1], bands[0, 1:])
    for arr in factors:
        arr.flags.writeable = False
    # a zero pivot (info > 0) makes some mode's condition infinite, and
    # solve_elliptic refuses that operator before it solves
    return EllipticOperator(
        disc=disc, factors=tuple(factors), condition=worst[0], condition_mode=worst[1]
    )


def solve_elliptic(f: SpectralField3, beta: float, a: float) -> SpectralField3:
    """Invert -Delta with the Robin wall condition, all modes in one factored solve."""
    require_admissible(beta, f.disc, a)
    op = elliptic_operator(float(beta), float(a), f.disc)
    if op.condition > CONDITION_CAP:
        raise SingularSystemError(
            f"mode {op.condition_mode} system condition estimate {op.condition:.3e} "
            f"exceeds cap {CONDITION_CAP:.3e}"
        )
    return op.solve(f)


def interior_residual(
    v: SpectralField3, f: SpectralField3, beta: float, a: float
) -> float:
    """Max interior residual of -v'' + mu^2 v - f, relative to max|f|."""
    mu2 = v.disc.mode_rates(a)[:, :, None] ** 2
    vc, fc = v.coeffs, f.coeffs
    lap = d_z(v, 2).coeffs[:, :, 1:-1]
    res = -lap + mu2 * vc[:, :, 1:-1] - fc[:, :, 1:-1]
    scale = np.max(np.abs(fc))
    if scale == 0.0:
        return float(np.max(np.abs(res)))
    return float(np.max(np.abs(res)) / scale)


def elliptic_ratios(
    fields: Iterable[SpectralField3], s: int, a: float, beta: float
) -> list[float]:
    """||solve(f)||_{H^s} / ||f||_{H^{s-2}} per field, read lazily; zero fields are skipped."""
    if s < 2:
        raise ValueError("calibration needs s >= 2 (ratio uses H^{s-2})")
    ratios = []
    for f in fields:
        denom = sobolev_norm(f, s - 2, a)
        if denom == 0.0:
            continue
        v = solve_elliptic(f, beta, a)
        ratios.append(sobolev_norm(v, s, a) / denom)
    return ratios


def calibrate_elliptic_constant(
    ensemble_size: int,
    s: int,
    seed: int,
    disc: Discretization,
    a: float,
    beta: float,
) -> float:
    """Max of elliptic_ratios over an ensemble of seeded random smooth fields."""
    if ensemble_size < 1:
        raise ValueError("calibration ensemble must be nonempty")
    rng = np.random.default_rng(seed)
    fields = (random_field3(disc, rng, kind="generic") for _ in range(ensemble_size))
    ratios = elliptic_ratios(fields, s, a, beta)
    if not ratios:
        raise ValueError("calibration ensemble produced no usable fields")
    return float(np.max(ratios))
