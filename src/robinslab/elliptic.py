"""Per-mode inverse of the Robin-wall Poisson operator.

Expanding -Delta v = f in lateral sine modes leaves, for each mode (k1, k2),
a two-point boundary value problem on [0, l_z]:

    -v'' + mu^2 v = f,   mu = pi*|k|/a,
    v'(0) + beta*v(0) = 0,   v(l_z) = 0.

The wall condition is closed with a centered ghost point, and the far end is
a Dirichlet cap standing in for decay at infinity, so each mode is a
tridiagonal system.  elliptic_operator is the one place the inverse is
checked, built and factored, once per (beta, a, disc): it refuses a beta
that collides with a mode rate mu (where uniqueness fails), broadcasts every
mode's bands into one block-diagonal band (the couplings between blocks
zeroed), factors it once, and refuses it if the worst mode's condition
estimate, taken on that mode's slice of the shared factors, passes
CONDITION_CAP.  A solve is then the two triangular sweeps of those factors
over all modes, with nothing left to check.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import dgtcon, dgttrf, dgttrs
from .domain import SOBOLEV_S, Discretization, SpectralField3, d_z, random_field3, sobolev_norm
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
# worst-mode condition estimate above which an operator is refused
CONDITION_CAP = 1e12


def require_admissible(beta: float, disc: Discretization, a: float) -> None:
    """Raise ResonanceError naming every mode with rate pi*|k|/a within RESONANCE_TOL of beta."""
    gaps = np.abs(beta - disc.lateral.mu(a))
    offending = tuple(map(disc.lateral.mode, np.argwhere(gaps < RESONANCE_TOL).tolist()))
    if offending:
        raise ResonanceError(
            "Robin coefficient beta={:.12g} resonates with lateral mode(s) {} "
            "(gap below {:g})".format(beta, offending, RESONANCE_TOL),
            modes=offending,
        )


# no generated ==, hash or repr: the first two would fail on the arrays,
# and generating them costs every process set-up time
@dataclass(frozen=True, eq=False, repr=False)
class EllipticOperator:
    """The Robin-wall inverse for one (beta, a, disc), all modes at once.

    disc     discretization the factors were built for
    factors  dgttrf's (dl, d, du, du2, ipiv) of the block-diagonal system
             of length k_max**2 * (n_z - 1), modes in (k1, k2) row-major
             order, couplings between blocks zeroed
    """

    disc: Discretization
    factors: tuple[np.ndarray, ...]

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
        out[:, :, :n_unknown] = x.reshape(disc.lateral.shape(n_unknown))
        return f.replace_coeffs(out)


@lru_cache(maxsize=8)
def elliptic_operator(beta: float, a: float, disc: Discretization) -> EllipticOperator:
    """Check, build and factor the operator for one geometry; the last few
    are kept, since every solve of a run shares one.

    Raises ResonanceError for an inadmissible beta and SingularSystemError,
    naming the worst mode, when its 1-norm condition estimate exceeds
    CONDITION_CAP, so no operator exists for either.
    """
    require_admissible(beta, disc, a)
    n = disc.n_z - 1
    h2 = disc.dz * disc.dz
    mu2 = (disc.lateral.mu(a) ** 2).reshape(-1, 1)
    # every mode's band in ab form, rows (upper, diag, lower) per column; each
    # block leaves its unused corners ab[0, :, 0] and ab[2, :, -1] at zero,
    # so side by side they zero the couplings between neighbouring blocks
    ab = np.zeros((3, len(mu2), n))
    ab[0, :, 1:] = -1.0 / h2
    ab[0, :, 1] = -2.0 / h2
    ab[1] = 2.0 / h2 + mu2
    ab[1, :, 0] = 2.0 / h2 - 2.0 * beta / disc.dz + mu2[:, 0]  # ghost-point Robin row
    ab[2, :, :-1] = -1.0 / h2
    # column sums of |A| per block
    norm_a = np.max(np.abs(ab[0]) + np.abs(ab[1]) + np.abs(ab[2]), axis=1)
    bands = ab.reshape(3, -1)
    # no coupling means no pivot crosses a block: each block is factored as
    # alone, and a zero pivot (info > 0) leaves its block's rcond at 0 below
    *factors, _ = dgttrf(bands[2, :-1], bands[1], bands[0, 1:])
    dl, d, du, du2, ipiv = factors
    worst = (0.0, disc.lateral.mode((0, 0)))
    for b, index in enumerate(np.ndindex(disc.lateral.shape())):
        if index[1] > index[0]:
            continue  # mu depends on |k| only; mirror symmetric
        o = b * n
        rcond, _ = dgtcon(
            dl[o : o + n - 1], d[o : o + n], du[o : o + n - 1], du2[o : o + n - 2],
            ipiv[o : o + n] - o, norm_a[b], norm="1",
        )
        cond = 1.0 / rcond if rcond > 0.0 else math.inf
        if cond > worst[0]:
            worst = (cond, disc.lateral.mode(index))
    if worst[0] > CONDITION_CAP:
        raise SingularSystemError(
            f"mode {worst[1]} system condition estimate {worst[0]:.3e} "
            f"exceeds cap {CONDITION_CAP:.3e}"
        )
    for arr in factors:
        arr.flags.writeable = False
    return EllipticOperator(disc=disc, factors=tuple(factors))


def solve_elliptic(f: SpectralField3, beta: float, a: float) -> SpectralField3:
    """Invert -Delta with the Robin wall condition, all modes in one factored solve."""
    return elliptic_operator(float(beta), float(a), f.disc).solve(f)


def interior_residual(v: SpectralField3, f: SpectralField3, a: float) -> float:
    """Max interior residual of -v'' + mu^2 v - f, relative to max|f|."""
    mu2 = v.disc.lateral.mu(a)[:, :, None] ** 2
    vc, fc = v.coeffs, f.coeffs
    lap = d_z(v, 2).coeffs[:, :, 1:-1]
    res = -lap + mu2 * vc[:, :, 1:-1] - fc[:, :, 1:-1]
    scale = np.max(np.abs(fc))
    if scale == 0.0:
        return float(np.max(np.abs(res)))
    return float(np.max(np.abs(res)) / scale)


def elliptic_ratios(fields: Iterable[SpectralField3], a: float, beta: float) -> list[float]:
    """||solve(f)||_{H^s} / ||f||_{H^{s-2}} per field, s = SOBOLEV_S, read
    lazily; zero fields are skipped."""
    ratios = []
    for f in fields:
        denom = sobolev_norm(f, SOBOLEV_S - 2, a)
        if denom == 0.0:
            continue
        v = solve_elliptic(f, beta, a)
        ratios.append(sobolev_norm(v, SOBOLEV_S, a) / denom)
    return ratios


def calibrate_elliptic_constant(seed: int, disc: Discretization, a: float, beta: float) -> float:
    """Max of elliptic_ratios over an ensemble of 50 seeded random smooth fields."""
    rng = np.random.default_rng(seed)
    fields = (random_field3(disc, rng, kind="generic") for _ in range(50))
    ratios = elliptic_ratios(fields, a, beta)
    if not ratios:
        raise ValueError("calibration ensemble produced no usable fields")
    return float(np.max(ratios))
