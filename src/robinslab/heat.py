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
lateral modes at once.  What gamma and the grid fix has one cached owner,
_geometry, which is also the transform route's one refusal of a gamma that
is not finite and positive.

The flow is diagonal, P_t = S diag(exp(rates t)) A per lateral mode, in a
public spectral state: one array of shape (k_max, k_max, n_z - 1) holding
the z-sine coefficients of the slab part, then the wall moment.  robin_state
is the analysis A, and RobinPropagator holds the state of its field with one
read-only rates table of the same shape.  Its synthesize method is S: it
maps any state back to a field, taking eta and -(1/gamma) eta_z together
from one backward real FFT.  `at` is state_at followed by synthesize.

Neither A nor S depends on the lateral mode.  Their array-level cores,
robin_analysis and robin_synthesis, take z profiles and states of any
leading shape, so run on identity rows they tabulate each as one matrix.
The Picard solve, which applies both to every time slice of every sweep,
tabulates them once per problem on grids of at most a few hundred z points
and sums states before one synthesis per slice.  Every other caller, and
a Picard solve on a larger grid, keeps the transforms, which there cost
less per application than a dense product and hold no n_z^2 table.

A Crank-Nicolson finite-difference oracle provides an independent route to
the same solution for cross-checks.  It lays every lateral mode's
tridiagonal system side by side as one block-diagonal band with zero
couplings between blocks, symmetrises it by scaling the wall unknown, and
factors it once as LDL^T, every mode whether or not it carries data, so
whether a step is refused does not depend on the data.  Since
I + cL = 2I - (I - cL), each time step is one symmetric tridiagonal solve
and two in-place updates, with no explicit half-step.  Every step applies
the same symmetric operator, so the whole march is also one function of
the second difference: from one eigendecomposition of it, n_steps steps
are two products with its eigenvectors and a power per entry.
oracle_route picks the march or that eigen route from the grid and the
step count, never from the data, and either evaluates only the modes
whose data are not all zero; a mode without data stays exactly 0.  It
shares no code with the transform route: of the lateral basis it reads
the plain mu table alone, and it checks gamma itself.

The growth calibration samples ||P_t w0|| over a random ensemble and a few
times.  growth_ratios takes the decay factors e^{rates t} once per call and
synthesizes each field's states at all its nonzero times in one
robin_synthesis call, which gives bit for bit what RobinPropagator.at
gives one time at a time.

The type-1 DST, the backward real FFT and the LAPACK routines (dtbtrs for
the bundle, dpttrf/dpttrs and dstevd for the oracle) come from
robinslab._kernels, which binds them from scipy's extension files without
importing scipy, scipy.fft or scipy.linalg.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from ._kernels import c2r, dpttrf, dpttrs, dst, dstevd, dtbtrs
from .domain import (
    SOBOLEV_S,
    Discretization,
    ModelParams,
    SpectralField3,
    _readonly,
    random_field3,
    sobolev_norm,
    wall_slope,
)

__all__ = [
    "robin_analysis",
    "robin_state",
    "robin_synthesis",
    "warn_if_incompatible",
    "RobinPropagator",
    "ORACLE_EIGEN_RATIO",
    "oracle_route",
    "fd_robin_oracle",
    "boundary_residual",
    "growth_ratio",
    "growth_ratios",
    "CALIBRATION_TIMES",
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


def _zeta(disc: Discretization) -> np.ndarray:
    """z wavenumbers m pi / l_z of the slab modes m = 1 .. n_z - 2."""
    return np.pi * np.arange(1, disc.n_z - 1, dtype=float) / disc.l_z


# the fields of _geometry, in its docstring's order
_Geometry = namedtuple("_Geometry", "wall mass decay half bands factors")


@lru_cache(maxsize=8)
def _geometry(gamma: float, disc: Discretization) -> _Geometry:
    """The one check of gamma, then what it and the grid fix, read-only:
    the wall profile e^{-gamma z} and its Simpson mass Int e^{-2 gamma z} dz,
    the slab sweep's e^{-gamma dz}, gamma dz / 2 and unit upper-bidiagonal
    band (row 1 is never read), and the synthesis factors
    -(zeta / gamma + i) / 2.  Every moment, bundle, synthesis and
    propagator on one geometry shares them; the last few are kept.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"the Robin heat flow requires a finite gamma > 0, got {gamma}")
    wall = _readonly(np.exp(-gamma * disc.z))
    decay = np.exp(-gamma * disc.dz)
    bands = np.ones((2, disc.n_z))
    bands[0, 1:] = -decay
    factors = _readonly(-0.5 * (_zeta(disc) / gamma + 1j))
    half = 0.5 * gamma * disc.dz
    return _Geometry(wall, _simpson(wall * wall, disc.dz), decay, half, _readonly(bands), factors)


def _moments(values: np.ndarray, gamma: float, disc: Discretization) -> np.ndarray:
    """Moment 2*gamma*Int w0(z) e^{-gamma z} dz of each z profile w0 of
    values, any leading shape: (..., n_z) maps to (...).

    Computed with composite Simpson and normalized by the measured mass of
    the kernel (2*gamma*Int e^{-2 gamma z} dz, which is 1 up to truncation),
    so the residue field's weighted moment vanishes identically on the grid.
    """
    geo = _geometry(float(gamma), disc)
    return _simpson(values * geo.wall, disc.dz) / geo.mass


def _bundle(
    values: np.ndarray, gamma: float, disc: Discretization
) -> tuple[np.ndarray, np.ndarray]:
    """Split the z profiles of values, any leading shape, into slab and
    wall-decay parts.

    Returns (slab, moments): the auxiliary slab profiles on the z grid,
    which vanish at z = 0 and evolve all-Dirichlet, shape (..., n_z), and
    the _moments coefficients of e^{-gamma z}, shape (...).

    The slab part solves  -(1/gamma) c' + c = residue  with c(0) = 0 by a
    backward exponential-kernel sweep:

        c(z_j) = e^{-gamma dz} c(z_{j+1})
                 + (gamma dz / 2) * (f(z_j) + e^{-gamma dz} f(z_{j+1}))

    which is stable and O(n_z).  It is one unit upper-bidiagonal system per
    profile, solved for all profiles in a single banded triangular solve.
    """
    geo = _geometry(float(gamma), disc)
    cross = _moments(values, gamma, disc)
    residue = values - cross[..., None] * geo.wall
    rhs = np.zeros_like(residue)
    rhs[..., :-1] = geo.half * (residue[..., :-1] + geo.decay * residue[..., 1:])
    slab, info = dtbtrs(geo.bands, rhs.reshape(-1, disc.n_z).T, uplo="U", diag="U", overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"triangular solve failed: info={info}")
    return slab.T.reshape(residue.shape), cross


def robin_analysis(values: np.ndarray, gamma: float, disc: Discretization) -> np.ndarray:
    """Spectral states of the z profiles along the last axis of values.

    Any leading shape: (..., n_z) maps to (..., n_z - 1), each profile as
    robin_state maps it.  The analysis is linear and the same for every
    profile, so its states of the profiles D e_j, for a linear map D on
    profiles, are the rows of one table T with state(D p) = p @ T.
    """
    slab, cross = _bundle(values, gamma, disc)
    state = np.empty(cross.shape + (disc.n_z - 1,))
    np.divide(dst(slab[..., 1:-1], type=1, axis=-1), disc.n_z - 1, out=state[..., :-1])
    state[..., -1] = cross
    return state


def robin_state(omega0: SpectralField3, gamma: float) -> np.ndarray:
    """Spectral state of a field at t = 0, read-only, shape (k_max, k_max, n_z - 1).

    Entries [..., :-1] are the z-sine coefficients of the slab part of
    _bundle, and [..., -1] is its wall moment.
    """
    return _readonly(robin_analysis(omega0.coeffs, gamma, omega0.disc))


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
def _propagator_rates(nu: float, gamma: float, a: float, disc: Discretization) -> np.ndarray:
    """Rates laid out as a spectral state, read-only: -nu (mu^2 + zeta^2)
    for the slab modes, then nu (gamma^2 - mu^2) for the wall moment.

    They depend on the geometry only, so every propagator of a run shares
    one copy; the last few geometries are kept.
    """
    zeta = _zeta(disc)[None, None, :]
    mu = disc.lateral.mu(a)
    mu2 = (mu * mu)[:, :, None]
    rates = np.empty(disc.lateral.shape(disc.n_z - 1))
    rates[..., :-1] = -nu * (mu2 + zeta**2)
    rates[..., -1] = nu * (gamma * gamma - mu2[:, :, 0])
    return _readonly(rates)


def _check_time(t: float) -> None:
    """Refuse a propagation time that is not finite or is negative."""
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")


def robin_synthesis(state: np.ndarray, gamma: float, disc: Discretization) -> np.ndarray:
    """z profiles of spectral states: eta - eta_z / gamma plus the wall profile.

    Any leading shape: (..., n_z - 1) maps to (..., n_z).  At z_j the slab
    part sum_m c_m (sin(theta_m j) - (zeta_m / gamma) cos(theta_m j)),
    theta_m = m pi / (n_z - 1), is Re sum_m c_m (-zeta_m / gamma - i)
    e^{i theta_m j}: one unnormalised backward real FFT of length
    2 (n_z - 1) of c_m times the synthesis factor, zero at m = 0 and
    n_z - 1.  On the identity it tabulates S, with synthesis(state) =
    state @ S.
    """
    geo = _geometry(float(gamma), disc)
    n_z = disc.n_z
    spectrum = np.zeros(state.shape[:-1] + (n_z,), dtype=complex)
    np.multiply(state[..., :-1], geo.factors, out=spectrum[..., 1:-1])
    values = state[..., -1:] * geo.wall
    values += c2r(spectrum, 2 * (n_z - 1))[..., :n_z]
    return values


class RobinPropagator:
    """Reusable propagator: one decomposition, evaluation at any t >= 0.

    state  robin_state of the field at t = 0: z-sine slab coefficients,
           then the wall moment, shape (k_max, k_max, n_z - 1), read-only
    rates  per-entry rates of state, same shape, read-only:
           -nu (mu^2 + zeta^2) for the slab modes, nu (gamma^2 - mu^2)
           for the wall moment

    At time t the state is state e^{rates t}.  The rates depend only on
    params and disc, so the states of fields on one disc may be combined
    linearly before synthesize; propagators sharing params and disc share
    one copy of the rates and the wall profile.
    """

    def __init__(self, omega0: SpectralField3, params: ModelParams):
        self.params = params
        self.disc = omega0.disc
        self.state = robin_state(omega0, params.gamma)
        self.rates = _propagator_rates(
            float(params.nu), float(params.gamma), float(params.a), omega0.disc
        )

    def state_at(self, t: float) -> np.ndarray:
        """Spectral state at time t."""
        _check_time(t)
        return self.state * np.exp(self.rates * t)

    def synthesize(self, state: np.ndarray) -> SpectralField3:
        """Field of a spectral state (robin_synthesis)."""
        return SpectralField3(robin_synthesis(state, self.params.gamma, self.disc), self.disc)

    def at(self, t: float) -> SpectralField3:
        return self.synthesize(self.state_at(t))


# The oracle's two evaluations of the same n_steps Crank-Nicolson steps,
# chosen by k_max^2 n_steps > ORACLE_EIGEN_RATIO (n_z - 1).  Measured with
# one BLAS thread on a 2-core Xeon, on data in every mode: a march step
# costs 8.5-12 ns per unknown, so about 9 k_max^2 (n_z - 1) n_steps ns in
# all, and the eigen route about 50-68 ns (n_z - 1)^2 for its dstevd and
# little more for its products with Q.  The routes cost the same at
# k_max^2 n_steps / (n_z - 1) = 4.4-10.2 over k_max 2-8 and n_z 129-1024.
# The march's cost scales with the modes that carry data, which the rule
# does not count, so it asks for more than that: heat_eigenmode.json's
# eigenmode, one mode of four at (2, 1024, 2000 steps), ratio 7.8, marches
# in 22 ms where the eigen route takes 73.  convergence's levels, ratio 31,
# take 3.4 and 16 ms on the eigen route against 18 and 73 marching, and
# dense heat on picard_smooth.json, ratio 502, 3.9 ms against 260.  16
# sits between 7.8 and 31.  Q holds (n_z - 1)^2 doubles and dstevd's
# workspace as many again: 17 MB at n_z 1024.
ORACLE_EIGEN_RATIO = 16


def oracle_route(disc: Discretization, n_steps: int) -> str:
    """The evaluation fd_robin_oracle makes of n_steps steps on disc:
    "eigen" when k_max^2 n_steps > ORACLE_EIGEN_RATIO (n_z - 1), else
    "march".  It depends on the grid and the step count, never on the data.
    """
    if disc.k_max**2 * n_steps > ORACLE_EIGEN_RATIO * (disc.n_z - 1):
        return "eigen"
    return "march"


def _march(d: np.ndarray, e: np.ndarray, w: np.ndarray, n_steps: int) -> np.ndarray:
    """n_steps steps x = 2 A^{-1} w - w of the rows of w, A = LDL^T given
    by dpttrf's (d, e) over the rows laid end to end."""
    shape = w.shape
    w = w.ravel()
    for _ in range(n_steps):
        x, info = dpttrs(d, e, w)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed: info={info}")
        x *= 2.0
        x -= w
        w = x
    return w.reshape(shape)


def _eigen_power(
    lap: np.ndarray, lap_off: np.ndarray, c: float, mu2: np.ndarray, w: np.ndarray, n_steps: int
) -> np.ndarray:
    """_march's result by one eigendecomposition.

    lap and lap_off are the diagonal and off-diagonal of the symmetrised
    second difference L, and mu2 holds each row's mu^2 as a column.  With
    L = Q diag(lam) Q^T from dstevd, a row's step 2 A^{-1} - I is
    Q diag(g) Q^T, g = (1 - c mu^2 + c lam) / (1 + c mu^2 - c lam), so the
    n_steps steps are two products with Q and a power per entry.
    """
    lam, q, info = dstevd(lap, lap_off)
    if info != 0:
        raise RuntimeError(f"tridiagonal eigensolver failed: info={info}")
    r = c * (lam - mu2)
    return ((w @ q) * ((1.0 + r) / (1.0 - r)) ** n_steps) @ q.T


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
    entry of each block is zero, so no block couples to the next.

    The ghost row makes L nonsymmetric (2/h^2 above the wall, 1/h^2 below);
    the wall unknown is scaled by 1/sqrt(2) on entry and by sqrt(2) on exit,
    which turns both entries into sqrt(2)/h^2 and A = I - c(L - mu^2) into
    a symmetric tridiagonal matrix.  The whole band is factored once as
    LDL^T, every mode whether or not it carries data.  Raises ValueError,
    before any factoring, for a gamma that is not finite and positive, and
    when A is not positive definite in any mode, i.e. when the growing wall
    mode outruns the step and the Crank-Nicolson amplification is infinite
    or at most -1, so whether a step is refused does not depend on the data.

    Only the modes whose n_z - 1 unknowns are not all zero are evaluated;
    the others stay exactly 0.  As I + cL = 2I - A, each step is
    x = 2 A^{-1} w - w, and oracle_route picks, from the grid and n_steps,
    one of two evaluations of the n_steps steps:

      march  one dpttrs solve with the mode's slice of the factors and two
             in-place updates per step, each mode with the arithmetic of
             its own solve;
      eigen  one dstevd of L, shared by every mode, then two products with
             its eigenvectors and a power per entry: the same discrete
             solution up to roundoff.

    Used only for cross-checks.
    """
    if not math.isfinite(t):
        raise ValueError(f"oracle time must be finite, got {t}")
    if t < 0:
        raise ValueError("oracle time must be nonnegative")
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    # the oracle's own gamma check: it shares nothing with _geometry
    if not (math.isfinite(params.gamma) and params.gamma > 0):
        raise ValueError(
            f"the Crank-Nicolson oracle requires a finite gamma > 0, got {params.gamma}"
        )
    disc = omega0.disc
    if t == 0:
        return SpectralField3(omega0.coeffs.copy(), disc)
    nu, gamma = params.nu, params.gamma
    h = disc.dz
    c = 0.5 * nu * (t / n_steps)
    n_unknown = disc.n_z - 1
    mu2 = (disc.lateral.mu(params.a) ** 2).reshape(-1, 1)
    sqrt2 = math.sqrt(2.0)

    # one block of the symmetrised L: the second difference with the Robin
    # ghost row, then the block's zero coupling to the next
    lap = np.full(n_unknown, -2.0 / h**2)
    lap[0] = (-2.0 + 2.0 * h * gamma) / h**2
    lap_off = np.full(n_unknown, 1.0 / h**2)
    lap_off[0] = sqrt2 / h**2
    lap_off[-1] = 0.0

    d, e, info = dpttrf((1.0 - c * (lap - mu2)).ravel(), np.tile(-c * lap_off, len(mu2))[:-1])
    if info > 0:
        raise ValueError(
            f"Crank-Nicolson step t/n_steps = {t / n_steps:g} is too long for the "
            "growing wall mode (I - cL is not positive definite); raise n_steps"
        )
    if info != 0:
        raise RuntimeError(f"tridiagonal factorization failed: info={info}")
    out = np.zeros_like(omega0.coeffs)
    rows = out.reshape(-1, disc.n_z)  # one row per lateral mode, a view of out
    data = omega0.coeffs.reshape(rows.shape)[:, :n_unknown]
    live = np.flatnonzero(np.any(data != 0.0, axis=1))
    if live.size == 0:
        return SpectralField3(out, disc)
    w = data[live]
    w[:, 0] /= sqrt2
    if oracle_route(disc, n_steps) == "eigen":
        w = _eigen_power(lap, lap_off[:-1], c, mu2[live], w, n_steps)
    else:
        # the live blocks' factors; each block's row of e ends in its zero coupling
        d = d.reshape(-1, n_unknown)[live].ravel()
        e = np.append(e, 0.0).reshape(-1, n_unknown)[live].ravel()[:-1]
        w = _march(d, e, w, n_steps)
    w[:, 0] *= sqrt2
    rows[live, :n_unknown] = w
    return SpectralField3(out, disc)


def boundary_residual(omega: SpectralField3, gamma: float, a: float) -> float:
    """L2 wall norm of the one-sided Robin residual (w_z + gamma w)|_{z=0}."""
    c = omega.coeffs
    res = wall_slope(c, omega.disc.dz) + gamma * c[:, :, 0]
    return float(omega.disc.lateral.l2_weight(a) * np.sqrt(np.sum(res * res)))


def growth_ratio(norm_t: float, norm_0: float, t: float, params: ModelParams) -> float:
    """Normalized growth ||w(t)|| e^{-nu gamma^2 t} / ||w0|| from precomputed norms."""
    rate = params.nu * params.gamma**2
    return norm_t * math.exp(-rate * t) / norm_0


def growth_ratios(
    fields: Iterable[SpectralField3], times: Sequence[float], params: ModelParams
) -> list[float]:
    """growth_ratio per field and time, in H^s with s = SOBOLEV_S, read
    lazily; zero fields skipped.

    The flow at t = 0 is the identity, so it records exactly 1.0 there:
    RobinPropagator.at(0) reproduces w0 only up to representation error.
    The decay factors e^{rates t} of the nonzero times are taken once per
    rates table, which the propagators of one geometry share.  Each field's
    states at all those times are stacked and synthesized in one
    robin_synthesis call, then normed one time at a time; every ratio is
    bit for bit what RobinPropagator.at gives, and a time state_at would
    refuse raises the same ValueError.
    """
    later = [t for t in times if t != 0.0]
    ratios = []
    rates = decays = None
    for w0 in fields:
        base = sobolev_norm(w0, SOBOLEV_S, params.a)
        if base == 0.0:
            continue
        prop = RobinPropagator(w0, params)
        if prop.rates is not rates:
            for t in later:
                _check_time(t)
            rates = prop.rates
            decays = np.exp(rates * np.array(later, dtype=float)[:, None, None, None])
        grown = robin_synthesis(prop.state * decays, params.gamma, prop.disc)
        norms = (sobolev_norm(SpectralField3(g, prop.disc), SOBOLEV_S, params.a) for g in grown)
        for t in times:
            ratios.append(1.0 if t == 0.0 else growth_ratio(next(norms), base, t, params))
    return ratios


# t samples shared by the growth-constant calibration and its held-out check
CALIBRATION_TIMES = (0.1, 0.5, 1.0)


def calibrate_growth_constant(
    ensemble_size: int, seed: int, params: ModelParams, disc: Discretization
) -> float:
    """Max of growth_ratios over a seeded random ensemble at t = 0 and
    CALIBRATION_TIMES.

    Ensemble members satisfy the Robin wall condition (the data class the
    propagator is built for).  Including t = 0 pins the result at >= 1.
    """
    if ensemble_size < 1:
        raise ValueError("calibration ensemble must be nonempty")
    rng = np.random.default_rng(seed)
    fields = (
        random_field3(disc, rng, kind="robin", gamma=params.gamma)
        for _ in range(ensemble_size)
    )
    ratios = growth_ratios(fields, (0.0,) + CALIBRATION_TIMES, params)
    if not ratios:
        raise ValueError("calibration ensemble produced no usable fields")
    return float(np.max(ratios))
