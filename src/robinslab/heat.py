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

The flow is diagonal, P_t = S diag(exp(rates t)) A per lateral mode, in a
public spectral state: one array of shape (k_max, k_max, n_z - 1) holding
the z-sine coefficients of the slab part, then the wall moment.  One
RobinFlow per (nu, gamma, a, grid), built and kept by robin_flow, owns the
whole route: its construction is the route's one refusal of a gamma that
is not finite and positive, and its analyse (A), synthesize (S) and decays
(exp(rates t), and the one refusal of a bad time) are the route's only
arithmetic.  synthesize takes eta and -(1/gamma) eta_z together from one
backward real FFT.  RobinPropagator is a flow and the read-only state of
one field; `at` is state_at followed by synthesize.

Neither A nor S depends on the lateral mode: both take z profiles and
states of any leading shape, so run on identity rows they tabulate each
as one matrix.  On grids of at most TABLE_MAX_N_Z points the flow keeps
S so tabulated, as its read-only synthesis_table, made on first use.  The
Picard solve, which applies both operators to every time slice of every
sweep, takes that table and its own forcing table once per problem and
sums states before one synthesis per slice; the growth sampler takes it
and an analysis table per call.  A single propagator, and every caller on
a larger grid, keeps the transforms, which there cost less per
application than a dense product and hold no n_z^2 table.

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
times.  growth_ratios takes the decay factors once per flow and
synthesizes each field's states at all its nonzero times at once: on a
grid that tabulates, by one product with the analysis table and one with
the synthesis table per field, which agree with RobinPropagator.at to
roundoff; elsewhere by one synthesize call, bit for bit what .at gives.

The type-1 DST, the backward real FFT and the LAPACK routines (dtbtrs for
the slab sweep, dpttrf/dpttrs and dstevd for the oracle) come from
robinslab._kernels, which binds them from scipy's extension files without
importing scipy, scipy.fft or scipy.linalg.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache

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
    "RobinFlow",
    "robin_flow",
    "TABLE_MAX_N_Z",
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


class RobinFlow:
    """The flow P_t = S diag(e^{rates t}) A of one (nu, gamma, a, disc),
    every lateral mode at once; robin_flow builds and keeps it.

    analyse     A, the spectral states of z profiles
    synthesize  S, the z profiles of spectral states
    decays      e^{rates t}, and the one refusal of a time that is not
                finite or is negative

    Construction is the route's one refusal of a gamma that is not finite
    and positive, and fixes read-only: the wall profile e^{-gamma z} and its
    Simpson mass Int e^{-2 gamma z} dz, the slab sweep's sweep_decay
    e^{-gamma dz}, sweep_weight gamma dz / 2 and unit upper-bidiagonal
    sweep_band (row 1 is never read), and the synthesis factors
    -(zeta / gamma + i) / 2.  rates and synthesis_table are made on first
    use.
    """

    def __init__(self, nu: float, gamma: float, a: float, disc: Discretization):
        if not (math.isfinite(gamma) and gamma > 0):
            raise ValueError(f"the Robin heat flow requires a finite gamma > 0, got {gamma}")
        self.nu, self.gamma, self.a, self.disc = nu, gamma, a, disc
        self.wall = _readonly(np.exp(-gamma * disc.z))
        self.sweep_decay = np.exp(-gamma * disc.dz)
        band = np.ones((2, disc.n_z))
        band[0, 1:] = -self.sweep_decay
        self.sweep_band = _readonly(band)
        self.factors = _readonly(-0.5 * (_zeta(disc) / gamma + 1j))
        self.sweep_weight = 0.5 * gamma * disc.dz
        self.mass = _simpson(self.wall * self.wall, disc.dz)

    @cached_property
    def rates(self) -> np.ndarray:
        """Rates laid out as a spectral state, read-only: -nu (mu^2 + zeta^2)
        for the slab modes, then nu (gamma^2 - mu^2) for the wall moment."""
        disc = self.disc
        zeta = _zeta(disc)[None, None, :]
        mu = disc.lateral.mu(self.a)
        mu2 = (mu * mu)[:, :, None]
        rates = np.empty(disc.lateral.shape(disc.n_z - 1))
        rates[..., :-1] = -self.nu * (mu2 + zeta**2)
        rates[..., -1] = self.nu * (self.gamma * self.gamma - mu2[:, :, 0])
        return _readonly(rates)

    @cached_property
    def synthesis_table(self) -> np.ndarray:
        """S as an (n_z - 1) x n_z matrix, read-only: synthesize(state) is
        state @ synthesis_table up to roundoff."""
        return _readonly(self.synthesize(np.eye(self.disc.n_z - 1)))

    def _split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split the z profiles of values, any leading shape, into slab and
        wall-decay parts: (slab, moments), shapes (..., n_z) and (...).

        A moment 2 gamma Int w0 e^{-gamma z} dz is taken by composite Simpson
        over the measured mass of the kernel (1 up to truncation), so the
        residue's weighted moment vanishes identically on the grid.  The
        slab part, which vanishes at z = 0 and evolves all-Dirichlet, solves
        -(1/gamma) c' + c = residue with c(0) = 0 by a backward
        exponential-kernel sweep, stable and O(n_z):

            c(z_j) = e^{-gamma dz} c(z_{j+1})
                     + (gamma dz / 2) * (f(z_j) + e^{-gamma dz} f(z_{j+1}))

        one unit upper-bidiagonal system per profile, all solved in a single
        banded triangular solve.
        """
        cross = _simpson(values * self.wall, self.disc.dz) / self.mass
        residue = values - cross[..., None] * self.wall
        rhs = np.zeros_like(residue)
        rhs[..., :-1] = self.sweep_weight * (
            residue[..., :-1] + self.sweep_decay * residue[..., 1:]
        )
        rows = rhs.reshape(-1, self.disc.n_z).T
        slab, info = dtbtrs(self.sweep_band, rows, uplo="U", diag="U", overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"triangular solve failed: info={info}")
        return slab.T.reshape(residue.shape), cross

    def analyse(self, values: np.ndarray) -> np.ndarray:
        """Spectral states of the z profiles of values, any leading shape:
        (..., n_z) maps to (..., n_z - 1), the z-sine coefficients of the
        slab part, then its wall moment.  The analysis is linear and the same for every
        profile, so its states of the profiles D e_j, for a linear map D on
        profiles, are the rows of one table T with state(D p) = p @ T.
        """
        slab, cross = self._split(values)
        state = np.empty(cross.shape + (self.disc.n_z - 1,))
        np.divide(dst(slab[..., 1:-1], type=1, axis=-1), self.disc.n_z - 1, out=state[..., :-1])
        state[..., -1] = cross
        return state

    def decays(self, t: float | Sequence[float]) -> np.ndarray:
        """e^{rates t} for one time t, of the shape of rates, or for a
        sequence of times, stacked along a new first axis.

        Raises ValueError for a time that is not finite or is negative.
        """
        times = np.asarray(t, dtype=float)
        for s in times.flat:
            if not math.isfinite(s):
                raise ValueError(f"propagation time must be finite, got {s}")
            if s < 0:
                raise ValueError(f"propagation time must be nonnegative, got {s}")
        return np.exp(self.rates * times[..., None, None, None])

    def synthesize(self, state: np.ndarray) -> np.ndarray:
        """z profiles of spectral states: eta - eta_z / gamma plus the wall profile.

        Any leading shape: (..., n_z - 1) maps to (..., n_z).  At z_j the slab
        part sum_m c_m (sin(theta_m j) - (zeta_m / gamma) cos(theta_m j)),
        theta_m = m pi / (n_z - 1), is Re sum_m c_m (-zeta_m / gamma - i)
        e^{i theta_m j}: one unnormalised backward real FFT of length
        2 (n_z - 1) of c_m times the synthesis factor, zero at m = 0 and
        n_z - 1.  On the identity it tabulates S, with synthesize(state) =
        state @ S.
        """
        n_z = self.disc.n_z
        spectrum = np.zeros(state.shape[:-1] + (n_z,), dtype=complex)
        np.multiply(state[..., :-1], self.factors, out=spectrum[..., 1:-1])
        values = state[..., -1:] * self.wall
        values += c2r(spectrum, 2 * (n_z - 1))[..., :n_z]
        return values


@lru_cache(maxsize=8)
def robin_flow(nu: float, gamma: float, a: float, disc: Discretization) -> RobinFlow:
    """The flow of one geometry; the last few are kept, since every
    propagator, sampler and Picard problem of a run shares one."""
    return RobinFlow(nu, gamma, a, disc)


# Largest n_z on which the flow's operators are applied as dense tables.  A
# product with an n_z x n_z table reads the whole table for every block of
# rows, and once the table outgrows the cache that costs more than the
# transforms it replaces.  Per Picard slice (analysis plus synthesis, one
# BLAS thread, 2-core Xeon), tables against transforms: 0.05 against
# 0.13 ms at k_max 2, n_z 256; 0.12 against 0.30 ms at (2, 384); 0.39
# against 0.25 ms at (2, 512); 3.2 against 0.47 ms at (2, 1024); 0.51
# against 0.91 ms at (8, 256); 3.7 against 2.4 ms at (8, 512).  A table
# product is that fast only on normal operands: OpenBLAS dgemm slows about
# 4x on subnormal ones, which decayed states hold, since the slab rates
# reach -nu (mu^2 + zeta^2), about -1600 at (8, 256).  At t 0.1, 0.5 and 1
# there, 701 of the 48 960 decayed entries of one field are subnormal, and
# the synthesis product over them takes 1.61 ms against 0.37 ms once they
# are flushed to 0; the backward FFT takes 0.35 ms either way.
TABLE_MAX_N_Z = 384


def _wall_residual(omega: SpectralField3, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per lateral mode of omega, the Robin wall residual (w_z + gamma w)|_{z=0}
    and the sum |w_z| + |gamma w| of its two terms' sizes."""
    c = omega.coeffs
    slope, robin = wall_slope(c, omega.disc.dz), gamma * c[..., 0]
    return slope + robin, np.abs(slope) + np.abs(robin)


def warn_if_incompatible(omega0: SpectralField3, gamma: float) -> None:
    """Print one warning line on stderr when omega0 misses the wall
    condition w'(0) + gamma w(0) = 0.

    The wall residual is taken relative to the size of its two terms; above
    COMPAT_WARN_RATIO propagation still works, with degraded wall accuracy.
    """
    residual, size = _wall_residual(omega0, gamma)
    res, scale = np.sqrt(np.sum(residual**2)), np.sqrt(np.sum(size**2))
    if scale > 0 and res / scale > COMPAT_WARN_RATIO:
        print(COMPAT_WARNING, file=sys.stderr)


class RobinPropagator:
    """Reusable propagator: the robin_flow of params and the field's disc,
    and the field's read-only state at t = 0, flow.analyse of its coeffs.

    At time t the state is state * flow.decays(t).  Propagators sharing
    params and disc share one flow, so their states may be combined
    linearly before synthesize.
    """

    def __init__(self, omega0: SpectralField3, params: ModelParams):
        self.flow = robin_flow(float(params.nu), float(params.gamma), float(params.a), omega0.disc)
        self.state = _readonly(self.flow.analyse(omega0.coeffs))

    def state_at(self, t: float) -> np.ndarray:
        """Spectral state at time t."""
        return self.state * self.flow.decays(t)

    def synthesize(self, state: np.ndarray) -> SpectralField3:
        """Field of a spectral state (RobinFlow.synthesize)."""
        return SpectralField3(self.flow.synthesize(state), self.flow.disc)

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
    # the oracle's own gamma check: it shares nothing with RobinFlow
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
    res, _ = _wall_residual(omega, gamma)
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
    The decay factors of the nonzero times are taken once per flow, which
    the fields of one geometry share, and each field's states at all those
    times are synthesized at once, then normed one time at a time; a time
    state_at would refuse raises the same ValueError.

    On a grid of at most TABLE_MAX_N_Z points a field's states are one
    product of its z profiles with the flow's analysis table, built once
    per call, and their syntheses one product with the flow's
    synthesis_table; entries of the decayed states below the smallest
    normal float are set to 0 first, which moves no ratio by more than
    roundoff and keeps subnormal operands out of the product.  These
    ratios agree with RobinPropagator.at to roundoff.  On a larger grid
    each field's propagator is synthesized in one RobinFlow.synthesize
    call, bit for bit what RobinPropagator.at gives.
    """
    later = [t for t in times if t != 0.0]
    ratios = []
    flow = None
    for w0 in fields:
        base = sobolev_norm(w0, SOBOLEV_S, params.a)
        if base == 0.0:
            continue
        disc = w0.disc
        this = robin_flow(float(params.nu), float(params.gamma), float(params.a), disc)
        if this is not flow:
            flow, decays = this, this.decays(later)
            analysis = flow.analyse(np.eye(disc.n_z)) if disc.n_z <= TABLE_MAX_N_Z else None
        if analysis is None:
            grown = flow.synthesize(RobinPropagator(w0, params).state * decays)
        else:
            states = (w0.coeffs.reshape(-1, disc.n_z) @ analysis).reshape(decays.shape[1:])
            states = _flushed(states * decays)
            grown = states.reshape(-1, disc.n_z - 1) @ flow.synthesis_table
            grown = grown.reshape(states.shape[:-1] + (disc.n_z,))
        norms = (sobolev_norm(SpectralField3(g, disc), SOBOLEV_S, params.a) for g in grown)
        for t in times:
            ratios.append(1.0 if t == 0.0 else growth_ratio(next(norms), base, t, params))
    return ratios


def _flushed(states: np.ndarray) -> np.ndarray:
    """states with every entry below the smallest normal float in size set
    to 0, in place."""
    states[np.abs(states) < np.finfo(float).tiny] = 0.0
    return states


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
