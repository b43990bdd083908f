"""Fixed-point iteration for the coupled squared-velocity / vorticity pair.

The unknown is a pair of uniform time slices (v, w) on [0, T] iterated as

    v(t) <- v0 + 4 Int_0^t  v (K w)_z ds
    w(t) <- P_t w0 + Int_0^t P_{t-s} v_z ds

where K is the Robin elliptic inverse and P the Robin heat flow, starting
from the constant-in-time pair.  The horizon T is chosen from the data norms
so that the map contracts on a ball:

    R = C e^{nu gamma^2} (||w0||_{H^s} + 2 ||v0||_{H^{s+1}})
    M = 2 ||v0||_{H^{s+1}} + R
    T = min( 1/(8R), 1/(2 C e^{nu gamma^2}), 1/(2M), 1 )

with C the calibrated heat growth constant (>= 1).  The iteration distance
is the slice-wise maximum of the H^{s+1} norm of the v difference and the
H^s norm of the w difference.

The Duhamel term is evaluated in the spectral state of heat.robin_state,
one array per slice in which P_t is a per-entry exponential: a one-step
recurrence over the time cells accumulates the forcing, so a sweep
analyses each forcing slice once and synthesizes each output slice once
through the one propagator of w0, O(n_t) work instead of the O(n_t^2)
propagator evaluations of a direct sum.

A PicardProblem is the map's one owner of the data, the horizon and the
time grid, and of what the data alone feed into a sweep (slice 0's
integrand and forcing, the propagator of w0), computed once per problem.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .domain import (
    MAX_DERIVATIVE_ORDER,
    ModelParams,
    SpectralField3,
    d_z,
    pointwise_product,
    sobolev_norm,
)
from .elliptic import solve_elliptic
from .errors import NoConvergenceError, NonFiniteError
from .heat import RobinPropagator, robin_state

__all__ = [
    "PICARD_TOL",
    "MAX_SWEEPS",
    "HorizonSelection",
    "PicardProblem",
    "PicardState",
    "PicardResult",
    "horizon_from_norms",
    "select_horizon",
    "duhamel_apply",
    "picard_step",
    "picard_solve",
    "x_norm",
    "x_distance",
    "pairs_distance",
]

# a solve stops once a sweep moves the iterate by at most PICARD_TOL
# times the first sweep's move
PICARD_TOL = 1e-8
# a solve that has not stopped after MAX_SWEEPS sweeps raises
MAX_SWEEPS = 30
DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class HorizonSelection:
    """Contraction horizon and ball radius derived from the data norms.

    binding names the active minimum: "data-bound" (1/(8R)),
    "propagator-bound" (1/(2 C e^{nu gamma^2})), "ball-radius" (1/(2M)) or
    "unit cap".  constraint_value is 8 C T e^{nu gamma^2 T} (||w0|| +
    2 T ||v0||), which the selection keeps at or below 1.
    """

    T: float
    M: float
    growth_constant: float
    binding: str
    constraint_value: float


@dataclass(frozen=True)
class PicardState:
    """One iterate: per-slice field pairs on its problem's time grid."""

    v_slices: tuple[SpectralField3, ...]
    omega_slices: tuple[SpectralField3, ...]
    iteration_index: int = 0


@dataclass(frozen=True)
class PicardResult:
    """A converged solve together with the problem it solved, so a check of
    the result re-runs the map on exactly that problem."""

    state: PicardState
    problem: PicardProblem
    diffs: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return self.state.iteration_index


def _check_orders(params: ModelParams) -> None:
    if params.s + 1 > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"iteration norms need H^{params.s + 1} on v, above the supported "
            f"derivative order {MAX_DERIVATIVE_ORDER}"
        )


def horizon_from_norms(
    norm_v0: float, norm_w0: float, growth_constant: float, params: ModelParams
) -> HorizonSelection:
    """Contraction horizon from precomputed data norms."""
    if growth_constant < 1.0:
        raise ValueError(
            f"growth constant below its t=0 value 1: {growth_constant}"
        )
    if norm_v0 < 0 or norm_w0 < 0:
        raise ValueError("data norms must be nonnegative")
    if norm_v0 == 0.0 and norm_w0 == 0.0:
        return HorizonSelection(
            T=1.0, M=0.0, growth_constant=growth_constant,
            binding="unit cap", constraint_value=0.0,
        )
    amp = growth_constant * math.exp(params.nu * params.gamma**2)
    r = amp * (float(norm_w0) + 2.0 * float(norm_v0))
    m = 2.0 * float(norm_v0) + r
    candidates = (
        (1.0 / (8.0 * r), "data-bound"),
        (1.0 / (2.0 * amp), "propagator-bound"),
        (1.0 / (2.0 * m), "ball-radius"),
        (1.0, "unit cap"),
    )
    t_sel, binding = min(candidates, key=lambda c: c[0])
    constraint = (
        8.0
        * growth_constant
        * t_sel
        * math.exp(params.nu * params.gamma**2 * t_sel)
        * (norm_w0 + 2.0 * t_sel * norm_v0)
    )
    if constraint > 1.0:
        raise ValueError(
            f"selected horizon violates its own smallness constraint: {constraint}"
        )
    return HorizonSelection(
        T=float(t_sel), M=float(m), growth_constant=growth_constant,
        binding=binding, constraint_value=float(constraint),
    )


def select_horizon(
    v0: SpectralField3,
    w0: SpectralField3,
    params: ModelParams,
    growth_constant: float,
) -> HorizonSelection:
    """Contraction horizon measured directly from the initial fields."""
    _check_orders(params)
    return horizon_from_norms(
        sobolev_norm(v0, params.s + 1, params.a),
        sobolev_norm(w0, params.s, params.a),
        growth_constant,
        params,
    )


# --- Duhamel quadrature -----------------------------------------------------


def duhamel_apply(
    base: RobinPropagator, forcing_states: Iterable[np.ndarray], t_grid: np.ndarray
) -> list[SpectralField3]:
    """Slices of P_t w0 + Int_0^t P_{t-s} g(s) ds at t_grid[1:].

    base is the propagator of w0 (the slice at t = 0 is w0 itself, which
    the caller holds), and forcing_states yields the spectral state
    (robin_state) of g at every node of t_grid, read one at a time.  P is
    diagonal in that state, and the forcing part obeys the trapezoid cell
    recurrence

        U_i = E U_{i-1} + (dt/2) E X_{i-1} + (dt/2) X_i,    U_0 = 0,

    with X_j the state of forcing slice j and E = exp(rates dt) per entry.
    The w0 part is evaluated at the exact t_i, and each output slice is one
    synthesis.
    """
    if len(t_grid) < 2:
        raise ValueError("Duhamel quadrature needs at least two slices")
    dt = t_grid[1] - t_grid[0]
    half = 0.5 * dt
    decay = np.exp(base.rates * dt)
    left = decay * half

    out = []
    forced = np.zeros_like(base.rates)
    prev = None
    for t, x in zip(t_grid, forcing_states, strict=True):
        if prev is not None:
            forced = decay * forced + left * prev + half * x
            out.append(base.synthesize(base.state_at(t) + forced))
        prev = x
    return out


# --- the iteration map ------------------------------------------------------


def _worst_norm(pairs, params: ModelParams) -> float:
    """Max of ||v||_{H^{s+1}} and ||w||_{H^s} over (v, w) pairs; NaN if any is.

    Python's max can drop a NaN, and a NaN iterate would read as converged.
    """
    a, s = params.a, params.s
    norms = [0.0]
    for v, w in pairs:
        norms += [sobolev_norm(v, s + 1, a), sobolev_norm(w, s, a)]
    return float(np.max(norms))


def x_norm(state: PicardState, params: ModelParams) -> float:
    """Slice-wise max of ||v||_{H^{s+1}} and ||w||_{H^s}.

    A pair that several slices hold, as in the constant-in-time start, is
    measured once.
    """
    distinct = {(id(v), id(w)): (v, w) for v, w in zip(state.v_slices, state.omega_slices)}
    return _worst_norm(distinct.values(), params)


def x_distance(first: PicardState, second: PicardState, params: ModelParams) -> float:
    """x_norm of the slice-wise difference, one slice in memory at a time."""
    return pairs_distance(
        zip(first.v_slices, first.omega_slices),
        zip(second.v_slices, second.omega_slices),
        params,
    )


def pairs_distance(first, second, params: ModelParams) -> float:
    """x_distance of two iterables of (v, w) slice pairs, read in step to
    the end of both.

    Either side may be a stream, such as a forked solve's slices: one pair
    of each is in memory at a time.
    """
    diffs = ((va - vb, wa - wb) for (va, wa), (vb, wb) in zip(first, second, strict=True))
    return _worst_norm(diffs, params)


def _integrand(v: SpectralField3, w: SpectralField3, params: ModelParams) -> np.ndarray:
    """Coefficients of v (K w)_z, the velocity equation's integrand."""
    return pointwise_product(v, d_z(solve_elliptic(w, params.beta, params.a))).coeffs


class PicardProblem:
    """The map's fixed data (v0, w0), its params and its one horizon.

    Construction validates the problem, fixes the time grid t_grid =
    linspace(0, T, n_t) every iterate lives on, and computes once what the
    data alone feed into a sweep, whatever the iterate: a slice holding the
    data itself (slice 0 after the first sweep, every slice of the
    constant-in-time start) takes its integrand v0 (K w0)_z and the spectral
    state of its forcing d_z(v0) from here, and every sweep's Duhamel term
    takes the one propagator of w0.
    """

    def __init__(
        self,
        v0: SpectralField3,
        w0: SpectralField3,
        params: ModelParams,
        horizon: HorizonSelection,
    ):
        _check_orders(params)
        if v0.disc is not w0.disc and v0.disc != w0.disc:
            raise ValueError("v0 and w0 must share a discretization")
        if not (np.all(np.isfinite(v0.coeffs)) and np.all(np.isfinite(w0.coeffs))):
            raise NonFiniteError("initial data contains non-finite values")
        if not horizon.T > 0:
            raise ValueError(f"horizon must be positive, got {horizon.T}")
        self.v0, self.w0, self.params, self.horizon = v0, w0, params, horizon
        self.t_grid = np.linspace(0.0, horizon.T, v0.disc.n_t)
        self.t_grid.flags.writeable = False
        self.integrand = _integrand(v0, w0, params)
        self.forcing_state = robin_state(d_z(v0), params.gamma)
        self.w0_propagator = RobinPropagator(w0, params)


def picard_step(state: PicardState, problem: PicardProblem) -> PicardState:
    """One sweep of the map; slice 0 stays pinned to the data."""
    v0, w0, params = problem.v0, problem.w0, problem.params
    t = problem.t_grid
    dt = t[1] - t[0]
    # a pair several slices hold, as in a constant-in-time start, is taken once
    known = {(id(v0), id(w0)): problem.integrand}
    integrands = []
    for v_j, w_j in zip(state.v_slices, state.omega_slices):
        key = id(v_j), id(w_j)
        if key not in known:
            known[key] = _integrand(v_j, w_j, params)
        integrands.append(known[key])

    v_new = [v0]
    acc = np.zeros_like(v0.coeffs)
    for i in range(1, len(t)):
        acc = acc + 2.0 * dt * (integrands[i - 1] + integrands[i])
        v_new.append(SpectralField3(v0.coeffs + acc, v0.disc))

    forcing_states = (
        problem.forcing_state if v_j is v0 else robin_state(d_z(v_j), params.gamma)
        for v_j in state.v_slices
    )
    w_new = duhamel_apply(problem.w0_propagator, forcing_states, t)
    return PicardState(
        v_slices=tuple(v_new),
        omega_slices=(w0, *w_new),
        iteration_index=state.iteration_index + 1,
    )


def picard_solve(
    problem: PicardProblem, initial_state: PicardState | None = None
) -> PicardResult:
    """Iterate to the fixed point on the problem's horizon.

    Starts from the constant-in-time pair (or initial_state, which must hold
    n_t slices of v and of w on the problem's discretization), stops when a
    sweep moves the iterate by at most PICARD_TOL times the first sweep's
    move.  A first sweep that does not move at all is already the fixed
    point.  A solve that does not converge within MAX_SWEEPS sweeps raises,
    so every returned result has converged.

    The ball guard raises once x_norm of an iterate exceeds
    DIVERGENCE_FACTOR * M.  By the triangle inequality x_norm of the
    current iterate is at most x_norm of the start plus every move so far,
    so x_norm is taken only once that bound passes the guard.
    """
    v0, w0, params, horizon = problem.v0, problem.w0, problem.params, problem.horizon
    n_t = len(problem.t_grid)
    if initial_state is None:
        state = PicardState((v0,) * n_t, (w0,) * n_t, 0)
    else:
        state = initial_state
        counts = (len(state.v_slices), len(state.omega_slices))
        if counts != (n_t, n_t):
            raise ValueError(
                f"initial state must hold {n_t} slices of v and of w, got {counts}"
            )
        if any(f.disc != v0.disc for f in state.v_slices + state.omega_slices):
            raise ValueError("initial state must lie on the problem's discretization")
    guard = DIVERGENCE_FACTOR * horizon.M
    reach = x_norm(state, params) if horizon.M > 0 else 0.0

    diffs: list[float] = []
    for _ in range(MAX_SWEEPS):
        new = picard_step(state, problem)
        diff = x_distance(new, state, params)
        if not np.isfinite(diff):
            raise NonFiniteError(
                f"iterate stopped being finite at sweep {new.iteration_index}"
            )
        diffs.append(diff)
        state = new
        if diff <= PICARD_TOL * diffs[0]:
            break
        reach += diff
        if horizon.M > 0 and reach > guard and x_norm(state, params) > guard:
            raise NoConvergenceError(
                f"iterate left the certified ball (radius {horizon.M:.6g}) "
                f"at sweep {state.iteration_index}"
            )
    else:
        last = f": last move {diffs[-1]:.3e} vs target {PICARD_TOL * diffs[0]:.3e}" if diffs else ""
        raise NoConvergenceError(f"no convergence in {MAX_SWEEPS} sweeps{last}")
    ratios = tuple(
        diffs[m + 1] / diffs[m] for m in range(len(diffs) - 1) if diffs[m] > 0.0
    )
    return PicardResult(state=state, problem=problem, diffs=tuple(diffs), ratios=ratios)
