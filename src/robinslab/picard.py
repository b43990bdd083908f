"""Fixed-point iteration for the coupled squared-velocity / vorticity pair.

The unknown is a pair of uniform time slices (v, w) on [0, T] iterated as

    v(t) <- v0 + 4 Int_0^t  v (K w)_z ds
    w(t) <- P_t w0 + Int_0^t P_{t-s} v_z ds

where K is the Robin elliptic inverse and P the Robin heat flow, starting
from the constant-in-time pair.  The horizon T is chosen from the data norms
so that the map contracts on a ball:

    R = C e^{nu gamma^2} (||w0||_{H^s} + 2 ||v0||_{H^{s+1}})
    M = 2 ||v0||_{H^{s+1}} + R
    T = min( 1/(8R), 1/(2 C e^{nu gamma^2}) )

with C the calibrated heat growth constant (>= 1), and T = 1 for zero
data.  C >= 1 gives M <= 2R and 1/(2 C e^{nu gamma^2}) <= 1/2, so neither
1/(2M) nor a cap of 1 is ever the smaller.  The iteration distance is the
slice-wise maximum of the H^{s+1} norm of the v difference and the H^s
norm of the w difference.  The index s is the code's constant
domain.SOBOLEV_S = 2, so v is measured in H^3 and w in H^2.

The Duhamel term is evaluated in the spectral state of heat.RobinFlow,
one array per slice in which P_t is a per-entry exponential: a one-step
recurrence over the time cells accumulates the forcing, so a sweep
analyses each forcing slice once and synthesizes each output slice once
with the flow of the one propagator of w0, O(n_t) work instead of the
O(n_t^2) propagator evaluations of a direct sum.  Neither the forcing
analysis A d_z nor the synthesis S depends on the lateral mode, so on a
grid where it pays (tabulates) each is one matrix: the forcing table,
made once per problem by the flow's analyse on d_z of the identity, and
the flow's own synthesis_table, which the growth calibration on the same
flow shares; a slice's analysis and its synthesis are then one matrix
product each.  Past heat.TABLE_MAX_N_Z z points a dense product costs
more than the transforms, and a problem whose sweeps apply the operators
to fewer rows than a table has would not repay building the forcing
table; such a problem keeps the transforms.

A PicardProblem is the map's one owner of the data, the horizon and the
time grid, and of what the data alone feed into a sweep (slice 0's
integrand and forcing state, the propagator of w0, the tables if any),
computed once per problem; a solve forked after the problem is built
inherits all of it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .domain import (
    SOBOLEV_S,
    Discretization,
    ModelParams,
    SpectralField3,
    _dz1,
    d_z,
    pointwise_product,
    sobolev_norm,
)
from .elliptic import solve_elliptic
from .errors import NoConvergenceError, NonFiniteError
from .heat import TABLE_MAX_N_Z, RobinFlow, RobinPropagator

__all__ = [
    "PICARD_TOL",
    "MAX_SWEEPS",
    "HorizonSelection",
    "PicardProblem",
    "PicardState",
    "PicardResult",
    "horizon_from_norms",
    "select_horizon",
    "tabulates",
    "duhamel_tables",
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

    binding names the active minimum: "data-bound" (1/(8R)) or
    "propagator-bound" (1/(2 C e^{nu gamma^2})), or "unit cap" (T = 1) for
    zero data.  constraint_value is 8 C T e^{nu gamma^2 T} (||w0|| +
    2 T ||v0||), which the selection keeps at or below 1.
    """

    T: float
    M: float
    growth_constant: float
    binding: str
    constraint_value: float


# no generated ==, hash or repr: the first two would fail on the arrays,
# and generating them costs every process set-up time
@dataclass(frozen=True, eq=False, repr=False)
class PicardState:
    """One iterate: per-slice field pairs on its problem's time grid."""

    v_slices: tuple[SpectralField3, ...]
    omega_slices: tuple[SpectralField3, ...]
    iteration_index: int = 0


# no generated ==, hash or repr: the first two would fail on the arrays,
# and generating them costs every process set-up time
@dataclass(frozen=True, eq=False, repr=False)
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


def horizon_from_norms(
    norm_v0: float, norm_w0: float, growth_constant: float, params: ModelParams
) -> HorizonSelection:
    """Contraction horizon from precomputed data norms.

    Raises NonFiniteError when the growth constant is not finite or the
    amplification C e^{nu gamma^2} overflows a float.
    """
    if not math.isfinite(growth_constant):
        raise NonFiniteError(f"growth constant {growth_constant} is not finite")
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
    exponent = params.nu * params.gamma**2
    try:
        amp = growth_constant * math.exp(exponent)
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise NonFiniteError(
            f"amplification {growth_constant:g} e^{{nu gamma^2}} overflows "
            f"at nu gamma^2 = {exponent:g}"
        )
    r = amp * (float(norm_w0) + 2.0 * float(norm_v0))
    m = 2.0 * float(norm_v0) + r
    bounds = ((1.0 / (8.0 * r), "data-bound"), (1.0 / (2.0 * amp), "propagator-bound"))
    t_sel, binding = min(bounds, key=lambda c: c[0])
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
    return horizon_from_norms(
        sobolev_norm(v0, SOBOLEV_S + 1, params.a),
        sobolev_norm(w0, SOBOLEV_S, params.a),
        growth_constant,
        params,
    )


# --- Duhamel quadrature -----------------------------------------------------


def tabulates(disc: Discretization) -> bool:
    """Whether a Picard problem on disc applies its Duhamel z-operators as
    the tables of duhamel_tables rather than by transforms.

    Dense products are the cheaper route up to TABLE_MAX_N_Z points, where
    a product costs about half what the transforms spend on the same rows.
    Building the tables costs what the transforms spend on n_z rows, so a
    solve repays it within a few sweeps only if one sweep applies each
    operator to at least n_z rows: k_max^2 per slice, n_t - 1 slices.
    """
    return disc.n_z <= TABLE_MAX_N_Z and disc.k_max**2 * (disc.n_t - 1) >= disc.n_z


def duhamel_tables(flow: RobinFlow) -> tuple[np.ndarray, np.ndarray]:
    """(forcing analysis, synthesis) of the flow's Duhamel term as read-only tables.

    forcing analysis  n_z x (n_z - 1): flow.analyse(d_z(v).coeffs) is
                      v.coeffs @ it
    synthesis         (n_z - 1) x n_z: flow.synthesize(state) is state @ it

    Each is the flow's route run once on the identity rows; the synthesis
    table is the flow's own synthesis_table, which its growth samplers share.
    """
    disc = flow.disc
    analysis = flow.analyse(_dz1(np.eye(disc.n_z), disc.dz))
    analysis.flags.writeable = False
    return analysis, flow.synthesis_table


def duhamel_apply(
    base: RobinPropagator,
    forcing_states: Iterable[np.ndarray],
    t_grid: np.ndarray,
    synthesis: np.ndarray | None = None,
) -> list[SpectralField3]:
    """Slices of P_t w0 + Int_0^t P_{t-s} g(s) ds at t_grid[1:].

    base is the propagator of w0 (the slice at t = 0 is w0 itself, which
    the caller holds), and forcing_states yields the state of g in
    base.flow at every node of t_grid, read one at a time.  P is diagonal
    in that state, and the forcing part obeys the trapezoid cell recurrence

        U_i = E U_{i-1} + (dt/2) E X_{i-1} + (dt/2) X_i,    U_0 = 0,

    with X_j the state of forcing slice j and E = base.flow.decays(dt).
    The w0 part is evaluated at the exact t_i, and each output slice is one
    synthesis: base.synthesize, or a product with the synthesis table of
    duhamel_tables when one is given.
    """
    if len(t_grid) < 2:
        raise ValueError("Duhamel quadrature needs at least two slices")
    dt = t_grid[1] - t_grid[0]
    half = 0.5 * dt
    decay = base.flow.decays(dt)
    left = decay * half

    out = []
    forced = np.zeros_like(base.state)
    prev = None
    for t, x in zip(t_grid, forcing_states, strict=True):
        if prev is not None:
            forced = decay * forced + left * prev + half * x
            state = base.state_at(t) + forced
            if synthesis is None:
                out.append(base.synthesize(state))
            else:
                out.append(SpectralField3(state @ synthesis, base.flow.disc))
        prev = x
    return out


# --- the iteration map ------------------------------------------------------


def _worst_norm(pairs, params: ModelParams) -> float:
    """Max of ||v||_{H^{s+1}} and ||w||_{H^s} over (v, w) pairs; NaN if any is.

    Python's max can drop a NaN, and a NaN iterate would read as converged.
    """
    norms = [0.0]
    for v, w in pairs:
        norms += [sobolev_norm(v, SOBOLEV_S + 1, params.a), sobolev_norm(w, SOBOLEV_S, params.a)]
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
    takes the one propagator of w0.  On a grid that tabulates, the problem
    also holds the two tables of duhamel_tables as forcing_analysis and
    synthesis; elsewhere both are None and a sweep keeps the transforms.
    """

    def __init__(
        self,
        v0: SpectralField3,
        w0: SpectralField3,
        params: ModelParams,
        horizon: HorizonSelection,
    ):
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
        self.w0_propagator = RobinPropagator(w0, params)
        self.forcing_analysis, self.synthesis = (
            duhamel_tables(self.w0_propagator.flow) if tabulates(v0.disc) else (None, None)
        )
        self.forcing_state = self.analyse_forcing(v0)

    def analyse_forcing(self, v: SpectralField3) -> np.ndarray:
        """The state of d_z(v) in the flow of w0, by the forcing table if the problem has one."""
        if self.forcing_analysis is None:
            return self.w0_propagator.flow.analyse(d_z(v).coeffs)
        return v.coeffs @ self.forcing_analysis


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

    # a table product takes the stack one k_max x n_z block at a time; one
    # product of all k_max^2 rows is big enough for a threaded BLAS to
    # split, and its threads then contend with the forked solve beside it
    forcing_states = (
        problem.forcing_state if v_j is v0 else problem.analyse_forcing(v_j)
        for v_j in state.v_slices
    )
    w_new = duhamel_apply(problem.w0_propagator, forcing_states, t, problem.synthesis)
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
