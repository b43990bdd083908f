"""Certificates: measured quantities checked against their proved bounds.

Every estimate the solver relies on is re-measured at runtime and packed
into a Certificate with the measured value, the bound it must stay under,
and the resulting margin.  Calibrated constants get a 1.1x allowance,
exact inequalities a 1 + 1e-6 float allowance, and convergence orders a
+-0.2 window.  A failed check never aborts a batch: the suite
runner converts exceptions into failed certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import ModelParams, SpectralField3
from .heat import RobinPropagator, fd_robin_oracle
from .picard import (
    PICARD_TOL, HorizonSelection, PicardProblem, PicardResult, PicardState, pairs_distance,
    picard_step, x_distance,
)
from .worker import SolveWorker, fork_solve

__all__ = [
    "Certificate",
    "make_certificate",
    "order_certificate",
    "min_order_certificate",
    "run_certificates",
    "gronwall_samples",
    "gronwall_energy_check",
    "growth_bound_check",
    "elliptic_bound_check",
    "contraction_check",
    "apriori_bounds_check",
    "fixed_point_residual_check",
    "start_uniqueness_solve",
    "uniqueness_check",
    "transform_oracle_certificate",
    "CALIBRATION_MARGIN",
    "EXACT_SLACK",
    "CONTRACTION_BOUND",
    "ORDER_WINDOW",
]

CALIBRATION_MARGIN = 1.1
EXACT_SLACK = 1.0 + 1e-6
CONTRACTION_BOUND = 0.55
ORDER_WINDOW = 0.2


@dataclass(frozen=True)
class Certificate:
    """One measured-vs-bound record."""

    name: str
    measured: float
    bound: float
    passed: bool
    margin: float | None
    details: dict = field(default_factory=dict)

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured {self.measured:.6g} vs bound {self.bound:.6g}"


def make_certificate(name: str, measured: float, bound: float, **details) -> Certificate:
    measured = float(measured)
    bound = float(bound)
    margin = None if measured == 0.0 else bound / measured - 1.0
    return Certificate(
        name=name,
        measured=measured,
        bound=bound,
        passed=bool(measured <= bound),
        margin=margin,
        details=details,
    )


def order_certificate(name: str, observed: float, **details) -> Certificate:
    """Convergence order inside 2 +- ORDER_WINDOW: every stencil is second order."""
    return make_certificate(
        name, abs(observed - 2.0), ORDER_WINDOW, observed_order=float(observed), **details
    )


def min_order_certificate(
    name: str, observed: float, required: float, **details
) -> Certificate:
    """Convergence order at least required (encoded as required/observed <= 1)."""
    measured = math.inf if observed <= 0 else required / observed
    return make_certificate(
        name, measured, 1.0, observed_order=float(observed), required_order=float(required),
        **details,
    )


def run_certificates(checks) -> list[Certificate]:
    """Run (name, thunk) pairs; an exception becomes a failed certificate."""
    out = []
    for name, thunk in checks:
        try:
            result = thunk()
        except Exception as exc:
            out.append(make_certificate(name, math.inf, 0.0, error=f"{type(exc).__name__}: {exc}"))
            continue
        if isinstance(result, Certificate):
            out.append(result)
        else:
            out.extend(result)
    return out


# --- individual checks ------------------------------------------------------


def _worst(values: list[float]) -> float:
    """Largest value, 0 for none; NaN if any is (Python's max can drop a NaN)."""
    return float(np.max(values)) if values else 0.0


def gronwall_samples(times, energies) -> tuple[np.ndarray, np.ndarray]:
    """(times, energies) as float arrays; raises ValueError unless they are
    matching sequences of length >= 2 with strictly increasing times."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if times.shape != energies.shape or times.size < 2:
        raise ValueError("need matching time and energy sequences of length >= 2")
    if np.any(times[1:] <= times[:-1]):
        raise ValueError("times must be strictly increasing")
    return times, energies


def gronwall_energy_check(
    times, energies, params: ModelParams, name: str = "gronwall-energy"
) -> Certificate:
    """E(t2) <= E(t1) e^{4 nu gamma^2 (t2 - t1)} along consecutive samples."""
    times, energies = gronwall_samples(times, energies)
    rate = 4.0 * params.nu * params.gamma**2
    ratios = [0.0]
    for t1, t2, e1, e2 in zip(times[:-1], times[1:], energies[:-1], energies[1:]):
        allowed = e1 * math.exp(rate * (t2 - t1))
        if allowed == 0.0:
            ratios.append(0.0 if e2 == 0.0 else math.inf)
        else:
            ratios.append(e2 / allowed)
    return make_certificate(name, _worst(ratios), EXACT_SLACK, samples=int(times.size))


def growth_bound_check(
    ratios, growth_constant: float, name: str = "growth-bound"
) -> Certificate:
    """Held-out normalized propagation ratios against 1.1x the calibrated constant."""
    ratios = [float(r) for r in ratios]
    return make_certificate(
        name, _worst(ratios), CALIBRATION_MARGIN * growth_constant,
        growth_constant=float(growth_constant), samples=len(ratios),
    )


def elliptic_bound_check(
    ratios, elliptic_constant: float, name: str = "elliptic-bound"
) -> Certificate:
    return make_certificate(
        name, _worst([float(r) for r in ratios]), CALIBRATION_MARGIN * elliptic_constant,
        elliptic_constant=float(elliptic_constant),
    )


def contraction_check(ratios, name: str = "contraction") -> Certificate:
    ratios = [float(r) for r in ratios]
    return make_certificate(name, _worst(ratios), CONTRACTION_BOUND, sweeps=len(ratios))


def apriori_bounds_check(
    v_norms: list[float], w_norms: list[float], h: HorizonSelection, params: ModelParams
) -> list[Certificate]:
    """Converged slices inside the two a-priori balls (1.1x allowance).

    v_norms and w_norms are the per-slice ||v||_{H^{s+1}} and ||w||_{H^s} of
    the converged state.  Slice 0 is pinned to the data (v0, w0), so the
    balls are built from the first entries.
    """
    v_worst = _worst(v_norms)
    w_worst = _worst(w_norms)
    v_ball = 2.0 * v_norms[0]
    w_ball = (
        h.growth_constant
        * math.exp(params.nu * params.gamma**2 * h.T)
        * (w_norms[0] + 2.0 * h.T * v_norms[0])
    )
    return [
        make_certificate("apriori-velocity", v_worst, CALIBRATION_MARGIN * v_ball,
                         ball=v_ball, horizon=h.T),
        make_certificate("apriori-vorticity", w_worst, CALIBRATION_MARGIN * w_ball,
                         ball=w_ball, horizon=h.T),
    ]


def fixed_point_residual_check(result: PicardResult) -> Certificate:
    """One extra sweep moves a converged iterate by at most 2 PICARD_TOL x first move."""
    extra = picard_step(result.state, result.problem)
    move = x_distance(extra, result.state, result.problem.params)
    return make_certificate(
        "fixed-point-residual", move, 2.0 * PICARD_TOL * result.diffs[0],
        first_sweep_move=result.diffs[0],
    )


def start_uniqueness_solve(problem: PicardProblem) -> SolveWorker:
    """Fork the uniqueness check's second solve; it runs beside the main one.

    The second guess inflates the constant vorticity slices of the main
    solve's start by 10 percent.  Both solves are of the one problem, so
    their converged states are comparable slice by slice.
    """
    n_t = len(problem.t_grid)
    skewed = PicardState((problem.v0,) * n_t, (problem.w0.scaled(1.1),) * n_t)
    return fork_solve(problem, skewed)


def uniqueness_check(first: PicardResult, second: SolveWorker) -> Certificate:
    """Two different initial guesses land on the same fixed point.

    first is the main solve from the constant-in-time pair, second the
    worker start_uniqueness_solve forked for the same problem; its slices
    are read one pair at a time.  Raises what the second solve raised.
    """
    sweeps = second.sweeps()
    gap = pairs_distance(
        zip(first.state.v_slices, first.state.omega_slices), second.slices(),
        first.problem.params,
    )
    return make_certificate(
        "uniqueness", gap, 10.0 * PICARD_TOL,
        sweeps_first=first.iterations, sweeps_second=sweeps,
    )


def transform_oracle_certificate(
    w0: SpectralField3,
    t: float,
    params: ModelParams,
    n_steps: int = 2000,
) -> Certificate:
    """Transform propagator against the Crank-Nicolson route on one field, to 5e-3."""
    prop = RobinPropagator(w0, params).at(t)
    ref = fd_robin_oracle(w0, t, params, n_steps=n_steps)
    scale = float(np.max(np.abs(ref.coeffs)))
    diff = float(np.max(np.abs(prop.coeffs - ref.coeffs)))
    measured = diff if scale == 0.0 else diff / scale
    return make_certificate(
        "heat-route-agreement", measured, 5e-3, t=float(t), n_steps=int(n_steps)
    )
