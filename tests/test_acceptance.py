"""Acceptance suite: ten end-to-end checks at their stated tolerances.

Each check emits exactly one PASS/FAIL line listing every measured quantity
against its bound, then asserts.  The lines are printed as they happen and
replayed in a terminal-summary section by conftest, so they survive
pytest's output capture on passing runs.  Checks that share expensive
artifacts (the calibrated growth constant, the converged Picard run) build
them once through module-level caches keyed by fixed seeds, so every
criterion is reproducible in isolation and the suite stays inside the
stated runtime budgets.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from robinslab.cli import main
from robinslab.domain import (
    Discretization,
    ModelParams,
    random_field3,
    field3_from_profile,
    sobolev_norm,
    zero_field3,
)
from robinslab.elliptic import solve_elliptic
from robinslab.errors import ResonanceError
from robinslab.heat import RobinPropagator, calibrate_growth_constant, fd_robin_oracle
from robinslab.picard import (
    PicardProblem,
    PicardState,
    picard_solve,
    picard_step,
    select_horizon,
    x_distance,
)
from robinslab.report import read_report
from robinslab.verify import EXACT_SLACK, gronwall_energy_check

A = math.pi
PARAMS = ModelParams(a=A, nu=1.0, gamma=2.0, beta=1.0)
L_Z = 20.0

SEED_CROSS = 77      # criterion 4 ensemble
SEED_CAL = 501       # criterion 5 calibration ensemble
SEED_HELD = 502      # criterion 5 held-out ensemble
SEED_V0 = 31         # criterion 7 velocity data
SEED_W0 = 32         # criterion 7 vorticity data

GRONWALL_TIMES = (0.0, 0.1, 0.25, 0.5, 1.0)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

ACCEPTANCE_LINES = []


def report(num: int, label: str, *checks) -> None:
    """One line per criterion: every (name, measured, bound) triple shown."""
    ok = all(m <= b for _, m, b in checks)
    body = ", ".join(f"{name} {m:.4g} (bound {b:.4g})" for name, m, b in checks)
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} [{label}]: {body}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {num}: {body}"


def eigen_field(disc: Discretization, decay: float, k_max_used: int = 1):
    return field3_from_profile(disc, (1, 1), np.exp(-decay * disc.z))


def cross_solver_field(index: int, n_z: int):
    """Ensemble member `index` sampled on an n_z grid; the random draw is
    resolution independent, so both grids see the same continuum field."""
    disc = Discretization(k_max=4, n_z=n_z, l_z=L_Z)
    rng = np.random.default_rng(SEED_CROSS + index)
    return random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma)


@functools.lru_cache(maxsize=1)
def calibrated_growth_constant() -> float:
    disc = Discretization(k_max=4, n_z=512, l_z=L_Z)
    return calibrate_growth_constant(50, SEED_CAL, PARAMS, disc)


def held_out_fields():
    disc = Discretization(k_max=4, n_z=512, l_z=L_Z)
    rng = np.random.default_rng(SEED_HELD)
    return [
        random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma) for _ in range(50)
    ]


def calibration_fields():
    # same draw sequence calibrate_growth_constant consumes internally
    disc = Discretization(k_max=4, n_z=512, l_z=L_Z)
    rng = np.random.default_rng(SEED_CAL)
    return [
        random_field3(disc, rng, kind="robin", gamma=PARAMS.gamma) for _ in range(50)
    ]


@functools.lru_cache(maxsize=1)
def picard_run():
    disc = Discretization(k_max=8, n_z=256, l_z=L_Z, n_t=33)
    v0 = random_field3(
        disc, np.random.default_rng(SEED_V0), kind="vspace", amplitude=0.2
    )
    w0 = random_field3(
        disc, np.random.default_rng(SEED_W0), kind="robin",
        gamma=PARAMS.gamma, amplitude=0.05,
    )
    result = picard_solve(PicardProblem(
        v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, calibrated_growth_constant())
    ))
    return result, v0, w0


def test_criterion_1_elliptic_manufactured_eigenfunction():
    started = time.perf_counter()
    errors, steps = [], []
    for n_z in (128, 256, 512, 1024):
        disc = Discretization(k_max=2, n_z=n_z, l_z=L_Z)
        f = field3_from_profile(disc, (1, 1), np.exp(-disc.z))
        v = solve_elliptic(f, 1.0, A)
        errors.append(sobolev_norm(v - f, 0, A) / sobolev_norm(f, 0, A))
        steps.append(disc.dz)
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    report(
        1,
        "elliptic eigenfunction",
        ("rel error at 512", errors[2], 1e-3),
        ("order gap |p-2|", abs(slope - 2.0), 0.2),
        ("runtime s", time.perf_counter() - started, 10.0),
    )


def test_criterion_2_resonance_detection():
    started = time.perf_counter()
    disc = Discretization(k_max=2, n_z=128, l_z=L_Z)
    f = eigen_field(disc, 1.0)
    named = 0.0
    try:
        solve_elliptic(f, math.sqrt(2.0), A)
        raised = 1.0
    except ResonanceError as exc:
        raised = 0.0
        named = 0.0 if (1, 1) in exc.modes else 1.0
    solve_elliptic(f, math.sqrt(2.0) + 1e-3, A)  # must not raise
    report(
        2,
        "resonance detection",
        ("missed resonance", raised, 0.0),
        ("mode (1,1) not named", named, 0.0),
        ("runtime s", time.perf_counter() - started, 1.0),
    )


def test_criterion_3_heat_eigenmode_exact_and_oracle():
    started = time.perf_counter()
    disc = Discretization(k_max=2, n_z=1024, l_z=L_Z)
    w0 = eigen_field(disc, PARAMS.gamma)
    t = 0.5
    exact = w0.scaled(math.exp(PARAMS.nu * (PARAMS.gamma**2 - 2.0) * t))
    prop = RobinPropagator(w0, PARAMS).at(t)
    scale = sobolev_norm(exact, 0, A)
    err_exact = sobolev_norm(prop - exact, 0, A) / scale
    fd = fd_robin_oracle(w0, t, PARAMS, n_steps=2000)
    err_fd = sobolev_norm(fd - exact, 0, A) / scale
    report(
        3,
        "heat eigenmode",
        ("transform vs analytic", err_exact, 1e-5),
        ("time stepper vs analytic", err_fd, 1e-3),
        ("runtime s", time.perf_counter() - started, 30.0),
    )


def test_criterion_4_cross_solver_agreement():
    started = time.perf_counter()
    t = 0.3
    levels = ((256, 500), (512, 1000))
    worst = {n_z: 0.0 for n_z, _ in levels}
    for i in range(10):
        for n_z, n_steps in levels:
            f = cross_solver_field(i, n_z)
            tr = RobinPropagator(f, PARAMS).at(t)
            fd = fd_robin_oracle(f, t, PARAMS, n_steps=n_steps)
            err = sobolev_norm(tr - fd, 0, A) / sobolev_norm(fd, 0, A)
            worst[n_z] = max(worst[n_z], err)
    dz_ratio = (L_Z / 255.0) / (L_Z / 511.0)
    order = math.log(worst[256] / worst[512]) / math.log(dz_ratio)
    report(
        4,
        "cross-solver agreement",
        ("worst rel L2 diff at 512", worst[512], 5e-3),
        ("joint order shortfall 1.8/p", 1.8 / order, 1.0),
        ("runtime s", time.perf_counter() - started, 300.0),
    )


def test_criterion_5_growth_bound_held_out():
    started = time.perf_counter()
    c = calibrated_growth_constant()
    rate = PARAMS.nu * PARAMS.gamma**2
    worst = 0.0
    for w0 in held_out_fields():
        base = sobolev_norm(w0, 2, A)
        prop = RobinPropagator(w0, PARAMS)
        for t in (0.1, 0.5, 1.0):
            ratio = sobolev_norm(prop.at(t), 2, A) * math.exp(-rate * t) / base
            worst = max(worst, ratio)
    report(
        5,
        "growth bound",
        ("worst held-out ratio", worst, 1.1 * c),
        ("runtime s", time.perf_counter() - started, 600.0),
    )


def test_criterion_6_gronwall_on_all_heat_runs():
    # replays the propagations of criteria 3-5 (same fields, same seeds) and
    # checks the pairwise energy inequality along a shared sample grid
    runs = []
    disc3 = Discretization(k_max=2, n_z=1024, l_z=L_Z)
    runs.append(eigen_field(disc3, PARAMS.gamma))
    for i in range(10):
        for n_z in (256, 512):
            runs.append(cross_solver_field(i, n_z))
    runs.extend(calibration_fields())
    runs.extend(held_out_fields())
    worst = 0.0
    for w0 in runs:
        prop = RobinPropagator(w0, PARAMS)
        energies = [sobolev_norm(prop.at(t), 2, A) ** 2 for t in GRONWALL_TIMES]
        cert = gronwall_energy_check(GRONWALL_TIMES, energies, PARAMS)
        worst = max(worst, cert.measured)
    report(
        6,
        "gronwall energy inequality",
        (f"worst pair ratio over {len(runs)} runs", worst, EXACT_SLACK),
    )


def test_criterion_7_picard_contraction_and_apriori():
    started = time.perf_counter()
    result, v0, w0 = picard_run()
    h = result.problem.horizon
    worst_ratio = max(result.ratios, default=0.0)
    v_worst = max(sobolev_norm(v, 3, A) for v in result.state.v_slices)
    w_worst = max(sobolev_norm(w, 2, A) for w in result.state.omega_slices)
    v_ball = 2.0 * sobolev_norm(v0, 3, A)
    w_ball = (
        h.growth_constant
        * math.exp(PARAMS.nu * PARAMS.gamma**2 * h.T)
        * (sobolev_norm(w0, 2, A) + 2.0 * h.T * sobolev_norm(v0, 3, A))
    )
    report(
        7,
        "picard contraction",
        ("worst sweep ratio", worst_ratio, 0.55),
        ("sweeps", float(result.iterations), 30.0),
        ("velocity apriori", v_worst, 1.1 * v_ball),
        ("vorticity apriori", w_worst, 1.1 * w_ball),
        ("runtime s", time.perf_counter() - started, 900.0),
    )


def test_criterion_8_fixed_point_residual_and_uniqueness():
    result, v0, w0 = picard_run()
    extra = picard_step(result.state, result.problem)
    residual = x_distance(extra, result.state, PARAMS)
    n_t = len(result.problem.t_grid)
    skewed = PicardState(v_slices=(v0,) * n_t, omega_slices=(w0.scaled(1.1),) * n_t)
    second = picard_solve(result.problem, initial_state=skewed)
    gap = x_distance(result.state, second.state, PARAMS)
    report(
        8,
        "fixed point residual and uniqueness",
        ("extra sweep movement", residual, 2e-8),
        ("two-path gap", gap, 1e-7),
    )


def test_criterion_9_trivial_closures(tmp_path):
    disc = Discretization(k_max=4, n_z=256, l_z=L_Z, n_t=9)
    zero = zero_field3(disc)
    zero_horizon = select_horizon(zero, zero, PARAMS, 1.5)
    result = picard_solve(PicardProblem(zero, zero, PARAMS, zero_horizon))
    flat = max(
        max(float(np.max(np.abs(v.coeffs))) for v in result.state.v_slices),
        max(float(np.max(np.abs(w.coeffs))) for w in result.state.omega_slices),
    )
    code = float(
        main(
            [
                "--command", "picard",
                "--config", str(CONFIG_DIR / "picard_zero.json"),
                "--out", str(tmp_path / "zero"),
            ]
        )
    )

    w0 = eigen_field(disc, PARAMS.gamma)
    run = picard_solve(PicardProblem(zero, w0, PARAMS, select_horizon(zero, w0, PARAMS, 1.5)))
    factor = PARAMS.nu * (PARAMS.gamma**2 - 2.0)
    analytic = PicardState(
        v_slices=(zero,) * disc.n_t,
        omega_slices=tuple(
            w0.scaled(math.exp(factor * t)) for t in run.problem.t_grid
        ),
    )
    heat_gap = x_distance(run.state, analytic, PARAMS)
    report(
        9,
        "trivial closures",
        ("zero-data solution max", flat, 0.0),
        ("zero-data exit code", code, 0.0),
        ("eigen run vs pure heat flow", heat_gap, 1e-8),
    )


def test_criterion_10_byte_identical_reports(tmp_path):
    config = CONFIG_DIR / "picard_smooth.json"
    blobs = []
    for stem in ("first", "second"):
        out = tmp_path / stem
        code = main(
            ["--command", "picard", "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        stored = read_report(out / "report.json")
        stored.pop("timing")
        blobs.append(json.dumps(stored, sort_keys=True, indent=2).encode())
    report(
        10,
        "determinism",
        ("reports differ", float(blobs[0] != blobs[1]), 0.0),
    )
