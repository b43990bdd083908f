"""Command line driver.

One process per run: parse the config, dispatch the command, write
report.json / norms.csv / snapshots into the output directory, and exit
0 only when every certificate passed (2 on a certificate failure, 1 on
an operational error).  All randomness flows through the single config
seed, so repeating a run reproduces the report byte for byte except for
the timing block.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .domain import Discretization, ModelParams, field3_from_profile, random_field3, sobolev_norm
from .elliptic import (
    calibrate_elliptic_constant,
    elliptic_ratios,
    interior_residual,
    solve_elliptic,
)
from .errors import (
    ConfigError,
    NoConvergenceError,
    ResonanceError,
    RobinSlabError,
)
from .heat import (
    RobinPropagator,
    boundary_residual,
    calibrate_growth_constant,
    growth_ratio,
    growth_ratios,
    warn_if_incompatible,
)
from .picard import PicardProblem, picard_solve, select_horizon
from .report import (
    NORM_COLUMNS,
    RunConfig,
    build_field,
    json_safe,
    load_config,
    read_norms_csv,
    read_report,
    write_norms_csv,
    write_report,
    write_snapshot,
)
from .verify import (
    apriori_bounds_check,
    contraction_check,
    fixed_point_residual_check,
    gronwall_energy_check,
    gronwall_samples,
    growth_bound_check,
    elliptic_bound_check,
    make_certificate,
    min_order_certificate,
    order_certificate,
    run_certificates,
    start_uniqueness_solve,
    transform_oracle_certificate,
    uniqueness_check,
)
from .worker import Worker

__all__ = ["main", "run", "COMMANDS"]

COMMANDS = ("calibrate", "elliptic", "heat", "picard", "verify", "convergence")

# t samples shared by the growth-constant calibration and its held-out check
_CAL_TIMES = (0.1, 0.5, 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="robinslab",
        description="Certified runs of the Robin-wall slab model.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="run configuration (JSON)")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    args = parser.parse_args(argv)
    # what the imports made lives until exit: freeze it so no collection,
    # in this process, in the forked uniqueness child or at shutdown,
    # walks it (or writes to pages the child shares with the parent)
    gc.freeze()
    try:
        return run(args.command, args.config, args.out, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResonanceError as exc:
        print(f"resonance error: {exc}", file=sys.stderr)
        return 1
    except NoConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except RobinSlabError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1


def run(command: str, config_path, out_dir, seed_override: int | None = None) -> int:
    """Execute one command; returns the process exit code."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    out_dir = Path(out_dir)
    started = time.perf_counter()
    if command == "verify":
        report, extras = _cmd_verify(out_dir), {}
    else:
        if config_path is None:
            raise ConfigError(f"--config is required for the {command} command")
        config = load_config(config_path, seed_override)
        report, extras = _DISPATCH[command](config)
        report["command"] = command
        report["config"] = config.echo()
        report.setdefault("horizon", None)
        times = extras["norms"][0] if "norms" in extras else []
        report["error_budget"] = _error_budget(config, times)
    report.setdefault("timing", {})["total_seconds"] = time.perf_counter() - started
    return _emit(command, out_dir, report, **extras)


@contextmanager
def _phase(phases: dict, name: str):
    """Record the wall seconds of the block in phases[name]."""
    started = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = time.perf_counter() - started


def _child_phase(phases: dict, name: str, worker: Worker) -> None:
    """Record a forked child's wall seconds in phases[name], if it reported them."""
    if worker.seconds is not None:
        phases[name] = worker.seconds


def _timed_certificates(phases: dict, checks) -> list:
    """run_certificates over (name, thunk) checks, each timed as a phase."""
    certs = []
    for name, thunk in checks:
        with _phase(phases, name.replace("-", "_")):
            certs += run_certificates([(name, thunk)])
    return certs


def _emit(command, out_dir, report, norms=None, snapshots=None, convergence_rows=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    name = "verify_report.json" if command == "verify" else "report.json"
    if convergence_rows is not None:
        with open(out_dir / "convergence.csv", "w", newline="") as fh:
            fh.write("sweep,n_z,error\n")
            for sweep, n_z, err in convergence_rows:
                fh.write(f"{sweep},{n_z},{err:.17g}\n")
    if command != "verify":
        norms = norms or ([], [], [], [])
        write_norms_csv(out_dir / "norms.csv", *norms)
        report["norm_timeseries"] = dict(zip(NORM_COLUMNS, map(list, norms)))
        if snapshots:
            snap_dir = out_dir / "snapshots"
            snap_dir.mkdir(exist_ok=True)
            for stem, field in snapshots.items():
                write_snapshot(snap_dir / f"{stem}.csv", field)
    certs = report["certificates"]
    report["certificates"] = [dataclasses.asdict(c) for c in certs]
    write_report(out_dir / name, report)
    for cert in certs:
        print(cert.describe())
    return 0 if all(c.passed for c in certs) else 2


def _error_budget(config: RunConfig, times) -> dict:
    """A-priori error scales; dt^2 only for a run with a time series in times."""
    disc, params = config.disc, config.params
    mu_min = math.pi * math.sqrt(2.0) / params.a
    budget = {
        "tail_gamma": math.exp(-params.gamma * disc.l_z),
        "tail_mu_min": math.exp(-mu_min * disc.l_z),
        "dz_sq": disc.dz**2,
        "dt_sq": None,
        "moment_tail": math.exp(-2.0 * params.gamma * disc.l_z),
    }
    if len(times) > 1:
        budget["dt_sq"] = (float(times[-1]) / (len(times) - 1)) ** 2
    return budget


# --- calibrate ---------------------------------------------------------------


def _held_out_ratios(config: RunConfig) -> list:
    """calibrate's held-out ratio lists; a sampler that raised gives its
    exception in place of its list.

    Each ensemble is drawn lazily from its own rng, so the two lists do not
    depend on each other or on the calibration ensembles.
    """
    params, disc = config.params, config.disc
    generic_rng = np.random.default_rng(config.seed + 2)
    generic = (random_field3(disc, generic_rng, kind="generic") for _ in range(50))
    robin_rng = np.random.default_rng(config.seed + 3)
    robin = (random_field3(disc, robin_rng, kind="robin", gamma=params.gamma) for _ in range(50))
    samplers = (
        lambda: elliptic_ratios(generic, params.s, params.a, params.beta),
        lambda: growth_ratios(robin, _CAL_TIMES, params.s, params),
    )
    outcomes = []
    for sample in samplers:
        try:
            outcomes.append(sample())
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _held_out(worker: Worker, index: int) -> list:
    """The held-out ratio list at index; raises what its sampler or the worker raised."""
    ratios = worker.result()[index]
    if isinstance(ratios, Exception):
        raise ratios
    return ratios


def _cmd_calibrate(config: RunConfig):
    params, disc = config.params, config.disc
    phases = {}
    # the held-out ensembles need only the config, so they run in a forked
    # child beside the calibrations
    with Worker.fork(lambda: _held_out_ratios(config)) as held_out:
        with _phase(phases, "elliptic_calibration"):
            c_s = calibrate_elliptic_constant(50, params.s, config.seed, disc, params.a, params.beta)
        with _phase(phases, "growth_calibration"):
            c_gs = calibrate_growth_constant(
                50, params.s, (0.0,) + _CAL_TIMES, config.seed + 1, params, disc
            )
        certs = _timed_certificates(
            phases,
            [
                (
                    "elliptic-held-out",
                    lambda: elliptic_bound_check(
                        _held_out(held_out, 0), c_s, name="elliptic-held-out"
                    ),
                ),
                (
                    "growth-held-out",
                    lambda: growth_bound_check(
                        _held_out(held_out, 1), c_gs, name="growth-held-out"
                    ),
                ),
            ],
        )
    _child_phase(phases, "held_out_ensembles", held_out)
    report = {
        "measured_constants": {"elliptic_constant": c_s, "growth_constant": c_gs},
        "certificates": certs,
        "timing": {"phase_seconds": phases},
    }
    return report, {}


# --- elliptic ----------------------------------------------------------------


def _cmd_elliptic(config: RunConfig):
    params, disc = config.params, config.disc
    rng = np.random.default_rng(config.seed)
    f = build_field(config.initial_w, config, rng)
    phases = {}
    with _phase(phases, "solve"):
        v = solve_elliptic(f, params.beta, params.a)
    scale = max(1.0, float(np.max(np.abs(v.coeffs))))
    with _phase(phases, "residuals"):
        certs = [
            make_certificate(
                "interior-residual", interior_residual(v, f, params.beta, params.a), 1e-8
            ),
            # one-sided wall stencil carries O(dz^2); 50x covers the profile's
            # third derivative on any data the families produce
            make_certificate(
                "wall-condition",
                boundary_residual(v, params.beta, params.a) / scale,
                50.0 * disc.dz**2 * params.a,
            ),
        ]
    with _phase(phases, "norms"):
        f_norm = sobolev_norm(f, params.s, params.a)
        norms = ([0.0], [sobolev_norm(v, params.s + 1, params.a)], [f_norm], [f_norm**2])
    report = {
        "measured_constants": {},
        "certificates": certs,
        "timing": {"phase_seconds": phases},
    }
    return report, {"norms": norms, "snapshots": {"solution": v}}


# --- heat --------------------------------------------------------------------


def _growth_constant_for(config: RunConfig) -> float:
    return calibrate_growth_constant(
        20, config.params.s, (0.0,) + _CAL_TIMES, config.seed + 1,
        config.params, config.disc,
    )


def _cmd_heat(config: RunConfig):
    params, disc = config.params, config.disc
    rng = np.random.default_rng(config.seed)
    w0 = build_field(config.initial_w, config, rng)
    phases = {}
    with _phase(phases, "growth_calibration"):
        c_gs = _growth_constant_for(config)
    warn_if_incompatible(w0, params.gamma)
    t_grid = np.linspace(0.0, 1.0, disc.n_t)
    with _phase(phases, "propagation"):
        prop = RobinPropagator(w0, params)
        slices = [w0] + [prop.at(t) for t in t_grid[1:]]
        w_norms = [sobolev_norm(w, params.s, params.a) for w in slices]
    energies = [n * n for n in w_norms]
    base = w_norms[0]
    ratios = (
        [growth_ratio(n, base, t, params) for t, n in zip(t_grid[1:], w_norms[1:])]
        if base > 0.0
        else []
    )
    certs = _timed_certificates(
        phases,
        [
            ("gronwall-energy", lambda: gronwall_energy_check(t_grid, energies, params)),
            ("growth-bound", lambda: growth_bound_check(ratios, c_gs)),
            (
                "heat-route-agreement",
                lambda: transform_oracle_certificate(
                    w0, float(t_grid[len(t_grid) // 2]), params
                ),
            ),
        ],
    )
    norms = (list(t_grid), [0.0] * len(slices), w_norms, energies)
    report = {
        "measured_constants": {"growth_constant": c_gs},
        "certificates": certs,
        "timing": {"phase_seconds": phases},
    }
    return report, {"norms": norms, "snapshots": {"omega_final": slices[-1]}}


# --- picard ------------------------------------------------------------------


def _cmd_picard(config: RunConfig):
    params = config.params
    rng = np.random.default_rng(config.seed)
    v0 = build_field(config.initial_v, config, rng)
    w0 = build_field(config.initial_w, config, rng)
    phases = {}
    with _phase(phases, "growth_calibration"):
        # small ensemble: pad the max before trusting it as a uniform constant
        c_gs = 1.25 * _growth_constant_for(config)
    horizon = select_horizon(v0, w0, params, c_gs)
    problem = PicardProblem(v0, w0, params, horizon)
    # the uniqueness check's second solve needs only the problem, so it
    # runs in a forked child beside everything below
    with start_uniqueness_solve(problem) as second:
        with _phase(phases, "main_solve"):
            result = picard_solve(problem)
        v_norms = [sobolev_norm(v, params.s + 1, params.a) for v in result.state.v_slices]
        w_norms = [sobolev_norm(w, params.s, params.a) for w in result.state.omega_slices]
        checks = [
            ("contraction", lambda: contraction_check(result.ratios)),
            ("apriori", lambda: apriori_bounds_check(v_norms, w_norms, horizon, params)),
            ("fixed-point-residual", lambda: fixed_point_residual_check(result)),
            ("uniqueness", lambda: uniqueness_check(result, second)),
        ]
        certs = _timed_certificates(phases, checks)
    _child_phase(phases, "uniqueness_solve", second)
    energies = [n * n for n in w_norms]
    report = {
        "measured_constants": {"growth_constant": c_gs},
        "certificates": certs,
        "horizon": dataclasses.asdict(horizon),
        "picard": {
            "iterations": result.iterations,
            "diffs": list(result.diffs),
            "ratios": list(result.ratios),
        },
        "timing": {"phase_seconds": phases},
    }
    extras = {
        "norms": (list(problem.t_grid), v_norms, w_norms, energies),
        "snapshots": {
            "v_final": result.state.v_slices[-1],
            "omega_final": result.state.omega_slices[-1],
        },
    }
    return report, extras


# --- verify ------------------------------------------------------------------


@contextmanager
def _artifact(path: Path):
    """Re-raise what a malformed stored artifact raises as a ConfigError naming it."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed artifact: {type(exc).__name__}: {exc}") from exc


def _cmd_verify(out_dir: Path) -> dict:
    report_path = out_dir / "report.json"
    if not report_path.exists():
        raise ConfigError(f"nothing to verify: {report_path} does not exist")
    stored = read_report(report_path)
    if not isinstance(stored, dict):
        raise ConfigError(
            f"{report_path}: a report is a JSON object, got {type(stored).__name__}"
        )
    certs = []
    mismatches = 0
    with _artifact(report_path):
        records = stored["certificates"]
        if not records:
            raise ValueError("the report holds no certificates")
        for rec in records:
            fresh = make_certificate(
                rec["name"], float(rec["measured"]), float(rec["bound"]), **rec["details"]
            )
            # compared as written, where a NaN margin is the string "nan"
            mismatches += json_safe(dataclasses.asdict(fresh)) != rec
            certs.append(fresh)
    certs.append(
        make_certificate("stored-flags-consistent", float(mismatches), 0.0)
    )
    if stored.get("command") == "heat":
        with _artifact(report_path):
            params = ModelParams(**stored["config"]["params"])
        norms_path = out_dir / "norms.csv"
        with _artifact(norms_path):
            series = read_norms_csv(norms_path)
            times, energies = gronwall_samples(series["t"], series["energy"])
        certs += run_certificates([(
            "gronwall-recheck",
            lambda: gronwall_energy_check(times, energies, params, name="gronwall-recheck"),
        )])
    return {
        "command": "verify",
        "source": report_path.name,
        "certificates": certs,
    }


# --- convergence -------------------------------------------------------------


def _elliptic_sweep():
    """Manufactured wall-compatible eigenfunction on successively finer grids.

    On the square of side pi, mode (1,1) with the e^{-z} profile satisfies
    -lap v = v for beta = 1 exactly, so the solver must reproduce its input.
    """
    rows, errors, steps = [], [], []
    for n_z in (128, 256, 512, 1024):
        disc = Discretization(k_max=2, n_z=n_z, l_z=20.0)
        f = field3_from_profile(disc, (1, 1), np.exp(-disc.z))
        v = solve_elliptic(f, 1.0, math.pi)
        err = sobolev_norm(v - f, 0, math.pi) / sobolev_norm(f, 0, math.pi)
        rows.append(("elliptic-eigenfunction", n_z, err))
        errors.append(err)
        steps.append(disc.dz)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    certs = [
        make_certificate("elliptic-eigenfunction-error", errors[2], 1e-3, n_z=512),
        order_certificate("elliptic-order", float(slope)),
    ]
    return rows, certs


def _heat_sweep(config: RunConfig):
    """Transform propagator against the time-stepping route, jointly refined.

    A level whose oracle refuses its step fails heat-route-error, with the
    refusal in its details, in place of both certificates.
    """
    params = config.params
    rng = np.random.default_rng(config.seed)
    rows, errors, steps = [], [], []

    def sweep():
        for n_z, n_steps in ((257, 500), (513, 1000)):
            disc = Discretization(k_max=4, n_z=n_z, l_z=20.0)
            f = random_field3(disc, rng, kind="robin", gamma=params.gamma)
            err = transform_oracle_certificate(f, 0.3, params, n_steps=n_steps).measured
            rows.append(("heat-route", n_z, err))
            errors.append(err)
            steps.append(disc.dz)
        order = math.log(errors[0] / errors[1]) / math.log(steps[0] / steps[1])
        return [
            make_certificate("heat-route-error", errors[-1], 5e-3, n_z=513),
            min_order_certificate("heat-joint-order", order, 1.8),
        ]

    return rows, run_certificates([("heat-route-error", sweep)])


def _cmd_convergence(config: RunConfig):
    phases = {}
    with _phase(phases, "elliptic_sweep"):
        elliptic_rows, elliptic_certs = _elliptic_sweep()
    with _phase(phases, "heat_sweep"):
        heat_rows, heat_certs = _heat_sweep(config)
    rows = elliptic_rows + heat_rows
    report = {
        "measured_constants": {},
        "certificates": elliptic_certs + heat_certs,
        "convergence_table": [
            {"sweep": sweep, "n_z": n_z, "error": err} for sweep, n_z, err in rows
        ],
        "timing": {"phase_seconds": phases},
    }
    return report, {"convergence_rows": rows}


_DISPATCH = {
    "calibrate": _cmd_calibrate,
    "elliptic": _cmd_elliptic,
    "heat": _cmd_heat,
    "picard": _cmd_picard,
    "convergence": _cmd_convergence,
}


if __name__ == "__main__":
    sys.exit(main())
