"""The forked children, picard's uniqueness solve and residual sweep and
calibrate's held-out ensembles, on every path they can end by.

The uniqueness worker's child runs the second Picard solve and streams its
slices back; the residual child runs the extra sweep from the converged
iterate and sends its certificate; calibrate's child samples the two
held-out ensembles and sends their ratio lists.  The parent must turn
each way a child can end into the same certificates the in-process work
would give, or into failed certificates naming how the child ended, and
must never leave a process behind or wait on one that will not answer.
A fork that fails leaves no descriptor open.  The autouse fixture in
conftest.py fails any test here that leaves a child unreaped.
"""

import errno
import json
import math
import os
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from robinslab import cli, picard, worker
from robinslab.cli import main
from robinslab.domain import Discretization, ModelParams, random_field3
from robinslab.errors import NoConvergenceError
from robinslab.picard import PicardProblem, PicardState, picard_solve, select_horizon
from robinslab.verify import (
    Certificate, growth_bound_check, run_certificates, start_uniqueness_solve, uniqueness_check,
)

PARAMS = ModelParams(a=math.pi, nu=1.0, gamma=2.0, beta=1.0)
# every wait on a child here ends in well under this many seconds
PROMPT_S = 20.0
ROOT = Path(__file__).parents[1]


@pytest.fixture(scope="module")
def first():
    disc = Discretization(k_max=3, n_z=129, l_z=20.0, n_t=9)
    gen = np.random.default_rng(5)
    v0 = random_field3(disc, gen, kind="vspace", amplitude=0.05)
    w0 = random_field3(disc, gen, kind="robin", gamma=PARAMS.gamma, amplitude=0.2)
    return picard_solve(PicardProblem(v0, w0, PARAMS, select_horizon(v0, w0, PARAMS, 1.5)))


def stalled_solve(*args, **kwargs):
    time.sleep(10 * PROMPT_S)


def killed_self(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def uniqueness_certificate(first, second):
    [cert] = run_certificates([("uniqueness", lambda: uniqueness_check(first, second))])
    return cert


def test_a_solve_that_does_not_converge_fails_with_the_in_process_error(first, monkeypatch):
    monkeypatch.setattr(picard, "MAX_SWEEPS", 1)  # before the fork, so the child has it too
    with start_uniqueness_solve(first.problem) as second:
        forked = uniqueness_certificate(first, second)
    assert second.status == 0

    def in_process():
        problem = first.problem
        n_t = len(problem.t_grid)
        skewed = PicardState((problem.v0,) * n_t, (problem.w0.scaled(1.1),) * n_t)
        picard_solve(problem, initial_state=skewed)

    [serial] = run_certificates([("uniqueness", in_process)])
    assert not forked.passed
    assert forked.details["error"].startswith("NoConvergenceError: no convergence in 1 sweeps")
    assert forked == serial


def test_a_killed_child_fails_the_certificate_naming_the_signal(first, monkeypatch):
    monkeypatch.setattr(worker, "picard_solve", stalled_solve)
    started = time.monotonic()
    with start_uniqueness_solve(first.problem) as second:
        second_pid = second.pid
        os.kill(second_pid, signal.SIGKILL)
        cert = uniqueness_certificate(first, second)
    assert time.monotonic() - started < PROMPT_S
    assert second.status == -signal.SIGKILL
    assert not cert.passed
    assert cert.details["error"] == (
        f"WorkerError: solve worker {second_pid} ended before sending its result: "
        "killed by signal 9"
    )


def test_a_child_failing_outside_the_solve_prints_why(first, monkeypatch, capfd):
    # the solve "returns" something that is not a result, so writing the
    # header raises in the child after picard_solve is done
    monkeypatch.setattr(worker, "picard_solve", lambda *args, **kwargs: object())
    with start_uniqueness_solve(first.problem) as second:
        second_pid = second.pid
        cert = uniqueness_certificate(first, second)
    assert second.status == 1
    assert not cert.passed
    assert cert.details["error"] == (
        f"WorkerError: solve worker {second_pid} ended before sending its result: "
        "exit status 1"
    )
    err = capfd.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "AttributeError: 'object' object has no attribute 'iterations'" in err


def picard_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "params": {"a": math.pi, "nu": 1.0, "gamma": 2.0, "beta": 1.0},
        "disc": {"k_max": 2, "n_z": 129, "l_z": 20.0, "n_t": 5},
        "seed": 3,
        "initial_data": {
            "v": {"family": "random", "kind": "vspace", "amplitude": 0.1},
            "w": {"family": "random", "kind": "robin", "amplitude": 0.05},
        },
    }))
    return path


@pytest.fixture
def workers(monkeypatch):
    """Every worker a run forks, in the order it forked them, kept for inspection."""
    started = []
    real_fork = worker.Worker.fork.__func__

    def recording_fork(cls, *args):
        started.append(real_fork(cls, *args))
        return started[-1]

    monkeypatch.setattr(worker.Worker, "fork", classmethod(recording_fork))
    return started


def run_picard(tmp_path):
    out = tmp_path / "run"
    return main(["--command", "picard", "--config", str(picard_config(tmp_path)), "--out", str(out)])


def test_a_failing_main_solve_kills_and_reaps_the_child(tmp_path, capsys, monkeypatch, workers):
    def failing_solve(*args, **kwargs):
        raise NoConvergenceError("no convergence in 30 sweeps (injected)")

    monkeypatch.setattr(worker, "picard_solve", stalled_solve)
    monkeypatch.setattr(cli, "picard_solve", failing_solve)
    started = time.monotonic()
    assert run_picard(tmp_path) == 1
    assert time.monotonic() - started < PROMPT_S
    assert capsys.readouterr().err == "convergence error: no convergence in 30 sweeps (injected)\n"
    [second] = workers  # no residual child: there is no converged iterate to sweep
    assert second.status == -signal.SIGKILL


def test_a_failing_child_exits_two_and_leaves_no_process(tmp_path, capsys, monkeypatch, workers):
    def failing_solve(*args, **kwargs):
        raise NoConvergenceError("no convergence in 30 sweeps (injected)")

    monkeypatch.setattr(worker, "picard_solve", failing_solve)
    assert run_picard(tmp_path) == 2
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    [cert] = [c for c in report["certificates"] if c["name"] == "uniqueness"]
    assert cert["details"] == {"error": "NoConvergenceError: no convergence in 30 sweeps (injected)"}
    assert "FAIL uniqueness" in capsys.readouterr().out
    [second, residual] = workers
    assert second.status == residual.status == 0


def test_a_passing_run_reaps_its_child(tmp_path, workers):
    assert run_picard(tmp_path) == 0
    [second, residual] = workers
    assert second.status == residual.status == 0
    assert second.seconds > 0.0 and residual.seconds > 0.0


def report_of(tmp_path):
    return json.loads((tmp_path / "run" / "report.json").read_text())


def test_a_killed_child_leaves_no_phase_unmeasured(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(worker, "picard_solve", killed_self)
    assert run_picard(tmp_path) == 2
    [second, residual] = workers
    assert second.status == -signal.SIGKILL
    phases = report_of(tmp_path)["timing"]["phase_seconds"]
    assert "uniqueness_solve" not in phases
    assert phases["residual_sweep"] == residual.seconds
    assert phases and all(isinstance(s, float) and s >= 0.0 for s in phases.values())


# --- picard's residual sweep -------------------------------------------------


def certificates_of(tmp_path):
    return {c["name"]: c for c in report_of(tmp_path)["certificates"]}


def test_a_residual_sweep_that_raises_fails_only_its_certificate(
    tmp_path, capsys, monkeypatch, workers
):
    assert run_picard(tmp_path) == 0
    passing = certificates_of(tmp_path)

    def failing_check(result):
        raise FloatingPointError("residual sweep failed (injected)")

    monkeypatch.setattr(cli, "fixed_point_residual_check", failing_check)
    assert run_picard(tmp_path) == 2
    certs = certificates_of(tmp_path)
    failed = certs.pop("fixed-point-residual")
    assert failed["details"] == {"error": "FloatingPointError: residual sweep failed (injected)"}
    assert not failed["passed"]
    passing.pop("fixed-point-residual")
    assert certs == passing
    assert capsys.readouterr().out.count("FAIL") == 1
    [*_, second, residual] = workers
    assert second.status == residual.status == 0


def test_a_killed_residual_child_fails_its_certificate_naming_the_signal(
    tmp_path, monkeypatch, workers
):
    monkeypatch.setattr(cli, "fixed_point_residual_check", killed_self)
    assert run_picard(tmp_path) == 2
    [second, residual] = workers
    assert second.status == 0
    assert residual.status == -signal.SIGKILL
    certs = certificates_of(tmp_path)
    assert certs["fixed-point-residual"]["details"] == {"error": (
        f"WorkerError: worker {residual.pid} ended before sending its result: "
        "killed by signal 9"
    )}
    assert certs["uniqueness"]["passed"]
    phases = report_of(tmp_path)["timing"]["phase_seconds"]
    assert "residual_sweep" not in phases
    assert phases["uniqueness_solve"] == second.seconds


def failing_solve(*args, **kwargs):
    raise NoConvergenceError("no convergence in 30 sweeps (injected)")


def unwritable_snapshots(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "snapshots").write_text("a file where the directory goes")


# each way a picard run can end: (what to patch, its stand-in, exit code)
EXIT_PATHS = {
    "passes": ([], 0),
    "main solve fails": ([(cli, "picard_solve", failing_solve)], 1),
    "second solve fails": ([(worker, "picard_solve", failing_solve)], 2),
    "second solve killed": ([(worker, "picard_solve", killed_self)], 2),
    "residual sweep raises": ([(cli, "fixed_point_residual_check", failing_solve)], 2),
    "residual child killed": ([(cli, "fixed_point_residual_check", killed_self)], 2),
    "outputs unwritable": ([], 1),
}


@pytest.mark.parametrize("path", EXIT_PATHS)
def test_a_picard_run_leaves_no_child_process_on_any_exit_path(
    tmp_path, monkeypatch, workers, path
):
    patches, code = EXIT_PATHS[path]
    for module, name, stand_in in patches:
        monkeypatch.setattr(module, name, stand_in)
    if path == "outputs unwritable":
        unwritable_snapshots(tmp_path)
    assert run_picard(tmp_path) == code
    assert workers and all(w.status is not None for w in workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "command, failing_fork",
    [("picard", 1), ("picard", 2), ("calibrate", 1)],
    ids=["picard", "picard-residual", "calibrate"],
)
def test_a_failed_fork_closes_both_pipe_ends(tmp_path, capsys, monkeypatch, command, failing_fork):
    real_fork = os.fork
    forks = []

    def fork_failing_once():
        forks.append(None)
        if len(forks) == failing_fork:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(worker.os, "fork", fork_failing_once)
    config = ROOT / "configs" / "picard_zero.json"
    open_fds = len(os.listdir("/proc/self/fd"))
    argv = ["--command", command, "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert len(forks) == failing_fork
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert capsys.readouterr().err == "io error: [Errno 11] Resource temporarily unavailable\n"


# --- calibrate's held-out ensembles ------------------------------------------


def run_calibrate(tmp_path):
    out = tmp_path / "run"
    return main(
        ["--command", "calibrate", "--config", str(picard_config(tmp_path)), "--out", str(out)]
    )


def held_out_certificates(tmp_path):
    return {c["name"]: c for c in report_of(tmp_path)["certificates"]}


def test_a_sampler_that_raises_fails_only_its_own_certificate(tmp_path, monkeypatch):
    assert run_calibrate(tmp_path) == 0
    passing = held_out_certificates(tmp_path)

    def failing_sampler(*args, **kwargs):
        raise ValueError("growth sampler failed (injected)")

    monkeypatch.setattr(cli, "growth_ratios", failing_sampler)
    assert run_calibrate(tmp_path) == 2
    certs = held_out_certificates(tmp_path)
    assert certs["elliptic-held-out"] == passing["elliptic-held-out"]
    [serial] = run_certificates([(
        "growth-held-out",
        lambda: growth_bound_check(failing_sampler(), 1.0, name="growth-held-out"),
    )])
    failed = certs["growth-held-out"]
    assert failed["measured"] == "inf"  # the report's spelling of a non-finite float
    assert Certificate(**{**failed, "measured": math.inf}) == serial
    assert failed["details"] == {"error": "ValueError: growth sampler failed (injected)"}


def test_a_killed_child_fails_both_held_out_certificates_naming_the_signal(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "_held_out_ratios", killed_self)
    assert run_calibrate(tmp_path) == 2
    report = report_of(tmp_path)
    certs = held_out_certificates(tmp_path)
    assert set(certs) == {"elliptic-held-out", "growth-held-out"}
    [error] = {cert["details"]["error"] for cert in certs.values()}
    assert re.fullmatch(
        r"WorkerError: worker \d+ ended before sending its result: killed by signal 9", error
    )
    assert not any(cert["passed"] for cert in certs.values())
    assert set(report["measured_constants"]) == {"elliptic_constant", "growth_constant"}
    phases = report["timing"]["phase_seconds"]
    assert "held_out_ensembles" not in phases
    assert phases and all(isinstance(s, float) and s >= 0.0 for s in phases.values())
    assert capsys.readouterr().out.count("FAIL") == 2


def test_a_failing_calibration_kills_and_reaps_the_held_out_child(tmp_path, capsys, monkeypatch):
    def failing_calibration(*args, **kwargs):
        raise NoConvergenceError("calibration failed (injected)")

    monkeypatch.setattr(cli, "_held_out_ratios", stalled_solve)
    monkeypatch.setattr(cli, "calibrate_growth_constant", failing_calibration)
    started = time.monotonic()
    assert run_calibrate(tmp_path) == 1
    assert time.monotonic() - started < PROMPT_S
    assert capsys.readouterr().err == "convergence error: calibration failed (injected)\n"
    assert not (tmp_path / "run" / "report.json").exists()
