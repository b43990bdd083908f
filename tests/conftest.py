"""Shared fixtures: canonical parameter sets used across the test modules."""

import gc
import math
import os
import sys

import numpy as np
import pytest

from robinslab.domain import Discretization, ModelParams


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance PASS/FAIL lines past the capture machinery."""
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(module, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_leaked_child_process():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid gave pid {pid})")


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """Undo the gc.freeze() of a main() call, so later tests' garbage
    collections reach the objects this test left behind."""
    yield
    gc.unfreeze()


@pytest.fixture
def params_pi():
    """Unit-viscosity model on the a = pi box, growing Robin wall."""
    return ModelParams(a=math.pi, nu=1.0, gamma=2.0, beta=1.0)


@pytest.fixture
def disc_medium():
    return Discretization(k_max=4, n_z=512, l_z=20.0, n_t=9)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
