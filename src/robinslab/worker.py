"""A Picard solve in a forked child process that streams its slices back.

fork_solve forks at once.  The child runs picard_solve and writes to a
pipe: first a small pickled header (the solve's sweep count, or the
exception it raised, and its wall seconds), then the raw float64
coefficient bytes of every slice's v and w in slice order; then it exits.
The parent reads the slices one pair at a time, so the converged state is
never pickled and never whole in the parent's memory.  Closing the worker
kills a child that has not sent everything and always reaps it, so no
command leaves a process behind on any exit path.  A child that fails
outside the solve prints its traceback on stderr before it exits 1.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
import traceback

import numpy as np

from .domain import SpectralField3
from .errors import WorkerError
from .picard import PicardProblem, PicardState, picard_solve

__all__ = ["SolveWorker", "fork_solve"]


class SolveWorker:
    """The parent's end of a forked solve.

    Closing it (or leaving its with-block) kills a child that has not sent
    its whole result, and reaps the child.
    """

    def __init__(self, pid: int, stream, disc):
        self.pid = pid
        self.status: int | None = None  # exit code once reaped, -N for signal N
        self._stream = stream
        self._disc = disc
        self._header: dict | None = None

    def __enter__(self) -> "SolveWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def seconds(self) -> float | None:
        """Wall seconds of the child's solve, once its header has arrived."""
        return None if self._header is None else self._header["seconds"]

    def sweeps(self) -> int:
        """Sweeps of the child's converged solve; raises what the solve raised.

        Blocks until the child's solve ends.
        """
        if self._header is None:
            try:
                self._header = pickle.load(self._stream)
            except (EOFError, pickle.UnpicklingError):
                raise self._ended() from None
        if "error" in self._header:
            self._reap()  # the child exits once it has sent the error
            raise self._header["error"]
        return self._header["sweeps"]

    def slices(self):
        """The converged (v, w) slice pairs, read from the pipe one pair at a
        time; the child is reaped once the last pair is read."""
        self.sweeps()
        for _ in range(self._disc.n_t):
            yield self._read_field(), self._read_field()
        self._reap()

    def close(self) -> None:
        if self.status is None:  # the child still runs or has not sent everything
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap()
        self._stream.close()

    def _read_field(self) -> SpectralField3:
        disc = self._disc
        coeffs = np.empty((disc.k_max, disc.k_max, disc.n_z))
        if self._stream.readinto(coeffs) != coeffs.nbytes:
            raise self._ended()
        return SpectralField3(coeffs, disc)

    def _reap(self) -> int:
        if self.status is None:
            _, status = os.waitpid(self.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
        return self.status

    def _ended(self) -> WorkerError:
        code = self._reap()
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return WorkerError(f"solve worker {self.pid} ended before sending its result: {how}")


def fork_solve(problem: PicardProblem, initial_state: PicardState | None = None) -> SolveWorker:
    """Start picard_solve(problem, initial_state) in a forked child."""
    # buffered output would otherwise be written once by each process
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                _serve(out, problem, initial_state)
            code = 0
        except Exception:
            # the parent sees only the exit status, so say why here
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)
    return SolveWorker(pid, open(read_fd, "rb"), problem.v0.disc)


def _serve(out, problem: PicardProblem, initial_state: PicardState | None) -> None:
    """The child's side: solve, then write the header and the slices.

    The header is pickled whole before it is written, so an exception that
    will not pickle leaves the pipe empty and the child exits 1 with its
    traceback on stderr.
    """
    started = time.perf_counter()
    try:
        result = picard_solve(problem, initial_state=initial_state)
    except Exception as exc:
        out.write(pickle.dumps({"error": exc, "seconds": time.perf_counter() - started}))
        return
    out.write(pickle.dumps({"sweeps": result.iterations, "seconds": time.perf_counter() - started}))
    for v, w in zip(result.state.v_slices, result.state.omega_slices):
        out.write(np.ascontiguousarray(v.coeffs))
        out.write(np.ascontiguousarray(w.coeffs))
