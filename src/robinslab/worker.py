"""Jobs run in forked child processes that send their results back over a pipe.

Worker.fork is the one place the program forks.  The child runs the job
and writes to a pipe: first a small pickled header (the job's value, or
the exception it raised, and its wall seconds), then whatever raw bytes
the worker class streams after it; then it exits.  Closing a worker kills
a child that has not sent everything and always reaps it, so no command
leaves a process behind on any exit path.  A child that fails outside the
job prints its traceback on stderr before it exits 1.

The forks, in the order a run makes them:

  picard      once the horizon is selected, the uniqueness check's second
              solve, in a SolveWorker (fork_solve).  Its header holds the
              sweep count, and the raw float64 coefficient bytes of every
              slice's v and w follow in slice order.  The parent reads the
              slices one pair at a time, so the converged state is never
              pickled and never whole in the parent's memory.
  picard      right after the main solve, the fixed-point-residual sweep,
              in a plain Worker whose child inherits the converged iterate
              copy-on-write and whose header holds the certificate.
  calibrate   its held-out ensembles, in a plain Worker whose header holds
              their ratio lists.

So up to three picard processes share the machine while the residual sweep
runs.  No child is sent anything after the fork: each job takes all it
needs from the parent's memory as it was at the fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time

import numpy as np

from .domain import SpectralField3
from .errors import WorkerError
from .picard import PicardProblem, PicardState, picard_solve

__all__ = ["Worker", "SolveWorker", "fork_solve"]


class Worker:
    """The parent's end of a forked job.

    Closing it (or leaving its with-block) kills a child that has not sent
    its whole result, and reaps the child.
    """

    kind = "worker"  # names the child in a WorkerError

    def __init__(self, pid: int, stream):
        self.pid = pid
        self.status: int | None = None  # exit code once reaped, -N for signal N
        self._stream = stream
        self._header: dict | None = None

    @classmethod
    def fork(cls, job, *args) -> "Worker":
        """Start job() in a forked child; returns cls(pid, stream, *args)."""
        # buffered output would otherwise be written once by each process
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as out:
                    cls._serve(out, job)
                code = 0
            except Exception:
                # the parent sees only the exit status, so say why here;
                # traceback is imported on this path alone, as no command
                # needs it otherwise
                import traceback

                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"), *args)

    @staticmethod
    def _reply(result):
        """The header's value and the raw buffers sent after it, from job()'s result."""
        return result, ()

    @classmethod
    def _serve(cls, out, job) -> None:
        """The child's side: run the job, then write the header and the tail.

        The header is pickled whole before it is written, so a value or an
        exception that will not pickle leaves the pipe empty and the child
        exits 1 with its traceback on stderr.
        """
        started = time.perf_counter()
        try:
            result = job()
        except Exception as exc:
            out.write(pickle.dumps({"error": exc, "seconds": time.perf_counter() - started}))
            return
        value, tail = cls._reply(result)
        out.write(pickle.dumps({"value": value, "seconds": time.perf_counter() - started}))
        for buffer in tail:
            out.write(buffer)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def seconds(self) -> float | None:
        """Wall seconds of the child's job, once its header has arrived."""
        return None if self._header is None else self._header["seconds"]

    def result(self):
        """The job's value; raises what the job raised.

        Blocks until the child's job ends; the child is reaped then.
        """
        value = self._value()
        self._reap()
        return value

    def close(self) -> None:
        if self.status is None:  # the child still runs or has not sent everything
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap()
        self._stream.close()

    def _value(self):
        """The header's value, read once; raises what the job raised."""
        if self._header is None:
            try:
                self._header = pickle.load(self._stream)
            except (EOFError, pickle.UnpicklingError):
                raise self._ended() from None
        if "error" in self._header:
            self._reap()  # the child exits once it has sent the error
            raise self._header["error"]
        return self._header["value"]

    def _reap(self) -> int:
        if self.status is None:
            _, status = os.waitpid(self.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
        return self.status

    def _ended(self) -> WorkerError:
        code = self._reap()
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return WorkerError(f"{self.kind} {self.pid} ended before sending its result: {how}")


class SolveWorker(Worker):
    """The parent's end of a forked picard_solve, which streams its slices."""

    kind = "solve worker"

    def __init__(self, pid: int, stream, disc):
        super().__init__(pid, stream)
        self._disc = disc

    @staticmethod
    def _reply(result):
        sweeps = result.iterations
        pairs = zip(result.state.v_slices, result.state.omega_slices)
        return sweeps, (np.ascontiguousarray(field.coeffs) for pair in pairs for field in pair)

    def sweeps(self) -> int:
        """Sweeps of the child's converged solve; raises what the solve raised.

        Blocks until the child's solve ends.
        """
        return self._value()

    def slices(self):
        """The converged (v, w) slice pairs, read from the pipe one pair at a
        time; the child is reaped once the last pair is read."""
        self.sweeps()
        for _ in range(self._disc.n_t):
            yield self._read_field(), self._read_field()
        self._reap()

    def _read_field(self) -> SpectralField3:
        disc = self._disc
        coeffs = np.empty(disc.lateral.shape(disc.n_z))
        if self._stream.readinto(coeffs) != coeffs.nbytes:
            raise self._ended()
        return SpectralField3(coeffs, disc)


def fork_solve(problem: PicardProblem, initial_state: PicardState | None = None) -> SolveWorker:
    """Start picard_solve(problem, initial_state) in a forked child."""
    return SolveWorker.fork(
        lambda: picard_solve(problem, initial_state=initial_state), problem.v0.disc
    )
