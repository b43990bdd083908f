"""Run one robinslab CLI command in this (fresh) process and time it from outside.

Usage:
    python3 perfbench/child.py RECORD TRACE CONFIG SEED -- <robinslab arguments>

RECORD  path of the JSON record this process writes before it exits
TRACE   "1" wraps the package's public functions and records spans, "0" does not
CONFIG  config path loaded during set-up ("" for commands without a config)
SEED    seed passed to load_config during set-up ("" for none)

Set-up is the import of robinslab.cli (which pulls in numpy and scipy) plus
one load_config; every CLI user pays it once per command.  The command then
runs through robinslab.cli.main exactly as the console script would.

Tracing never edits the program: each traced function is replaced by a
wrapper at every robinslab module namespace that holds it by name (for
example both robinslab.elliptic.solve_elliptic and the copy picard imported),
and methods are wrapped on their class.  Spans (name, start, end, parent)
are kept in memory and written into RECORD when the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

# (span name, defining module, attribute path).  RobinPropagator.build is
# __init__, which includes build_transform_bundle.  calibrate_growth_constant
# is named after the cli layer because the commands call it from there: the
# fresh calibration that picard and heat run before they solve.
TRACED = (
    ("domain.pointwise_product", "robinslab.domain", "pointwise_product"),
    ("domain.sobolev_norm", "robinslab.domain", "sobolev_norm"),
    ("domain.d_z", "robinslab.domain", "d_z"),
    ("elliptic.solve_elliptic", "robinslab.elliptic", "solve_elliptic"),
    ("heat.RobinPropagator.build", "robinslab.heat", "RobinPropagator.__init__"),
    ("heat.RobinPropagator.at", "robinslab.heat", "RobinPropagator.at"),
    ("heat.fd_robin_oracle", "robinslab.heat", "fd_robin_oracle"),
    ("picard.duhamel_apply", "robinslab.picard", "duhamel_apply"),
    ("picard.picard_step", "robinslab.picard", "picard_step"),
    ("verify.uniqueness_check", "robinslab.verify", "uniqueness_check"),
    ("verify.fixed_point_residual_check", "robinslab.verify", "fixed_point_residual_check"),
    ("verify.transform_oracle_certificate", "robinslab.verify", "transform_oracle_certificate"),
    ("report.write_snapshot", "robinslab.report", "write_snapshot"),
    ("report.write_report", "robinslab.report", "write_report"),
    ("cli.calibrate_growth_constant", "robinslab.heat", "calibrate_growth_constant"),
)

# Counted but not timed: a span per transform would move the propagator's
# own cost out of RobinPropagator.at.self_s.
COUNTED = (
    ("heat.transforms", "robinslab.heat", "dst"),
    ("heat.transforms", "robinslab.heat", "dct"),
)


def _at_bytes(field) -> int:
    """Computed bytes one RobinPropagator.at call must touch at minimum.

    The propagator's spectral state is read once (z-sine slab modes on the
    interior points, z wavenumbers, lateral rates, wall moments, wall
    profile) and the output field is written once, all float64.  Derived
    from the returned field's shape, not measured: caches are ignored.
    """
    k1, k2, n_z = field.coeffs.shape
    k2d, interior = k1 * k2, n_z - 2
    return 8 * (k2d * interior + interior + 2 * k2d + n_z + k2d * n_z)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after(self, name):
        if name == "heat.RobinPropagator.at":
            return lambda args, result: self._add("heat.RobinPropagator.at.bytes_computed", _at_bytes(result))
        if name == "report.write_snapshot":
            return lambda args, result: self._add("report.snapshot_bytes", os.path.getsize(args[0]))
        return None

    def install(self):
        for name, module, attr in TRACED:
            self._patch(name, module, attr, lambda fn, name=name: self._span(name, fn, self._after(name)))
        for name, module, attr in COUNTED:
            self._patch(f"{name}.{attr}", module, attr, lambda fn, name=name: self._counter(name, fn), everywhere=False)

    def _patch(self, label, module, attr, make, everywhere=True):
        """Replace the target wherever a robinslab namespace holds it.

        everywhere=False replaces it in `module` only: domain imports the
        same scipy dst that heat does.  A target a later version renamed or
        removed is listed as missing, so the benchmark keeps running and
        reports zero calls for it.
        """
        owner = sys.modules.get(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.missing.append(label)
            return
        wrapper = make(original)
        if path or not everywhere:  # a method's one namespace is its class
            setattr(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "robinslab" or mod_name.startswith("robinslab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    record_path, trace, config, seed = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py RECORD TRACE CONFIG SEED -- <robinslab arguments>")
    cli_argv = sys.argv[6:]

    start = time.perf_counter()
    from robinslab import cli
    from robinslab.report import load_config

    if config:
        load_config(config, int(seed) if seed else None)
    record = {"setup_s": time.perf_counter() - start, "setup_cpu_s": _cpu_seconds()}

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        return cli.main(cli_argv)
    finally:
        record["run_s"] = time.perf_counter() - start
        if tracer is not None:
            record["trace"] = tracer.dump()
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
