"""Benchmark of the robinslab CLI: certified solves in cold processes, correctness-gated.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it show
every metric by name and unit, per-command times, the work counts, the
per-layer self-time shares and the environment; `.perfbench/<workload>/`
keeps the full record, the spans and each command's output.

How it drives the program.  Each command runs the way a user runs it: one
fresh `python3` process per command (perfbench/child.py), on the shipped
configs/, one process at a time (a closed loop with one client).  A fresh
process starts with a cold module-global elliptic condition cache
(robinslab.elliptic._COND_CACHE) and a cold scipy FFT plan cache, as a CLI
user's does.  Repeating commands inside one process would reuse both, along
with the imports, and so would understate wall_s.

Workloads, and why each is here:

  picard_smooth  `picard` on picard_smooth.json (k_max 8, n_z 256, n_t 33),
                 then `verify` on its output.  The headline certified solve:
                 10 Picard sweeps, each with 592 RobinPropagator.at calls in
                 duhamel_apply, 33 elliptic solves and 33 dealiased products.
                 Duhamel, propagator and elliptic work all show here.
  calibrate      `calibrate` on picard_smooth.json.  Builds 100 propagators
                 but evaluates each 3 times (about 17 in picard_smooth),
                 makes 100 single elliptic solves and never enters
                 duhamel_apply: a Duhamel change should not move it, a
                 cheaper build or a batched ensemble should.
  routes         the independent cross-check routes and trivial closures:
                 `heat` (Crank-Nicolson oracle, 2000 steps at n_z 1024),
                 `convergence` (elliptic sweep to n_z 1024, oracle at n_z
                 513), `elliptic`, `picard` on picard_zero.json and `verify`
                 on the heat output.  Small in k, large in n_z, dominated by
                 fd_robin_oracle, which picard_smooth never runs; the
                 largest share of set-up and file writes per pass.

Seeds.  Each workload has a reference seed, the seed of its shipped config.
Passes alternate between the reference seed and --seed, which is forwarded
as the CLI's --seed, starting at the reference seed; with at least three
passes per run both seeds are covered and, since the median is taken over
passes, the shipped input carries the figure.  `picard` at other seeds
sometimes needs one more uniqueness sweep (11 instead of 10), about 8 %
more work, which would otherwise make the figure depend on the seed drawn.
`convergence` keeps its config's seed in every pass: `--seed 4` makes its
heat-joint-order certificate fail (observed order 1.77 < 1.8), and the
benchmark must run workloads on which no command fails.

Correctness.  A command run fails when its exit code is not 0; when, at the
reference seed, a stored certificate is missing, its passed flag differs or
its measured value drifts beyond roundoff (see `_drifted`); or when its
outputs differ, outside the `timing` block, from an earlier pass at the
same seed.  failed_frac is failed over attempted command runs.

Metrics.  setup_s is the median, over every command process of the run, of
the time to import robinslab.cli and load the config.  wall_s, cpu_s and
peak_rss_mb are medians over passes of: the pass's wall time less its
set-up, its processes' CPU time less their set-up CPU, and the highest peak
RSS among its processes.  Per-command times are medians over passes too.

Machine speed.  On a shared 2-core virtual machine the same command runs
up to 1.6x slower from one minute, or one second, to the next, program and
any fixed work alike.  So every time is scaled to a reference speed: a
fixed probe (perfbench/probe.py, no robinslab code) is timed just before
and just after each command, and the command's set-up, wall and CPU times
are multiplied by probe.REFERENCE_S over the mean of the two.  Times are
thus seconds at the probe's reference speed; the unscaled medians are
printed next to them and kept in the record.  The scaling cancels drift
that outlasts a command, which covers most of it for the short commands;
within picard's 10 s solve the speed can still change.

Tracing (--trace 1).  Untraced and traced passes alternate at the reference
seed first.  Traced passes record a span around every call of the public
functions listed in child.TRACED; a layer's self time is its spans' time
less the time covered by their child spans.  The per-layer figures are
medians over the traced passes at the reference seed, so the counts repeat
exactly from run to run; times are scaled like the end-to-end ones.
trace.untraced_s is command time that no span covers; trace.overhead_s is
traced minus untraced wall_s.  report.snapshot_bytes is the size of the
snapshot files written; heat.RobinPropagator.at.bytes_computed is computed
from array sizes (child._at_bytes), not measured.  No layer queues or
waits: every call is single-threaded and synchronous, so the benchmark
reports no wait time rather than a zero one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# The program is single-threaded; pinning every BLAS/OpenMP pool to one
# thread (<= nproc) keeps idle pools from contending on a small shared
# machine and makes the children's environment the same on every commit.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # the whole run, including its last command, ends by then

# Drift allowed in a certificate's measured value at the reference seed.
# O(1) quantities move by far less than 1e-6 of (value + bound) when
# floating-point sums are reordered.  The ones below are differences of
# converged iterates or solve residuals, at the floating-point floor of
# norms with up to three z-derivatives (about 1e-13): a reordering may move
# them by their whole size, so they need only stay within 1e-3 of their
# bound.  (contraction is the last sweep move, about 8e-13, over the one
# before it.)
RTOL = 1e-6
FLOOR_LEVEL = {"contraction", "fixed-point-residual", "uniqueness", "interior-residual"}
FLOOR_SHARE = 1e-3


@dataclass(frozen=True)
class Command:
    command: str
    config: str | None = None  # relative to the repository root
    seeded: bool = True  # forward the pass seed as --seed
    target: int | None = None  # verify: index of the command whose output it checks


@dataclass(frozen=True)
class Workload:
    ref_seed: int
    commands: tuple


WORKLOADS = {
    "picard_smooth": Workload(
        21,
        (Command("picard", "configs/picard_smooth.json"), Command("verify", target=0)),
    ),
    "calibrate": Workload(21, (Command("calibrate", "configs/picard_smooth.json"),)),
    "routes": Workload(
        7,
        (
            Command("heat", "configs/heat_eigenmode.json"),
            Command("convergence", "configs/picard_smooth.json", seeded=False),
            Command("elliptic", "configs/elliptic_eigenmode.json"),
            Command("picard", "configs/picard_zero.json"),
            Command("verify", target=0),
        ),
    ),
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics printed on the last line with --trace 1.  Self times
# are exported only for layers every workload enters, since a layer a
# workload never enters would show a time of exactly 0 on every run; the
# other layers' self times are printed above that line and kept in the
# record.
LAYER_EXPORT = (
    ("heat.RobinPropagator.at.calls", "count"),
    ("heat.RobinPropagator.at.self_s", "s"),
    ("heat.RobinPropagator.at.bytes_computed", "B"),
    ("heat.RobinPropagator.build.calls", "count"),
    ("heat.RobinPropagator.build.self_s", "s"),
    ("heat.at_per_build", "at/build"),
    ("heat.transforms.calls", "count"),
    ("heat.fd_robin_oracle.calls", "count"),
    ("elliptic.solve_elliptic.calls", "count"),
    ("elliptic.solve_elliptic.self_s", "s"),
    ("domain.pointwise_product.calls", "count"),
    ("domain.sobolev_norm.calls", "count"),
    ("domain.sobolev_norm.self_s", "s"),
    ("domain.d_z.calls", "count"),
    ("picard.picard_step.calls", "count"),
    ("picard.duhamel_apply.calls", "count"),
    ("picard.at_calls_per_sweep", "at/sweep"),
    ("verify.uniqueness_check.calls", "count"),
    ("report.write_snapshot.calls", "count"),
    ("report.snapshot_bytes", "B"),
    ("report.write_report.self_s", "s"),
    ("trace.command_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no __pycache__ behind, on every commit alike
    return env


def _canonical(path: Path) -> bytes:
    """File bytes, with JSON reports stripped of their `timing` block."""
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        report.pop("timing", None)
        data = json.dumps(report, sort_keys=True).encode()
    return data


def _digest(out_dir: Path, command: str) -> str:
    """Digest of everything one command wrote, outside `timing`."""
    if command == "verify":
        files = [out_dir / "verify_report.json"]
    else:
        files = sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "verify_report.json")
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(_canonical(path) + b"\0")
    return h.hexdigest()


def _certificates(out_dir: Path, command: str) -> list:
    name = "verify_report.json" if command == "verify" else "report.json"
    report = json.loads((out_dir / name).read_text())
    return [
        {"name": c["name"], "measured": c["measured"], "bound": c["bound"], "passed": c["passed"]}
        for c in report["certificates"]
    ]


def _drifted(ref: dict, cert: dict) -> bool:
    tol = RTOL * (abs(ref["measured"]) + abs(ref["bound"]))
    if ref["name"] in FLOOR_LEVEL:
        tol = max(tol, FLOOR_SHARE * abs(ref["bound"]))
    return abs(float(cert["measured"]) - float(ref["measured"])) > tol


def _reference_problems(ref_certs: list, certs: list) -> list:
    by_name = {c["name"]: c for c in certs}
    problems = []
    for ref in ref_certs:
        cert = by_name.get(ref["name"])
        if cert is None:
            problems.append(f"certificate {ref['name']} missing")
        elif bool(cert["passed"]) != bool(ref["passed"]):
            problems.append(f"certificate {ref['name']} passed={cert['passed']}, reference {ref['passed']}")
        elif _drifted(ref, cert):
            problems.append(
                f"certificate {ref['name']} measured {cert['measured']!r}, reference {ref['measured']!r}"
            )
    return problems


def _run_command(spec: Command, index: int, pass_dir: Path, outs: list, seed: int, traced: bool, deadline: float) -> dict:
    """One command in a fresh process; resources come from wait4 on that process."""
    out = outs[spec.target] if spec.target is not None else pass_dir / f"{index}-{spec.command}"
    outs.append(out)
    record_path = pass_dir / f"{index}-{spec.command}.record.json"
    cli = ["--command", spec.command, "--out", str(out)]
    setup_config, setup_seed = "", ""
    if spec.config is not None:
        cli += ["--config", spec.config]
        setup_config = spec.config
    if spec.config is not None and spec.seeded:
        cli += ["--seed", str(seed)]
        setup_seed = str(seed)
    argv = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if traced else "0",
            setup_config, setup_seed, "--", *cli]
    timed_out = False
    before = probe.probe_seconds()
    with open(pass_dir / f"{index}-{spec.command}.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - time.monotonic()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    after = probe.probe_seconds()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {
        "command": spec.command,
        "seed": seed if spec.seeded else None,
        "exit_code": proc.returncode,
        "timed_out": timed_out,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "scale": 2.0 * probe.REFERENCE_S / (before + after),
        "probe_s": [before, after],
        "problems": [],
    }
    if record_path.exists():
        record = json.loads(record_path.read_text())
        run.update(setup_s=record["setup_s"], setup_cpu_s=record["setup_cpu_s"], run_s=record["run_s"])
        run["trace"] = record.get("trace")
    if proc.returncode != 0 or "setup_s" not in run:
        run["problems"].append(f"exit code {proc.returncode}" + (" (timed out)" if timed_out else ""))
    else:
        run["digest"] = _digest(out, spec.command)
        run["certificates"] = _certificates(out, spec.command)
    return run


def _run_pass(workload: Workload, pass_dir: Path, seed: int, traced: bool, deadline: float) -> dict:
    """The workload's commands in turn; a pass lasts as long as its processes live."""
    pass_dir.mkdir(parents=True)
    outs: list = []
    runs = []
    for index, spec in enumerate(workload.commands):
        runs.append(_run_command(spec, index, pass_dir, outs, seed, traced, deadline))
        if runs[-1]["timed_out"]:
            break
    ok = [r for r in runs if "setup_s" in r]
    wall = [r["wall_s"] - r["setup_s"] for r in ok]
    cpu = [r["cpu_s"] - r["setup_cpu_s"] for r in ok]
    return {
        "seed": seed,
        "traced": traced,
        "commands": runs,
        "total_s": sum(r["wall_s"] for r in runs),
        "wall_s": sum(w * r["scale"] for w, r in zip(wall, ok)),
        "cpu_s": sum(c * r["scale"] for c, r in zip(cpu, ok)),
        "raw_wall_s": sum(wall),
        "raw_cpu_s": sum(cpu),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def _schedule(i: int, ref_seed: int, seed: int, trace: bool) -> tuple:
    if trace:
        return ((ref_seed, False), (ref_seed, True), (seed, False), (seed, True))[i % 4]
    return (ref_seed if i % 2 == 0 else seed, False)


def _check(workload: Workload, passes: list, reference: dict) -> None:
    """Mark each failed command run: exit code, reference drift, pass disagreement."""
    first_digest: dict = {}
    for p in passes:
        for index, run in enumerate(p["commands"]):
            if "digest" not in run:
                continue
            key = (p["seed"], index)
            if first_digest.setdefault(key, run["digest"]) != run["digest"]:
                run["problems"].append(f"outputs differ from an earlier pass at seed {p['seed']}")
            if p["seed"] == workload.ref_seed:
                run["problems"] += _reference_problems(reference["commands"][index]["certificates"], run["certificates"])


def _layers(passes: list) -> list:
    """Per-layer calls, self times and counts of each traced pass."""
    per_pass = []
    for p in passes:
        calls: dict = {}
        self_s: dict = {}
        counts: dict = {}
        command_s = covered = 0.0
        for run in p["commands"]:
            trace = run.get("trace")
            if not trace:
                continue
            scale = run["scale"]
            command_s += run["run_s"] * scale
            spans = trace["spans"]  # in order of entry; parent is an index into it
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
                else:
                    covered += (end - start) * scale
            for pos, (name, start, end, parent) in enumerate(spans):
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + ((end - start) - child_time[pos]) * scale
            for key, value in trace["counts"].items():
                counts[key] = counts.get(key, 0) + value
        per_pass.append({"calls": calls, "self_s": self_s, "counts": counts,
                         "command_s": command_s, "untraced_s": command_s - covered})
    return per_pass


def _layer_metrics(passes: list, ref_seed: int) -> tuple:
    traced = [p for p in passes if p["traced"] and p["seed"] == ref_seed]
    plain = [p for p in passes if not p["traced"] and p["seed"] == ref_seed]
    layers = _layers(traced)
    if not layers:
        return {}, {}, True
    repeat = all(l["calls"] == layers[0]["calls"] and l["counts"] == layers[0]["counts"] for l in layers)
    calls, counts = layers[0]["calls"], layers[0]["counts"]
    names = sorted({n for l in layers for n in l["self_s"]})
    values = {}
    for name in names:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = statistics.median(l["self_s"].get(name, 0.0) for l in layers)
    at_calls = calls.get("heat.RobinPropagator.at", 0)
    builds = calls.get("heat.RobinPropagator.build", 0)
    sweeps = calls.get("picard.picard_step", 0)
    values["heat.transforms.calls"] = counts.get("heat.transforms", 0)
    values["heat.RobinPropagator.at.bytes_computed"] = (
        counts.get("heat.RobinPropagator.at.bytes_computed", 0) / at_calls if at_calls else 0.0
    )
    values["heat.at_per_build"] = at_calls / builds if builds else 0.0
    values["picard.at_calls_per_sweep"] = at_calls / sweeps if sweeps else 0.0
    values["report.snapshot_bytes"] = counts.get("report.snapshot_bytes", 0)
    values["trace.command_s"] = statistics.median(l["command_s"] for l in layers)
    values["trace.untraced_s"] = statistics.median(l["untraced_s"] for l in layers)
    overhead = 0.0
    if plain:
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    values["trace.overhead_s"] = overhead
    work = {k: v for k, v in values.items() if k.endswith(".calls")}
    work.update({k: values[k] for k in ("heat.at_per_build", "picard.at_calls_per_sweep", "report.snapshot_bytes")})
    return values, work, repeat


def _grid(config: str) -> dict:
    disc = json.loads((ROOT / config).read_text())["disc"]
    return {"k_max": disc["k_max"], "n_z": disc["n_z"], "n_t": disc.get("n_t", 9), "quad_nodes": disc.get("quad_nodes", 2)}


def _environment(workload: Workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": THREAD_ENV,
        "seed": seed,
        "reference_seed": workload.ref_seed,
        "grids": {f"{c.command}:{c.config}": _grid(c.config) for c in workload.commands if c.config},
    }


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  quartiles {q1:.4g}..{q3:.4g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    workload = WORKLOADS[name]
    work_dir = WORK / name
    shutil.rmtree(work_dir, ignore_errors=True)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    probe.probe_seconds(1)  # imports numpy and scipy and warms the probe
    passes: list = []
    while True:
        pass_seed, traced = _schedule(len(passes), workload.ref_seed, seed, trace)
        passes.append(_run_pass(workload, work_dir / f"pass{len(passes)}", pass_seed, traced, deadline))
        if any(r["timed_out"] for r in passes[-1]["commands"]):
            break
        estimate = statistics.median(p["total_s"] for p in passes)
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and (now - started) + estimate > seconds:
            break
        if now + estimate > deadline:
            break
    _check(workload, passes, reference)

    runs = [r for p in passes for r in p["commands"]]
    failed = sum(1 for r in runs if r["problems"])
    setups = [r["setup_s"] * r["scale"] for r in runs if "setup_s" in r]
    plain = [p for p in passes if not p["traced"]]
    end_to_end = {
        "setup_s": statistics.median(setups) if setups else 0.0,  # 0 only when every process failed
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    unscaled = {
        "setup_s": statistics.median(r["setup_s"] for r in runs if "setup_s" in r) if setups else 0.0,
        "wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "cpu_s": statistics.median(p["raw_cpu_s"] for p in plain),
        "probe_s": statistics.median(t for r in runs for t in r["probe_s"]),
    }
    per_command = {}
    for index, spec in enumerate(workload.commands):
        times = [(r["wall_s"] - r["setup_s"]) * r["scale"]
                 for p in plain if len(p["commands"]) > index
                 for r in [p["commands"][index]] if "setup_s" in r]
        per_command[f"{spec.command}_s"] = statistics.median(times) if times else 0.0
    layers, work, counts_repeat = _layer_metrics(passes, workload.ref_seed) if trace else ({}, {}, True)
    for r in runs:  # the spans stay in each command's record file
        r.pop("trace", None)
    return {
        "workload": name,
        "trace": trace,
        "environment": _environment(workload, seed),
        "passes": passes,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "counts_repeat": counts_repeat,
        "end_to_end": end_to_end,
        "unscaled": unscaled,
        "per_command": per_command,
        "samples": {"passes": len(plain), "setups": len(setups)},
        "layers": layers,
        "work": work,
    }


def _print_summary(result: dict, reference: dict) -> None:
    env = result["environment"]
    plain = [p for p in result["passes"] if not p["traced"]]
    print(f"workload {result['workload']}: seed {env['seed']}, reference seed {env['reference_seed']}, "
          f"{len(result['passes'])} passes ({result['samples']['passes']} untraced), trace {int(result['trace'])}")
    print(f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          + ", ".join(f"{k}={v}" for k, v in env["thread_env"].items()))
    for key, grid in env["grids"].items():
        print(f"grid {key}: " + ", ".join(f"{k} {v}" for k, v in grid.items()))
    e2e = result["end_to_end"]
    for key, value in e2e.items():
        if key == "setup_s":
            samples = [r["setup_s"] * r["scale"] for p in result["passes"] for r in p["commands"] if "setup_s" in r]
        else:
            samples = [p[key] for p in plain]
        print(f"  {key:<14} {value:.6g} {E2E_UNITS[key]:<3} median of {len(samples)}{_quartiles(samples)}")
    print("  times above are scaled to the probe's reference speed; unscaled medians: "
          + ", ".join(f"{k} {v:.6g} s" for k, v in result["unscaled"].items()))
    print(f"  {'failed_frac':<14} {result['failed_frac']:.6g} 1   ({result['failed']} of {result['attempted']} command runs)")
    for key, value in result["per_command"].items():
        print(f"  {key:<14} {value:.6g} s   median over untraced passes, set-up excluded")
    for p in result["passes"]:
        for r in p["commands"]:
            for problem in r["problems"]:
                print(f"FAILED {r['command']} (seed {p['seed']}): {problem}")
    if not result["trace"]:
        return
    layers = result["layers"]
    if not result["counts_repeat"]:
        print("FAILED work counts differ between traced passes at the reference seed")
    command_s = layers.get("trace.command_s", 0.0)
    print(f"layers (traced passes at the reference seed; command time {command_s:.4g} s, "
          f"untraced remainder {layers.get('trace.untraced_s', 0.0):.4g} s, "
          f"tracing overhead {layers.get('trace.overhead_s', 0.0):.4g} s; no layer waits):")
    shares = sorted(((k[: -len('.self_s')], v) for k, v in layers.items() if k.endswith(".self_s")), key=lambda kv: -kv[1])
    for name, value in shares:
        share = value / command_s if command_s else 0.0
        print(f"  {name:<40} self {value:9.4f} s  {100 * share:5.1f} %  calls {layers[name + '.calls']}")
    for key in ("heat.transforms.calls", "heat.RobinPropagator.at.bytes_computed", "heat.at_per_build",
                "picard.at_calls_per_sweep", "report.snapshot_bytes"):
        print(f"  {key:<40} {layers[key]:.6g}")
    same = all(result["work"].get(k) == v for k, v in reference["work"].items())
    print("work counts at the reference seed " + ("match" if same else "differ from")
          + " the benchmark's recorded baseline (a count, not a speed-up)")


def _final_line(result: dict) -> dict:
    correct = result["failed"] == 0 and result["counts_repeat"]
    if result["trace"]:
        metrics = {name: {"value": result["layers"].get(name, 0), "unit": unit} for name, unit in LAYER_EXPORT}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["end_to_end"].items()}
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def write_reference() -> int:
    """Record each workload's certificates and work counts at its reference seed."""
    out = {"workloads": {}}
    for name, workload in WORKLOADS.items():
        shutil.rmtree(WORK / name, ignore_errors=True)
        p = _run_pass(workload, WORK / name / "reference", workload.ref_seed, True, time.monotonic() + RUN_LIMIT_S)
        bad = [r for r in p["commands"] if r["problems"]]
        if bad:
            print(f"{name}: reference pass failed: {bad[0]['problems']}", file=sys.stderr)
            return 1
        out["workloads"][name] = {
            "seed": workload.ref_seed,
            "commands": [{"command": r["command"], "certificates": r["certificates"]} for r in p["commands"]],
            "work": _layer_metrics([p], workload.ref_seed)[1],
        }
        print(f"{name}: {sum(len(r['certificates']) for r in p['commands'])} certificates recorded")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record certificates and work counts at each reference seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "robinslab" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no robinslab source tree at {ROOT}: expected src/robinslab and configs/", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    os.environ.update(THREAD_ENV)  # before numpy loads here or in any child
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}; run with --write-reference at a known-good commit", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    (WORK / args.workload / "result.json").write_text(json.dumps(result, indent=1))
    _print_summary(result, reference)
    print(json.dumps(_final_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
