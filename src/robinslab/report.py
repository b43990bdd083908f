"""Run configuration parsing and report serialization.

Config files are flat JSON with nested records; parsing is strict (unknown
keys are errors) and every range constraint is checked up front, including
that the z-truncation tail e^{-gamma l_z} stays below domain.TAIL_TOL and
that beta stays elliptic.RESONANCE_TOL away from every resolved mode rate.
Reports serialize with sorted keys and full float precision so identical
runs produce byte-identical files; timing lives in its own block, the only
part excluded from determinism comparisons.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .domain import (
    MAX_DERIVATIVE_ORDER,
    RANDOM_KINDS,
    Discretization,
    ModelParams,
    SpectralField3,
    field3_from_profile,
    random_field3,
    zero_field3,
)
from .elliptic import require_admissible
from .errors import ConfigError

__all__ = [
    "NORM_COLUMNS",
    "RunConfig",
    "parse_config",
    "load_config",
    "build_field",
    "json_safe",
    "write_report",
    "read_report",
    "write_norms_csv",
    "read_norms_csv",
    "write_snapshot",
    "read_snapshot",
]

_FLOAT_FMT = "{:.17g}"
# columns of norms.csv, and keys of a report's norm_timeseries
NORM_COLUMNS = ("t", "v_norm_hs1", "w_norm_hs", "energy")


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run configuration."""

    params: ModelParams
    disc: Discretization
    seed: int
    initial_v: dict
    initial_w: dict

    def echo(self) -> dict:
        """JSON-ready copy of the effective configuration."""
        return {
            "params": asdict(self.params),
            "disc": asdict(self.disc),
            "seed": self.seed,
            "initial_data": {"v": dict(self.initial_v), "w": dict(self.initial_w)},
        }


def _require_keys(record: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(record).__name__}")
    unknown = set(record) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(record)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    # json also reads the NaN and Infinity literals, which no parameter admits
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


# reader of a record field, by its annotation
_READERS = {"float": _number, "int": _integer}


def _section(raw: dict, name: str, cls, **defaults):
    """The dataclass cls read from the record raw[name].

    The record's keys are cls's fields; those without a default in cls or
    in defaults are required.  Each value goes through the reader of its
    field's annotation, and cls's own checks become ConfigErrors.
    """
    record = raw.get(name, {})
    members = fields(cls)
    required = {f.name for f in members if f.default is MISSING and f.name not in defaults}
    _require_keys(record, {f.name for f in members}, required, name)
    values = {
        f.name: _READERS[f.type](record[f.name], f"{name}.{f.name}")
        for f in members
        if f.name in record
    }
    try:
        return cls(**{**defaults, **values})
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _mode(value, where: str) -> list[int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be two positive integers")
    mode = [_integer(k, f"{where}[{i}]") for i, k in enumerate(value)]
    if min(mode) < 1:
        raise ConfigError(f"{where} must be two positive integers")
    return mode


def _kind(value, where: str) -> str:
    if value not in RANDOM_KINDS:
        raise ConfigError(f"{where} must be one of {sorted(RANDOM_KINDS)}, got {value!r}")
    return value


def _path(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


# each initial-data family's keys, as key: (default, reader)
_FAMILIES = {
    "zero": {},
    "eigenmode": {"mode": ([1, 1], _mode), "amplitude": (1.0, _number)},
    "random": {"kind": ("robin", _kind), "amplitude": (1.0, _number)},
    "file": {"path": (None, _path)},
}


def _normalize_family(spec, where: str) -> dict:
    """The family record spec with every default filled in."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object, got {spec!r}")
    if "family" not in spec:
        raise ConfigError(f"{where} needs a 'family' key")
    family = spec["family"]
    if family not in _FAMILIES:
        raise ConfigError(
            f"{where}.family must be one of {sorted(_FAMILIES)}, got {family!r}"
        )
    keys = _FAMILIES[family]
    _require_keys(spec, {"family", *keys}, {"family"}, where)
    out = {"family": family}
    for key, (default, read) in keys.items():
        out[key] = read(spec.get(key, default), f"{where}.{key}")
    return out


def parse_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    """Validate a decoded JSON record into a RunConfig."""
    _require_keys(
        raw,
        {"params", "disc", "seed", "initial_data"},
        {"params", "disc", "seed"},
        "config",
    )

    params = _section(raw, "params", ModelParams)
    # the vorticity wall condition and the tail check need gamma > 0
    if not params.gamma > 0:
        raise ConfigError(f"params: gamma must be positive, got {params.gamma}")
    # picard's iteration norm takes H^{s+1} of v
    if params.s + 1 > MAX_DERIVATIVE_ORDER:
        raise ConfigError(
            f"params: s = {params.s} above the supported maximum {MAX_DERIVATIVE_ORDER - 1}"
        )
    # a config's time grid defaults to 9 slices, finer than the record's 2
    disc = _section(raw, "disc", Discretization, n_t=9)

    # an override replaces the config's seed; both must be valid
    seeds = (raw["seed"],) if seed_override is None else (raw["seed"], seed_override)
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    data_rec = raw.get("initial_data", {})
    _require_keys(data_rec, {"v", "w"}, set(), "initial_data")
    initial = {}
    for name in ("v", "w"):
        where = f"initial_data.{name}"
        spec = _normalize_family(data_rec.get(name, {"family": "zero"}), where)
        if spec["family"] == "eigenmode" and max(spec["mode"]) > disc.k_max:
            raise ConfigError(
                f"{where}.mode {tuple(spec['mode'])} outside the resolved band 1..{disc.k_max}"
            )
        initial[name] = spec

    try:
        disc.check_tail(params.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    require_admissible(params.beta, disc, params.a)

    return RunConfig(
        params=params,
        disc=disc,
        seed=seed,
        initial_v=initial["v"],
        initial_w=initial["w"],
    )


def _read_json(path: Path):
    """Decoded JSON file; text that is not UTF-8 JSON is a ConfigError naming the file."""
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_config(path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    config = parse_config(_read_json(path), seed_override)
    for spec in (config.initial_v, config.initial_w):
        if spec["family"] == "file":
            spec["path"] = str((path.parent / spec["path"]).resolve())
    return config


def build_field(
    spec: dict,
    config: RunConfig,
    rng: np.random.Generator,
) -> SpectralField3:
    """Materialize a parsed initial-data family spec on the configured grid."""
    disc, params = config.disc, config.params
    family = spec["family"]
    if family == "zero":
        return zero_field3(disc)
    if family == "eigenmode":
        profile = spec["amplitude"] * np.exp(-params.gamma * disc.z)
        return field3_from_profile(disc, tuple(spec["mode"]), profile)
    if family == "random":
        return random_field3(
            disc, rng, kind=spec["kind"], gamma=params.gamma,
            amplitude=spec["amplitude"],
        )
    return read_snapshot(spec["path"], disc)


# --- serialization ----------------------------------------------------------


def json_safe(value):
    """value as write_report writes it: numpy numbers and arrays as Python
    numbers and lists, tuples as lists, a non-finite float as its string."""
    if isinstance(value, (np.floating, np.integer)):
        return json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf", "-inf" or "nan": strict JSON has no such number
    return value


def write_report(path, report: dict) -> None:
    path = Path(path)
    path.write_text(json.dumps(json_safe(report), sort_keys=True, indent=2) + "\n")


def read_report(path) -> dict:
    return _read_json(Path(path))


def write_norms_csv(path, times, v_norms, w_norms, energies) -> None:
    """Norm time series at full float precision."""
    rows = zip(times, v_norms, w_norms, energies)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NORM_COLUMNS)
        for row in rows:
            writer.writerow([_FLOAT_FMT.format(float(x)) for x in row])


def read_norms_csv(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name, text in row.items():
                cols[name].append(float(text))
    return {name: np.asarray(vals) for name, vals in cols.items()}


_SNAPSHOT_COLUMNS = ("k1", "k2", "j", "coefficient")


def write_snapshot(path, field: SpectralField3) -> None:
    """Sparse (k1, k2, j, coefficient) dump; zero entries are skipped.

    The bytes are those of csv.writer's default dialect: no field needs
    quoting, and every line ends in \\r\\n.
    """
    coeffs = field.coeffs
    k1, k2, j = np.nonzero(coeffs)
    rows = zip((k1 + 1).tolist(), (k2 + 1).tolist(), j.tolist(), coeffs[k1, k2, j].tolist())
    lines = [",".join(_SNAPSHOT_COLUMNS) + "\r\n"]
    lines += ["%d,%d,%d,%.17g\r\n" % row for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_snapshot(path, disc: Discretization) -> SpectralField3:
    coeffs = np.zeros((disc.k_max, disc.k_max, disc.n_z))
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read coefficient file {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        expected = set(_SNAPSHOT_COLUMNS)
        if set(reader.fieldnames or ()) != expected:
            raise ConfigError(
                f"{path}: coefficient files need columns {sorted(expected)}"
            )
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            try:
                k1, k2, j = int(row["k1"]), int(row["k2"]), int(row["j"])
                value = float(row["coefficient"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}: unreadable row {row}: {exc}") from exc
            if not (1 <= k1 <= disc.k_max and 1 <= k2 <= disc.k_max):
                raise ConfigError(f"{path}: mode ({k1}, {k2}) outside resolved band")
            if not 0 <= j < disc.n_z:
                raise ConfigError(f"{path}: grid index {j} outside [0, {disc.n_z})")
            if not math.isfinite(value):
                raise ConfigError(
                    f"{where}: coefficient {row['coefficient']!r} of mode ({k1}, {k2}) "
                    f"at j = {j} is not finite"
                )
            coeffs[k1 - 1, k2 - 1, j] = value
    return SpectralField3(coeffs, disc)
