"""Command-line front-end: load an experiment config, run, emit reports.

Config schema (JSON object):

    {
      "dim": 3,                                  required, N >= 2
      "state": {"ket": [[re, im], ...]}          required; or
               {"density": [[[re, im], ...], ...]}
      "basis": [[[re, im], ...], ...],           optional, default canonical
      "partition": [[1], [2, 3]],                optional, 1-based outcome indices
      "n_trials": 1000000,                       optional, default 10^6
      "seed": 0, "stream": 0,                    optional, default 0/0
      "format": "json" | "csv",                  optional, default "json"
      "dump_geometry": false,                    optional flags
      "trace": false,
      "oracle_check": false,
      "out": "path"                              optional, default stdout
    }

Outcome indices are 1-based in every CLI artifact (matching the
``--partition "1|2,3"`` syntax) and 0-based in the Python API.

Exit codes: 0 success, 1 computational contract violation, 2 config
parse/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .bloch import DensityMatrix, Ket, ket_to_density
from .collapse import run_measurement
from .errors import BlochSimError, ConfigError, ContractError
from .generators import build_generators
from .sampler import RngSeed, _set_partition, geometric_hit_count_oracle, run_trials
from .serialize import (
    dumps,
    oracle_report_to_dict,
    pairs_to_matrix,
    pairs_to_vector,
    process_trace_to_dict,
    simplex_geometry_to_dict,
    trial_report_to_csv,
    trial_report_to_dict,
)
from .simplex import MeasurementBasis, basis_to_simplex, born_probabilities

DEFAULT_TRIALS = 10**6

_KNOWN_KEYS = {
    "dim",
    "state",
    "basis",
    "partition",
    "n_trials",
    "seed",
    "stream",
    "format",
    "dump_geometry",
    "trace",
    "oracle_check",
    "out",
}


@dataclass
class ExperimentConfig:
    """A fully validated experiment description."""

    dim: int
    state: DensityMatrix
    basis: MeasurementBasis
    partition: tuple[tuple[int, ...], ...] | None
    n_trials: int
    seed: RngSeed
    out_format: str
    dump_geometry: bool
    trace: bool
    oracle_check: bool
    out: str | None


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


def _as_int(raw, field: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(field, f"expected an integer, got {raw!r}")
    return raw


def _as_bool(raw, field: str) -> bool:
    if not isinstance(raw, bool):
        _fail(field, f"expected true or false, got {raw!r}")
    return raw


def _parse_state(raw, dim: int) -> DensityMatrix:
    if not isinstance(raw, dict) or set(raw) not in ({"ket"}, {"density"}):
        _fail("state", "expected an object with exactly one of 'ket' or 'density'")
    if "ket" in raw:
        try:
            amps = pairs_to_vector(raw["ket"])
        except (TypeError, ValueError) as exc:
            _fail("state.ket", f"expected a list of [re, im] pairs ({exc})")
        if amps.size != dim:
            _fail("state.ket", f"has {amps.size} amplitudes but dim is {dim}")
        try:
            return ket_to_density(Ket(amps))
        except BlochSimError as exc:
            _fail("state.ket", str(exc))
    try:
        entries = pairs_to_matrix(raw["density"])
    except (TypeError, ValueError) as exc:
        _fail("state.density", f"expected a matrix of [re, im] pairs ({exc})")
    if entries.shape != (dim, dim):
        _fail("state.density", f"has shape {entries.shape} but dim is {dim}")
    try:
        d = DensityMatrix(entries)
    except BlochSimError as exc:
        _fail("state.density", str(exc))
    if not d.is_positive_semidefinite():
        _fail("state.density", f"is not positive semidefinite (min eigenvalue {d.min_eigenvalue():.3e})")
    return d


def _parse_basis(raw, dim: int) -> MeasurementBasis:
    if raw is None:
        return MeasurementBasis.canonical(dim)
    if not isinstance(raw, list) or len(raw) != dim:
        _fail("basis", f"expected a list of {dim} kets")
    try:
        kets = pairs_to_matrix(raw)
    except (TypeError, ValueError) as exc:
        _fail("basis", f"expected kets as lists of [re, im] pairs ({exc})")
    if kets.shape != (dim, dim):
        _fail("basis", f"kets have shape {kets.shape}, expected ({dim}, {dim})")
    try:
        return MeasurementBasis(kets)
    except BlochSimError as exc:
        _fail("basis", str(exc))


def _split_partition_flag(text: str) -> list[list[int]]:
    """The ``--partition "1|2,3"`` syntax as raw 1-based config blocks."""
    blocks = [[token.strip() for token in chunk.split(",")] for chunk in text.split("|")]
    for token in (token for blk in blocks for token in blk):
        if not token.isdigit():
            _fail("partition", f"expected positive integers, got {token!r}")
    return [[int(token) for token in blk] for blk in blocks]


def parse_config(source: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config from JSON text or a file path.

    A string argument starting with '{' is treated as JSON text, anything
    else as a path. ``overrides`` maps config field names to raw values
    that replace the file's before validation, so command-line flags pass
    the same field checks. Parse errors carry the position, validation
    errors the failing field name.
    """
    if isinstance(source, Path) or not source.lstrip().startswith("{"):
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text()
    else:
        text = source

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    raw.update(overrides or {})
    if "dim" not in raw:
        _fail("dim", "is required")
    dim = _as_int(raw["dim"], "dim")
    if dim < 2:
        _fail("dim", f"must be >= 2, got {dim}")
    if "state" not in raw:
        _fail("state", "is required")

    state = _parse_state(raw["state"], dim)
    basis = _parse_basis(raw.get("basis"), dim)

    partition = None
    if raw.get("partition") is not None:
        if not isinstance(raw["partition"], list):
            _fail("partition", "expected a list of index blocks")
        try:
            blocks = _set_partition(raw["partition"], range(1, dim + 1))
        except ContractError as exc:
            _fail("partition", str(exc))
        partition = tuple(tuple(i - 1 for i in blk) for blk in blocks)

    n_trials = _as_int(raw.get("n_trials", DEFAULT_TRIALS), "n_trials")
    if n_trials < 1:
        _fail("n_trials", f"must be >= 1, got {n_trials}")

    seed = _as_int(raw.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:
        _fail("seed", f"must be an unsigned 64-bit integer, got {seed}")
    stream = _as_int(raw.get("stream", 0), "stream")
    if stream < 0:
        _fail("stream", f"must be >= 0, got {stream}")

    out_format = raw.get("format", "json")
    if out_format not in ("json", "csv"):
        _fail("format", f"expected 'json' or 'csv', got {out_format!r}")

    out = raw.get("out")
    if out is not None and not (isinstance(out, str) and out):
        _fail("out", f"expected a nonempty path string, got {out!r}")

    cfg = ExperimentConfig(
        dim=dim,
        state=state,
        basis=basis,
        partition=partition,
        n_trials=n_trials,
        seed=RngSeed(seed=seed, stream=stream),
        out_format=out_format,
        dump_geometry=_as_bool(raw.get("dump_geometry", False), "dump_geometry"),
        trace=_as_bool(raw.get("trace", False), "trace"),
        oracle_check=_as_bool(raw.get("oracle_check", False), "oracle_check"),
        out=out,
    )
    if cfg.out_format == "csv" and (cfg.dump_geometry or cfg.trace or cfg.oracle_check):
        _fail("format", "csv output cannot carry geometry/trace/oracle sections; use json")
    return cfg


def _render(cfg: ExperimentConfig) -> str:
    report = run_trials(cfg.state, cfg.basis, cfg.n_trials, cfg.seed, partition=cfg.partition)
    if cfg.out_format == "csv":
        return trial_report_to_csv(report)

    doc: dict = {"dim": cfg.dim, "seed": cfg.seed.seed, "stream": cfg.seed.stream}
    doc.update(trial_report_to_dict(report))
    if cfg.partition is not None:
        doc["partition"] = [[i + 1 for i in blk] for blk in cfg.partition]

    needs_geometry = cfg.dump_geometry or cfg.oracle_check
    if needs_geometry:
        simplex = basis_to_simplex(cfg.basis, build_generators(cfg.dim))
    if cfg.dump_geometry:
        doc["geometry"] = simplex_geometry_to_dict(simplex)
    if cfg.trace:
        doc["trace"] = process_trace_to_dict(
            run_measurement(cfg.state, cfg.basis, partition=cfg.partition, seed=cfg.seed)
        )
    if cfg.oracle_check:
        oracle = geometric_hit_count_oracle(
            born_probabilities(cfg.state, cfg.basis),
            cfg.n_trials,
            cfg.seed.generator(),
            simplex=simplex,
        )
        doc["oracle"] = oracle_report_to_dict(oracle)
    return dumps(doc) + "\n"


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run the configured experiment; returns the process exit code."""
    try:
        text = _render(cfg)
    except BlochSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            Path(cfg.out).write_text(text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochsim",
        description="Simulate projective quantum measurements on the generalized "
        "Bloch sphere and verify the Born statistics.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--trials", type=int, help="override n_trials")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], help="report format")
    parser.add_argument("--partition", help="degenerate outcome classes, e.g. '1|2,3' (1-based)")
    parser.add_argument("--dump-geometry", action="store_true", help="include simplex geometry")
    parser.add_argument("--trace", action="store_true", help="include a staged process trace")
    parser.add_argument(
        "--oracle-check", action="store_true", help="include the membership-oracle comparison"
    )
    args = parser.parse_args(argv)

    try:
        flags = {
            "n_trials": args.trials,
            "seed": args.seed,
            "out": args.out,
            "format": args.format,
            "partition": None if args.partition is None else _split_partition_flag(args.partition),
            "dump_geometry": args.dump_geometry or None,
            "trace": args.trace or None,
            "oracle_check": args.oracle_check or None,
        }
        cfg = parse_config(
            Path(args.config), {field: v for field, v in flags.items() if v is not None}
        )
    except BlochSimError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run_experiment(cfg)
