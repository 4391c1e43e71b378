"""Command-line front-end: load an experiment config, run, emit reports.

Config schema (JSON object):

    {
      "dim": 3,                                  required, N >= 2
      "state": {"ket": [[re, im], ...]}          required; or
               {"density": [[[re, im], ...], ...]}
      "basis": [[[re, im], ...], ...],           optional, default canonical
      "partition": [[1], [2, 3]],                optional, 1-based outcome indices
      "n_trials": 1000000,                       optional, 1..2**63 - 1, default 10^6
      "seed": 0, "stream": 0,                    optional, seed 0..2**64 - 1 and
                                                 stream >= 0, default 0/0
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
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .bloch import DensityMatrix, Ket, _as_integer, ket_to_density
from .collapse import run_measurement
from .errors import BlochSimError, ConfigError, ContractError, DimensionError, _shown
from .sampler import RngSeed, _fuse, _set_partition, geometric_hit_count_oracle, run_trials
from .serialize import (
    dumps,
    oracle_report_to_dict,
    pairs_to_array,
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

    @property
    def dim(self) -> int:
        return self.state.dim


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


@contextmanager
def _fields(*names: str):
    """Re-raise a library error of the block as a ConfigError that names its field once.

    A message that starts with one of ``names`` (the integer contract's
    "seed must be ...") names that field; any other is put under the first.
    """
    try:
        yield
    except BlochSimError as exc:
        message = str(exc)
        field = next((name for name in names if message.startswith(name + " ")), names[0])
        _fail(field, message.removeprefix(field + " "))


def _as_bool(raw, field: str) -> bool:
    if not isinstance(raw, bool):
        _fail(field, f"expected true or false, got {_shown(raw)}")
    return raw


def _parse_state(raw, dim: int) -> DensityMatrix:
    if not isinstance(raw, dict) or set(raw) not in ({"ket"}, {"density"}):
        _fail("state", "expected an object with exactly one of 'ket' or 'density'")
    if "ket" in raw:
        with _fields("state.ket"):
            return ket_to_density(Ket(pairs_to_array(raw["ket"], (dim,))))
    with _fields("state.density"):
        d = DensityMatrix(pairs_to_array(raw["density"], (dim, dim)))
    if not d.is_positive_semidefinite():
        _fail("state.density", f"is not positive semidefinite (min eigenvalue {d.min_eigenvalue():.3e})")
    return d


def _parse_basis(raw, dim: int) -> MeasurementBasis:
    if raw is None:
        return MeasurementBasis.canonical(dim)
    with _fields("basis"):
        return MeasurementBasis(pairs_to_array(raw, (dim, dim)))


def _split_partition_flag(text: str) -> list[list[int]]:
    """The ``--partition "1|2,3"`` syntax as raw 1-based config blocks."""
    blocks = [[token.strip() for token in chunk.split(",")] for chunk in text.split("|")]
    for token in (token for blk in blocks for token in blk):
        if not (token.isascii() and token.isdigit()):
            _fail("partition", f"expected positive integers, got {_shown(token)}")
    try:
        return [[int(token) for token in blk] for blk in blocks]
    except ValueError as exc:  # a label beyond Python's digit limit
        _fail("partition", str(exc))


def _read_config(path: Path) -> str:
    """The text of the config file; a file that cannot be read or decoded is a ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config from its JSON text.

    ``overrides`` maps config field names to raw values that replace the
    text's before validation, so command-line flags pass the same field
    checks. Parse errors carry the position, validation errors the
    failing field name.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer beyond Python's digit limit, or nesting beyond the recursion limit
        raise ConfigError(f"config parse error: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    raw.update(overrides or {})
    if "dim" not in raw:
        _fail("dim", "is required")
    with _fields("dim"):
        dim = _as_integer(raw["dim"], "dim", 2, error=DimensionError)
    if "state" not in raw:
        _fail("state", "is required")

    state = _parse_state(raw["state"], dim)
    basis = _parse_basis(raw.get("basis"), dim)

    partition = None
    if raw.get("partition") is not None:
        if not isinstance(raw["partition"], list):
            _fail("partition", "expected a list of index blocks")
        with _fields("partition"):
            blocks = _set_partition(raw["partition"], range(1, dim + 1))
        partition = tuple(tuple(i - 1 for i in blk) for blk in blocks)

    with _fields("n_trials"):
        n_trials = _as_integer(raw.get("n_trials", DEFAULT_TRIALS), "n_trials", 1)
    with _fields("seed", "stream"):
        seed = RngSeed(raw.get("seed", 0), raw.get("stream", 0))

    out_format = raw.get("format", "json")
    if out_format not in ("json", "csv"):
        _fail("format", f"expected 'json' or 'csv', got {_shown(out_format)}")

    out = raw.get("out")
    if out is not None:
        if not (isinstance(out, str) and out):
            _fail("out", f"expected a nonempty path string, got {_shown(out)}")
        if "\0" in out:
            _fail("out", f"path holds a NUL character: {_shown(out)}")
        try:
            os.fsencode(out)  # as open() encodes it
        except UnicodeEncodeError as exc:
            _fail("out", f"cannot encode path {_shown(out)}: {exc.reason}")

    cfg = ExperimentConfig(
        state=state,
        basis=basis,
        partition=partition,
        n_trials=n_trials,
        seed=seed,
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
        simplex = basis_to_simplex(cfg.basis)
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
        # it classifies the report's lambda stream: each tie may move one count
        counts = oracle.counts if cfg.partition is None else _fuse(oracle.counts, cfg.partition)
        counts, reported = counts.tolist(), report.counts.tolist()
        distance = sum(abs(a - b) for a, b in zip(counts, reported))
        if distance > 2 * oracle.ties:
            raise ContractError(f"oracle counts {counts} differ from the reported counts "
                                f"{reported} by {distance} > 2 x {oracle.ties} ties")
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
        overrides = {field: v for field, v in flags.items() if v is not None}
        cfg = parse_config(_read_config(Path(args.config)), overrides)
    except BlochSimError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run_experiment(cfg)
