"""Value-object construction, warm-up and single operations.

This module imports only the standard library at load time: the set-up
probe times ``build`` and ``warm_up`` from a fresh interpreter, and that
window must include the import of blochsim (and, through it, numpy).

An operation is a JSON-able list whose first item names it:

    ["run_trials", case, n_trials, seed]
    ["measure_once", case, seed]
    ["measure_degenerate", case, seed]
    ["run_measurement", case, seed, partitioned]
    ["cli", job]
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import dataclass, field

#: Trials per warm-up call: enough to touch every code path of run_trials
#: (one chunk, the bincount and the report) at negligible cost.
WARM_TRIALS = 1000


@dataclass
class Case:
    n: int
    state: object  # blochsim.DensityMatrix
    basis: object  # blochsim.MeasurementBasis
    partition: tuple | None  # used by run_trials and partitioned CLI jobs
    blocks: tuple  # used by degenerate single shots


@dataclass
class Built:
    """Everything an operation needs, constructed from an input spec."""

    bs: object  # the blochsim package
    cases: list = field(default_factory=list)
    jobs: list = field(default_factory=list)


def _vector(np, pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _matrix(np, rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def build(spec: dict) -> Built:
    """Import blochsim and construct the workload's value objects.

    For library workloads this makes one ``Case`` per input case
    (``Ket``/``DensityMatrix``, ``MeasurementBasis``, partition tuples);
    for cli-report it parses every job's config with
    ``blochsim.cli.parse_config``, which constructs the same objects.
    """
    if spec["workload"] == "cli-report":
        import blochsim
        import blochsim.cli as cli

        for job in spec["jobs"]:
            cli.parse_config(job["config_text"])
        return Built(blochsim, jobs=spec["jobs"])

    import blochsim as bs
    import numpy as np

    cases = []
    for c in spec["cases"]:
        if "ket" in c["state"]:
            state = bs.ket_to_density(bs.Ket(_vector(np, c["state"]["ket"])))
        else:
            state = bs.DensityMatrix(_matrix(np, c["state"]["density"]))
        if c["basis"] is None:
            basis = bs.MeasurementBasis.canonical(c["n"])
        else:
            basis = bs.MeasurementBasis(_matrix(np, c["basis"]))
        partition = None if c["partition"] is None else tuple(map(tuple, c["partition"]))
        cases.append(Case(c["n"], state, basis, partition, tuple(map(tuple, c["blocks"]))))
    return Built(bs, cases=cases)


def warm_up(built: Built, spec: dict, workdir: str) -> None:
    """One reduced-size call per distinct (N, operation) of the workload."""
    for op in spec["warm_up"]:
        if op[0] == "cli":
            # a new file each time: rewriting a truncated file waits for a flush
            out = f"{workdir}/warm-up-{os.getpid()}-{op[1]}.out"
            run_cli_inprocess(built, op[1], out, trials=WARM_TRIALS)
            if os.path.exists(out):
                os.remove(out)
        else:
            run_op(built, op)


def run_op(built: Built, op: list):
    """Run one library operation and return what blochsim returned."""
    bs = built.bs
    kind, case = op[0], built.cases[op[1]]
    if kind == "run_trials":
        return bs.run_trials(case.state, case.basis, op[2], bs.RngSeed(op[3]), partition=case.partition)
    if kind == "measure_once":
        return bs.measure_once(case.state, case.basis, bs.RngSeed(op[2]).generator())
    if kind == "measure_degenerate":
        rng = bs.RngSeed(op[2]).generator()
        return bs.measure_degenerate(case.state, case.basis, case.blocks, rng)
    if kind == "run_measurement":
        partition = case.blocks if op[3] else None
        return bs.run_measurement(case.state, case.basis, partition=partition, seed=bs.RngSeed(op[2]))
    raise ValueError(f"unknown operation {kind!r}")


def cli_argv(job: dict, out_path: str, trials: int | None = None) -> list[str]:
    argv = ["--config", job["config_path"], "--out", out_path, *job["flags"]]
    if trials is not None:
        argv += ["--trials", str(trials)]
    return argv


def run_cli_inprocess(built: Built, job_index: int, out_path: str, trials: int | None = None):
    """Call ``blochsim.cli.main`` in this process; returns (exit code, stderr)."""
    cli = built.bs.cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(cli_argv(built.jobs[job_index], out_path, trials))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # would end a `python -m blochsim` process with exit 1
            print(f"uncaught {exc!r}", file=sys.stderr)
            code = 1
    return code, err.getvalue()
