"""Seeded inputs, operation cycles and output checks of the three workloads.

Every workload is a closed loop over *cycles*: a cycle is a fixed
multiset of operations whose inputs are drawn from the seed, and a run
executes whole cycles only. The shares of N and operation kinds in a run
are therefore the same on every seed, which keeps the latency
percentiles and the throughput comparable across seeds; see NOTES.md for
how the shares were chosen.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

NS = (2, 3, 8, 32)

#: Input cases built for every N: (state kind, basis kind, with partition).
#: Boundary states have some Born weights exactly 0 (canonical basis).
CASE_PLAN = (
    ("ket", "canonical", False),
    ("ket", "random", True),
    ("mixed", "random", False),
    ("mixed", "canonical", True),
    ("boundary-ket", "canonical", False),
    ("boundary-mixed", "canonical", True),
)

#: trials-bulk cycle: (N, calls per cycle, trials per call). Each N gets a
#: comparable share of the time; N = 2 and 3 make two shorter calls so
#: that the median and p90 of the call latencies fall inside one N's
#: calls rather than on the edge between two.
BULK_PLAN = ((2, 2, 2_500_000), (3, 2, 2_250_000), (8, 1, 2_500_000), (32, 1, 1_000_000))

#: single-shot cycle: (operation, N, calls per cycle). Each percentile
#: falls near the middle of one group of shots of about the same cost,
#: not in the upper tail of a cheaper group, because host interference
#: widens every group's tail and a percentile taken from a tail moves with
#: it. measure_degenerate at N <= 8 (about 0.04 ms, 47% of the calls)
#: spans the ranks 24-71% and holds p50; run_measurement at N = 8 and
#: measure_degenerate at N = 32 (about 0.12 ms, 14%) span 84-98% and hold
#: p90. The two run_measurement calls at N = 32 each cost about 80 times
#: another shot. They fault in fresh pages, whose cost swings most with
#: the host's load, so they get about 40% of the time and the small shots,
#: whose per-call cost this workload is about, the rest.
SHOT_PLAN = (
    ("measure_once", 2, 40),
    ("measure_once", 3, 40),
    ("measure_once", 8, 40),
    ("measure_once", 32, 12),
    ("measure_degenerate", 2, 80),
    ("measure_degenerate", 3, 80),
    ("measure_degenerate", 8, 80),
    ("measure_degenerate", 32, 34),
    ("run_measurement", 2, 20),
    ("run_measurement", 3, 20),
    ("run_measurement", 8, 36),
    ("run_measurement", 32, 1),
    ("run_measurement+partition", 2, 6),
    ("run_measurement+partition", 3, 6),
    ("run_measurement+partition", 8, 8),
    ("run_measurement+partition", 32, 1),
)

#: cli-report cycle, one blochsim.cli.main call per job: (calls per cycle,
#: N, state kind, basis kind, n_trials, partition given in the "config" or
#: as a "flag", extra config fields, command-line flags). "--seed" and
#: "--trials" get values drawn from the seed. Of the 16 calls, the five
#: small jobs take the ranks below 31% and the N = 32 plain job (five
#: calls) 31-62%, so it holds p50; the N = 32 geometry/trace job (three
#: calls) takes the top 19% and holds p90 near its middle.
CLI_PLAN = (
    (1, 2, "ket", "canonical", 10_000, None, {}, []),
    (1, 3, "mixed", "random", 100_000, None, {}, ["--seed"]),
    (1, 3, "boundary-ket", "canonical", 100_000, None, {"format": "csv"}, []),
    (1, 8, "ket", "random", 100_000, "config", {}, ["--trials"]),
    (1, 8, "mixed", "canonical", 50_000, "flag", {}, ["--format", "csv"]),
    (5, 32, "mixed", "random", 100_000, None, {}, []),
    (1, 3, "ket", "random", 100_000, None, {}, ["--oracle-check"]),
    (1, 8, "mixed", "random", 30_000, None, {}, ["--oracle-check"]),
    (3, 32, "ket", "random", 100_000, None, {}, ["--dump-geometry", "--trace"]),
    (1, 32, "boundary-mixed", "canonical", 10_000, "flag", {"trace": True}, ["--dump-geometry"]),
)

#: Known defect (ROADMAP open item b): --oracle-check on a state with a
#: zero Born weight exits 1 although the run is valid. These jobs run once
#: per run, outside the measured cycle, and their exit codes are reported.
DEFECT_PLAN = (
    (1, 3, "boundary-ket", "canonical", 10_000, None, {}, ["--oracle-check"]),
    (1, 8, "boundary-mixed", "canonical", 10_000, "config", {}, ["--oracle-check"]),
)

#: |freq_i - p_i| may reach this many binomial standard deviations.
SIGMA_MULTIPLE = 6.0
#: Born probabilities printed with 12 significant digits are within this.
PROB_TOL = 1e-12


class CheckError(Exception):
    """An operation's output is wrong."""


# -- inputs ------------------------------------------------------------------


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _haar_ket(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _haar_unitary_rows(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return (q * (d / np.abs(d))).T  # rows are the basis kets


def _mixed(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _random_blocks(rng, n) -> list:
    k = int(rng.integers(2, min(n, 4) + 1))
    perm = rng.permutation(n)
    cuts = [0, *sorted(int(c) for c in rng.choice(np.arange(1, n), k - 1, replace=False)), n]
    return [sorted(int(i) for i in perm[a:b]) for a, b in zip(cuts, cuts[1:])]


def _support(rng, n):
    size = int(rng.integers(1, n))  # at least one zero Born weight
    return np.sort(rng.choice(n, size, replace=False))


def make_case(rng, n: int, kind: str, basis_kind: str, with_partition: bool) -> dict:
    if kind == "ket":
        state = {"ket": _pairs(_haar_ket(rng, n))}
    elif kind == "mixed":
        state = {"density": [_pairs(row) for row in _mixed(rng, n)]}
    elif kind == "boundary-ket":
        amps = np.zeros(n, dtype=complex)
        sup = _support(rng, n)
        amps[sup] = _haar_ket(rng, sup.size)
        state = {"ket": _pairs(amps)}
    else:
        m = np.zeros((n, n), dtype=complex)
        sup = _support(rng, n)
        m[np.ix_(sup, sup)] = _mixed(rng, sup.size) if sup.size > 1 else 1.0
        state = {"density": [_pairs(row) for row in m]}
    basis = None if basis_kind == "canonical" else [_pairs(k) for k in _haar_unitary_rows(rng, n)]
    blocks = _random_blocks(rng, n)
    return {
        "n": n,
        "kind": f"{kind}/{basis_kind}",
        "state": state,
        "basis": basis,
        "partition": blocks if with_partition else None,
        "blocks": blocks,
    }


def born(case: dict) -> np.ndarray:
    """Exact outcome probabilities Re <a_i|D|a_i>, computed without blochsim."""
    n = case["n"]
    if "ket" in case["state"]:
        psi = np.array([complex(*p) for p in case["state"]["ket"]])
        d = np.outer(psi, psi.conj())
    else:
        d = np.array([[complex(*p) for p in row] for row in case["state"]["density"]])
    kets = np.eye(n, dtype=complex) if case["basis"] is None else np.array(
        [[complex(*p) for p in k] for k in case["basis"]]
    )
    return np.real(np.sum(kets.conj() * (kets @ d.T), axis=1))


def _cases(rng) -> list:
    return [make_case(rng, n, *plan) for n in NS for plan in CASE_PLAN]


def _cli_job(rng, index: int, plan, workdir: str) -> dict:
    _, n, kind, basis_kind, trials, partition_as, extra, flags = plan
    case = make_case(rng, n, kind, basis_kind, partition_as is not None)
    config = {"dim": n, "state": case["state"], "n_trials": trials,
              "seed": int(rng.integers(0, 2**63)), "stream": int(rng.integers(0, 4)), **extra}
    if case["basis"] is not None:
        config["basis"] = case["basis"]
    argv = []
    for flag in flags:
        argv.append(flag)
        if flag == "--seed":
            argv.append(str(int(rng.integers(0, 2**63))))
        elif flag == "--trials":
            trials = trials * 4 // 5
            argv.append(str(trials))
    blocks_1 = [[i + 1 for i in blk] for blk in case["blocks"]]
    if partition_as == "config":
        config["partition"] = blocks_1
    elif partition_as == "flag":
        argv += ["--partition", "|".join(",".join(map(str, blk)) for blk in blocks_1)]
    return {
        "n": n,
        "case": case,
        "trials": trials,
        "config_path": f"{workdir}/job{index:02d}.json",
        # repr precision, so that the CLI's 1e-12 normalization check holds
        "config_text": json.dumps(config),
        "flags": argv,
        "csv": "csv" in argv or extra.get("format") == "csv",
        "warm_key": [n, sorted(extra), [f for f in argv if f.startswith("--")]],
    }


def make_spec(workload: str, seed: int, workdir: str) -> dict:
    """All inputs of one run, derived from the seed alone."""
    rng = np.random.default_rng([seed, 0xB10C])
    spec = {"workload": workload, "seed": seed}
    if workload == "cli-report":
        jobs = [_cli_job(rng, i, plan, workdir) for i, plan in enumerate(CLI_PLAN + DEFECT_PLAN)]
        spec["jobs"] = jobs
        spec["defect_jobs"] = list(range(len(CLI_PLAN), len(jobs)))
        keys = [json.dumps(job["warm_key"]) for job in jobs[: len(CLI_PLAN)]]
        spec["warm_up"] = [["cli", i] for i, key in enumerate(keys) if key not in keys[:i]]
        return spec
    spec["cases"] = _cases(rng)
    first = {n: NS.index(n) * len(CASE_PLAN) for n in NS}
    if workload == "trials-bulk":
        # case 0 of each N has no partition, case 1 has one
        spec["warm_up"] = [["run_trials", first[n] + k, 1000, 1] for n in NS for k in (0, 1)]
    else:
        spec["warm_up"] = [_shot(kind, first[n], 1) for kind, n, _ in SHOT_PLAN]
    return spec


def write_configs(spec: dict) -> None:
    for job in spec.get("jobs", []):
        with open(job["config_path"], "w") as fh:
            fh.write(job["config_text"])


# -- cycles ------------------------------------------------------------------


def _shot(kind: str, case: int, seed: int) -> list:
    if kind.startswith("run_measurement"):
        return ["run_measurement", case, seed, kind.endswith("+partition")]
    return [kind, case, seed]


def cycle(spec: dict, j: int, scale: float = 1.0) -> list:
    """The operations of cycle j (deterministic in the seed and j)."""
    workload = spec["workload"]
    rng = np.random.default_rng([spec["seed"], 0xC1C1E, j])
    ncase = len(CASE_PLAN)
    ops = []
    if workload == "cli-report":
        ops = [["cli", i] for i, plan in enumerate(CLI_PLAN) for _ in range(plan[0])]
    elif workload == "trials-bulk":
        for n, calls, trials in BULK_PLAN:
            for c in range(calls):
                case = NS.index(n) * ncase + (j * calls + c) % ncase
                ops.append(["run_trials", case, max(1000, int(trials * scale)), int(rng.integers(0, 2**63))])
    else:
        for kind, n, calls in SHOT_PLAN:
            for c in range(calls):
                case = NS.index(n) * ncase + (j * calls + c) % ncase
                ops.append(_shot(kind, case, int(rng.integers(0, 2**63))))
    return [ops[i] for i in rng.permutation(len(ops))]


def trials_of(spec: dict, op: list) -> int:
    """Measurement trials an operation performs (single shots perform one)."""
    if op[0] == "run_trials":
        return op[2]
    if op[0] == "cli":
        return spec["jobs"][op[1]]["trials"]
    return 1


# -- checks ------------------------------------------------------------------


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _class_probs(case: dict) -> np.ndarray:
    p = born(case)
    if case["partition"] is None:
        return p
    return np.array([p[blk].sum() for blk in case["partition"]])


def check_counts(p: np.ndarray, counts, n_trials: int) -> None:
    """Counts sum to n; each frequency within SIGMA_MULTIPLE binomial sigma."""
    counts = np.asarray(counts, dtype=np.int64)
    _require(counts.shape == p.shape, f"{counts.size} counts for {p.size} outcomes")
    _require(int(counts.sum()) == n_trials, f"counts sum to {int(counts.sum())}, not {n_trials}")
    _require(np.all(counts[p == 0.0] == 0), "an outcome of zero probability was counted")
    q = np.clip(p, 0.0, 1.0)  # a computed certainty may read 1 + 2e-16
    sigma = np.sqrt(q * (1.0 - q) / n_trials)
    dev = np.abs(counts / n_trials - p)
    _require(np.all(dev <= SIGMA_MULTIPLE * sigma + PROB_TOL),
             f"frequency off by {float(np.max(dev / np.maximum(sigma, 1e-300))):.1f} sigma")


def check_trial_report(case: dict, report, n_trials: int) -> None:
    p = _class_probs(case)
    got = np.asarray(report.exact_probs.weights)
    _require(got.shape == p.shape and np.max(np.abs(got - p)) <= PROB_TOL,
             "exact_probs differ from the Born probabilities")
    _require(report.n_trials == n_trials, "n_trials differs from the request")
    check_counts(p, report.counts, n_trials)
    dev = float(np.max(np.abs(report.counts / n_trials - got)))
    _require(abs(report.max_abs_deviation - dev) <= 1e-15, "max_abs_deviation is not max |f - p|")


def _check_density(d, what: str) -> None:
    m = np.asarray(d.entries)
    _require(abs(complex(np.trace(m)) - 1.0) <= PROB_TOL, f"{what} does not have unit trace")
    _require(np.max(np.abs(m - m.conj().T)) <= PROB_TOL, f"{what} is not Hermitian")


def check_shot(case: dict, op: list, result) -> None:
    p = born(case)
    kind = op[0]
    if kind == "measure_once":
        i, post = result
        _require(0 <= i < case["n"] and p[i] > 0.0, f"outcome {i} is not a possible outcome")
        _check_density(post, "post-state")
        return
    if kind == "measure_degenerate" or (kind == "run_measurement" and op[3]):
        k = result[0] if kind == "measure_degenerate" else result.outcome
        blocks = case["blocks"]
        _require(0 <= k < len(blocks) and p[blocks[k]].sum() > 0.0, f"class {k} is not possible")
    else:
        _require(0 <= result.outcome < case["n"] and p[result.outcome] > 0.0,
                 f"outcome {result.outcome} is not a possible outcome")
    if kind == "measure_degenerate":
        _check_density(result[1], "post-state")
        return
    labels = ("initial", "reduced", "collapsed") + (("purified",) if op[3] else ())
    _require(result.labels == labels, f"trace stages {result.labels}")
    for stage in result.stages:
        _check_density(stage.density, f"stage {stage.label}")


def check_op(spec: dict, op: list, result) -> None:
    case = spec["cases"][op[1]]
    if op[0] == "run_trials":
        check_trial_report(case, result, op[2])
    else:
        check_shot(case, op, result)


def _check_csv(text: str, p: np.ndarray, n_trials: int) -> None:
    lines = text.splitlines()
    _require(lines[0] == "outcome,exact_prob,count,empirical_freq,chi_square,max_abs_deviation",
             "unexpected CSV header")
    _require(len(lines) == p.size + 1, f"{len(lines) - 1} CSV rows for {p.size} outcomes")
    counts, probs = [], []
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        _require(len(fields) == 6 and int(fields[0]) == i + 1, f"bad CSV row {line!r}")
        probs.append(float(fields[1]))
        counts.append(int(fields[2]))
        for x in fields[3:]:
            float(x)
    _require(np.max(np.abs(np.array(probs) - p)) <= PROB_TOL, "CSV exact_prob differs from Born")
    check_counts(p, counts, n_trials)


def check_cli_output(job: dict, text: str) -> None:
    """Check a CLI report against the job that produced it."""
    case, n_trials = job["case"], job["trials"]
    p = _class_probs(case)
    if job["csv"]:
        _check_csv(text, p, n_trials)
        return
    doc = json.loads(text)
    _require(doc["dim"] == job["n"] and doc["n_trials"] == n_trials, "dim or n_trials differ")
    _require(np.max(np.abs(np.array(doc["exact_probs"]) - p)) <= PROB_TOL,
             "exact_probs differ from the Born probabilities")
    check_counts(p, doc["counts"], n_trials)
    if case["partition"] is not None:
        _require(doc["partition"] == [[i + 1 for i in blk] for blk in case["partition"]],
                 "partition echoed wrongly")
    if "--dump-geometry" in job["flags"]:
        verts = np.array(doc["geometry"]["vertices"])
        _require(verts.shape == (job["n"], job["n"] ** 2 - 1), f"vertices of shape {verts.shape}")
        _require(doc["geometry"]["total_measure"] > 0.0, "simplex measure is not positive")
    if "trace" in doc:
        stages = [s["label"] for s in doc["trace"]["stages"]]
        partitioned = case["partition"] is not None
        _require(stages == ["initial", "reduced", "collapsed"] + (["purified"] if partitioned else []),
                 f"trace stages {stages}")
        _require(1 <= doc["trace"]["outcome"] <= p.size, "trace outcome out of range")
    if "--oracle-check" in job["flags"]:
        oracle = doc["oracle"]
        _require(oracle["n_samples"] == n_trials and sum(oracle["counts"]) == n_trials,
                 "oracle counts do not sum to the sample count")
        _require(oracle["disagreements"] == 0, f"oracle disagreements = {oracle['disagreements']}")
        _require(np.all(np.array(oracle["counts"])[p == 0.0] == 0),
                 "oracle counted a zero-probability region")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
