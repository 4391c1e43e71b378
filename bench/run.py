"""blochsim benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload {trials-bulk,single-shot,cli-report}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy, and the command fails (exit 2,
no result line) when ``src/blochsim`` is missing.

``--trace 0`` measures the end-to-end metrics: the workload's cycles run
for S seconds untraced in this process, every output is checked, and
``setup_s`` is the median over fresh interpreters (``setup_probe.py``)
started between the cycles.
``--trace 1`` runs each operation twice, untraced and with spans around
every public blochsim function, and reports the per-layer metrics and
the tracing overhead. cli-report calls ``blochsim.cli.main(argv)`` once
per job; interpreter start-up and imports are in ``setup_s``, and its
``peak_rss_mb`` is the largest of one ``python -m blochsim`` child per job.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (provenance, sample counts, failures, known defects),
which is also written to ``.bench_work/`` with the spans of a traced run.
"""

import os
import sys

#: BLAS/OpenMP pools pinned to one thread, before numpy is imported here
#: or in any child process.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ops  # noqa: E402
import record_digests  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("trials-bulk", "single-shot", "cli-report")
#: Fresh interpreters behind each setup_s and cli.import_s median.
SETUP_PROBES = 15
IMPORT_PROBES = 5
#: A traced run keeps at most this many operations (and their spans).
MAX_TRACED_OPS = 20_000
#: A child interpreter taking longer than this is killed; the run then fails.
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(argv: list) -> float:
    """The seconds that a fresh interpreter running ``argv`` prints last."""
    child = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                           timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"probe {argv[1]} exited {child.returncode}: {child.stderr.strip()[-500:]}")
    return float(child.stdout.strip().splitlines()[-1])


def median_of_probes(argv: list, count: int) -> float:
    return statistics.median(probe(argv) for _ in range(count))


def import_probe_argv() -> list:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import blochsim.cli; print(repr(time.perf_counter() - t))")
    return [sys.executable, "-c", code, str(SRC)]


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(seed: int, blochsim) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    llc = {"level": 0, "size": "unknown"}
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.is_dir() else []:
        level = int(_read(str(index / "level")) or 0)
        if level >= llc["level"]:
            llc = {"level": level, "size": _read(str(index / "size")).strip()}
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    commit = _read(str(ROOT / ".git" / head[5:])).strip() if head.startswith("ref: ") else head
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blochsim": blochsim.__version__,
        "git_commit": commit or "unknown (not a git checkout)",
        "blas_threads": {var: os.environ[var] for var in PINNED_THREADS},
        "seed": seed,
    }


def quantiles(values: list) -> tuple:
    """(p50, p90, samples beyond p90) of the per-operation latencies."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, 0
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8], sum(1 for v in values if v > deciles[8])


class Runner:
    """Executes one workload's operations and checks every output."""

    def __init__(self, spec: dict, scratch: Path):
        self.spec, self.scratch = spec, scratch
        self.built = None
        self.failures: list = []

    def record_failure(self, op, message: str) -> None:
        self.failures.append(f"{op}: {message}")

    def check_cli(self, op: list, code: int, err: str, out: Path) -> bool:
        job = self.spec["jobs"][op[1]]
        if code != 0:
            self.record_failure(op, f"exit {code}: {err.strip()[-300:]}")
            return False
        try:
            data = out.read_bytes()
            out.unlink()
        except OSError as exc:
            self.record_failure(op, f"no report written: {exc}")
            return False
        try:
            workloads.check_cli_output(job, data.decode())
        except (workloads.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.record_failure(op, f"check failed: {exc!r}")
            return False
        return True

    def perform(self, op: list, slot: int = 0) -> tuple:
        """Run one operation unchecked; returns (wall seconds, outcome).

        The outcome is what ``check`` takes: blochsim's result, the
        exception the operation raised, or for a CLI job its exit code,
        stderr and report file (``slot`` keeps the files of one cycle apart).
        """
        if op[0] == "cli":
            out = self.scratch / f"out{slot:03d}.json"
            start = time.perf_counter()
            code, err = ops.run_cli_inprocess(self.built, op[1], str(out))
            return time.perf_counter() - start, (code, err, out)
        start = time.perf_counter()
        try:
            result = ops.run_op(self.built, op)
        except Exception as exc:  # an operation that raises is a failed operation
            return time.perf_counter() - start, exc
        return time.perf_counter() - start, result

    def check(self, op: list, outcome) -> bool:
        if op[0] == "cli":
            return self.check_cli(op, *outcome)
        if isinstance(outcome, Exception):
            self.record_failure(op, f"raised {outcome!r}")
            return False
        try:
            workloads.check_op(self.spec, op, outcome)
        except workloads.CheckError as exc:
            self.record_failure(op, f"check failed: {exc}")
            return False
        return True

    def execute(self, op: list) -> tuple:
        """Run and check one operation; returns (wall seconds, ok)."""
        wall, outcome = self.perform(op)
        return wall, self.check(op, outcome)

    def run_cycles(self, seconds: float, scale: float, between, probes: int) -> tuple:
        """Whole cycles for ``seconds`` of operations.

        Returns (operations attempted, trials and wall times of the
        successful ones, the values ``between`` returned). A cycle's
        operations run back to back and are checked after it, so that
        the checks' own work does not evict the caches an operation
        finds warm in a client that calls blochsim in a loop. The times go
        into a flat array of 8 bytes an operation, so that the benchmark's
        own records barely move the peak RSS of this process. ``between``
        is called ``probes`` times between cycles, spread evenly over the
        run, so that the set-up time samples the same stretch of the
        host's load as the operations. Its time is not part of the run.
        """
        latencies, probed = array("d"), []
        attempted = trials = 0
        start, probing = time.perf_counter(), 0.0
        j = 0
        while True:
            elapsed = time.perf_counter() - start - probing
            while len(probed) < probes and elapsed >= seconds * len(probed) / probes:
                t = time.perf_counter()
                probed.append(between())
                probing += time.perf_counter() - t
            if attempted and elapsed >= seconds:
                break
            cycle = workloads.cycle(self.spec, j, scale)
            done = [self.perform(op, slot) for slot, op in enumerate(cycle)]
            for op, (wall, outcome) in zip(cycle, done):
                attempted += 1
                if self.check(op, outcome):
                    latencies.append(wall)
                    trials += workloads.trials_of(self.spec, op)
            del done
            j += 1
        probed += [between() for _ in range(probes - len(probed))]
        return attempted, trials, latencies, probed

    def cli_peak_rss_kb(self) -> int:
        """Run each job once as ``python -m blochsim``; the largest child RSS.

        The timed calls run in this process, whose peak RSS depends on the
        order the shuffled jobs allocated in; a CLI user's process peak
        does not.
        """
        peak = 0
        for i in range(len(workloads.CLI_PLAN)):
            out = self.scratch / f"job{i:02d}.out"
            argv = [sys.executable, "-m", "blochsim", *ops.cli_argv(self.spec["jobs"][i], str(out))]
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    env=child_env(), cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err = proc.stderr.read().decode()
            proc.stderr.close()
            if self.check_cli(["cli", i], proc.returncode, err, out):
                peak = max(peak, usage.ru_maxrss)
        return peak

    def run_defect_jobs(self) -> list:
        """Known-defect jobs: exit 1 today (ROADMAP item b); checked if they pass."""
        outcomes = []
        for i in self.spec["defect_jobs"]:
            op = ["cli", i]
            _, (code, err, out) = self.perform(op)
            if code == 1 and "strictly inside" in err:
                status = "known defect: exit 1, oracle rejects a zero Born weight"
            elif self.check_cli(op, code, err, out):
                status = "passes: exit 0 and the output checks hold"
            else:
                status = "unexpected: counted as a failed operation"
            outcomes.append({"job": i, "flags": self.spec["jobs"][i]["flags"],
                             "kind": self.spec["jobs"][i]["case"]["kind"], "exit": code, "status": status})
        return outcomes


def end_to_end(runner: Runner, spec: dict, seconds: float, scale: float, smoke: bool) -> dict:
    scratch = runner.scratch
    spec_path = str(scratch / "spec.json")
    setup_argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), spec_path, str(scratch)]
    probes = 1 if smoke else SETUP_PROBES

    runner.built = ops.build(spec)
    ops.warm_up(runner.built, spec, str(scratch))
    defects, children = [], 0
    if spec["workload"] == "cli-report":
        defects = runner.run_defect_jobs()
        peak_rss_kb = runner.cli_peak_rss_kb()
        children = len(workloads.CLI_PLAN)
    ran, trials, latencies, setups = runner.run_cycles(seconds, scale, lambda: probe(setup_argv), probes)
    if not children:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # throughput: trials of the successful operations over their summed wall time
    busy = sum(latencies)
    p50, p90, beyond = quantiles(latencies)
    n_ok = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s", probes),
        "throughput_mtrials_s": (trials / busy / 1e6 if busy else 0.0, "Mtrials/s", n_ok),
        "latency_p50_s": (p50, "s", n_ok),
        "latency_p90_s": (p90, "s", n_ok),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB", children or 1),
    }
    attempted = ran + len(defects) + children
    failed = len(runner.failures)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "trials": trials,
        "beyond_p90": beyond,
        "setup_probes_s": setups,
        "known_defects": defects,
    }


def digest_changes(scratch: Path) -> tuple:
    """(changed, compared): CLI outputs of the recorded reference seeds whose
    SHA-256 differs from ``cli_digests.json``.

    The reference seeds are fixed, whatever the run's seed, so a change of
    the random stream or of the output format shows on every run.
    """
    table = json.loads((BENCH / "cli_digests.json").read_text())
    workdir = scratch / "digests"
    workdir.mkdir()
    changed = compared = 0
    for seed, expected in table.items():
        got = record_digests.digests_for(int(seed), workdir)
        changed += sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
        compared += max(len(got), len(expected))
    return changed, compared


def traced(runner: Runner, spec: dict, seconds: float, scale: float, smoke: bool) -> dict:
    scratch = runner.scratch
    runner.built = ops.build(spec)
    ops.warm_up(runner.built, spec, str(scratch))
    import_s = median_of_probes(import_probe_argv(), 1 if smoke else IMPORT_PROBES)

    # Each operation runs untraced and traced back to back, in alternating
    # order, so drifts of the host's speed cancel out of the overhead ratio.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        defects = runner.run_defect_jobs() if spec["workload"] == "cli-report" else []
    finally:
        tracer.uninstall()
    plain, with_spans = [], []
    deadline = time.perf_counter() + seconds
    j = 0
    while not plain or (time.perf_counter() < deadline and len(plain) < MAX_TRACED_OPS):
        for op in workloads.cycle(spec, j, scale):
            for traced_pass in (False, True) if len(plain) % 2 else (True, False):
                if traced_pass:
                    tracer.op_id = len(with_spans)
                    tracer.install()
                    try:
                        with_spans.append(runner.execute(op))
                    finally:
                        tracer.uninstall()
                else:
                    plain.append(runner.execute(op))
        j += 1
    spans = list(tracer.spans)

    tracer.install()
    try:
        # one cycle under tracemalloc, for the peak allocation of run_trials
        tracer.spans.clear()
        tracer.alloc = True
        tracemalloc.start()
        try:
            alloc_done = [runner.execute(op) for op in workloads.cycle(spec, 0, scale)]
        finally:
            tracemalloc.stop()
        alloc_spans = list(tracer.spans)
    finally:
        tracer.uninstall()

    metrics = {name: (value, unit, None) for name, (value, unit) in tracing.per_layer(spans, alloc_spans).items()}
    metrics["cli.import_s"] = (import_s, "s", 1 if smoke else IMPORT_PROBES)
    digest_changed, digests = digest_changes(scratch) if spec["workload"] == "cli-report" else (0, 0)
    metrics["cli.output_digest_changed"] = (digest_changed, "count", digests)
    metrics["trace.overhead_ratio"] = (sum(t for t, _ in with_spans) / sum(t for t, _ in plain), "ratio", len(plain))
    attempted = len(plain) + len(with_spans) + len(alloc_done) + len(defects)
    failed = len(runner.failures)

    spans_path = WORK / f"spans-{spec['workload']}-seed{spec['seed']}.jsonl"
    with open(spans_path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "traced_ops": len(with_spans),
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "known_defects": defects,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and single probes, for checking the benchmark itself")
    args = parser.parse_args(argv)

    if not (SRC / "blochsim" / "__init__.py").is_file():
        print(f"error: no blochsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blochsim

    if not blochsim.__file__.startswith(str(SRC)):
        print(f"error: blochsim imported from {blochsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    scale = 0.01 if args.smoke else 1.0
    try:
        spec = workloads.make_spec(args.workload, args.seed, str(scratch))
        workloads.write_configs(spec)
        (scratch / "spec.json").write_text(json.dumps(spec))
        runner = Runner(spec, scratch)
        measure = traced if args.trace else end_to_end
        result = measure(runner, spec, args.seconds, scale, args.smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, blochsim),
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in result["metrics"].items()},
        "failures": runner.failures[:20],
    }
    (WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    for name, (value, unit, samples) in result["metrics"].items():
        print(f"{name:42s} {value:>14.6g} {unit:10s}" + (f" n={samples}" if samples else ""))
    print(f"{'error_rate':42s} {result['error_rate']:>14.6g} {'ratio':10s} n={result['attempted']}")
    for defect in result["known_defects"]:
        print(f"known-defect job {defect['job']} ({defect['kind']}, {' '.join(defect['flags'])}): {defect['status']}")
    for failure in runner.failures[:5]:
        print(f"FAILED {failure}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
