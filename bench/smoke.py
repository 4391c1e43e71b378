"""Reduced-size check of the benchmark itself (not part of the test suite).

    python3 bench/smoke.py

Runs every workload briefly, untraced and traced, with ``--smoke`` (1% of
the bulk trial counts, one set-up probe) and checks that each run exits
0, emits exactly the metric names and units of BENCHMARK.json, and
passes its output checks. Then checks that the benchmark fails without
a result line in a copy holding only BENCHMARK.json and bench/, and
reports the README example's exit code recorded in NOTES.md. Takes
about 15 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

#: The README's example config: its 8-digit amplitudes give
#: sum |psi|^2 = 1.0000000050798818, beyond the 1e-12 normalization check.
README_EXAMPLE = {
    "dim": 3,
    "state": {"ket": [[0.70710678, 0], [0.54772256, 0], [0.44721360, 0]]},
    "n_trials": 1000000,
    "seed": 7,
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(bench: dict, workload: str, trace: int) -> list:
    proc = run(["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(emitted.items()) ^ set(declared.items()))}")
    return problems


def check_without_sources() -> list:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["bench/run.py", "--workload", "trials-bulk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def readme_example_exit() -> int:
    path = ROOT / ".bench_work" / "readme-example.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(README_EXAMPLE))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from blochsim.cli import main; "
            "raise SystemExit(main(['--config', sys.argv[2], '--out', sys.argv[2] + '.out']))")
    try:
        return run(["-c", code, str(ROOT / "src"), str(path)]).returncode
    finally:
        path.unlink()
        Path(str(path) + ".out").unlink(missing_ok=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_workload(bench, workload, trace)
            failed |= bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
    problems = check_without_sources()
    failed |= bool(problems)
    print(f"without src/: {'fails as required' if not problems else 'FAIL ' + '; '.join(problems)}")
    print(f"README example config: exit {readme_example_exit()} (NOTES.md records exit 2)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
