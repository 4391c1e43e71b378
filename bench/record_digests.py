"""Record the SHA-256 of every cli-report output for the reference seeds.

    python3 bench/record_digests.py [FIRST_SEED LAST_SEED]

A traced cli-report run, whatever its own seed, runs every job of the
seeds recorded here once and reports the outputs whose digest differs as
``cli.output_digest_changed``. Re-record only with a change that declares
a new random stream or output format.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import ops  # noqa: E402
import workloads  # noqa: E402


def digests_for(seed: int, scratch: Path) -> list:
    spec = workloads.make_spec("cli-report", seed, str(scratch))
    workloads.write_configs(spec)
    built = ops.build(spec)
    out = []
    for i in range(len(spec["jobs"])):
        path = scratch / "out"
        path.unlink(missing_ok=True)
        code, _ = ops.run_cli_inprocess(built, i, str(path))
        out.append(workloads.digest(path.read_bytes()) if code == 0 else f"exit {code}")
    return out


def main(first: int = 0, last: int = 3) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".bench_work" / "record-digests"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        table = {str(seed): digests_for(seed, scratch) for seed in range(first, last + 1)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (BENCH / "cli_digests.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:3]))
