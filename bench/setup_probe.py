"""Time a workload's set-up in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR SPEC_JSON WORKDIR

The window covers importing blochsim, constructing the workload's value
objects and one reduced-size warm-up call per distinct (N, operation).
Reading the input spec, which the benchmark generated, is outside it.
Prints the set-up time in seconds as the last line.
"""

import json
import sys
import time

import ops


def main(src: str, spec_path: str, workdir: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    built = ops.build(spec)
    ops.warm_up(built, spec, workdir)
    elapsed = time.perf_counter() - t0
    if not built.bs.__file__.startswith(src):
        raise SystemExit(f"blochsim imported from {built.bs.__file__}, not from {src}")
    print(repr(elapsed))


if __name__ == "__main__":
    main(*sys.argv[1:4])
