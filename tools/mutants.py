"""Run the test suite against named one-line mutants of the library.

Usage::

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME [NAME ...]

Each mutant replaces one whole line of a module under ``src/blochsim/``
(indentation included) with a faulty one. The runner copies the
repository into a temporary directory, applies the mutant there and runs
the tier-1 suite on the copy, stopping at the first failure. The digest
tests are left out: they compare reports with recorded hashes, so they
catch any change, not an error. So is ``tests/test_mutants.py``. A mutant is killed when the suite fails;
the watchdog in ``tests/conftest.py`` turns a hang into a failure after
60 s. An equivalent mutant is one that no correct test can kill; its
note says why. The exit status is 1 when a mutant that is not
equivalent survives.

The technique is that of DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11 (1978). A mutant takes 2-75 s, the
whole list about 7 minutes, so the runner is not part of tier-1;
``tests/test_mutants.py`` checks only that each mutant's line still
occurs exactly once, so the list does not rot. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "blochsim"
#: Tests that hash whole reports, so any change fails them, and the check that
#: each mutant's line occurs once, which fails on every mutated copy.
LEFT_OUT = (
    "tests/test_cli_digests.py",
    "tests/test_golden.py",
    "tests/test_shot_golden.py",
    "tests/test_mutants.py",
)
#: A mutant whose suite runs longer than this counts as killed; the watchdog ends a hang sooner.
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/blochsim/
    line: str  # the line as it stands, indentation included
    mutated: str
    equivalent: str = ""  # why no correct test can kill it

    def apply(self, text: str) -> str:
        lines = text.split("\n")
        if lines.count(self.line) != 1:
            raise ValueError(f"{self.name}: its line occurs {lines.count(self.line)} times in {self.module}")
        lines[lines.index(self.line)] = self.mutated
        return "\n".join(lines)


def _scaled(name: str, value: str) -> tuple[Mutant, ...]:
    """The tolerance ``name = value`` of ``tolerances.py`` times ten and divided by ten."""
    mantissa, exponent = value.split("e")
    return tuple(
        Mutant(f"{name}-{tag}", "tolerances.py", f"{name} = {value}", f"{name} = {mantissa}e{int(exponent) + shift}")
        for tag, shift in (("x10", 1), ("div10", -1))
    )


MUTANTS = (
    Mutant(
        "born-conjugates-swapped",
        "simplex.py",
        '        p = np.einsum("ij,jk,ik->i", b.kets.conj(), d.entries, b.kets)',
        '        p = np.einsum("ij,jk,ik->i", b.kets, d.entries, b.kets.conj())',
    ),
    Mutant(
        "race-tie-less-equal",
        "sampler.py",
        "            np.less(col, running, out=masks[i, :m])",
        "            np.less_equal(col, running, out=masks[i, :m])",
    ),
    Mutant(
        "from-bloch-antisymmetric-sign",
        "bloch.py",
        "    upper = c * (sym - 1j * anti)",
        "    upper = c * (sym + 1j * anti)",
    ),
    Mutant("tie-band-wide", "tolerances.py", "TIE_BAND = 1e-10", "TIE_BAND = 1e-2"),
    # a Dirichlet(1.02) lambda, the non-uniform "rho-measurements" of Aerts and
    # Sassoli de Bianchi, Ann. Phys. 351 (2014) 975, in place of the uniform one
    Mutant(
        "dirichlet-first-block",
        "sampler.py",
        "    rng.standard_exponential(out=blocks[0])",
        "    blocks[0][...] = rng.gamma(1.02, size=blocks[0].shape)",
    ),
    Mutant(
        "dirichlet-later-blocks",
        "sampler.py",
        "                rng.standard_exponential(out=block)",
        "                block[...] = rng.gamma(1.02, size=block.shape)",
    ),
    Mutant(
        "dirichlet-shot",
        "sampler.py",
        "    row = rng.standard_exponential(d.dim)",
        "    row = rng.gamma(1.02, size=d.dim)",
    ),
    Mutant(
        "fuse-reversed",
        "sampler.py",
        "    return np.array([values[np.asarray(blk, dtype=np.intp)].sum() for blk in blocks])",
        "    return np.array([values[np.asarray(blk, dtype=np.intp)].sum() for blk in blocks][::-1])",
    ),
    Mutant(
        "diagonal-entries-reversed",
        "collapse.py",
        "        diag[rows] = p + 0.0",
        "        diag[rows] = p[::-1] + 0.0",
    ),
    Mutant(
        "oracle-tie-factor-one",
        "cli.py",
        "        if distance > 2 * oracle.ties:",
        "        if distance > oracle.ties:",
    ),
    Mutant(
        "oracle-tie-plus-one",
        "cli.py",
        "        if distance > 2 * oracle.ties:",
        "        if distance > 2 * oracle.ties + 1:",
        equivalent="two count vectors with one total differ by an even L1 distance",
    ),
    Mutant(
        "lueders-by-class-weight",
        "sampler.py",
        "    return k, members, weight, DensityMatrix(m / float(m.trace().real))",
        "    return k, members, weight, DensityMatrix(m / weight)",
        equivalent="Tr(P_K D P_K) is the class weight, so the two differ by rounding only",
    ),
    Mutant("pipeline-no-join", "sampler.py", "        helper.join()", "        pass"),
    Mutant(
        "pipeline-swallows-broken-barrier",
        "sampler.py",
        "                raise failure.pop() from None  # popped: a kept error would cycle with the buffers",
        "                pass",
    ),
    Mutant("pipeline-exit-without-abort", "sampler.py", "        handover.abort()", "        pass"),
    Mutant("pipeline-helper-error-without-abort", "sampler.py", "            handover.abort()", "            pass"),
    Mutant(
        "run-trials-without-closing",
        "sampler.py",
        "        with closing(_exponential_rows(k, n_trials, seed.generator(), rows)) as stream:",
        "        for stream in [_exponential_rows(k, n_trials, seed.generator(), rows)]:",
    ),
    *_scaled("TIE_BAND", "1e-10"),
    *_scaled("MEMBER_TOL", "1e-10"),
    *_scaled("NEGLIGIBLE_WEIGHT", "1e-300"),
    *_scaled("BOUNDARY_TOL", "1e-12"),
    *_scaled("HULL_TOL", "1e-9"),
)


def run(mutant: Mutant, workdir: Path) -> tuple[bool, float, str]:
    """(killed, seconds, what killed it) for the suite on a mutated copy of the repository."""
    copy = workdir / mutant.name
    skipped = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work")
    shutil.copytree(ROOT, copy, ignore=skipped)
    target = copy / PACKAGE / mutant.module
    target.write_text(mutant.apply(target.read_text()))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["--continue-on-collection-errors", *(f"--ignore={path}" for path in LEFT_OUT)]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
    seconds = time.perf_counter() - start
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if done.returncode == 0:
        return False, seconds, ""
    if failed:
        return True, seconds, failed[0]
    if "Timeout (" in done.stderr:  # faulthandler's header
        return True, seconds, "a test hung; the watchdog ended the run"
    return True, seconds, f"exit {done.returncode}: {(done.stderr or done.stdout).splitlines()[-1:]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    names = parser.parse_args(argv).names
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(known)}")
    chosen = [known[name] for name in names] if names else list(MUTANTS)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="blochsim-mutants-") as workdir:
        for mutant in chosen:
            killed, seconds, why = run(mutant, Path(workdir))
            verdict = "killed" if killed else "survived"
            if mutant.equivalent:
                verdict += " (equivalent)"
            elif not killed:
                survivors.append(mutant.name)
            print(f"{verdict:22} {mutant.name:38} {seconds:6.1f} s  {why}", flush=True)
            shutil.rmtree(Path(workdir) / mutant.name)
    if survivors:
        print(f"surviving mutants: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
