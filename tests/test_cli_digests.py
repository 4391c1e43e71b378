"""Every cli-report output of the reference seeds keeps its recorded digest.

``bench/cli_digests.json`` holds the SHA-256 of each output of the
benchmark's cli-report jobs (json and csv reports, partitions, geometry,
trace and ``--oracle-check``), or ``exit <code>`` for a job that fails,
for the seeds 0-3. ``bench/record_digests.digests_for`` reruns the jobs
of one seed in process; this test compares its result with the record,
so a change to any CLI output byte fails here and not only in a traced
benchmark run. The test only reads ``bench/``.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
RECORDED = json.loads((BENCH / "cli_digests.json").read_text())


@pytest.fixture
def record_digests(monkeypatch):
    # record_digests imports its sibling modules ops and workloads by name
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("record_digests")


@pytest.mark.parametrize("seed", sorted(RECORDED, key=int))
def test_cli_outputs_keep_their_recorded_digests(seed, tmp_path, record_digests):
    assert record_digests.digests_for(int(seed), tmp_path) == RECORDED[seed]
