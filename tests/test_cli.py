import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim import ConfigError, ContractError, validate_partition
from blochsim.cli import main, parse_config, run_experiment

MINIMAL = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}}'

EQUAL_SUPERPOSITION = json.dumps(
    {
        "dim": 2,
        "state": {"ket": [[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0]]},
        "n_trials": 100000,
        "seed": 42,
    }
)

THREE_LEVEL = json.dumps(
    {
        "dim": 3,
        "state": {"ket": [[np.sqrt(0.5), 0], [np.sqrt(0.3), 0], [np.sqrt(0.2), 0]]},
        "n_trials": 20000,
        "seed": 7,
    }
)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dim == 2
        assert cfg.n_trials == 10**6
        assert cfg.seed.seed == 0 and cfg.seed.stream == 0
        assert cfg.out_format == "json"
        assert cfg.partition is None
        np.testing.assert_array_equal(cfg.basis.kets, np.eye(2))
        np.testing.assert_allclose(cfg.state.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_reads_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(MINIMAL)
        assert parse_config(path).dim == 2
        assert parse_config(str(path)).dim == 2

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/no/such/config.json")

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1 column"):
            parse_config('{"dim": 2,,}')

    def test_non_normalized_ket_names_field(self):
        bad = '{"dim": 2, "state": {"ket": [[0.9, 0], [0, 0]]}}'
        with pytest.raises(ConfigError, match="state.ket"):
            parse_config(bad)

    def test_density_state_accepted(self):
        cfg = parse_config(
            '{"dim": 2, "state": {"density": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}}'
        )
        np.testing.assert_allclose(cfg.state.entries, np.eye(2) / 2, atol=1e-15)

    def test_non_psd_density_rejected(self):
        bad = '{"dim": 2, "state": {"density": [[[1.2, 0], [0, 0]], [[0, 0], [-0.2, 0]]]}}'
        with pytest.raises(ConfigError, match="state.density"):
            parse_config(bad)

    def test_duplicate_partition_index(self):
        bad = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "partition": [[1], [2, 2]]}'
        with pytest.raises(ConfigError, match="duplicate index 2"):
            parse_config(bad)

    def test_partition_must_cover_all_outcomes(self):
        bad = '{"dim": 3, "state": {"ket": [[1, 0], [0, 0], [0, 0]]}, "partition": [[1], [2]]}'
        with pytest.raises(ConfigError, match="does not cover"):
            parse_config(bad)

    def test_partition_is_one_based(self):
        good = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "partition": [[2], [1]]}'
        assert parse_config(good).partition == ((1,), (0,))
        bad = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "partition": [[0], [1]]}'
        with pytest.raises(ConfigError, match="out of range"):
            parse_config(bad)

    def test_non_orthonormal_basis_names_field(self):
        bad = json.dumps(
            {
                "dim": 2,
                "state": {"ket": [[1, 0], [0, 0]]},
                "basis": [[[1, 0], [0, 0]], [[1, 0], [1, 0]]],
            }
        )
        with pytest.raises(ConfigError, match="basis"):
            parse_config(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            parse_config('{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "trails": 5}')

    def test_csv_with_sections_rejected(self):
        bad = (
            '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, '
            '"format": "csv", "dump_geometry": true}'
        )
        with pytest.raises(ConfigError, match="csv"):
            parse_config(bad)

    def test_partition_flag_syntax(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(THREE_LEVEL)
        assert main(["--config", str(path), "--trials", "100", "--partition", "1|2,3"]) == 0
        assert json.loads(capsys.readouterr().out)["partition"] == [[1], [2, 3]]
        assert parse_config(THREE_LEVEL, {"partition": [[1], [2, 3]]}).partition == ((0,), (1, 2))
        assert main(["--config", str(path), "--partition", "1|x"]) == 2
        assert "partition: expected positive integers, got 'x'" in capsys.readouterr().err
        assert main(["--config", str(path), "--partition", "0|1,2"]) == 2
        assert "partition: index 0 out of range 1..3" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="partition: index must be an integer"):
            parse_config(THREE_LEVEL, {"partition": [[1], ["x"]]})
        with pytest.raises(ConfigError, match="out of range"):
            parse_config(THREE_LEVEL, {"partition": [[0], [1, 2]]})


#: Entries that are not labels 1..dim: the neighbours 0 and dim + 1 are
#: added per draw; bools, floats and strings are not integers.
_NOT_A_LABEL = [True, False, 1.0, 2.5, "1"]


@st.composite
def _one_based_blocks(draw):
    """(dim, 1-based blocks): a set partition of 1..dim, often with one defect."""
    dim = draw(st.integers(2, 5))
    labels = draw(st.permutations(range(1, dim + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1))))
    blocks = [list(labels[a:b]) for a, b in zip([0, *cuts], [*cuts, dim])]
    k = draw(st.integers(0, len(blocks) - 1))
    defect = draw(st.sampled_from(["none", "duplicate", "gap", "replace", "empty block"]))
    if defect == "duplicate":
        blocks[k].append(draw(st.integers(1, dim)))
    elif defect == "gap":
        blocks[k].pop(draw(st.integers(0, len(blocks[k]) - 1)))
    elif defect == "replace":
        j = draw(st.integers(0, len(blocks[k]) - 1))
        blocks[k][j] = draw(st.sampled_from([0, dim + 1, *_NOT_A_LABEL]))
    elif defect == "empty block":
        blocks.insert(k, [])
    return dim, blocks


def _shift(blocks):
    """The 0-based shift of 1-based blocks; only true ints are shifted."""
    return [[i - 1 if type(i) is int else i for i in blk] for blk in blocks]


class TestOnePartitionRule:
    """The CLI's partition field follows exactly the library's partition rule."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_one_based_blocks())
    def test_parse_config_agrees_with_validate_partition(self, case):
        dim, blocks = case
        try:
            expected = validate_partition(_shift(blocks), dim)
        except ContractError:
            expected = None
        ket = [[1, 0]] + [[0, 0]] * (dim - 1)
        text = json.dumps({"dim": dim, "state": {"ket": ket}, "partition": blocks})
        try:
            got = parse_config(text).partition
        except ConfigError as exc:
            assert str(exc).startswith("partition: ")
            got = None
        assert got == expected


class TestRunExperiment:
    def test_equal_superposition_report(self, capsys):
        assert run_experiment(parse_config(EQUAL_SUPERPOSITION)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact_probs"] == [0.5, 0.5]
        assert doc["n_trials"] == 100000
        assert sum(doc["counts"]) == 100000
        # frequencies never appear without the exact probabilities beside them
        assert "empirical_freqs" in doc and "exact_probs" in doc

    def test_byte_identical_given_seed(self, capsys):
        run_experiment(parse_config(EQUAL_SUPERPOSITION))
        first = capsys.readouterr().out
        run_experiment(parse_config(EQUAL_SUPERPOSITION))
        second = capsys.readouterr().out
        assert first == second

    def test_geometry_dump(self, capsys):
        cfg = parse_config(THREE_LEVEL)
        cfg.dump_geometry = True
        assert run_experiment(cfg) == 0
        doc = json.loads(capsys.readouterr().out)
        verts = np.array(doc["geometry"]["vertices"])
        dots = verts @ verts.T
        np.testing.assert_allclose(np.diag(dots), 1.0, atol=1e-9)
        np.testing.assert_allclose(dots[~np.eye(3, dtype=bool)], -0.5, atol=1e-9)
        assert doc["geometry"]["total_measure"] == pytest.approx(3 * np.sqrt(3) / 4, abs=1e-9)

    def test_trace_section(self, capsys):
        cfg = parse_config(THREE_LEVEL)
        cfg.trace = True
        assert run_experiment(cfg) == 0
        doc = json.loads(capsys.readouterr().out)
        labels = [s["label"] for s in doc["trace"]["stages"]]
        assert labels == ["initial", "reduced", "collapsed"]
        assert doc["trace"]["outcome"] in (1, 2, 3)
        assert len(doc["trace"]["lambda"]) == 3

    def test_degenerate_trace_and_partition_echo(self, capsys):
        cfg = parse_config(THREE_LEVEL)
        cfg.partition = ((0,), (1, 2))
        cfg.trace = True
        assert run_experiment(cfg) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["partition"] == [[1], [2, 3]]
        assert doc["exact_probs"] == [0.5, 0.5]
        labels = [s["label"] for s in doc["trace"]["stages"]]
        assert labels == ["initial", "reduced", "collapsed", "purified"]

    def test_oracle_check(self, capsys):
        cfg = parse_config(THREE_LEVEL)
        cfg.oracle_check = True
        cfg.n_trials = 5000
        assert run_experiment(cfg) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["n_samples"] == 5000
        assert doc["oracle"]["agreements"] == 5000
        assert doc["oracle"]["disagreements"] == 0
        assert sum(doc["oracle"]["counts"]) == 5000

    def test_oracle_on_vertex_state_is_a_contract_violation(self, capsys):
        cfg = parse_config(MINIMAL)
        cfg.oracle_check = True
        cfg.n_trials = 10
        assert run_experiment(cfg) == 1
        assert "error" in capsys.readouterr().err

    def test_csv_rows(self, capsys):
        cfg = parse_config(EQUAL_SUPERPOSITION)
        cfg.out_format = "csv"
        assert run_experiment(cfg) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "outcome,exact_prob,count,empirical_freq,chi_square,max_abs_deviation"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0.5"

    def test_writes_to_out_path(self, tmp_path):
        cfg = parse_config(EQUAL_SUPERPOSITION)
        cfg.out = str(tmp_path / "report.json")
        assert run_experiment(cfg) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["exact_probs"] == [0.5, 0.5]

    def test_unwritable_out_path_is_io_error(self, capsys):
        cfg = parse_config(MINIMAL)
        cfg.n_trials = 10
        cfg.out = "/no/such/dir/report.json"
        assert run_experiment(cfg) == 3
        assert "I/O error" in capsys.readouterr().err


class TestMain:
    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(THREE_LEVEL)
        code = main(
            [
                "--config",
                str(path),
                "--trials",
                "5000",
                "--seed",
                "3",
                "--partition",
                "1|2,3",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_trials"] == 5000
        assert doc["seed"] == 3
        assert doc["partition"] == [[1], [2, 3]]

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"dim": 2, "state": {"ket": [[0.9, 0], [0, 0]]}}')
        assert main(["--config", str(path)]) == 2
        assert "state.ket" in capsys.readouterr().err

    def test_csv_flag(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(MINIMAL)
        assert main(["--config", str(path), "--trials", "100", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("outcome,exact_prob,")

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(MINIMAL)
        proc = subprocess.run(
            [sys.executable, "-m", "blochsim", "--config", str(path), "--trials", "50"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["counts"] == [50, 0]

    def test_readme_example_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config, report = re.findall(r"```json\n(.*?)```", readme, re.S)[:2]
        path = tmp_path / "experiment.json"
        path.write_text(config)
        assert main(["--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["counts"] == [500473, 299795, 199732]
        assert out == report
