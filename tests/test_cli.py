import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochsim
from blochsim import ConfigError, ContractError, OracleReport, validate_partition
from blochsim.cli import main, parse_config, run_experiment
from blochsim.serialize import matrix_to_pairs
from util import config_with_entry, random_basis

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

    def test_reads_from_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(MINIMAL)
        assert main(["--config", str(path), "--trials", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 2
        # parse_config reads text only: a path is not JSON
        with pytest.raises(ConfigError, match="config parse error at line 1 column 1"):
            parse_config(str(path))

    def test_missing_file(self, capsys):
        assert main(["--config", "/no/such/config.json"]) == 2
        assert capsys.readouterr().err == "config error: config file not found: /no/such/config.json\n"

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
        with pytest.raises(ConfigError, match=r"partition: index must be an integer in 1\.\.2, got 0"):
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
        # one block fuses every outcome into one class of probability 1
        assert main(["--config", str(path), "--trials", "100", "--partition", "1,2,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["partition"], doc["exact_probs"], doc["counts"]) == ([[1, 2, 3]], [1], [100])
        args = ["--config", str(path), "--trials", "100", "--partition", "3,1,2", "--format", "csv"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1,1,100,1,0,0"]
        assert main(["--config", str(path), "--partition", "1|x"]) == 2
        assert "partition: expected positive integers, got 'x'" in capsys.readouterr().err
        assert main(["--config", str(path), "--partition", "0|1,2"]) == 2
        assert "partition: index must be an integer in 1..3, got 0" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="partition: index must be an integer"):
            parse_config(THREE_LEVEL, {"partition": [[1], ["x"]]})
        with pytest.raises(ConfigError, match=r"partition: index must be an integer in 1\.\.3, got 0"):
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
        cfg.trace = True
        for partition, echo, probs in [
            (((0,), (1, 2)), [[1], [2, 3]], [0.5, 0.5]),
            (((0, 1, 2),), [[1, 2, 3]], [1]),
        ]:
            cfg.partition = partition
            assert run_experiment(cfg) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["partition"] == echo
            assert doc["exact_probs"] == probs
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

    def test_oracle_check_catches_a_misplaced_count(self, capsys, monkeypatch):
        race = blochsim.sampler._column_race

        def misplacing(blocks, p, sup, rows, counts):
            race(blocks, p, sup, rows, counts)
            counts[0] -= 1
            counts[1] += 1

        monkeypatch.setattr(blochsim.sampler, "_column_race", misplacing)
        cfg = parse_config(THREE_LEVEL)
        cfg.n_trials = 5000
        assert run_experiment(cfg) == 0  # nothing to compare the counts with
        capsys.readouterr()
        cfg.oracle_check = True
        assert run_experiment(cfg) == 1
        err = capsys.readouterr().err
        assert "oracle counts [2547, 1479, 974] differ from the reported counts" in err
        assert err.endswith("by 2 > 2 x 0 ties\n")

    @pytest.mark.parametrize("partition", [None, ((0,), (1, 2))])
    def test_oracle_check_lets_each_tie_move_one_count(self, capsys, monkeypatch, partition):
        race, oracle = blochsim.sampler._column_race, blochsim.cli.geometric_hit_count_oracle

        def misplacing(blocks, p, sup, rows, counts):
            race(blocks, p, sup, rows, counts)
            counts[0] -= 1
            counts[1] += 1

        def one_tie(*args, **kwargs):
            report = oracle(*args, **kwargs)
            return OracleReport(report.n_samples, report.counts, 1, report.disagreements)

        monkeypatch.setattr(blochsim.sampler, "_column_race", misplacing)
        monkeypatch.setattr(blochsim.cli, "geometric_hit_count_oracle", one_tie)
        cfg = parse_config(THREE_LEVEL)
        cfg.n_trials = 5000
        cfg.partition = partition
        cfg.oracle_check = True
        # one moved count puts the (fused) counts 2 apart: within 2 x 1 tie
        assert run_experiment(cfg) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["ties"] == 1

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

    @staticmethod
    def _run_module(tmp_path, text: str) -> subprocess.CompletedProcess:
        """``python -m blochsim`` on a config, in a child process."""
        path = tmp_path / "cfg.json"
        path.write_text(text)
        # the child imports the same package as this process, installed or not
        src = str(Path(blochsim.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, inherited]))}
        return subprocess.run(
            [sys.executable, "-m", "blochsim", "--config", str(path), "--trials", "50"],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_module_entry_point(self, tmp_path):
        proc = self._run_module(tmp_path, MINIMAL)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["counts"] == [50, 0]

    def test_module_reports_an_oversized_integer_without_a_traceback(self, tmp_path):
        proc = self._run_module(tmp_path, config_with_entry("state.ket", 10**400))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: state.ket: ")
        assert "Traceback" not in proc.stderr

    def test_trace_of_accepted_state_with_imaginary_diagonal(self, tmp_path, capsys):
        # construction accepts |Im D_mm| = 5e-13; the trace's Bloch map must too
        zero = [0, 0]
        density = [
            [[0.4, 5e-13], zero, zero],
            [zero, [0.3, 5e-13], zero],
            [zero, zero, [0.3, -5e-13]],
        ]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim": 3, "state": {"density": density}, "n_trials": 1000}))
        assert main(["--config", str(path), "--trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["label"] for s in doc["trace"]["stages"]] == ["initial", "reduced", "collapsed"]

    def test_readme_example_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config, report = re.findall(r"```json\n(.*?)```", readme, re.S)[:2]
        path = tmp_path / "experiment.json"
        path.write_text(config)
        assert main(["--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["counts"] == [500473, 299795, 199732]
        assert out == report

        (library,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        namespace: dict = {}
        exec(library, namespace)
        assert namespace["r"].norm == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(namespace["ratios"], [0.5, 0.3, 0.2], rtol=0, atol=1e-13)


#: The report sections that only JSON carries.
SECTIONS = ("--dump-geometry", "--trace", "--oracle-check")
#: Every combination of the section flags and the output format.
FLAG_SETS = [
    [*sections, *csv]
    for r in range(len(SECTIONS) + 1)
    for sections in itertools.combinations(SECTIONS, r)
    for csv in ([], ["--format", "csv"])
]


def _flag_matrix_config(n, seed, form, basis, where, partition):
    """A valid config and its Born vector, computed here as Re<a_i|D|a_i>.

    ``where`` puts the state inside the simplex, on a face (some Born
    weights zero) or on a vertex (one weight 1).
    """
    rng = np.random.default_rng(seed)
    b = random_basis(rng, n) if basis == "random" else None
    kets = np.eye(n, dtype=complex) if b is None else b.kets
    size = {"interior": n, "face": int(rng.integers(2, n)) if n > 2 else 1, "vertex": 1}[where]
    support = rng.permutation(n)[:size]

    def ket():
        c = np.zeros(n, dtype=complex)
        c[support] = np.sqrt(0.05 + rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
        psi = kets.T @ c
        return psi / np.linalg.norm(psi)

    if form == "ket":
        psi = ket()
        d, state = np.outer(psi, psi.conj()), {"ket": matrix_to_pairs(psi).tolist()}
    else:
        q = rng.exponential(size=int(rng.integers(1, 4)))
        d = sum(w * np.outer(psi, psi.conj()) for w, psi in zip(q / q.sum(), (ket() for _ in q)))
        d = (d + d.conj().T) / 2
        state = {"density": matrix_to_pairs(d).tolist()}
    born = np.einsum("ij,jk,ik->i", kets.conj(), d, kets).real

    labels = rng.permutation(n) + 1
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    blocks = {
        "none": None,
        "one block": [labels.tolist()],
        "singletons": [[int(i)] for i in labels],
        "random": [blk.tolist() for blk in np.split(labels, cuts)],
    }[partition]
    config = {"dim": n, "state": state, "n_trials": int(rng.integers(200, 400)), "seed": seed}
    if b is not None:
        config["basis"] = matrix_to_pairs(b.kets).tolist()
    if blocks is None:
        return config, born
    config["partition"] = blocks
    return config, np.array([born[np.array(blk) - 1].sum() for blk in blocks])


def _run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_flag_matrix_report(text: str, flags, config, probs) -> None:
    """What every successful report must satisfy, whatever its flags."""
    n_trials = config["n_trials"]
    if "csv" in flags:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        exact, counts = [float(r[1]) for r in rows], [int(r[2]) for r in rows]
    else:
        doc = json.loads(text)
        exact, counts = doc["exact_probs"], doc["counts"]
        assert doc.get("partition") == config.get("partition")
    counts = np.array(counts)
    np.testing.assert_allclose(exact, probs, rtol=0, atol=1e-12)
    assert counts.sum() == n_trials
    assert not counts[probs <= 1e-12].any()
    if "--oracle-check" in flags:
        oracle = doc["oracle"]
        assert oracle["n_samples"] == sum(oracle["counts"]) == n_trials
        assert oracle["disagreements"] == 0
    if "--trace" in flags:
        n = config["dim"]
        for stage in doc["trace"]["stages"]:
            m = np.array(stage["density"]) @ [1, 1j]
            # each entry is printed to 12 significant digits
            assert np.abs(m - m.conj().T).max() <= n * 1e-12
            assert abs(np.trace(m) - 1) <= n * 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 32),
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(["ket", "density"]),
    basis=st.sampled_from(["canonical", "random"]),
    where=st.sampled_from(["interior", "face", "vertex"]),
    partition=st.sampled_from(["none", "one block", "singletons", "random"]),
)
@example(n=3, seed=1, form="ket", basis="canonical", where="interior", partition="one block")
@example(n=32, seed=2, form="density", basis="random", where="face", partition="one block")
@example(n=8, seed=3, form="density", basis="random", where="interior", partition="singletons")
@example(n=2, seed=4, form="ket", basis="random", where="vertex", partition="random")
def test_every_valid_input_works_with_every_flag(
    tmp_path_factory, n, seed, form, basis, where, partition
):
    config, probs = _flag_matrix_config(n, seed, form, basis, where, partition)
    path = tmp_path_factory.mktemp("flag-matrix") / "config.json"
    path.write_text(json.dumps(config))
    for flags in FLAG_SETS:
        code, out, err = _run_main(["--config", str(path), *flags])
        sections = [f for f in flags if f in SECTIONS]
        if "csv" in flags and sections:
            assert code == 2 and "csv" in err, flags
        elif "--oracle-check" in flags and where != "interior":
            # a documented defect: the oracle rejects states on a face
            assert code == 1 and "strictly inside" in err, flags
        else:
            assert code == 0, (flags, err)
            _check_flag_matrix_report(out, flags, config, probs)
