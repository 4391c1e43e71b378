"""Invalid input is rejected where it is constructed, with the right error.

Non-finite numbers must fail every validator (a NaN residual compares
false against any tolerance), non-integer counts must raise ContractError
rather than escape as a bare TypeError, and a bad config must exit 2.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim import (
    Barycentric,
    BasisError,
    ContractError,
    DensityMatrix,
    Ket,
    MeasurementBasis,
    NormalizationError,
    RngSeed,
    geometric_hit_count_oracle,
    run_trials,
)
from blochsim.cli import main
from util import standard_state_3

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
#: Where the bad number goes: the real or the imaginary part.
PART = st.sampled_from([1.0, 1j])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), data=st.data(), bad=NON_FINITE, part=PART)
def test_ket_rejects_non_finite(n, data, bad, part):
    amps = np.full(n, 1 / np.sqrt(n), dtype=complex)
    amps[data.draw(st.integers(0, n - 1))] = bad * part
    with pytest.raises(NormalizationError):
        Ket(amps)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), data=st.data(), bad=NON_FINITE, part=PART)
def test_density_matrix_rejects_non_finite(n, data, bad, part):
    m = np.eye(n, dtype=complex) / n
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    m[i, j] = bad * part
    with pytest.raises(NormalizationError):
        DensityMatrix(m)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), data=st.data(), bad=NON_FINITE, part=PART)
def test_basis_rejects_non_finite(n, data, bad, part):
    kets = np.eye(n, dtype=complex)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    kets[i, j] = bad * part
    with pytest.raises(BasisError):
        MeasurementBasis(kets)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), data=st.data(), bad=NON_FINITE)
def test_barycentric_rejects_non_finite(n, data, bad):
    w = np.full(n, 1 / n)
    w[data.draw(st.integers(0, n - 1))] = bad
    with pytest.raises(ContractError):
        Barycentric(w)


def test_nan_ket_never_reaches_the_sampler():
    # once accepted, it produced counts [1000, 0] with a NaN deviation
    with pytest.raises(NormalizationError):
        Ket([np.nan, 1.0])


class TestIntegerCounts:
    def test_non_integer_seed(self):
        for bad in (1.5, True):
            with pytest.raises(ContractError, match="seed must be an integer"):
                RngSeed(bad)
            with pytest.raises(ContractError, match="stream id must be an integer"):
                RngSeed(1, stream=bad)

    def test_non_integer_trial_count(self):
        for bad in (10.0, True):
            with pytest.raises(ContractError, match="n_trials must be an integer"):
                run_trials(standard_state_3(), MeasurementBasis.canonical(3), bad, RngSeed(0))

    def test_non_integer_oracle_sample_count(self):
        rng = np.random.default_rng()
        for bad in (100.0, True):
            with pytest.raises(ContractError, match="n_samples must be an integer"):
                geometric_hit_count_oracle(Barycentric([0.5, 0.3, 0.2]), bad, rng)

    def test_numpy_integers_still_accepted(self):
        b = MeasurementBasis.canonical(3)
        report = run_trials(standard_state_3(), b, np.int64(10), RngSeed(np.uint64(3)))
        assert report.n_trials == 10


def _main_on(tmp_path, text: str, *flags: str) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return main(["--config", str(path), "--trials", "10", *flags])


class TestConfigExitCodes:
    def test_nan_amplitude_is_a_config_error(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[NaN, 0], [1, 0]]}}'
        assert _main_on(tmp_path, text) == 2
        assert "state.ket" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [5, True, ["a"], ""])
    def test_out_must_be_a_path_string(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        text = json.dumps({"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "out": out})
        assert _main_on(tmp_path, text) == 2
        assert "out:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_empty_out_flag_is_a_config_error(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}}'
        assert _main_on(tmp_path, text, "--out", "") == 2
        assert "out:" in capsys.readouterr().err

    def test_trials_flag_is_validated_as_the_config_field(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}}'
        assert _main_on(tmp_path, text, "--trials", "0") == 2
        assert "n_trials: must be >= 1" in capsys.readouterr().err

    def test_seed_flag_is_validated_as_the_config_field(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}}'
        assert _main_on(tmp_path, text, "--seed", str(2**64)) == 2
        assert f"seed: must be an unsigned 64-bit integer, got {2**64}" in capsys.readouterr().err

    def test_negative_seed_names_the_seed_field_once(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "seed": -1}'
        assert _main_on(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "seed: must be an unsigned 64-bit integer, got -1" in err
        assert err.count("seed") == 1

    def test_negative_stream_names_the_stream_field(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "stream": -1}'
        assert _main_on(tmp_path, text) == 2
        assert "stream: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["1", True], ids=["string", "bool"])
    @pytest.mark.parametrize("field", ["state.ket", "state.density", "basis"])
    def test_complex_entries_must_be_numbers(self, tmp_path, capsys, field, entry):
        cfg = {"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}}
        if field == "state.ket":
            cfg["state"] = {"ket": [[entry, 0], [0, 0]]}
        elif field == "state.density":
            cfg["state"] = {"density": [[[entry, 0], [0, 0]], [[0, 0], [0, 0]]]}
        else:
            cfg["basis"] = [[[entry, 0], [0, 0]], [[0, 0], [1, 0]]]
        assert _main_on(tmp_path, json.dumps(cfg)) == 2
        assert f"{field}: expected" in capsys.readouterr().err

    def test_csv_flag_conflicts_with_config_sections(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "trace": true}'
        assert _main_on(tmp_path, text, "--format", "csv") == 2
        assert "format:" in capsys.readouterr().err
