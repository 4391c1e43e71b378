"""Invalid input is rejected where it is constructed, with the right error.

Non-finite numbers must fail every validator (a NaN residual compares
false against any tolerance), non-integer counts and dims must raise
ContractError rather than escape as a bare TypeError, a value object
takes numbers only (no strings, objects or bools, no complex numbers in
a real field, no fractions in counts), and a bad or unreadable config
must exit 2. Whatever nested list, numpy array or integer an entry point
is given, it returns or raises a BlochSimError, never a bare numpy or
Python exception, and the CLI's integer fields exit 0 or 2.
Finite numbers at the ends of the float range raise no warning on the
way: a residual that overflows fails its check quietly, and the sampler
never divides by a subnormal Born weight.
"""

import io
import json
import os
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blochsim import (
    Barycentric,
    BasisError,
    BlochSimError,
    BlochVector,
    ConfigError,
    ContractError,
    DensityMatrix,
    DimensionError,
    GeometryError,
    Ket,
    MeasurementBasis,
    MeasurementSimplex,
    NormalizationError,
    OracleReport,
    RngSeed,
    TrialReport,
    basis_to_simplex,
    geometric_hit_count_oracle,
    run_trials,
    sample_lambda,
    validate_partition,
)
from blochsim.cli import main, parse_config
from blochsim.errors import _shown
from blochsim.serialize import pairs_to_array
from util import config_with_entry, standard_state_3

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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), data=st.data(), bad=NON_FINITE)
def test_bloch_vector_rejects_non_finite(n, data, bad):
    coords = np.zeros(n * n - 1)
    coords[data.draw(st.integers(0, n * n - 2))] = bad
    with pytest.raises(ContractError, match="non-finite"):
        BlochVector(coords)


def test_nan_ket_never_reaches_the_sampler():
    # once accepted, it produced counts [1000, 0] with a NaN deviation
    with pytest.raises(NormalizationError):
        Ket([np.nan, 1.0])


class TestIntegerCounts:
    def test_non_integer_seed(self):
        for bad in (1.5, True):
            with pytest.raises(ContractError, match="seed must be an integer"):
                RngSeed(bad)
            with pytest.raises(ContractError, match="stream must be an integer"):
                RngSeed(1, stream=bad)

    def test_non_integer_trial_count(self):
        for bad in (10.0, True):
            with pytest.raises(ContractError, match="n_trials must be an integer"):
                run_trials(standard_state_3(), MeasurementBasis.canonical(3), bad, RngSeed(0))

    def test_non_integer_oracle_sample_count(self):
        rng = np.random.default_rng()
        simplex = basis_to_simplex(MeasurementBasis.canonical(3))
        for bad in (100.0, True):
            with pytest.raises(ContractError, match="n_samples must be an integer"):
                geometric_hit_count_oracle(Barycentric([0.5, 0.3, 0.2]), bad, rng, simplex)

    def test_numpy_integers_still_accepted(self):
        b = MeasurementBasis.canonical(3)
        report = run_trials(standard_state_3(), b, np.int64(10), RngSeed(np.uint64(3)))
        assert report.n_trials == 10

    @pytest.mark.parametrize("n", [3.0, "3", None, True], ids=repr)
    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda n: sample_lambda(n, np.random.default_rng(0)), "simplex dim must be an integer in 2"),
            (MeasurementBasis.canonical, "basis dim must be an integer in 2"),
            (lambda n: validate_partition(((0,), (1,)), n), "partition: outcome count must be an integer in 1"),
        ],
        ids=["sample_lambda", "canonical", "validate_partition"],
    )
    def test_non_integer_dim(self, call, what, n):
        with pytest.raises(ContractError, match=re.escape(f"{what}..{2**63 - 1}, got {n!r}") + "$"):
            call(n)


_S2 = basis_to_simplex(MeasurementBasis.canonical(2))

#: name -> (build the value object from one array, a valid array of 0s and 1s,
#: the kinds of number it takes: "c" complex, "f" real, "i" integer).
VALUE_OBJECTS = {
    "Ket": (Ket, [1, 0], "c"),
    "DensityMatrix": (DensityMatrix, [[1, 0], [0, 0]], "c"),
    "MeasurementBasis": (MeasurementBasis, [[1, 0], [0, 1]], "c"),
    "Barycentric": (Barycentric, [1, 0], "f"),
    "BlochVector": (BlochVector, [0, 0, 1], "f"),
    "MeasurementSimplex": (MeasurementSimplex, [[0, 0, 1], [0, 0, -1]], "f"),
    "TrialReport": (lambda x: TrialReport(1, Barycentric([1.0, 0.0]), x), [1, 0], "i"),
    "OracleReport": (lambda x: OracleReport(1, x, 0, 0), [1, 0], "i"),
}
#: Inputs that are not numbers of the field's kind, made from the valid array,
#: and the kinds of field each applies to.
NOT_NUMBERS = {
    "numeric strings": (lambda a: a.astype(str), "cfi"),
    "fractions": (lambda a: np.vectorize(Fraction, otypes=[object])(a), "cfi"),
    "bools": (lambda a: a.astype(bool), "cfi"),
    "complex numbers": (lambda a: a.astype(complex), "fi"),
    "floats": (lambda a: a.astype(float), "i"),
}


@pytest.mark.parametrize(
    "name, how",
    [(name, how) for name in sorted(VALUE_OBJECTS) for how, (_, fields) in NOT_NUMBERS.items()
     if VALUE_OBJECTS[name][2] in fields],
)
def test_value_objects_take_numbers_only(name, how):
    build, valid, _ = VALUE_OBJECTS[name]
    build(np.array(valid))
    bad = NOT_NUMBERS[how][0](np.array(valid))
    for given in (bad, bad.tolist()):
        with pytest.raises(ContractError, match=r"must be (numbers|real numbers|integers), got dtype"):
            build(given)


@pytest.mark.parametrize("name", sorted(VALUE_OBJECTS))
def test_value_objects_reject_ragged_lists(name):
    build, valid, _ = VALUE_OBJECTS[name]
    ragged = valid[:-1] + [[valid[-1]]]  # the last entry one level deeper
    with pytest.raises(ContractError, match="must be a rectangular array, got a ragged sequence"):
        build(ragged)


@pytest.mark.parametrize(
    "counts", [np.array([2**63, 0], dtype=np.uint64), [2**63]], ids=["uint64 array", "list"]
)
@pytest.mark.parametrize("name", [name for name in sorted(VALUE_OBJECTS) if VALUE_OBJECTS[name][2] == "i"])
def test_int64_fields_quote_a_value_that_does_not_fit(name, counts):
    # numpy reads the list as uint64, and wraps 2^63 to -2^63 on the way to
    # int64, a value the caller never passed
    with pytest.raises(ContractError, match=f"must be at most {2**63 - 1}, got {2**63}$"):
        VALUE_OBJECTS[name][0](counts)


def test_counts_are_summed_without_wrapping():
    # the int64 sum of these counts wraps to 1, the sample count
    with pytest.raises(ContractError, match=f"oracle counts sum to {2**64 + 1}, expected 1"):
        OracleReport(1, [2**63 - 1, 2**63 - 1, 3], 0, 0)


_S3 = basis_to_simplex(MeasurementBasis.canonical(3))
#: Vertices whose one edge overflows: the derived frame would be NaN.
_OVERFLOWING = [[1.7e308, 1, 0], [-1.7e308, 0, 1]]


@pytest.mark.parametrize(
    "vertices, error",
    [
        (_S3.vertices[:, :-1], DimensionError),
        (_S3.vertices[0], DimensionError),
        (np.zeros((1, 0)), DimensionError),
        (np.where(np.eye(3, 8) == 1, np.nan, _S3.vertices), ContractError),
        (_OVERFLOWING, GeometryError),
        (np.vstack([_S3.vertices[:2], _S3.vertices[:2].mean(axis=0)]), GeometryError),
    ],
    ids=["short vertices", "one vertex row", "N = 1", "NaN vertex", "overflowing edges", "affinely dependent"],
)
def test_simplex_checks_its_shapes(vertices, error):
    # every warning is an error here, so a RuntimeWarning on the way fails the test
    with pytest.raises(error):
        MeasurementSimplex(vertices)


_VERTEX_3 = DensityMatrix(np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: run_trials(_VERTEX_3, MeasurementBasis.canonical(3), 2**70, RngSeed(0)), ContractError,
         f"n_trials must be an integer in 1..{2**63 - 1}, got {2**70}"),
        (lambda: validate_partition(((0,), (1,)), 2**64), ContractError,
         f"partition: outcome count must be an integer in 1..{2**63 - 1}, got {2**64}"),
        (lambda: sample_lambda(2**64, np.random.default_rng(0)), DimensionError,
         f"simplex dim must be an integer in 2..{2**63 - 1}, got {2**64}"),
        (lambda: MeasurementBasis.canonical(2**64), DimensionError,
         f"basis dim must be an integer in 2..{2**63 - 1}, got {2**64}"),
        (lambda: MeasurementBasis.canonical(-1), DimensionError,
         f"basis dim must be an integer in 2..{2**63 - 1}, got -1"),
    ],
    ids=["run_trials", "validate_partition", "sample_lambda", "canonical", "canonical(-1)"],
)
def test_integers_beyond_the_machine_range_keep_their_error_class(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


#: Integers of the contract test: -3..40 holds every lower bound and its
#: neighbours, the rest lie beyond the int64 or uint64 range. No valid count
#: or dim above 40 is drawn, so no example allocates much or draws for long.
INTEGERS = st.integers(-3, 40) | st.sampled_from([2**63, -(2**63), 2**64, 2**70, -(2**70)])


def _nested_lists(leaves):
    """Lists nested to any depth, most of them ragged, of up to 12 leaves."""
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


#: Nested lists of the numbers a JSON config holds, and of every Python number.
JSON_LISTS = _nested_lists(INTEGERS | st.floats() | st.booleans())
NESTED_LISTS = _nested_lists(INTEGERS | st.floats() | st.complex_numbers() | st.booleans())
DTYPES = st.one_of(
    hnp.boolean_dtypes(), hnp.integer_dtypes(), hnp.unsigned_integer_dtypes(), hnp.floating_dtypes(),
    hnp.complex_number_dtypes(), hnp.datetime64_dtypes(), hnp.timedelta64_dtypes(),
    hnp.byte_string_dtypes(), hnp.unicode_string_dtypes(), st.just(np.dtype(object)), st.just(np.dtype("V4")),
)


@st.composite
def _arrays(draw):
    """A numpy array of any dtype kind, up to 3 dimensions of up to 4 entries;
    its integers are drawn from ``INTEGERS``, as far as the dtype holds them."""
    dtype = draw(DTYPES)
    elements = None
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        elements = INTEGERS.filter(lambda v: info.min <= v <= info.max)
    elif dtype.kind == "O":
        elements = INTEGERS | st.floats()
    elif dtype.kind == "V":
        elements = st.binary(min_size=4, max_size=4)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    return draw(hnp.arrays(dtype, shape, elements=elements))


ANY = INTEGERS | NESTED_LISTS | _arrays()

#: name -> (the call, its valid arguments). The contract test replaces each
#: argument by a drawn one, or keeps it where the draw is None. The state is
#: a vertex: run_trials then draws nothing, whatever the count.
ENTRY_POINTS = {
    "Ket": (Ket, ([1, 0],)),
    "DensityMatrix": (DensityMatrix, ([[1, 0], [0, 0]],)),
    "MeasurementBasis": (MeasurementBasis, ([[1, 0], [0, 1]],)),
    "Barycentric": (Barycentric, ([1, 0],)),
    "BlochVector": (BlochVector, ([0, 0, 1],)),
    "MeasurementSimplex": (MeasurementSimplex, (_S2.vertices,)),
    "TrialReport": (lambda n, counts: TrialReport(n, Barycentric([1.0, 0.0]), counts), (1, [1, 0])),
    "OracleReport": (OracleReport, (1, [1, 0], 0, 0)),
    "RngSeed": (lambda seed, stream: RngSeed(seed, stream).generator(), (0, 0)),
    "run_trials": (
        lambda n, partition: run_trials(_VERTEX_3, MeasurementBasis.canonical(3), n, RngSeed(0), partition),
        (10, None),
    ),
    "sample_lambda": (lambda n: sample_lambda(n, np.random.default_rng(0)), (3,)),
    "MeasurementBasis.canonical": (MeasurementBasis.canonical, (3,)),
    "validate_partition": (validate_partition, ([[0], [1, 2]], 3)),
    "pairs_to_array": (lambda data: pairs_to_array(data, (2,)), ([[1, 0], [0, 0]],)),
}


#: Integers whose repr exceeds Python's 4300-digit limit: a message quoting
#: them must not raise the limit's ValueError instead.
BEYOND_REPR = st.sampled_from([10**5000, -(10**5000)])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(ENTRY_POINTS)),
    drawn=st.lists(st.none() | ANY | BEYOND_REPR, min_size=4, max_size=4),
)
@example(name="Ket", drawn=[[[1, 0], [0]], None, None, None])
@example(name="Barycentric", drawn=[[[1.0], [0.0, 1.0]], None, None, None])
@example(name="run_trials", drawn=[2**70, None, None, None])
@example(name="validate_partition", drawn=[None, 2**64, None, None])
@example(name="sample_lambda", drawn=[2**64, None, None, None])
@example(name="MeasurementBasis.canonical", drawn=[-1, None, None, None])
@example(name="pairs_to_array", drawn=[[[1, 0], [0]], None, None, None])
@example(name="pairs_to_array", drawn=[[[1, 0], [True, 0]], None, None, None])
@example(name="RngSeed", drawn=[10**5000, None, None, None])
@example(name="run_trials", drawn=[10**5000, None, None, None])
@example(name="MeasurementBasis.canonical", drawn=[-(10**5000), None, None, None])
@example(name="pairs_to_array", drawn=[[[10**5000, 0], [0, 0]], None, None, None])
@example(name="MeasurementSimplex", drawn=[_OVERFLOWING, None, None, None])
def test_every_entry_point_returns_or_raises_a_blochsim_error(name, drawn):
    call, valid = ENTRY_POINTS[name]
    try:
        call(*(v if d is None else d for v, d in zip(valid, drawn)))
    except BlochSimError:
        pass


def _main_on(tmp_path, text: str, *flags: str) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return main(["--config", str(path), "--trials", "10", *flags])


@pytest.mark.parametrize(
    "value, shown",
    [
        (-1, "-1"),
        ("x" * 78, repr("x" * 78)),
        ("x" * 79, repr("x" * 79)[:77] + "..."),
        (10**5000, "<unprintable int>"),
    ],
    ids=["short", "80-chars", "81-chars", "beyond-digit-limit"],
)
def test_a_quoted_value_is_its_repr_cut_to_80_characters(value, shown):
    assert _shown(value) == shown


def test_a_list_nested_past_the_recursion_limit_is_quoted_without_error():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    assert _shown(deep) == "<unprintable list>"


class TestConfigExitCodes:
    def test_directory_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {tmp_path}: ")

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "out": "\xff"}')
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: ") and "utf-8" in err

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
        assert f"n_trials: must be an integer in 1..{2**63 - 1}, got 0" in capsys.readouterr().err

    def test_seed_flag_is_validated_as_the_config_field(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}}'
        assert _main_on(tmp_path, text, "--seed", str(2**64)) == 2
        assert f"seed: must be an integer in 0..{2**64 - 1}, got {2**64}" in capsys.readouterr().err

    def test_negative_seed_names_the_seed_field_once(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "seed": -1}'
        assert _main_on(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert f"seed: must be an integer in 0..{2**64 - 1}, got -1" in err
        assert err.count("seed") == 1

    def test_negative_stream_names_the_stream_field(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "stream": -1}'
        assert _main_on(tmp_path, text) == 2
        assert "stream: must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_integer_fields_name_the_field_once(self, tmp_path, capsys):
        # n_trials 2^70 once escaped as an OverflowError traceback with exit 1
        cases = [("n_trials", 2**70), ("n_trials", -(2**70)), ("seed", 2**70), ("stream", -(2**70)),
                 ("dim", 1), ("dim", True), ("dim", 2.0), ("dim", 2**70)]
        path = tmp_path / "cfg.json"
        for field, value in cases:
            path.write_text(json.dumps({"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, field: value}))
            assert main(["--config", str(path)]) == 2, (field, value)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field}: must be an integer ") and err.count(field) == 1
            assert err.endswith(f", got {value!r}\n")

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("seed", "[" * 500 + "]" * 500),
            ("seed", "9" * 4300),
            ("stream", '"' + "x" * 5000 + '"'),
            ("format", '"' + "x" * 5000 + '"'),
            ("out", "[" * 500 + "]" * 500),
            ("trace", "[" * 500 + "]" * 500),
        ],
        ids=["deep-list-seed", "4300-digit-seed", "long-string-stream", "long-format", "deep-list-out", "deep-list-flag"],
    )
    def test_a_huge_value_is_quoted_short(self, tmp_path, capsys, field, raw):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "' + field + '": ' + raw + "}"
        assert _main_on(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and len(err) < 200

    @pytest.mark.parametrize("entry", ["1", True], ids=["string", "bool"])
    @pytest.mark.parametrize("field", ["state.ket", "state.density", "basis"])
    def test_complex_entries_must_be_numbers(self, tmp_path, capsys, field, entry):
        assert _main_on(tmp_path, config_with_entry(field, entry)) == 2
        assert f"{field}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("field", ["state.ket", "state.density", "basis"])
    def test_integer_beyond_float_range_is_a_config_error(self, tmp_path, capsys, field, sign):
        assert _main_on(tmp_path, config_with_entry(field, sign * 10**400)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and "float range" in err

    @pytest.mark.parametrize("flag", ["1|2,\u00b3", "1|2,\u0663"], ids=["superscript", "arabic-indic"])
    def test_partition_flag_accepts_ascii_digits_only(self, tmp_path, capsys, flag):
        text = '{"dim": 3, "state": {"ket": [[1, 0], [0, 0], [0, 0]]}}'
        assert _main_on(tmp_path, text, "--partition", flag) == 2
        assert "partition: expected positive integers" in capsys.readouterr().err

    def test_csv_flag_conflicts_with_config_sections(self, tmp_path, capsys):
        text = '{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "trace": true}'
        assert _main_on(tmp_path, text, "--format", "csv") == 2
        assert "format:" in capsys.readouterr().err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(["dim", "n_trials", "seed", "stream"]), value=INTEGERS | JSON_LISTS)
@example(field="n_trials", value=2**70)
@example(field="stream", value=2**70)
def test_integer_fields_exit_0_or_2(tmp_path_factory, field, value):
    path = tmp_path_factory.mktemp("integers") / "cfg.json"
    config = {"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "n_trials": 10, field: value}
    path.write_text(json.dumps(config))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["--config", str(path)])
    assert code in (0, 2)
    if err.getvalue().startswith(f"config error: {field}: "):
        assert err.getvalue().count(field) == 1


def _array_text(items) -> str:
    return "[" + ", ".join(items) + "]"


def _object_text(items) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in items) + "}"


#: Strings a path or a field may hold that no keyboard types: NUL, lone
#: surrogates (escaped as JSON writes them), controls and non-characters.
ODD_STRINGS = st.text(st.characters(codec=None, exclude_categories=()), max_size=6) | st.sampled_from(
    ["a\0b", "\ud800", "\udc80x", "\udfff\ud800", "\x7f", "\uffff"]
)
#: JSON values as text, so that they may hold what ``json.dumps`` cannot
#: write: ints beyond Python's 4300-digit limit for str <-> int, and lists
#: nested beyond the recursion limit.
JSON_TEXT = st.recursive(
    st.sampled_from(["null", "true", "false", "NaN", "-Infinity"])
    | st.integers().map(str)
    | st.floats().map(json.dumps)
    | st.integers(4301, 4500).map(lambda n: "-" * (n % 2) + "9" * n)
    | st.integers(990, 50_000).map(lambda n: "[" * n + "]" * n)
    | ODD_STRINGS.map(json.dumps),
    lambda inner: st.lists(inner, max_size=4).map(_array_text)
    | st.lists(st.tuples(st.sampled_from(["a", "re", "ket", "density", "dim", "", "\0", "\ud800"]), inner),
               max_size=3).map(_object_text),
    max_leaves=12,
)
#: A valid config whose fields each config text below replaces one of. Its
#: state is a vertex, so even a huge n_trials draws nothing.
BASE_FIELDS = {"dim": "2", "state": '{"ket": [[1, 0], [0, 0]]}', "n_trials": "10"}


@st.composite
def _config_texts(draw):
    """A config's text: raw text, a JSON document, or the base config with
    one field (known or not) replaced or added, and the extra flags. A
    document has no "state" key, so only the base config can write a report,
    and its "out" is a file name in the working directory."""
    how = draw(st.sampled_from(["raw", "document", "field"]))
    if how == "raw":
        text = draw(st.text() | st.integers(990, 50_000).map(lambda n: '{"a": ' * n))
    elif how == "document":
        text = draw(JSON_TEXT)
    else:
        field = draw(st.sampled_from(sorted(BASE_FIELDS) + [
            "basis", "partition", "seed", "stream", "format", "dump_geometry", "trace", "oracle_check",
            "out", "unknown",
        ]))
        value = draw(JSON_TEXT)
        if field == "out" and value.startswith('"'):
            value = json.dumps("report" + json.loads(value).replace("/", "_"))
        text = _object_text({**BASE_FIELDS, field: value}.items())
    flags = draw(st.just([]) | (ODD_STRINGS | st.integers(4301, 4500).map(lambda n: "1|" + "2" * n)).map(
        lambda value: [f"--partition={value}"]
    ))
    return text, flags


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_config_texts())
@example(case=('{"dim": 2' + "0" * 4300 + ', "state": {"ket": [[1, 0], [0, 0]]}}', []))
@example(case=('{"dim": 2, "state": {"ket": [[1' + "0" * 4300 + ', 0], [0, 0]]}}', []))
@example(case=('{"a": ' * 50_000, []))
@example(case=('{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "out": "a\\u0000b"}', []))
@example(case=('{"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}, "out": "\\ud800"}', []))
@example(case=('{"dim": 3, "state": {"ket": [[1, 0], [0, 0], [0, 0]]}}', ["--partition=1|" + "2" * 4301]))
def test_any_config_text_parses_or_is_a_config_error(tmp_path_factory, case):
    text, flags = case
    try:
        parse_config(text)
    except ConfigError:
        pass
    work = tmp_path_factory.mktemp("config-text")
    (work / "cfg.json").write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["--config", "cfg.json", *flags]) in (0, 1, 2, 3)
    finally:
        os.chdir(cwd)


#: Finite magnitudes at both ends of the float range: near float max (their
#: squares and products overflow), subnormal, and 1e-160, whose square is a
#: subnormal Born weight (a draw divided by it overflows).
EXTREME = st.sampled_from(
    [1.7976931348623157e308, 1e308, 1.5e154, 2.2250738585072014e-308, 1e-310, 5e-324, 1e-160]
)


@st.composite
def _extreme_configs(draw):
    """A dim 2-4 config whose ket, density or basis holds extreme entries."""
    n = draw(st.integers(2, 4))
    field = draw(st.sampled_from(["state.ket", "state.density", "basis"]))
    entries = np.eye(n, dtype=complex) if field != "state.ket" else np.eye(n, dtype=complex)[0]
    if field == "state.density":
        entries /= n
    for _ in range(draw(st.integers(1, 3))):
        value = draw(EXTREME) * draw(st.sampled_from([1, -1, 1j, -1j]))
        index = tuple(draw(st.integers(0, n - 1)) for _ in range(entries.ndim))
        entries[index] = value
        if field == "state.density" and draw(st.booleans()):
            # mirrored Hermitian, so the later checks run, or anti-Hermitian
            sign = draw(st.sampled_from([1, -1]))
            entries[index[::-1]] = sign * np.conj(value) if index[0] != index[1] else value.real
    pairs = np.stack([entries.real, entries.imag], axis=-1).tolist()
    config = {"dim": n, "state": {"ket": [[1, 0]] + [[0, 0]] * (n - 1)}, "n_trials": 50}
    if field == "basis":
        config["basis"] = pairs
    else:
        config["state"] = {field.split(".")[1]: pairs}
    flags = draw(st.lists(st.sampled_from(["--dump-geometry", "--trace", "--oracle-check"]), unique=True))
    if draw(st.booleans()):
        flags += ["--partition", "1|" + ",".join(str(i) for i in range(2, n + 1))]
    return config, flags


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_extreme_configs())
@example(case=({"dim": 2, "state": {"density": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}}, []))
def test_extreme_magnitudes_exit_without_a_warning(tmp_path_factory, case):
    config, flags = case
    path = tmp_path_factory.mktemp("extreme") / "cfg.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(path), *flags]) in (0, 1, 2, 3)


@pytest.mark.parametrize(
    "field, message",
    [("state.ket", "ket is not unit-normalized: sum |psi_k|^2 = inf"), ("basis", "is not orthonormal")],
)
def test_entry_near_float_max_is_a_quiet_config_error(tmp_path, capsys, field, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _main_on(tmp_path, config_with_entry(field, 1e308)) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: {message}")


@pytest.mark.parametrize("weights", [[1.7e308, 1.7e308], [1e308, 1e308, -1e308], [np.inf, -np.inf]])
def test_barycentric_sum_overflow_is_a_quiet_contract_error(weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=r"^barycentric weights sum to (inf|nan), expected 1$"):
            Barycentric(weights)
