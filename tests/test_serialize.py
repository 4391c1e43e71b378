"""``serialize.dumps`` writes the same text as the per-element writer,
and ``serialize.pairs_to_array`` reads pairs as ``float`` reads numbers.

``dumps`` formats float and integer arrays an array at a time. The
reference below is the element-by-element writer it replaced, kept
verbatim: every document a report can hold (dicts, lists, strings, ints,
floats and integer or float arrays), including ones with -0.0,
subnormals, ±1e308, empty arrays and nested containers, must come out
byte-identical, and a non-finite number must raise the same
``ContractError`` message. Anything else a report cannot hold, which the
reference also wrote, is a ``ContractError``. ``trial_report_to_csv``
fills one row template for the whole table; the f-string row writer it
replaced is kept below too. Every trial report, at any N, over outcomes
or over the classes of a partition, with zero or subnormal weights, must
give its text, and one whose statistic overflows must give its error.

``pairs_to_array`` converts a whole nested list at once. Each number must
come out as ``complex(float(re), float(im))``, bit for bit, and every
malformed input must raise ContractError, never anything else.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blochsim import Barycentric, TrialReport
from blochsim.errors import ContractError
from blochsim.serialize import dumps, pairs_to_array, trial_report_to_csv


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ContractError(f"cannot serialize non-finite number {x!r}")
    return f"{x:.12g}"


def _write(obj, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(f"{inner}{json.dumps(str(key))}: ")
            _write(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        parts.append("[")
        for i, item in enumerate(items):
            _write(item, parts, indent)
            if i < len(items) - 1:
                parts.append(", ")
        parts.append("]")
    else:
        raise ContractError(f"cannot serialize object of type {type(obj).__name__}")


def reference_dumps(obj) -> str:
    parts: list[str] = []
    _write(obj, parts, 0)
    return "".join(parts)


def reference_csv(report: TrialReport) -> str:
    lines = ["outcome,exact_prob,count,empirical_freq,chi_square,max_abs_deviation"]
    chi = format_float(report.chi_square)
    dev = format_float(report.max_abs_deviation)
    freqs = report.empirical_freqs
    for i in range(report.exact_probs.dim):
        lines.append(
            f"{i + 1},{format_float(report.exact_probs.weights[i])},"
            f"{int(report.counts[i])},{format_float(freqs[i])},"
            f"{chi},{dev}"
        )
    return "\n".join(lines) + "\n"


#: Values where ``.12g`` formatting and float conversion have edge cases.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, -1e-310, 1e308, -1e308, 1e-300, 0.1, 1 / 3])
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)


def _floats(non_finite: bool) -> st.SearchStrategy:
    finite = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
    return finite | NON_FINITE if non_finite else finite


def _arrays(non_finite: bool) -> st.SearchStrategy:
    floats = hnp.arrays(np.float64, SHAPES, elements=_floats(non_finite))
    float32 = hnp.arrays(np.float32, SHAPES, elements=st.floats(width=32, allow_nan=non_finite,
                                                                 allow_infinity=non_finite))
    ints = hnp.arrays(np.int64, SHAPES)
    uints = hnp.arrays(np.uint8, SHAPES)
    arrays = floats | float32 | ints | uints
    # Transposed views are not C-contiguous; row-major order must still hold.
    return st.tuples(arrays, st.booleans()).map(lambda at: at[0].T if at[1] else at[0])


def _documents(non_finite: bool) -> st.SearchStrategy:
    scalars = st.integers() | _floats(non_finite) | st.text(max_size=5)
    return st.recursive(
        scalars | _arrays(non_finite),
        lambda children: (
            st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
        ),
        max_leaves=12,
    )


def _outcome(writer, doc):
    try:
        return writer(doc)
    except ContractError as exc:
        return ContractError, str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=_documents(non_finite=False))
def test_dumps_matches_the_per_element_writer(doc):
    assert dumps(doc) == reference_dumps(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    before=_documents(non_finite=True),
    bad=hnp.arrays(np.float64, SHAPES.filter(lambda s: 0 not in s), elements=_floats(True)),
    data=st.data(),
    after=_documents(non_finite=True),
)
def test_non_finite_raises_the_per_element_error(before, bad, data, after):
    bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(NON_FINITE)
    doc = {"before": before, "bad": bad, "after": after}
    expected = _outcome(reference_dumps, doc)
    assert expected[0] is ContractError
    assert _outcome(dumps, doc) == expected


def test_report_shapes_write_as_before():
    rng = np.random.default_rng(3)
    pairs = np.stack([rng.standard_normal((5, 5)), np.zeros((5, 5))], axis=-1)
    pairs[0, 0, 1] = -0.0
    doc = {"vertices": rng.standard_normal((4, 15)), "density": pairs, "counts": np.arange(4),
           "empty": np.empty((2, 0))}
    assert dumps(doc) == reference_dumps(doc)


#: Weights with edge cases: zero, subnormal and tiny.
EDGE_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0])


@st.composite
def _trial_reports(draw):
    """A trial report over N in 2..32 outcomes, or over the classes of a partition of them."""
    n = draw(st.integers(2, 32))
    raw = np.array(draw(st.lists(st.floats(0, 1) | EDGE_WEIGHTS, min_size=n, max_size=n)))
    if raw.sum() == 0.0:
        raw[draw(st.integers(0, n - 1))] = 1.0
    weights = raw / raw.sum()
    if draw(st.booleans()):
        classes = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        weights = np.bincount(np.unique(classes, return_inverse=True)[1], weights=weights)
    # a count on a weight below about 1e-280 can overflow chi_square, the next test's case
    counts = [draw(st.integers(0, 10**12)) if w > 1e-100 else 0 for w in weights]
    if sum(counts) == 0:
        counts[int(np.argmax(weights))] = 1
    return TrialReport(sum(counts), Barycentric(weights), np.array(counts))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(report=_trial_reports())
def test_csv_matches_the_row_writer(report):
    assert trial_report_to_csv(report) == reference_csv(report)


def test_a_csv_statistic_that_overflows_is_the_row_writers_error():
    report = TrialReport(10, Barycentric([1.0, 1e-310]), np.array([9, 1]))
    with np.errstate(over="ignore"):  # the statistic's own warning
        expected = _outcome(reference_csv, report)
        assert expected == (ContractError, "cannot serialize non-finite number inf")
        assert _outcome(trial_report_to_csv, report) == expected


#: Values no report holds, each of which the reference writes.
NOT_IN_A_REPORT = [True, False, None, (1, 2.0), (), np.float64(0.5), np.int64(3), np.bool_(True),
                   np.array([True, False]), np.array(["a"])]


@pytest.mark.parametrize("value", NOT_IN_A_REPORT, ids=repr)
def test_what_no_report_holds_is_a_contract_error(value):
    for doc in (value, {"counts": [1, value]}):
        with pytest.raises(ContractError, match="cannot serialize object of type"):
            dumps(doc)


#: Numbers where int and float conversion have edge cases: signed zeros,
#: subnormals, ints above 2^53 that round, and the ends of float range.
EDGE_NUMBERS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, 2**53 + 1, -(2**63) - 1, 2**64 + 3,
     2**1023, -(2**1024 - 2**970 - 1)]
)
NUMBERS = st.integers(-(2**1023), 2**1023) | st.floats() | EDGE_NUMBERS
#: Nested lists carry no shape past a side of 0, so pair arrays have no empty side.
PAIR_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4)
#: Leaves that are not numbers.
NOT_NUMBERS = st.sampled_from(["1", "", True, False, None, [], [1.0], {}, {"re": 1}])
#: The start of the message for an array of the wrong shape.
BAD_SHAPE = "expected [re, im] pairs in an array of shape"
#: Ints whose float conversion overflows.
TOO_LARGE = st.sampled_from([2**1024, -(2**1024), 2**1024 - 2**970, 10**400])


def _nest(flat: list, shape: tuple[int, ...]) -> list:
    """``flat`` as nested lists of ``shape``, in row-major order."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return [_nest(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def _pairs(draw):
    """(shape, flat numbers, nested [re, im] pairs of that shape)."""
    shape = draw(PAIR_SHAPES)
    size = 2 * int(np.prod(shape))
    flat = draw(st.lists(NUMBERS, min_size=size, max_size=size))
    return shape, flat, _nest(flat, (*shape, 2))


def _raises(data, shape):
    """The message of the ContractError ``pairs_to_array`` raises, or None."""
    try:
        pairs_to_array(data, shape)
    except ContractError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_pairs())
def test_pairs_convert_as_float_converts(case):
    shape, flat, nested = case
    out = pairs_to_array(nested, shape)
    assert out.dtype == np.complex128 and out.shape == shape
    expected = np.array([complex(float(re), float(im)) for re, im in zip(flat[::2], flat[1::2])])
    np.testing.assert_array_equal(out.reshape(-1).view(np.uint64), expected.view(np.uint64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_pairs(), bad=NOT_NUMBERS | TOO_LARGE, data=st.data())
def test_a_bad_leaf_is_a_contract_error(case, bad, data):
    shape, flat, _ = case
    flat[data.draw(st.integers(0, len(flat) - 1))] = bad
    expected = "expected numbers within float range" if type(bad) is int else "expected numbers, got"
    assert _raises(_nest(flat, (*shape, 2)), shape).startswith(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_pairs(), data=st.data())
def test_a_bad_shape_is_a_contract_error(case, data):
    shape, flat, nested = case
    how = data.draw(st.sampled_from(["pair length", "ragged", "shape"]))
    if how == "shape":
        other = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0).filter(lambda s: s != shape))
        assert _raises(nested, other).startswith(BAD_SHAPE)
        return
    # a pair one number short or long, or a row one pair short
    index = np.unravel_index(data.draw(st.integers(0, int(np.prod(shape)) - 1)), shape)
    target = nested
    for i in index if how == "pair length" else index[:-1]:
        target = target[i]
    if how == "pair length" and data.draw(st.booleans()):
        target.append(0)
    else:
        target.pop()
    assert _raises(nested, shape).startswith(BAD_SHAPE)


JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | TOO_LARGE | st.text(max_size=3),
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=2), children, max_size=2)
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=JSON, shape=PAIR_SHAPES)
def test_any_json_value_converts_or_raises_a_contract_error(data, shape):
    _raises(data, shape)  # any other exception fails the test
