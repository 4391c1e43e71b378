"""``serialize.dumps`` writes the same text as the per-element writer.

``dumps`` formats float and integer arrays an array at a time. The
reference below is the element-by-element writer it replaced, kept
verbatim: every document, including ones with -0.0, subnormals, ±1e308,
empty arrays and nested containers, must come out byte-identical, and a
non-finite number must raise the same ``ContractError`` message.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blochsim.errors import ContractError
from blochsim.serialize import dumps


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
    bools = hnp.arrays(np.bool_, SHAPES)
    arrays = floats | float32 | ints | uints | bools
    # Transposed views are not C-contiguous; row-major order must still hold.
    return st.tuples(arrays, st.booleans()).map(lambda at: at[0].T if at[1] else at[0])


def _documents(non_finite: bool) -> st.SearchStrategy:
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | _floats(non_finite)
        | st.text(max_size=5)
        | st.builds(np.float64, _floats(non_finite))
        | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
    )
    return st.recursive(
        scalars | _arrays(non_finite),
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
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
           "empty": np.empty((2, 0)), "flags": np.array([True, False])}
    assert dumps(doc) == reference_dumps(doc)
