"""Deterministic JSON/CSV emission and complex-matrix codecs.

Floats are printed with 12 significant digits and dictionary keys keep
insertion order, so identical inputs produce byte-identical artifacts.
Complex scalars travel as [re, im] pairs.

Float and integer arrays are written an array at a time: one finiteness
check per float array, then one ``%`` of all its elements, in row-major
order, over one template built from the array's shape. The template
holds one ``"%.12g"`` (floats) or ``"%d"`` (integers) per element inside
[...] lists joined with ", ". ``%.12g`` writes the same text as
``{:.12g}``, signed zeros and subnormals included. The text is the one
that writing each element on its own gives, and so is the error: the
first non-finite value in row-major order is named. A report holds
only dicts, lists, strings, ints, floats (``int`` and ``float`` exactly)
and integer or float arrays; any other object, a bool, None, a tuple, a
numpy scalar or a bool or complex array among them, is a ContractError.

Nested [re, im] pairs are read an array at a time by ``pairs_to_array``.
Each number must be a JSON int or float (``int`` or ``float`` exactly)
within float range. A wrong shape (ragged rows, wrong pair lengths, a
string or dict in place of a list), a leaf of any other type (bool, str,
None, list, dict) or an int beyond float range is a ContractError. Each
number converts as ``float`` converts it.
"""

from __future__ import annotations

import json

import numpy as np

from .collapse import ProcessTrace
from .errors import ContractError, _shown
from .sampler import OracleReport, TrialReport
from .simplex import MeasurementSimplex


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ContractError(f"cannot serialize non-finite number {x!r}")
    return f"{x:.12g}"


def _template(shape: tuple[int, ...], spec: str) -> str:
    """``spec`` once per element of an array of ``shape``, nested as JSON lists."""
    text = spec
    for side in reversed(shape):
        text = "[" + ", ".join([text] * side) + "]"
    return text


def _array_text(a: np.ndarray) -> str:
    """A float or integer array as nested JSON lists."""
    if a.dtype.kind == "f":
        finite = np.isfinite(a)
        if not finite.all():
            format_float(a[~finite][0])
        return _template(a.shape, "%.12g") % tuple(a.astype(np.float64, copy=False).ravel().tolist())
    return _template(a.shape, "%d") % tuple(a.ravel().tolist())


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
    elif type(obj) is int:
        parts.append(str(obj))
    elif type(obj) is float:
        parts.append(format_float(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "fiu":
        parts.append(_array_text(obj))
    elif isinstance(obj, list):
        if not obj:
            parts.append("[]")
            return
        parts.append("[")
        for i, item in enumerate(obj):
            _write(item, parts, indent)
            if i < len(obj) - 1:
                parts.append(", ")
        parts.append("]")
    else:
        raise ContractError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (no trailing newline)."""
    parts: list[str] = []
    _write(obj, parts, 0)
    return "".join(parts)


def matrix_to_pairs(m: np.ndarray) -> np.ndarray:
    """A complex matrix as the (rows, cols, 2) float array of its [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1)


def pairs_to_array(data, shape: tuple[int, ...]) -> np.ndarray:
    """Nested [re, im] pairs of numbers as a complex array of ``shape``.

    The contract is in the module docstring.
    """
    a = np.array(data, dtype=object)
    if a.shape != (*shape, 2):
        raise ContractError(f"expected [re, im] pairs in an array of shape {(*shape, 2)}, got shape {a.shape}")
    for x in a.flat:
        if type(x) is not int and type(x) is not float:
            raise ContractError(f"expected numbers, got {_shown(x)}")
    try:
        re_im = a.astype(np.float64)
    except OverflowError as exc:
        raise ContractError(f"expected numbers within float range ({exc})") from None
    return re_im.view(np.complex128).reshape(shape)


def trial_report_to_dict(report: TrialReport) -> dict:
    return {
        "n_trials": report.n_trials,
        "exact_probs": report.exact_probs.weights,
        "counts": report.counts,
        "empirical_freqs": report.empirical_freqs,
        "chi_square": report.chi_square,
        "max_abs_deviation": report.max_abs_deviation,
    }


def trial_report_to_csv(report: TrialReport) -> str:
    """One row per outcome; exact probability always beside the frequency."""
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


def simplex_geometry_to_dict(s: MeasurementSimplex) -> dict:
    return {"vertices": s.vertices, "total_measure": s.total_measure}


def process_trace_to_dict(trace: ProcessTrace) -> dict:
    return {
        "outcome": trace.outcome + 1,
        "lambda": trace.lambda_point.weights,
        "stages": [
            {
                "label": s.label,
                "bloch": s.vector.coords,
                "density": matrix_to_pairs(s.density.entries),
            }
            for s in trace.stages
        ],
    }


def oracle_report_to_dict(report: OracleReport) -> dict:
    return {
        "n_samples": report.n_samples,
        "counts": report.counts,
        "fractions": report.fractions,
        "ties": report.ties,
        "agreements": report.agreements,
        "disagreements": report.disagreements,
    }

