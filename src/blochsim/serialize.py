"""Deterministic JSON/CSV emission and complex-matrix codecs.

Floats are printed with 12 significant digits and dictionary keys keep
insertion order, so identical inputs produce byte-identical artifacts.
Complex scalars travel as [re, im] pairs.

Float and integer arrays are written an array at a time: one finiteness
check per float array, then one ``.12g`` (``str`` for integers) per
number of its ``tolist()``, joined with ", " into nested [...] lists.
The text is the one that writing each element on its own gives, and so
is the error: the first non-finite value in row-major order is named.
Other arrays (bool, complex) and other objects are written element by
element.
"""

from __future__ import annotations

import json

import numpy as np

from .collapse import ProcessTrace
from .errors import ContractError
from .sampler import OracleReport, TrialReport
from .simplex import MeasurementSimplex


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ContractError(f"cannot serialize non-finite number {x!r}")
    return f"{x:.12g}"


def _nested(items: list, depth: int, fmt) -> str:
    if depth == 1:
        return "[" + ", ".join(map(fmt, items)) + "]"
    return "[" + ", ".join(_nested(item, depth - 1, fmt) for item in items) + "]"


def _array_text(a: np.ndarray) -> str:
    """A float or integer array of one or more dimensions as nested JSON lists."""
    if a.dtype.kind == "f":
        finite = np.isfinite(a)
        if not finite.all():
            format_float(a[~finite][0])
        return _nested(a.astype(np.float64, copy=False).tolist(), a.ndim, "{:.12g}".format)
    return _nested(a.tolist(), a.ndim, str)


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
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind in "fiu":
        parts.append(_array_text(obj))
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


def dumps(obj) -> str:
    """Deterministic JSON text (no trailing newline)."""
    parts: list[str] = []
    _write(obj, parts, 0)
    return "".join(parts)


def matrix_to_pairs(m: np.ndarray) -> np.ndarray:
    """A complex matrix as the (rows, cols, 2) float array of its [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1)


def pairs_to_vector(pairs) -> np.ndarray:
    """[re, im] pairs of numbers as a complex vector; strings and bools are a TypeError."""
    out = np.empty(len(pairs), dtype=np.complex128)
    for i, (re, im) in enumerate(pairs):
        if isinstance(re, (str, bool)) or isinstance(im, (str, bool)):
            raise TypeError(f"expected numbers, got [{re!r}, {im!r}]")
        out[i] = complex(float(re), float(im))
    return out


def pairs_to_matrix(rows) -> np.ndarray:
    m = np.array([pairs_to_vector(row) for row in rows])
    if m.ndim != 2:
        raise ValueError("matrix rows have inconsistent lengths")
    return m


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

