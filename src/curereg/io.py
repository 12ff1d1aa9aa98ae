"""File formats: CSV matrices, JSON factor models, JSON-lines path dumps.

All writers are atomic (write to a temp file in the same directory, then
rename) and emit floats with 17 significant digits so round trips preserve
the double exactly.  Missing response entries are spelled ``NA`` in CSV.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import os
import tempfile

import numpy as np

from .core import FactorModel, NormMode, UnitRankFactor

__all__ = [
    "read_matrix_csv",
    "write_matrix_csv",
    "factor_model_to_dict",
    "factor_model_from_dict",
    "save_factor_model",
    "load_factor_model",
    "write_path_jsonl",
    "atomic_write_text",
    "fmt17",
]

NA_TOKEN = "NA"


def fmt17(x):
    """Format a float with 17 significant digits (lossless for doubles)."""
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _atomic_open(path):
    """Yield a text handle on a temp file that replaces ``path`` on success."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Write text to ``path`` atomically (temp file + rename)."""
    with _atomic_open(path) as fh:
        fh.write(text)


def _parse_cell(tok, where, allow_missing):
    tok = tok.strip()
    if tok == NA_TOKEN:
        if not allow_missing:
            raise ValueError(f"{where}: NA not allowed here")
        return np.nan, False
    try:
        return float(tok), True
    except ValueError:
        raise ValueError(f"{where}: cannot parse {tok!r} as a number") from None


def _parse_row(row, where, allow_missing):
    """Parse a row cell by cell; returns its values and the columns that are NA."""
    values, missing = [], []
    for j, tok in enumerate(row):
        try:
            values.append(float(tok))
        except ValueError:
            # float() strips whitespace as str.strip() does: this cell is NA or an error
            values.append(_parse_cell(tok, f"{where}, column {j + 1}", allow_missing)[0])
            missing.append(j)
    return values, missing


def _row_is_header(row):
    for tok in row:
        tok = tok.strip()
        if tok == NA_TOKEN:
            continue
        try:
            float(tok)
        except ValueError:
            return True
    return False


def read_matrix_csv(path, allow_missing=False):
    """Read a numeric CSV matrix.

    Returns ``(M, mask)`` where mask is None when nothing was missing and a
    boolean observed-entry matrix otherwise.  A single leading header row is
    detected (any non-numeric cell) and skipped.  Malformed input raises
    ValueError naming the offending line and column.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and not all(c.strip() == "" for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    start = 1 if _row_is_header(rows[0]) else 0
    data_rows = rows[start:]
    if not data_rows:
        raise ValueError(f"{path}: header but no data rows")
    width = len(data_rows[0])
    out = np.empty((len(data_rows), width))
    observed = np.ones((len(data_rows), width), dtype=bool)
    any_missing = False
    for i, row in enumerate(data_rows):
        line_no = start + i + 1
        if len(row) != width:
            raise ValueError(
                f"{path}: line {line_no} has {len(row)} columns, expected {width}"
            )
        try:
            out[i] = [float(tok) for tok in row]
        except ValueError:  # an NA or a bad cell
            out[i], missing = _parse_row(row, f"{path}: line {line_no}", allow_missing)
            observed[i, missing] = False
            any_missing = any_missing or bool(missing)
    return out, (observed if any_missing else None)


def write_matrix_csv(path, M, mask=None, header=None):
    """Write a matrix as CSV; masked-out entries become ``NA``."""
    M = np.asarray(M, dtype=float)
    buf = _io.StringIO()
    if header is not None:
        buf.write(",".join(header) + "\n")
    for i in range(M.shape[0]):
        cells = []
        for j in range(M.shape[1]):
            if mask is not None and not mask[i, j]:
                cells.append(NA_TOKEN)
            elif np.isnan(M[i, j]):
                cells.append(NA_TOKEN)
            else:
                cells.append(fmt17(M[i, j]))
        buf.write(",".join(cells) + "\n")
    atomic_write_text(path, buf.getvalue())


def factor_model_to_dict(model):
    return {
        "rank": model.rank,
        "layers": [
            {
                "d": lay.d,
                "u": [float(x) for x in lay.u],
                "v": [float(x) for x in lay.v],
                "norm_mode": lay.norm_mode.value,
            }
            for lay in model.layers
        ],
    }


def factor_model_from_dict(doc):
    """Rebuild a FactorModel; a missing or ill-typed field raises ValueError."""
    try:
        layers = tuple(
            UnitRankFactor(
                float(entry["d"]),
                np.asarray(entry["u"], dtype=float),
                np.asarray(entry["v"], dtype=float),
                NormMode(entry["norm_mode"]),
            )
            for entry in doc["layers"]
        )
        rank = int(doc["rank"])
    except KeyError as exc:
        raise ValueError(f"factor model has no {exc.args[0]!r} field") from None
    except TypeError as exc:
        raise ValueError(f"factor model has an ill-typed field: {exc}") from None
    model = FactorModel(layers)
    if model.rank != rank:
        raise ValueError(f"rank field {rank} does not match {model.rank} layers")
    return model


def save_factor_model(path, model, extra=None):
    """Serialize a FactorModel to JSON; ``extra`` merges extra top-level keys."""
    doc = factor_model_to_dict(model)
    if extra:
        for key, val in extra.items():
            if key in doc:
                raise ValueError(f"extra key {key!r} collides with the model schema")
            doc[key] = val
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def load_factor_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return factor_model_from_dict(doc), doc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _nonzeros(vec):
    idx = np.flatnonzero(vec)
    return [[i, x] for i, x in zip(idx.tolist(), vec[idx].tolist())]


def write_path_jsonl(path, sw_path):
    """Dump a stagewise path as JSON-lines, one record per step.

    Each line carries ``{t, lambda, move, d, u_nonzeros, v_nonzeros, loss,
    penalty, criterion}`` with the loading vectors in sparse ``[index, value]``
    form.  This is the interchange format for external path plotting.
    Records are written one at a time, so the text never sits in memory.
    """
    with _atomic_open(path) as fh:
        for step in sw_path.steps:
            factor = step.factor
            rec = {
                "t": step.t,
                "lambda": step.lam,
                "move": step.move,
                "d": factor.d,
                "u_nonzeros": _nonzeros(factor.u),
                "v_nonzeros": _nonzeros(factor.v),
                "loss": step.loss,
                "penalty": step.penalty,
                "criterion": step.criterion_value,
            }
            fh.write(json.dumps(rec) + "\n")
