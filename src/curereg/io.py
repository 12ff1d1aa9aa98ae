"""File formats: CSV matrices, JSON factor models, JSON-lines path dumps.

All writers are atomic (write to a temp file in the same directory, then
rename), and every float they write reads back as the same double: CSV cells
carry 17 significant digits, JSON numbers the shortest round-trip ``repr``
(as :mod:`json` writes them).  Missing response entries are spelled ``NA``
in CSV.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
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
# The NA of a cell that ends in NA and spaces or tabs, and whose NA has no
# sign before it.  Read as "nan", such a cell parses as a float only if
# nothing but whitespace precedes its NA, that is, if it is an NA cell.
_NA_CELL = re.compile(r"(?m)NA(?<![+-]NA)(?=[ \t]*(?:,|$))")
# The loadings along a path repeat (about a quarter of those written are
# distinct), so ``write_path_jsonl`` memoizes their text; the memo is
# cleared whenever it holds more than this many values.
REPR_MEMO_SIZE = 4096


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
    ValueError naming the offending line (as numbered in the file) and
    column.

    A file whose first line is numeric is parsed in bulk by ``np.loadtxt``,
    which converts cells as ``float`` does.  When missing entries are
    allowed, ``NA`` cells are read as NaN in bulk too, and the mask is
    taken from their positions.  Anything the bulk parse rejects (a blank
    or ragged row, a bad cell), and a file whose NaN count is not its
    ``NA`` count (a literal ``nan`` cell), is parsed again cell by cell, so
    the result and the error are those of the cell parser.
    """
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), [])
    if first and not _row_is_header(first):
        try:
            M = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, dtype=float)
            return M, None
        except ValueError:
            pass
        if allow_missing:
            parsed = _read_bulk_na(path)
            if parsed is not None:
                return parsed
    return _read_cells(path, allow_missing)


def _read_bulk_na(path):
    """``(M, mask)`` with ``NA`` cells read as NaN by ``np.loadtxt``, or None
    when the file has no ``NA`` cell, fails to parse, or holds other NaNs."""
    try:
        with open(path) as fh:
            text, count = _NA_CELL.subn("nan", fh.read())
        if not count:
            return None
        M = np.loadtxt(text.split("\n"), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    missing = np.isnan(M)
    if int(missing.sum()) != count:
        return None
    return M, ~missing


def _read_cells(path, allow_missing):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    start = 1 if _row_is_header(rows[0][1]) else 0
    data_rows = rows[start:]
    if not data_rows:
        raise ValueError(f"{path}: header but no data rows")
    width = len(data_rows[0][1])
    out = np.empty((len(data_rows), width))
    observed = np.ones((len(data_rows), width), dtype=bool)
    any_missing = False
    for i, (line_no, row) in enumerate(data_rows):
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


def write_matrix_csv(path, M, mask=None):
    """Write a matrix as CSV; NaN and masked-out entries become ``NA``."""
    M = np.asarray(M, dtype=float)
    na = np.isnan(M)
    if mask is not None:
        na |= ~np.asarray(mask, dtype=bool)
    na_cols = {i: np.flatnonzero(na[i]).tolist() for i in np.flatnonzero(na.any(axis=1))}
    fmt = "{:.17g}".format
    with _atomic_open(path) as fh:
        for i, row in enumerate(M.tolist()):
            cells = list(map(fmt, row))
            for j in na_cols.get(i, ()):
                cells[j] = NA_TOKEN
            fh.write(",".join(cells) + "\n")


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


def _json_float(x):
    """A float as :mod:`json` spells it: ``NaN``, ``Infinity`` or its repr."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_value(x):
    if isinstance(x, float):
        return _json_float(x)
    return json.dumps(x)


class _ReprMemo(dict):
    """float -> JSON text; holds only nonzero loadings, so 0.0 == -0.0 never
    merges two spellings."""

    def __missing__(self, x):
        text = self[x] = _json_float(x)
        return text


def _nonzeros_text(prefix, index, value, memo):
    """The ``[[i, x], ...]`` list of a sparse loading vector."""
    return "[" + ", ".join([prefix[i] + memo[x] + "]" for i, x in zip(index, value)]) + "]"


def write_path_jsonl(path, sw_path):
    """Dump a stagewise path as JSON-lines, one record per step.

    Each line carries ``{t, lambda, move, d, u_nonzeros, v_nonzeros, loss,
    penalty, criterion}`` with the loading vectors of the L1-mode factor in
    sparse ``[index, value]`` form.  This is the interchange format for
    external path plotting.  Lines are built from each step's sparse
    record, byte for byte as ``json.dumps`` would write them, one at a
    time, so the text never sits in memory.
    """
    width = max((max(s.p, s.q) for s in sw_path.steps), default=0)
    prefix = [f"[{i}, " for i in range(width)]
    memo = _ReprMemo()
    with _atomic_open(path) as fh:
        for step in sw_path.steps:
            d = step.d
            if d <= 0.0:  # the zero factor
                d, u, v = 0.0, "[]", "[]"
            else:
                d = float(d)
                if not math.isfinite(d):
                    raise ValueError(f"d must be a finite nonnegative scalar, got {d}")
                loads = step.value / d
                index = step.index
                if not loads.all():  # a loading that underflowed to zero
                    keep = loads != 0.0
                    loads, index = loads[keep], index[keep]
                k = np.searchsorted(index, step.p)
                u = _nonzeros_text(prefix, index[:k].tolist(), loads[:k].tolist(), memo)
                v = _nonzeros_text(
                    prefix, (index[k:] - step.p).tolist(), loads[k:].tolist(), memo
                )
                if len(memo) > REPR_MEMO_SIZE:
                    memo.clear()
            fh.write(
                f'{{"t": {_json_value(step.t)}, "lambda": {_json_value(step.lam)}, '
                f'"move": {_json_value(step.move)}, "d": {_json_float(d)}, '
                f'"u_nonzeros": {u}, "v_nonzeros": {v}, '
                f'"loss": {_json_value(step.loss)}, '
                f'"penalty": {_json_value(step.penalty)}, '
                f'"criterion": {_json_value(step.criterion_value)}}}\n'
            )
