"""File formats: CSV matrices, JSON factor models, JSON-lines path dumps.

All writers are atomic (write to a temp file in the same directory, then
rename), and every float they write reads back as the same double: CSV cells
carry 17 significant digits, JSON numbers the shortest round-trip ``repr``
(as :mod:`json` writes them).  Missing response entries are spelled ``NA``
in CSV, which is written a block of rows at a time.  A path dump logs moves;
:func:`read_path_jsonl` expands it.
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
from .stagewise import MoveLog

__all__ = [
    "read_matrix_csv",
    "write_matrix_csv",
    "factor_model_to_dict",
    "factor_model_from_dict",
    "save_factor_model",
    "load_factor_model",
    "write_path_jsonl",
    "read_path_jsonl",
    "atomic_write_text",
    "fmt17",
]

NA_TOKEN = "NA"
# The NA of a cell that ends in NA and spaces or tabs, and whose NA has no
# sign before it.  Read as "nan", such a cell parses as a float only if
# nothing but whitespace precedes its NA, that is, if it is an NA cell.
_NA_CELL = re.compile(r"(?m)NA(?<![+-]NA)(?=[ \t]*(?:,|$))")
# The value of the "format" field on the first line of a path dump.
PATH_FORMAT = "curereg-path-moves/1"
_WRITE_BLOCK = 1 << 16  # cells the CSV writer formats at once


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
    """Write a 2-D matrix as CSV; NaN and masked-out entries become ``NA``.

    Each block of about ``_WRITE_BLOCK`` cells is formatted by one ``%`` of
    a repeated ``%.17g`` row template: the cost is the float conversion, and
    temporaries do not grow with the matrix.  A matrix that is not 2-D, or a
    mask of another shape, raises ValueError naming both shapes.
    """
    M = np.asarray(M, dtype=float)
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    if M.ndim != 2 or (mask is not None and mask.shape != M.shape):
        raise ValueError(f"need a 2-D matrix and a mask of its shape; got matrix shape "
                         f"{M.shape}, mask shape {None if mask is None else mask.shape}")
    n, q = M.shape
    rows = max(1, _WRITE_BLOCK // max(q, 1))
    row = ",".join(["%.17g"] * q) + "\n"
    template = row * rows
    with _atomic_open(path) as fh:
        for start in range(0, n, rows):
            block = M[start : start + rows]
            if mask is not None:
                block = np.where(mask[start : start + rows], block, np.nan)
            if len(block) < rows:
                template = row * len(block)
            # %.17g spells a NaN of either sign "nan", and no other value contains it
            fh.write((template % tuple(block.ravel().tolist())).replace("nan", NA_TOKEN))


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


def write_path_jsonl(path, sw_path):
    """Dump a stagewise path as JSON-lines, one line per step.

    Each line carries ``t``, ``lambda``, ``move`` (the move's name), ``d``
    (0.0 for the zero factor), ``loss``, ``penalty``, ``criterion`` and the
    stacked loadings ``(du, dv)``, taken from the steps' shared
    :class:`~curereg.stagewise.MoveLog`: on the first line and where the
    log holds a checkpoint, as the checkpoint's nonzeros, ``"duv": [[i, x],
    ...]``, and on every other line as the move from the line before,
    ``"set": [i, x], "scale": r``.  The steps must therefore be those of one
    path from its step 0 on, in order.  The first line also names the
    ``format`` (:data:`PATH_FORMAT`), ``p`` and ``q``.
    :func:`read_path_jsonl` expands a dump.
    """
    with _atomic_open(path) as fh:
        for k, step in enumerate(sw_path.steps):
            d = 0.0 if step.d <= 0.0 else float(step.d)
            if not math.isfinite(d):
                raise ValueError(f"d must be a finite nonnegative scalar, got {d}")
            log, t = step._log, step.t
            rec = {"t": t}
            if k == 0:
                rec.update(format=PATH_FORMAT, p=log.p, q=log.q)
            rec.update({"lambda": step.lam, "move": step.move, "d": d})
            i, new, r = log.moves[3 * t:3 * t + 3]
            if k == 0 or i < 0:
                index, value = log.loadings(t)
                rec["duv"] = list(zip(index.tolist(), value.tolist()))
            else:
                rec["set"], rec["scale"] = (int(i), new), r
            rec.update(loss=step.loss, penalty=step.penalty, criterion=step.criterion_value)
            fh.write(json.dumps(rec) + "\n")


def _index(i, size):
    if type(i) is not int or not 0 <= i < size:
        raise ValueError(f"{i!r} is not an integer in [0, {size})")
    return i


def _finite(x, name):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def read_path_jsonl(path):
    """Yield the steps of a :func:`write_path_jsonl` dump one at a time.

    Each record is ``{t, lambda, move, d, u_nonzeros, v_nonzeros, loss,
    penalty, criterion}``: the L1-mode loadings ``du / d`` and ``dv / d``,
    rebuilt bitwise by a :class:`~curereg.stagewise.MoveLog`, as sparse
    ``[index, value]`` lists (d 0.0 and empty lists for the zero factor),
    so ``json.dumps`` of it spells the line of the dump before moves were
    logged.  Malformed input raises ValueError naming the line.
    """
    with open(path) as fh:
        for no, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                if no == 1:
                    if not isinstance(rec, dict) or rec.get("format") != PATH_FORMAT:
                        raise ValueError(f"no format marker {PATH_FORMAT!r}")
                    p, q = rec["p"], rec["q"]
                    log = MoveLog(_index(p, p + q + 1), _index(q, p + q + 1))
                if rec["t"] != no - 1:
                    raise ValueError(f"t is {rec['t']!r}, expected {no - 1}")
                if "duv" in rec:
                    pairs = [(_index(i, p + q), _finite(x, "duv")) for i, x in rec["duv"]]
                    log.append(None, [i for i, _ in pairs], [x for _, x in pairs])
                elif not log.marks:
                    raise ValueError("a move comes before any checkpoint")
                else:
                    (i, x), r = rec["set"], rec["scale"]
                    log.append((_index(i, p + q), _finite(x, "set"), _finite(r, "scale")))
                d = float(rec["d"])
                if not math.isfinite(d):
                    raise ValueError(f"d must be a finite nonnegative scalar, got {d}")
                out = {key: [] if key.endswith("nonzeros") else rec[key] for key in (
                    "t", "lambda", "move", "d", "u_nonzeros", "v_nonzeros", "loss",
                    "penalty", "criterion")}
            except json.JSONDecodeError:
                raise ValueError(f"{path}: line {no} is not JSON") from None
            except KeyError as exc:
                raise ValueError(f"{path}: line {no} has no {exc.args[0]!r} field") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {no}: {exc}") from None
            out["d"] = 0.0
            if d > 0.0:
                index, loads = log.loadings(no - 1)
                loads = loads / d
                keep = loads != 0.0  # drops a loading that underflowed to zero
                pairs = [[i, x] for i, x in zip(index[keep].tolist(), loads[keep].tolist())]
                k = int(np.searchsorted(index[keep], p))
                out["d"], out["u_nonzeros"] = d, pairs[:k]
                out["v_nonzeros"] = [[i - p, x] for i, x in pairs[k:]]
            yield out
