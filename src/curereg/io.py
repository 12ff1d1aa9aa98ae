"""File formats: CSV matrices, JSON factor models, JSON-lines path dumps.

All writers are atomic (write to a temp file in the same directory, then
rename), and every float they write reads back as the same double: CSV cells
carry 17 significant digits, byte for byte as ``%.17g`` spells them, and
JSON numbers the shortest round-trip ``repr`` (as :mod:`json` writes them).
Missing response entries are spelled ``NA`` in CSV.  Input is read as UTF-8,
a byte-order mark skipped; a CSV matrix in one streamed ``np.loadtxt`` pass,
and cell by cell only if that pass rejects it (:func:`read_matrix_csv`).  The
CSV writer builds the text of a block of rows in numpy arrays (see
:func:`_format_cells`); only infinities, subnormals and the magnitudes that
``%.17g`` spells with an exponent go through ``%.17g`` one cell at a time.
On 2 shared cores (Python 3.11, numpy 2.4) it wrote a 100x1000 matrix at
about 340 ns a cell, against 910 for a ``%.17g`` row template.  A path dump
logs moves; :func:`read_path_jsonl` expands it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import tempfile
import types
import warnings

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
# Cells the CSV writer formats at once: of 1,024 to 16,384, the fastest on
# the benchmark's shapes.  Larger blocks' temporaries outgrow the caches, and
# from 8,192 cells on their pages were faulted in again in every block.
_WRITE_BLOCK = 1 << 11
_U64 = np.dtype("<u8")  # the cell formatter's words, as written


def fmt17(x):
    """Format a float with 17 significant digits (lossless for doubles)."""
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _atomic_open(path, binary=False):
    """Yield a text (or binary) handle on a temp file that replaces ``path``
    on success."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", newline="", encoding="utf-8")) as fh:
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


def read_matrix_csv(path, allow_missing=False):
    """Read a numeric CSV matrix.

    Returns ``(M, mask)`` where mask is None when nothing was missing and a
    boolean observed-entry matrix otherwise.  A single leading header row is
    detected (any non-numeric cell) and skipped.  Malformed input raises
    ValueError naming the offending line (as numbered in the file) and
    column.

    The input is UTF-8 text, with or without a byte-order mark.  It is
    opened once and streamed through ``np.loadtxt``, which converts cells as
    ``float`` does.  When missing entries are allowed, ``NA`` cells become
    NaN line by line on the way in, and the mask is taken from their
    positions.  Input the bulk parse rejects (a header, a blank or ragged
    row, a bad cell or byte), and input whose NaN count is not its ``NA``
    count (a literal ``nan`` cell), is read again from its start cell by
    cell, so the result and the error are those of the cell parser.  Only
    an input that cannot seek, such as a pipe, is held whole.  A byte that
    is not UTF-8 raises a ValueError naming its line.
    """
    with open(path, "rb") as raw:
        data = raw if raw.seekable() else io.BytesIO(raw.read())
        with io.TextIOWrapper(data, encoding="utf-8-sig") as fh:
            try:
                parsed = _read_bulk(fh, allow_missing)
                if parsed is None:
                    fh.seek(0)
                    parsed = _read_cells(fh, path, allow_missing)
            except UnicodeDecodeError as exc:
                raise _undecodable(path, data, exc) from None
    return parsed


def _undecodable(path, data, exc):
    """The error for ``exc``, raised while decoding ``data``, naming the line
    of the first byte that is not UTF-8 (no newline byte is part of a
    multi-byte character); ``exc``'s own position is in a decode buffer."""
    data.seek(0)
    for no, line in enumerate(data, 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as bad:
            return ValueError(f"{path}: line {no} is not utf-8 text"
                              f" (byte 0x{line[bad.start]:02x})")
    return exc


def _read_bulk(fh, allow_missing):
    """``(M, mask)`` from one ``np.loadtxt`` pass over ``fh``, ``NA`` cells
    read as NaN when ``allow_missing``; None when the parse fails, finds no
    row, or finds a NaN that was not an ``NA`` cell."""
    na = 0

    def lines():
        nonlocal na
        for line in fh:
            # a one-character test is a memchr; the pattern's own scan of
            # every line made a dense 100x1000 read 5% slower
            if "N" in line:
                line, count = _NA_CELL.subn("nan", line)
                na += count
            yield line

    try:
        with warnings.catch_warnings():
            # an input of empty lines: the cell parser names the error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            M = np.loadtxt(lines() if allow_missing else fh, delimiter=",",
                           comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    missing = np.isnan(M)
    if not len(M) or int(missing.sum()) != na:
        return None
    return M, (~missing if na else None)


def _read_cells(fh, path, allow_missing):
    reader = csv.reader(fh)
    rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    try:  # a header row has a cell that is neither a number nor NA
        _parse_row(rows[0][1], "", True)
        data_rows = rows
    except ValueError:
        data_rows = rows[1:]
    if not data_rows:
        raise ValueError(f"{path}: header but no data rows")
    width = len(data_rows[0][1])
    out = np.empty((len(data_rows), width))
    observed = np.ones((len(data_rows), width), dtype=bool)
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
    return out, (None if observed.all() else observed)


def _row_words(cond, byte):
    """Per exponent row k + 4 (21 rows), words 0-2 of a 24-byte pattern that
    holds ``byte`` where ``cond`` (over exponents k and bytes b) holds."""
    cond = np.broadcast_to(cond, (21, 24))
    return np.where(cond, byte, 0).astype(np.uint8).view(_U64).astype(np.uint64).T


@functools.cache
def _tables():
    """The cell formatter's lookup tables, built on its first call, so that
    a process that writes no CSV does not page in the numpy code that
    building them touches (about 0.6 MB of resident memory).

    A cell's text is built in a row of 32 bytes, held as four little-endian
    uint64 words: byte i is the byte of word i // 8 that a left shift by
    8 * (i % 8) moves a low byte to.  Byte 0 is the slot of a minus sign,
    kept only for a negative cell, and the text proper starts at byte 1.
    Rows ``k + 4`` of the per-exponent tables are for the decimal exponents
    k = -4..16 that ``%.17g`` prints without an exponent.
    """
    ascii_ = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    zeros4 = np.zeros(10_000, dtype=np.intp)
    zeros4[::10], zeros4[::100], zeros4[::1000], zeros4[0] = 1, 2, 3, 4
    K, B, kept = np.arange(-4, 17)[:, None], np.arange(24), np.arange(18)
    written = np.concatenate([np.arange(32) <= np.arange(33)[:, None]] * 2)
    written[:33, 0] = False
    return types.SimpleNamespace(
        # the four ASCII digits of each number below 10**4 in a word, the
        # first in the low byte, and the number's trailing zeros (4 for 0)
        digits4=(ascii_[:, None, None, None] | ascii_[:, None, None] << 8
                 | ascii_[:, None] << 16 | ascii_ << 24).ravel(),
        zeros4=zeros4,
        # a double a is scaled to 17 digits as a * 10**s, s = 16 - k
        pow5=5 ** np.arange(21, dtype=np.uint64),
        pow10=10.0 ** np.arange(21),
        # With 17 significant digits d0..d16 at bytes 1..17, the text of
        # exponent k >= 0 keeps d0..dk in place, puts "." at byte k + 2 and
        # the other digits after it, one byte on; that of k < 0 is "0." and
        # -k - 1 zeros, then the digits, 1 - k bytes on.  Trailing zeros are
        # cut by the text's end.
        in_place=_row_words((B >= 1) & (B <= K + 1), 255),
        moved=_row_words(B >= np.where(K >= 0, K + 3, 2 - K), 255),
        punct=(_row_words(B == 0, ord("-"))
               | _row_words(B == np.where(K >= 0, K + 2, 2), ord("."))
               | _row_words((K < 0) & ((B == 1) | (B >= 3) & (B <= 1 - K)), ord("0"))),
        shift=(8 + 8 * np.maximum(-K[:, 0], 0)).astype(np.uint64),
        # the end of the text (its separator's byte), by row 18 * (k + 4)
        # plus the number of digits kept
        end=(1 + np.where(K >= 0, np.where(kept <= K + 1, K + 1, kept + 1),
                          1 - K + kept)).ravel(),
        # the bytes of a row to write, by row 33 * negative + end: the sign
        # slot of a negative cell, the text and the separator
        written=written,
    )


def _significands(a):
    """``(D, k, ok)`` for positive doubles ``a``: ``D`` is ``a / 10**(k - 16)``
    rounded half to even, as ``%.17g`` rounds, and ``ok`` marks where ``k``
    is ``a``'s decimal exponent (10**16 <= D < 10**17) and -4 <= k <= 16.

    The float product ``a * 10**(16 - k)`` is only a first guess, off by at
    most a few units; its error is then found exactly from ``a``'s binary
    significand in uint64 arithmetic modulo 2**64, where it is far below
    2**63.
    """
    tables = _tables()
    k = np.floor(np.log10(a)).astype(np.intp)
    np.minimum(np.maximum(k, -4, out=k), 16, out=k)
    s = 16 - k
    D = (a * tables.pow10[s]).astype(np.uint64)
    bits = a.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    # a * 10**s = m * 5**s / 2**t, with t from a's biased binary exponent
    t = (1075 - 16) + k - (bits >> np.uint64(52)).astype(np.intp)
    tp = np.maximum(t, 0)
    exact = m * tables.pow5[s] << np.maximum(-t, 0).astype(np.uint64)
    residual = (exact - (D << tp.astype(np.uint64))).view(np.int64)
    floor = residual >> tp
    D += floor.view(np.uint64)
    twice = (residual - (floor << tp)) << 1  # twice the remainder, over 2**t
    unit = 1 << tp
    ok = D >= np.uint64(10**16)
    D += (twice > unit) | (twice == unit) & (D & np.uint64(1)).astype(bool)
    ok &= D < np.uint64(10**17)
    return D, k, ok


def _format_cells(values, seps):
    """The ``%.17g`` text of each value (``NA`` for NaN), each followed by
    its separator byte from ``seps``, as one bytes object.

    Values of magnitude 1e-4 to 1e17 are printed in arrays: their 17
    significant digits from :func:`_significands`, four at a time from a
    table, and the point, leading zeros and sign from per-exponent patterns.
    Zeros and NaNs are patterns too.  The other values, which ``%.17g``
    spells with an exponent or as ``inf``, are formatted by :func:`fmt17`.
    """
    tables = _tables()
    n = len(values)
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e17)
    D, k, ok = _significands(np.where(fast, a, 1.0))
    ok &= fast
    high, low = np.divmod(D, np.uint64(10**8))
    d0, g12 = np.divmod(high, np.uint64(10**8))
    g1, g2 = np.divmod(g12, np.uint64(10**4))
    g3, g4 = np.divmod(low, np.uint64(10**4))
    t1, t2, t3, t4 = (tables.digits4[g] for g in (g1, g2, g3, g4))
    # Words 0-2 of the 17 digits at bytes 1..17, a row of words per cell
    # column, so that each operation below runs over all cells at once.
    digits = np.empty((3, n), dtype=np.uint64)
    digits[0] = (d0 + 48) << 8 | t1 << 16 | t2 << 48
    digits[1] = t2 >> 16 | t3 << 16 | t4 << 48
    digits[2] = t4 >> 16
    zeros4 = tables.zeros4
    zeros = zeros4[g4]
    z = np.flatnonzero(g4 == 0)
    if len(z):
        g1, g2, g3 = g1[z], g2[z], g3[z]
        zeros[z] += zeros4[g3] + (g3 == 0) * (zeros4[g2] + (g2 == 0) * zeros4[g1])
    row = k + 4
    end = tables.end[18 * row + 17 - zeros]
    shift = tables.shift[row]
    moved = digits << shift
    moved[1:] |= digits[:-1] >> (np.uint64(64) - shift)
    moved &= np.take(tables.moved, row, axis=1)
    digits &= np.take(tables.in_place, row, axis=1)
    moved |= digits
    moved |= np.take(tables.punct, row, axis=1)
    words = np.zeros((n, 4), dtype=np.uint64)
    words[:, :3] = moved.T
    text = words.astype(_U64, copy=False).view(np.uint8)
    negative = np.signbit(values) & ok
    if not ok.all():
        nan, zero = np.isnan(values), a == 0.0
        text[nan, 1:3], end[nan] = np.frombuffer(b"NA", dtype=np.uint8), 3
        text[zero, :2], end[zero] = np.frombuffer(b"-0", dtype=np.uint8), 2
        negative |= np.signbit(values) & zero
        other = np.flatnonzero(~(ok | nan | zero))
        if len(other):
            cells = [b" " + fmt17(x).encode() for x in values[other].tolist()]
            text[other] = np.array(cells, dtype="S32").view(np.uint8).reshape(-1, 32)
            end[other] = [len(cell) for cell in cells]
    text.reshape(-1)[np.arange(0, 32 * n, 32) + end] = seps
    return text[np.take(tables.written, 33 * negative + end, axis=0)].tobytes()


def write_matrix_csv(path, M, mask=None):
    """Write a 2-D matrix as CSV; NaN and masked-out entries become ``NA``.

    Cells are written as ``%.17g`` writes them, by :func:`_format_cells`,
    ``_WRITE_BLOCK`` cells or one row at a time, so temporaries do not grow
    with the matrix.  A matrix that is not 2-D, or a mask of another shape,
    raises ValueError naming both shapes.
    """
    M = np.asarray(M, dtype=float)
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    if M.ndim != 2 or (mask is not None and mask.shape != M.shape):
        raise ValueError(f"need a 2-D matrix and a mask of its shape; got matrix shape "
                         f"{M.shape}, mask shape {None if mask is None else mask.shape}")
    n, q = M.shape
    rows = max(1, _WRITE_BLOCK // max(q, 1))
    seps = np.full((rows, q), ord(","), dtype=np.uint8)
    seps[:, -1:] = ord("\n")
    seps = seps.ravel()
    with _atomic_open(path, binary=True) as fh:
        for start in range(0, n, rows):
            block = M[start : start + rows]
            if mask is not None:
                block = np.where(mask[start : start + rows], block, np.nan)
            cells = block.ravel()
            fh.write(_format_cells(cells, seps[: len(cells)]) if q else b"\n" * len(block))


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


def _layer_from_dict(entry):
    layer = UnitRankFactor(
        float(entry["d"]),
        np.asarray(entry["u"], dtype=float),
        np.asarray(entry["v"], dtype=float),
        NormMode(entry["norm_mode"]),
    )
    for name, vec in (("u", layer.u), ("v", layer.v)):
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise ValueError(f"entry {bad[0] + 1} of {name} is not finite ({vec[bad[0]]})")
    return layer


def _field_error(exc):
    """The ValueError text of a missing (KeyError) or ill-typed field."""
    if isinstance(exc, KeyError):
        return f"no {exc.args[0]!r} field"
    if isinstance(exc, TypeError):
        return f"an ill-typed field: {exc}"
    return str(exc)


def factor_model_from_dict(doc):
    """Rebuild a FactorModel; a missing or ill-typed field, or a loading that
    is not finite, raises ValueError, which names the layer (``layer 2: d
    must be a finite nonnegative scalar, got nan``) when it is a layer's."""
    try:
        layers = []
        for k, entry in enumerate(doc["layers"], 1):
            try:
                layers.append(_layer_from_dict(entry))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"layer {k}: {_field_error(exc)}") from None
        rank = int(doc["rank"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"factor model has {_field_error(exc)}") from None
    model = FactorModel(tuple(layers))
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
    """``(model, doc)`` from a model JSON file; malformed JSON or a malformed
    model raises ValueError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
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
    with open(path, encoding="utf-8-sig") as fh:
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
                if not 0.0 <= d < math.inf:
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
