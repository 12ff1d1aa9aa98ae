import csv
import dataclasses
import decimal
import fractions
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from curereg import io as curereg_io
from curereg.core import FactorModel, NormMode, ProblemData, UnitRankFactor
from curereg.io import (
    _parse_cell,
    atomic_write_text,
    factor_model_from_dict,
    factor_model_to_dict,
    fmt17,
    load_factor_model,
    read_matrix_csv,
    read_path_jsonl,
    save_factor_model,
    write_matrix_csv,
    write_path_jsonl,
)
from curereg.stagewise import MoveLog, StagewiseConfig, StagewisePath, run_path


# ---------------------------------------------------------------------------
# float formatting


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(0)
    tricky = [0.1, 1 / 3, np.pi, 1e-300, -1.2345678901234567e17, 5e-324]
    for x in tricky + list(rng.standard_normal(50)):
        assert float(fmt17(x)) == float(x)


# ---------------------------------------------------------------------------
# CSV matrices


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-8, 9, size=(7, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back, mask = read_matrix_csv(path)
    np.testing.assert_array_equal(back, M)
    assert mask is None


def test_masked_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    M = rng.standard_normal((6, 5))
    keep = rng.random((6, 5)) > 0.3
    path = tmp_path / "y.csv"
    write_matrix_csv(path, M, mask=keep)
    assert "NA" in path.read_text()
    back, observed = read_matrix_csv(path, allow_missing=True)
    np.testing.assert_array_equal(observed, keep)
    np.testing.assert_array_equal(back[keep], M[keep])
    assert np.isnan(back[~keep]).all()


def test_nan_entries_written_as_na(tmp_path):
    M = np.array([[1.0, np.nan], [2.0, 3.0]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back, observed = read_matrix_csv(path, allow_missing=True)
    assert observed is not None
    assert not observed[0, 1]
    assert back[1, 1] == 3.0


def test_header_row_is_skipped(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1.5,2.5\n")
    back, _ = read_matrix_csv(path)
    np.testing.assert_array_equal(back, [[1.5, 2.5]])
    # an all-numeric first row is data, not a header
    path2 = tmp_path / "nh.csv"
    path2.write_text("1,2\n3,4\n")
    back2, _ = read_matrix_csv(path2)
    assert back2.shape == (2, 2)


def test_malformed_csv_errors_name_the_location(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="line 2 has 2 columns"):
        read_matrix_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match=r"line 2, column 2.*'oops'"):
        read_matrix_csv(bad)

    na = tmp_path / "na.csv"
    na.write_text("1,NA\n")
    with pytest.raises(ValueError, match="NA not allowed"):
        read_matrix_csv(na, allow_missing=False)

    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="empty matrix"):
        read_matrix_csv(empty)

    header_only = tmp_path / "ho.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_matrix_csv(header_only)


def test_fast_row_parse_matches_cell_parser(tmp_path):
    # whole rows go through float(); rows holding an NA fall back to the
    # per-cell parser.  Both must give the arrays the cell parser alone gives.
    rng = np.random.default_rng(3)
    pads = ["", " ", "  ", "\t"]
    for trial in range(5):
        n, m = rng.integers(1, 9, size=2)
        M = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-5, 6, size=(n, m))
        na = rng.random((n, m)) < 0.2
        lines = [",".join(f"col{j}" for j in range(m))] if trial % 2 else []
        for i in range(n):
            cells = []
            for j in range(m):
                tok = "NA" if na[i, j] else fmt17(M[i, j])
                cells.append(pads[rng.integers(4)] + tok + pads[rng.integers(4)])
            lines.append(",".join(cells))
        path = tmp_path / f"t{trial}.csv"
        path.write_text("\n".join(lines) + "\n")
        got, observed = read_matrix_csv(path, allow_missing=True)
        want = np.empty((n, m))
        want_obs = np.ones((n, m), dtype=bool)
        for i, line in enumerate(lines[trial % 2:]):
            for j, tok in enumerate(line.split(",")):
                want[i, j], want_obs[i, j] = _parse_cell(tok, "here", True)
        assert got.tobytes() == want.tobytes()
        if na.any():
            np.testing.assert_array_equal(observed, want_obs)
        else:
            assert observed is None


def reference_read_matrix_csv(path, allow_missing=False):
    """The cell-by-cell reader: csv.reader, then float() or NA per cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    if any(_not_number(tok) for tok in rows[0][1]):
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    width = len(rows[0][1])
    out = np.empty((len(rows), width))
    observed = np.ones((len(rows), width), dtype=bool)
    for i, (line_no, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: line {line_no} has {len(row)} columns, expected {width}"
            )
        for j, tok in enumerate(row):
            where = f"{path}: line {line_no}, column {j + 1}"
            out[i, j], observed[i, j] = _parse_cell(tok, where, allow_missing)
    return out, (None if observed.all() else observed)


def _not_number(tok):
    if tok.strip() == "NA":
        return False
    try:
        float(tok)
    except ValueError:
        return True
    return False


def _outcome(reader, path, allow_missing):
    try:
        M, mask = reader(path, allow_missing=allow_missing)
    except ValueError as exc:
        return "error", str(exc)
    return M.shape, M.tobytes(), None if mask is None else mask.tobytes()


@pytest.mark.parametrize("name, text", [
    ("padded", " 1.5 ,\t-2e-3\n  3, 4 \n"),
    ("crlf", "1,2\r\n3,4\r\n"),
    ("blank_lines", "\n1,2\n\n  \n3,4\n\n"),
    ("header", "a,b\n1,2\n3,4\n"),
    ("one_row", "1,2,3\n"),
    ("one_column", "1\n2\n3\n"),
    ("one_cell_no_newline", "7.25"),
    ("specials", "inf,-Infinity\nnan,-0.0\n1e-320,1e400\n"),
    ("underscore", "1_0,2\n3,4\n"),
    ("na_cell", "1,NA\n3,4\n"),
    ("hash_cell", "1,2\n#3,4\n"),
    ("ragged", "1,2\n3\n"),
    ("trailing_comma", "1,2,\n3,4,\n"),
    ("quoted", '"1",2\n3,4\n'),
    ("blank_cells_row", "1,2\n , \n3,4\n"),
    ("late_header", "\na,b\n1,2\n"),
    ("bad_cell", "1,2\n3,x\n"),
    ("empty", "\n\n"),
    ("header_only", "a,b\n"),
    ("na_padded", " NA ,1\n2,\tNA  \n"),
    ("na_first_and_last_column", "NA,1,2\n3,4,NA\n"),
    ("na_whole_row", "1,2\nNA,NA\n3,4\n"),
    ("na_every_cell", "NA,NA\nNA,NA\n"),
    ("na_and_literal_nan", "1,NA\nnan,4\n"),
    ("na_crlf", "NA,2\r\n3,NA\r\n"),
    ("na_cr", "1,NA\r3,4\r"),
    ("na_blank_lines", "\n1,NA\n\n \n3,4\n"),
    ("na_lowercase", "1,na\n3,4\n"),
    ("na_quoted", '"NA",2\n3,4\n'),
    ("na_inside_cell", "1,NAN\n3,N A\n"),
    ("na_signed", "1,-NA\n3,4\n"),
    ("na_plus_signed", "1,+NA\n3,NA\n"),
    ("na_after_text", "1,xNA\n3,1NA\n"),
    ("na_after_space_sign", "1,- NA\n3,NA\n"),
    ("na_ragged", "1,NA\n3\n"),
    ("na_bad_cell", "1,NA\n3,x\n"),
    ("na_header", "a,b\n1,NA\n3,4\n"),
])
@pytest.mark.parametrize("allow_missing", [False, True])
def test_bulk_reader_matches_cell_reader(tmp_path, name, text, allow_missing):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    got = _outcome(read_matrix_csv, path, allow_missing)
    assert got == _outcome(reference_read_matrix_csv, path, allow_missing)


def test_bulk_reader_matches_cell_reader_on_written_matrices(tmp_path):
    rng = np.random.default_rng(5)
    for trial in range(4):
        n, m = rng.integers(1, 30, size=2)
        M = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-300, 300, size=(n, m))
        path = tmp_path / f"w{trial}.csv"
        write_matrix_csv(path, M)
        got = _outcome(read_matrix_csv, path, False)
        assert got == _outcome(reference_read_matrix_csv, path, False)
        assert got[1] == M.tobytes()
        mask = rng.random((n, m)) >= 0.3
        write_matrix_csv(path, M, mask=mask)
        for allow_missing in (False, True):
            got = _outcome(read_matrix_csv, path, allow_missing)
            assert got == _outcome(reference_read_matrix_csv, path, allow_missing)
        if not mask.all():
            assert got[2] == mask.tobytes()


def test_csv_errors_name_the_physical_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n\n\n3,x\n")
    with pytest.raises(ValueError, match=r"line 4, column 2.*'x'"):
        read_matrix_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n\n1,2\n3\n")
    with pytest.raises(ValueError, match="line 4 has 1 columns"):
        read_matrix_csv(ragged)


def reference_write_matrix_csv(path, M, mask=None):
    """The cell-by-cell writer: NA for masked or NaN cells, else 17 digits."""
    with open(path, "w", newline="") as fh:
        for i in range(M.shape[0]):
            cells = []
            for j in range(M.shape[1]):
                if (mask is not None and not mask[i, j]) or np.isnan(M[i, j]):
                    cells.append("NA")
                else:
                    cells.append(fmt17(M[i, j]))
            fh.write(",".join(cells) + "\n")


def test_matrix_writer_matches_cell_writer(tmp_path):
    rng = np.random.default_rng(6)
    M = rng.standard_normal((9, 7)) * 10.0 ** rng.integers(-12, 12, size=(9, 7))
    M[0, 0], M[1, 2], M[2, 3] = np.nan, np.inf, -0.0
    keep = rng.random((9, 7)) > 0.3
    keep[3] = True
    for mask in (None, keep):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_matrix_csv(got, M, mask=mask)
        reference_write_matrix_csv(want, M, mask=mask)
        assert got.read_bytes() == want.read_bytes()


def _edge_matrices():
    """Named (M, mask) cases that stress the block writer's boundaries."""
    rng = np.random.default_rng(7)
    M = rng.standard_normal((31, 7))
    keep = rng.random((31, 7)) > 0.2
    all_na_row = M.copy()
    all_na_row[4] = np.nan
    special = np.array([
        [5e-324, -5e-324, 2.2250738585072009e-308, -4.9e-310],
        [1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0],
        [np.inf, -np.inf, np.copysign(np.nan, -1.0), np.nan],
    ])
    return {
        "blocks+remainder": (M, None),
        "blocks+remainder masked": (M, keep),
        "fortran order": (np.asfortranarray(M), keep),
        "row wider than a block": (rng.standard_normal((3, 150)), None),
        "0 x q": (np.empty((0, 5)), None),
        "n x 0": (np.empty((4, 0)), None),
        "all-NA row": (all_na_row, None),
        "all-NA row by mask": (M, np.where(np.arange(31)[:, None] == 30, False, keep)),
        "all-NA matrix": (np.full((5, 3), np.nan), None),
        "all-NA matrix by mask": (M, np.zeros(M.shape, dtype=bool)),
        "special values": (special, None),
    }


def test_block_writer_matches_cell_writer_on_edge_cases(tmp_path, monkeypatch):
    # 64-cell blocks: 9 rows of 7 a block, so 31 rows are 3 full blocks + 4 rows
    monkeypatch.setattr(curereg_io, "_WRITE_BLOCK", 64)
    for name, (M, mask) in _edge_matrices().items():
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_matrix_csv(got, M, mask=mask)
        reference_write_matrix_csv(want, M, mask=mask)
        assert got.read_bytes() == want.read_bytes(), name


def test_block_writer_matches_cell_writer_at_its_block_size(tmp_path):
    rng = np.random.default_rng(8)
    rows = curereg_io._WRITE_BLOCK // 1000
    M = rng.standard_normal((3 * rows + 7, 1000)) * 10.0 ** rng.integers(-300, 300, (1, 1000))
    keep = rng.random(M.shape) > 0.2
    for mask in (None, keep):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_matrix_csv(got, M, mask=mask)
        reference_write_matrix_csv(want, M, mask=mask)
        assert got.read_bytes() == want.read_bytes()


def _fmt17_csv(M):
    """The CSV bytes of a NaN-free matrix, cell by cell through fmt17."""
    return "".join(",".join(map(fmt17, row)) + "\n" for row in M.tolist()).encode()


def test_writer_matches_fmt17_on_a_million_cells(tmp_path):
    rng = np.random.default_rng(10)
    # uniform bit patterns over magnitudes 1e-5..1e17 (the bits of positive
    # doubles grow with their values), then normal draws scaled by 1e-3..1e6
    lo, hi = np.array([1e-5, 1e17]).view(np.int64)
    spread = rng.integers(lo, hi, 400_000).view(np.float64)
    normal = rng.standard_normal(600_000) * 10.0 ** rng.integers(-3, 7, 600_000)
    cells = np.concatenate([spread, normal]) * rng.choice([-1.0, 1.0], 1_000_000)
    M = cells.reshape(-1, 250)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert path.read_bytes() == _fmt17_csv(M)


def test_writer_matches_fmt17_next_to_powers_of_ten(tmp_path):
    powers = np.concatenate([10.0 ** np.arange(-5, 18), [1e-4, 1e16]])
    cells = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    M = np.concatenate([cells, -cells]).reshape(-1, 6)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_matrix_csv(got, M)
    reference_write_matrix_csv(want, M)
    assert got.read_bytes() == want.read_bytes()


def test_writer_matches_fmt17_on_exact_ties(tmp_path):
    # An odd N over 2**(17 - k), of decimal exponent k, has 18 significant
    # digits, the last a 5: the 17th digit is a tie, rounded to even.
    rng = np.random.default_rng(11)
    cells = []
    for k in range(-4, 16):
        lo, hi = (math.ceil(fractions.Fraction(10) ** e * 2 ** (17 - k)) for e in (k, k + 1))
        if lo < min(hi, 2**53):
            cells.append(np.ldexp(rng.integers(lo, min(hi, 2**53), 200) | 1, k - 17))
    cells = np.concatenate(cells)
    for x in cells.tolist():
        digits = decimal.Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    M = np.concatenate([cells, -cells]).reshape(-1, 8)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert path.read_bytes() == _fmt17_csv(M)


def _every_cell_class(rng, shape):
    """A matrix and mask that mix printed cells with every cell class that
    is not printed in arrays: NaN, masked, +-0, +-inf, subnormals and
    magnitudes that %.17g spells with an exponent."""
    specials = np.array([
        np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
        1e-5, -9.999999999999999e-5, 1e17, -1.2345678901234567e200, 1.7976931348623157e308,
    ])
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 17, shape)
    special = rng.random(shape) < 0.5
    special[:, 0] = special[:, -1] = True
    M[special] = rng.choice(specials, int(special.sum()))
    return M, rng.random(shape) > 0.1


def test_block_writer_matches_cell_writer_with_every_cell_class(tmp_path, monkeypatch):
    # 9 rows of 7 a block: special cells at both ends of every block
    monkeypatch.setattr(curereg_io, "_WRITE_BLOCK", 64)
    M, keep = _every_cell_class(np.random.default_rng(12), (40, 7))
    for mask in (None, keep):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_matrix_csv(got, M, mask=mask)
        reference_write_matrix_csv(want, M, mask=mask)
        assert got.read_bytes() == want.read_bytes()


def test_writer_spells_every_cell_alike_through_fmt17(tmp_path, monkeypatch):
    rng = np.random.default_rng(13)
    M, keep = _every_cell_class(rng, (60, 50))
    M[:30] = rng.standard_normal((30, 50)) * 10.0 ** rng.integers(-4, 17, (30, 50))
    fast = tmp_path / "fast.csv"
    write_matrix_csv(fast, M, mask=keep)
    significands = curereg_io._significands

    def nothing_printed_in_arrays(a):
        D, k, ok = significands(a)
        return D, k, np.zeros_like(ok)

    monkeypatch.setattr(curereg_io, "_significands", nothing_printed_in_arrays)
    slow = tmp_path / "slow.csv"
    write_matrix_csv(slow, M, mask=keep)
    assert slow.read_bytes() == fast.read_bytes()


@pytest.mark.parametrize("shape,mask_shape", [
    ((3, 2), (2,)),  # numpy would broadcast it over the rows
    ((3, 2), (3, 1)),
    ((3, 2), (4, 2)),
    ((3,), None),
    ((2, 3, 2), None),
    ((2, 3, 2), (2, 3, 2)),
])
def test_writer_rejects_malformed_shapes(tmp_path, shape, mask_shape):
    path = tmp_path / "m.csv"
    mask = None if mask_shape is None else np.ones(mask_shape, dtype=bool)
    with pytest.raises(ValueError, match=re.escape(f"{shape}, mask shape {mask_shape}")):
        write_matrix_csv(path, np.zeros(shape), mask=mask)
    assert os.listdir(tmp_path) == []


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(9)
    cases = [(M, M > -2.0) for M in (rng.standard_normal((n, 500)) for n in (250, 2000))]
    peaks = []
    tracemalloc.start()
    try:
        for M, mask in cases:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            write_matrix_csv(tmp_path / "m.csv", M, mask=mask)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(path, "replaced\n")
    assert path.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["out.txt"]


# ---------------------------------------------------------------------------
# factor model JSON


def small_model():
    lay1 = UnitRankFactor(
        3.0, np.array([0.6, 0.0, -0.4]), np.array([0.5, 0.5]), NormMode.L1
    )
    lay2 = UnitRankFactor(
        1.5, np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0]), NormMode.L1
    )
    return FactorModel((lay1, lay2))


def test_model_json_round_trip(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_factor_model(path, model)
    back, doc = load_factor_model(path)
    assert back.rank == 2
    for got, want in zip(back.layers, model.layers):
        assert got.d == want.d
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.v, want.v)
        assert got.norm_mode == want.norm_mode
    assert doc["rank"] == 2


def test_model_json_extra_keys(tmp_path):
    path = tmp_path / "model.json"
    save_factor_model(path, small_model(), extra={"method": "seqstl", "sigma": 0.5})
    _, doc = load_factor_model(path)
    assert doc["method"] == "seqstl"
    assert doc["sigma"] == 0.5
    with pytest.raises(ValueError, match="collides"):
        save_factor_model(path, small_model(), extra={"layers": []})


def test_model_dict_rank_mismatch():
    doc = factor_model_to_dict(small_model())
    doc["rank"] = 3
    with pytest.raises(ValueError, match="rank field"):
        factor_model_from_dict(doc)


def test_empty_model_round_trips(tmp_path):
    path = tmp_path / "zero.json"
    save_factor_model(path, FactorModel(()))
    back, doc = load_factor_model(path)
    assert back.rank == 0
    assert doc["layers"] == []


# ---------------------------------------------------------------------------
# path export


def test_path_jsonl_records_every_step(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 5))
    C = np.outer([1.0, -0.5, 0, 0, 0], [0.8, 0, 0.6])
    Y = X @ C + 0.05 * rng.standard_normal((12, 3))
    path_obj = run_path(
        ProblemData(X, Y),
        StagewiseConfig(epsilon=0.1, criterion="gic", max_steps=40),
    )
    out = tmp_path / "path.jsonl"
    write_path_jsonl(out, path_obj)
    lines = out.read_text().splitlines()
    assert len(lines) == len(path_obj.steps)
    for rec, step in zip(read_path_jsonl(out), path_obj.steps):
        assert rec["t"] == step.t
        assert rec["lambda"] == step.lam
        assert rec["move"] == step.move
        assert rec["d"] == step.factor.d
        u = np.zeros(5)
        for idx, val in rec["u_nonzeros"]:
            u[idx] = val
        np.testing.assert_array_equal(u, step.factor.u)
        assert rec["loss"] == step.loss
    ts = [json.loads(l)["t"] for l in lines]
    assert ts == sorted(ts)


def test_path_jsonl_without_criterion(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((8, 3))
    Y = rng.standard_normal((8, 2))
    path_obj = run_path(
        ProblemData(X, Y), StagewiseConfig(epsilon=0.5, criterion="none", max_steps=5)
    )
    out = tmp_path / "path.jsonl"
    write_path_jsonl(out, path_obj)
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["criterion"] is None


def reference_write_path_jsonl(path, sw_path):
    """The dense writer: ``json.dumps`` of each step's ``factor``."""
    with open(path, "w", newline="") as fh:
        for step in sw_path.steps:
            factor = step.factor
            rec = {
                "t": step.t,
                "lambda": step.lam,
                "move": step.move,
                "d": factor.d,
                "u_nonzeros": _dense_nonzeros(factor.u),
                "v_nonzeros": _dense_nonzeros(factor.v),
                "loss": step.loss,
                "penalty": step.penalty,
                "criterion": step.criterion_value,
            }
            fh.write(json.dumps(rec) + "\n")


def _dense_nonzeros(vec):
    idx = np.flatnonzero(vec)
    return [[i, x] for i, x in zip(idx.tolist(), vec[idx].tolist())]


def assert_path_files_equal(tmp_path, path_obj):
    """The dump, expanded by ``read_path_jsonl``, spells the dense writer's file."""
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    write_path_jsonl(got, path_obj)
    reference_write_path_jsonl(want, path_obj)
    expanded = "".join(json.dumps(rec) + "\n" for rec in read_path_jsonl(got))
    assert expanded == want.read_text()
    return want


def small_path(seed, masked=False, criterion="gic", n=15, p=6, q=4, steps=80):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    Y = X[:, :2] @ rng.standard_normal((2, q)) + 0.1 * rng.standard_normal((n, q))
    mask = rng.random((n, q)) > 0.2 if masked else None
    cfg = StagewiseConfig(epsilon=0.1, criterion=criterion, max_steps=steps)
    return run_path(ProblemData(X, Y, mask), cfg)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("criterion", ["gic", "none"])
def test_path_writer_matches_dense_writer(tmp_path, masked, criterion):
    path_obj = small_path(7, masked=masked, criterion=criterion)
    assert len(path_obj.steps) > 10
    want = assert_path_files_equal(tmp_path, path_obj)
    if criterion == "none":
        assert "\"criterion\": null" in want.read_text()


def test_path_writer_matches_dense_writer_through_zero_and_specials(tmp_path):
    # a path that passes through the zero state (d = 0 and d = -0.0),
    # non-finite scalars, and a loading that underflows to zero over d: a
    # copy of the path's log, written by hand, checkpoints step 6 with 1e-320
    steps = small_path(8, steps=12).steps
    old = steps[0]._log
    log = MoveLog(old.p, old.q)
    for t in range(len(steps)):
        if t == 6 or old.moves[3 * t] < 0:
            index, value = old.loadings(t)
            log.append(None, index, np.concatenate(([1e-320], value[1:])) if t == 6 else value)
        else:
            log.append(tuple(old.moves[3 * t:3 * t + 3]))
    steps = [dataclasses.replace(step, _log=log) for step in steps]
    edited = [
        dataclasses.replace(steps[3], d=0.0),
        dataclasses.replace(steps[4], d=-0.0, criterion_value=float("inf")),
        dataclasses.replace(steps[5], lam=float("nan"), loss=float("-inf")),
        dataclasses.replace(steps[6], d=1e10),
    ]
    path_obj = StagewisePath(steps=steps[:3] + edited + steps[7:])
    want = assert_path_files_equal(tmp_path, path_obj)
    line = (tmp_path / "got.jsonl").read_text().splitlines()[6]
    assert '"duv": [[' in line and "1e-320" in line
    text = want.read_text()
    assert '"d": 0.0, "u_nonzeros": [], "v_nonzeros": []' in text
    assert "Infinity" in text and "NaN" in text
    bad = StagewisePath(steps=[dataclasses.replace(steps[1], d=float("nan"))])
    for writer in (write_path_jsonl, reference_write_path_jsonl):
        with pytest.raises(ValueError, match="finite"):
            writer(tmp_path / "bad.jsonl", bad)


def test_path_expansion_matches_dense_writer_on_a_long_path(tmp_path):
    path_obj = small_path(9, n=30, p=40, q=30, steps=400)
    want = assert_path_files_equal(tmp_path, path_obj)
    lines = (tmp_path / "got.jsonl").read_text().splitlines()
    moves = sum('"set": ' in line for line in lines)
    assert len(lines) == 401 and moves > 350
    assert (tmp_path / "got.jsonl").stat().st_size < want.stat().st_size / 2


def _edited_dump(tmp_path, line_no, edit):
    """A dump of ``small_path(7)`` whose line ``line_no`` ``edit`` rewrites
    (a dict to edit in place, or a function of the text)."""
    path = tmp_path / "path.jsonl"
    write_path_jsonl(path, small_path(7))
    lines = path.read_text().splitlines()
    assert '"duv": ' in lines[0] and '"set": ' in lines[2]
    if isinstance(edit, dict):
        rec = json.loads(lines[line_no - 1])
        for key, val in edit.items():
            if val is None:
                del rec[key]
            else:
                rec[key] = val
        lines[line_no - 1] = json.dumps(rec)
    else:
        lines[line_no - 1] = edit(lines[line_no - 1])
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("line_no, edit, message", [
    (1, {"format": None}, "no format marker"),
    (1, {"format": "curereg-path-moves/0"}, "no format marker"),
    (4, {"t": 5}, "t is 5, expected 3"),
    (1, {"p": -1}, r"-1 is not an integer in \[0, 4\)"),
    (3, {"set": [10, 0.1]}, r"10 is not an integer in \[0, 10\)"),
    (3, {"set": [-1, 0.1]}, "-1 is not an integer in"),
    (1, {"duv": None, "set": [0, 0.1], "scale": 1.0}, "a move comes before any checkpoint"),
    (2, lambda line: line[:25], "is not JSON"),
    (1, {"duv": [[0, np.nan]]}, "duv must be finite, got nan"),
    (3, {"set": [0, np.inf]}, "set must be finite, got inf"),
    (3, {"set": [0, np.nan]}, "set must be finite, got nan"),
    (3, {"scale": -np.inf}, "scale must be finite, got -inf"),
    (3, {"scale": np.nan}, "scale must be finite, got nan"),
])
def test_path_reader_names_the_line_of_bad_input(tmp_path, line_no, edit, message):
    path = _edited_dump(tmp_path, line_no, edit)
    with pytest.raises(ValueError, match=f"line {line_no}\\b.*{message}"):
        list(read_path_jsonl(path))
