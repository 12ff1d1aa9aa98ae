import json
import os

import numpy as np
import pytest

from curereg.core import FactorModel, NormMode, ProblemData, UnitRankFactor
from curereg.io import (
    _parse_cell,
    atomic_write_text,
    factor_model_from_dict,
    factor_model_to_dict,
    fmt17,
    load_factor_model,
    read_matrix_csv,
    save_factor_model,
    write_matrix_csv,
    write_path_jsonl,
)
from curereg.stagewise import StagewiseConfig, run_path


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
    write_matrix_csv(path, np.array([[1.5, 2.5]]), header=["a", "b"])
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
    for line, step in zip(lines, path_obj.steps):
        rec = json.loads(line)
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
