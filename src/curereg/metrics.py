"""Evaluation metrics: estimation error, support recovery, sparsity counts.

Estimation error is reported per entry:

    er_c  = ||C_hat - C_star||_F^2 / (p * q)
    er_xc = ||X (C_hat - C_star)||_F^2 / (n * q)

Support recovery pools the entries of the stacked U and V loading matrices
and reports false positive / false negative rates

    fpr = FP / (TN + FP)        fnr = FN / (TP + FN)

against the true patterns.  Layers are compared positionally, so callers
should order both sides by nonincreasing d; a shorter estimate is padded
with all-zero layers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ZERO_TOL

__all__ = [
    "EvalReport",
    "estimation_errors",
    "selection_rates",
    "sparsity_summary",
    "aggregate_reports",
    "trimmed_mean_sd",
]


def estimation_errors(C_hat, C_star, X):
    """Per-entry squared errors of the coefficient matrix and of the fit."""
    C_hat = np.asarray(C_hat, dtype=float)
    C_star = np.asarray(C_star, dtype=float)
    if C_hat.shape != C_star.shape:
        raise ValueError(f"shape mismatch: {C_hat.shape} vs {C_star.shape}")
    X = np.asarray(X, dtype=float)
    p, q = C_star.shape
    n = X.shape[0]
    D = C_hat - C_star
    er_c = float(np.vdot(D, D)) / (p * q)
    XD = X @ D
    er_xc = float(np.vdot(XD, XD)) / (n * q)
    return er_c, er_xc


class SelectionRates(NamedTuple):
    fpr: float
    fnr: float
    tp: int
    fp: int
    tn: int
    fn: int


def _pattern(M):
    return np.abs(np.asarray(M, dtype=float)) > ZERO_TOL


def _pad_columns(M, r):
    if M.shape[1] == r:
        return M
    pad = np.zeros((M.shape[0], r - M.shape[1]), dtype=M.dtype)
    return np.hstack([M, pad])


def _confusion(est, tru):
    tp = int(np.sum(est & tru))
    fp = int(np.sum(est & ~tru))
    tn = int(np.sum(~est & ~tru))
    fn = int(np.sum(~est & tru))
    return tp, fp, tn, fn


def _rates(tp, fp, tn, fn):
    if tn + fp == 0:
        warnings.warn("no true zeros: fpr reported as 0", RuntimeWarning, stacklevel=3)
        fpr = 0.0
    else:
        fpr = fp / (tn + fp)
    if tp + fn == 0:
        warnings.warn("no true nonzeros: fnr reported as 0", RuntimeWarning, stacklevel=3)
        fnr = 0.0
    else:
        fnr = fn / (tp + fn)
    return fpr, fnr


def selection_rates(U_hat, V_hat, U_star, V_star):
    """Pooled entrywise FPR/FNR of the stacked loading matrices.

    ``U_hat`` is p x r_hat, ``U_star`` p x r_star (same for V on q rows);
    column counts may differ and the narrower side is padded with zero
    layers.  An empty-denominator rate is reported as 0 with a warning.
    """
    U_hat = np.atleast_2d(np.asarray(U_hat, dtype=float))
    V_hat = np.atleast_2d(np.asarray(V_hat, dtype=float))
    U_star = np.atleast_2d(np.asarray(U_star, dtype=float))
    V_star = np.atleast_2d(np.asarray(V_star, dtype=float))
    if U_hat.shape[0] != U_star.shape[0] or V_hat.shape[0] != V_star.shape[0]:
        raise ValueError("row dimensions of estimate and truth must agree")
    if U_hat.shape[1] != V_hat.shape[1] or U_star.shape[1] != V_star.shape[1]:
        raise ValueError("U and V must have the same number of layers")
    r = max(U_hat.shape[1], U_star.shape[1])
    eu = _pattern(_pad_columns(U_hat, r))
    ev = _pattern(_pad_columns(V_hat, r))
    tu = _pattern(_pad_columns(U_star, r))
    tv = _pattern(_pad_columns(V_star, r))
    est = np.concatenate([eu.ravel(), ev.ravel()])
    tru = np.concatenate([tu.ravel(), tv.ravel()])
    tp, fp, tn, fn = _confusion(est, tru)
    fpr, fnr = _rates(tp, fp, tn, fn)
    return SelectionRates(fpr, fnr, tp, fp, tn, fn)


def sparsity_summary(model):
    """Counts (u_l0, u_l20, v_l0, v_l20): nonzero entries and nonzero rows."""
    if model.rank == 0:
        return 0, 0, 0, 0
    U = _pattern(model.stacked_u())
    V = _pattern(model.stacked_v())
    return (
        int(U.sum()),
        int(U.any(axis=1).sum()),
        int(V.sum()),
        int(V.any(axis=1).sum()),
    )


@dataclass
class EvalReport:
    """One evaluated fit; serializes to a single CSV row.

    ``wall_time_s`` is measured, hence not reproducible bit-for-bit; writers
    that promise byte-identical reruns keep it out of their deterministic
    artifacts (see the CLI module).
    """

    er_c: float = np.nan
    er_xc: float = np.nan
    fpr: float = np.nan
    fnr: float = np.nan
    u_l0: int = 0
    u_l20: int = 0
    v_l0: int = 0
    v_l20: int = 0
    wall_time_s: float = np.nan

    METRIC_FIELDS = ("er_c", "er_xc", "fpr", "fnr", "u_l0", "u_l20", "v_l0", "v_l20")

    @classmethod
    def csv_header(cls):
        return list(cls.METRIC_FIELDS)

    def csv_row(self):
        from .io import fmt17

        vals = []
        for name in self.csv_header():
            val = getattr(self, name)
            if isinstance(val, (int, np.integer)):
                vals.append(str(int(val)))
            elif val is None or (isinstance(val, float) and np.isnan(val)):
                vals.append("NA")
            else:
                vals.append(fmt17(val))
        return vals


def trimmed_mean_sd(values, trim=0.0):
    """Symmetric trimmed mean and SD: drop ``floor(trim*m)`` points per tail.

    ``trim=0`` is the plain mean/SD (ddof=1).  The tests check that the mean
    agrees with ``scipy.stats.trim_mean(values, trim)``.
    """
    x = np.sort(np.asarray(values, dtype=float))
    m = x.size
    if m == 0:
        return np.nan, np.nan
    if not 0.0 <= trim < 0.5:
        raise ValueError("trim must be in [0, 0.5)")
    k = int(np.floor(trim * m))
    kept = x[k : m - k]
    mean = float(kept.mean())
    sd = float(kept.std(ddof=1)) if kept.size > 1 else 0.0
    return mean, sd


def aggregate_reports(reports, trim=0.0):
    """Column-wise (trimmed) mean and SD over a list of EvalReports."""
    out = {}
    for name in EvalReport.METRIC_FIELDS + ("wall_time_s",):
        vals = np.array([float(getattr(r, name)) for r in reports])
        if np.isnan(vals).all():
            out[name] = (np.nan, np.nan)
        else:
            out[name] = trimmed_mean_sd(vals[~np.isnan(vals)], trim)
    return out
