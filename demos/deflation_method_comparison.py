"""Compare multi-layer estimators on a rank-3 co-sparse problem.

Sequential deflation peels one unit-rank layer at a time from the running
residual; parallel pursuit splits a pilot fit into layers and refits each.
Reduced-rank regression is the dense baseline. All methods see the same
column-normalized design and are scored against the same truth.
"""

import time
import warnings

import numpy as np

from curereg import (
    AcsConfig,
    DeflationConfig,
    FactorModel,
    ProblemData,
    SimSpec,
    StagewiseConfig,
    column_normalize,
    deflate,
    estimation_errors,
    fit_rrr,
    gen_dataset,
    p_orthogonal_svd,
    rescale_factor_rows,
    selection_rates,
)

RANK = 3


def unscale(model, scale):
    return FactorModel(tuple(rescale_factor_rows(lay, scale) for lay in model.layers))


def score(name, model, truth, elapsed):
    C_hat = model.to_matrix((truth.spec.p, truth.spec.q))
    er_c, _ = estimation_errors(C_hat, truth.c_star, truth.X)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rates = selection_rates(
            model.stacked_u(), model.stacked_v(),
            truth.factors.stacked_u(), truth.factors.stacked_v(),
        )
    # report layer strengths on the unit-L2 scale so they line up with truth
    d_hat = " ".join(
        f"{lay.d * np.linalg.norm(lay.u) * np.linalg.norm(lay.v):6.2f}"
        for lay in model.layers
    )
    print(f"{name:>8}  er_c={er_c:.5f}  fpr={rates.fpr:.3f}  fnr={rates.fnr:.3f}"
          f"  d=[{d_hat}]  {elapsed:5.1f}s")


def main():
    spec = SimSpec(model="II", n=60, p=40, q=25, r_star=RANK, snr=1.0, rho=0.3, seed=11)
    truth = gen_dataset(spec)
    Xn, scale = column_normalize(truth.X)
    problem = ProblemData(Xn, truth.Y)

    d_star = " ".join(f"{d:6.2f}" for d in truth.factors.d_values())
    print(f"truth: rank {RANK}, d=[{d_star}]")
    print()

    stl = StagewiseConfig(epsilon=1.0, criterion="gic")
    acs = AcsConfig()
    configs = {
        "seqstl": DeflationConfig(strategy="sequential", rank=RANK, solver=stl),
        "seqacs": DeflationConfig(strategy="sequential", rank=RANK, solver=acs),
        "parstl": DeflationConfig(strategy="parallel", rank=RANK, solver=stl,
                                  initializer="rrr"),
        "paracs": DeflationConfig(strategy="parallel", rank=RANK, solver=acs,
                                  initializer="rrr"),
    }
    for name, cfg in configs.items():
        t0 = time.perf_counter()
        model = unscale(deflate(problem, cfg), scale)
        score(name, model, truth, time.perf_counter() - t0)

    # dense baseline: the reduced-rank fit of `curereg fit --method rrr`,
    # split into layers
    t0 = time.perf_counter()
    B = fit_rrr(Xn, truth.Y, RANK)
    model = unscale(p_orthogonal_svd(Xn, B, RANK), scale)
    score("rrr", model, truth, time.perf_counter() - t0)


if __name__ == "__main__":
    main()
