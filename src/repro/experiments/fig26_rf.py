"""Figure 26 (numbers): Gaussian Process vs Random Forest surrogates
(§6.5) for BO and GBO on K-means and SVM.

Each surrogate × guidance combination is trained until it reaches the
top-5-percentile target; the paper's conclusion — neither surrogate
strictly dominates, but the GBO guidance helps under both — is what the
numbers should show.
"""
from __future__ import annotations

import numpy as np

from ..tuners.rf import RandomForest
from .fig16_overheads import train_to_top5
from .tables import Table


def iterations(name: str, policy: str, surrogate: str, seed: int) -> int:
    """Iterations of Figure 16's to-target session with the GP or RF surrogate."""
    fit = None
    if surrogate == "RF":
        fit = lambda x, y: RandomForest.fit(x, y, seed=seed)  # noqa: E731
    return train_to_top5(name, policy, seed=seed, surrogate_fit=fit)[1]


def run(seed: int = 0, *, n_repeats: int = 3) -> Table:
    t = Table(
        title="Figure 26 (numbers) — GP vs RF surrogates, plain vs guided",
        columns=["application", "surrogate", "BO iters (mean)", "GBO iters (mean)"],
        notes=[f"Mean over {n_repeats} seeds; iterations include the 4 LHS bootstraps."],
    )
    for name in ("K-means", "SVM"):
        for surrogate in ("GP", "RF"):
            bo = [iterations(name, "BO", surrogate, seed + i) for i in range(n_repeats)]
            gbo = [iterations(name, "GBO", surrogate, seed + i) for i in range(n_repeats)]
            t.add(
                application=name,
                surrogate=surrogate,
                **{
                    "BO iters (mean)": f"{float(np.mean(bo)):.0f}",
                    "GBO iters (mean)": f"{float(np.mean(gbo)):.0f}",
                },
            )
    return t
