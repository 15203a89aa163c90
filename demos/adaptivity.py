"""Adaptive set widths with value-based scores on bimodal data.

On data drawn from Beta(.04, .04) plus noise, most items crowd the ends of
the value range and the middle is sparse.  Value-based (VA) sets adapt: a
fixed value-threshold covers few ranks where outputs are sparse, so items
predicted mid-ranking get narrow sets while items in the crowded extremes get
wide ones.  Rank-based (RA) sets have one width for everyone (shorter only
where the [1, n+m] boundary clips them).
"""

import numpy as np

from rankcp import (
    build_envelope,
    calibrate,
    predict_sets,
    proxy_scores,
    select_k,
    synthesize_problem,
)
from rankcp.streams import child_seed

N = M = 500
ALPHA, DELTA = 0.2, 0.02
SEED = 88


def quintile_profile(sets, predicted, total):
    widths = sets.size.astype(float)
    quintile = np.minimum(4, (5 * (predicted - 1)) // total)
    return [widths[quintile == q].mean() for q in range(5)]


def main():
    env = build_envelope("quantile", N, M, DELTA, 20_000,
                         child_seed(SEED, "envelope"))
    k = select_k(ALPHA, DELTA, N)
    print(f"beta-model data, n=m={N}, alpha={ALPHA}, delta={DELTA}, k={k}\n")
    print(f"{'mode':>4}   mean set width by predicted-rank quintile (low -> high)")
    for mode in ("VA", "RA"):
        profiles = []
        for rep in range(20):
            problem = synthesize_problem(
                "beta_adaptive", N, M, noise_sd=0.07, mode=mode,
                seed=child_seed(SEED, "rep", rep),
            )
            thr = calibrate(proxy_scores(problem, env), k, alpha=ALPHA)
            sets = predict_sets(problem, thr)
            predicted = problem.predicted_ranks[N:]  # RA outputs, or VA output ranks
            profiles.append(quintile_profile(sets, predicted, N + M))
        mean_profile = np.mean(profiles, axis=0)
        cells = "  ".join(f"{w:7.1f}" for w in mean_profile)
        print(f"{mode:>4}   {cells}")
    print("\nVA sets narrow in the middle quintile; RA widths stay flat until "
          "boundary clipping shortens the extreme quintiles.")


if __name__ == "__main__":
    main()
