"""End-to-end walkthrough: from ranker outputs to rank prediction sets.

Synthesizes a ranking problem (200 calibration items with known relative
ranks, 100 new items), wraps a noisy toy ranker with the conformal pipeline,
and prints prediction sets for a few test items together with the derived
targets: rank among the test items only, and top-k membership candidates.
"""

import numpy as np

from rankcp import (
    calibrate,
    fit_quantile_envelope,
    predict_sets,
    proxy_scores,
    select_k,
    simulate_sorted_ranks,
    synthesize_problem,
    test_only_set,
    topk_candidates,
)

N, M = 200, 100
ALPHA, DELTA = 0.1, 0.02
SEED = 11


def main():
    problem = synthesize_problem(
        "sigmoid", N, M, noise_sd=0.07, mode="VA", seed=SEED
    )
    print(f"problem: n={N} calibration items, m={M} test items, VA outputs")

    sims = simulate_sorted_ranks(N, M, 50_000, seed=SEED + 1)
    env = fit_quantile_envelope(sims, DELTA)
    print(f"quantile envelope at delta={DELTA}: gamma_hat={env.param:.5f}, "
          f"slack={env.mc_meta.slack:.4f}")

    k = select_k(ALPHA, DELTA, N)
    thr = calibrate(proxy_scores(problem, env), k, alpha=ALPHA)
    print(f"calibration index k={k} of {N}, threshold S_(k)={thr.value:.4f}")

    sets = predict_sets(problem, thr)  # RankSets: lo/hi columns, one row per item
    test_only = test_only_set(sets, env)
    true_test = problem.true_ranks[N:]
    hits = sets.contains(true_test)

    print("\nfirst eight test items:")
    print(f"{'id':>6} {'true rank':>9} {'set':>12} {'test-only set':>14} {'hit':>4}")
    for j in range(8):
        hit = "yes" if hits[j] else "MISS"
        print(f"{sets.items[j]:>6} {true_test[j]:>9} [{sets.lo[j]:>4}, {sets.hi[j]:>4}] "
              f"   [{test_only.lo[j]:>3}, {test_only.hi[j]:>3}] {hit:>6}")

    print(f"\nempirical coverage on this draw: {hits.mean():.3f} "
          f"(target >= {1 - ALPHA}), mean set size {sets.size.mean():.1f} of {N + M}")

    k_top = 15
    candidates = topk_candidates(sets, k_top)
    truly_top = true_test <= k_top
    print(f"\ntop-{k_top} candidates: {np.count_nonzero(candidates)} items, "
          f"containing {np.count_nonzero(candidates & truly_top)} of the "
          f"{np.count_nonzero(truly_top)} test items truly in the top")


if __name__ == "__main__":
    main()
