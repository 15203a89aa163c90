"""False-coverage-proportion control across calibration sizes.

Repeats the pipeline on synthetic data with the FCP-calibrated threshold and
shows the regime the guarantees predict: for small n the proxy scores make
the method conservative (FCP near zero), and the conservatism fades as n
grows, with the exceedance frequency P(FCP > alpha) staying below
beta + delta throughout.
"""

from rankcp import ExperimentConfig, run_experiment

ALPHA, BETA, DELTA = 0.1, 0.25, 0.02


def main():
    print(f"alpha={ALPHA}, beta={BETA}, delta={DELTA}, m=500, "
          "quantile envelope, FCP-calibrated threshold\n")
    print(f"{'n':>6} {'k':>6} {'mean FCP':>9} {'P(FCP>a)':>9} "
          f"{'rel. length':>12} {'oracle ratio':>13}")
    for n in (100, 500, 2500):
        cfg = ExperimentConfig(
            n=n, m=500, reps=200, alpha=ALPHA, beta=BETA, delta=DELTA,
            mode="RA", envelope_kind="quantile", K_env=20_000,
            data_model="sigmoid", noise_sd=0.07, master_seed=21,
            fcp_mode="fcp_controlled",
        )
        agg = run_experiment(cfg).aggregates()
        print(f"{n:>6} {agg['k']:>6} {agg['mean_fcp']:>9.4f} "
              f"{agg['fcp_exceedance']:>9.3f} "
              f"{agg['mean_relative_length']:>12.4f} "
              f"{agg['mean_oracle_ratio']:>13.3f}")
    print(f"\nexceedance budget: beta + delta = {BETA + DELTA}")


if __name__ == "__main__":
    main()
