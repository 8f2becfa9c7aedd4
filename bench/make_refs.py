#!/usr/bin/env python3
"""Compute the stored references the output checks compare against.

    python3 bench/make_refs.py          # writes bench/refs.json

References:
  bootstrap   baseline MLE and shared-MLE log10 LR of the Perlin fixture
              (deterministic), and mean/sd of the replicate estimates from
              a long reference bootstrap (Monte Carlo targets).
  bayes       the Bayes LR's exact target by quadrature: for each
              hypothesis, E_post[Lbar] = int Lbar^2 pi / int Lbar pi over
              log beta, with Lbar = exp(MixtureLikelihood.profile_loglik)
              and pi = BetaPrior.logpdf.  It shares no code with the Gibbs
              sampler or its marginal-likelihood averaging.
  deconvolve  probabilities of the top discovered configurations of the
              fixed reference case (Perlin, both contributors unknown).

Rerun only when a change legitimately moves a deterministic value, and
say so in the change description.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run

run.use_checkout()

import numpy as np  # noqa: E402  (after the thread pins)
from scipy.special import logsumexp  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from peakmix.bootstrap import bootstrap_lr  # noqa: E402
from peakmix.deconvolve import certified_topk  # noqa: E402
from peakmix.estimate import fit_joint  # noqa: E402
from peakmix.gibbs import BETA_MAX, BetaPrior  # noqa: E402
from peakmix.likelihood import MixtureLikelihood, ThetaGrid, log10_lr  # noqa: E402
from peakmix.model import sigma_from_beta  # noqa: E402
from peakmix.types import BOTH_UNKNOWN  # noqa: E402

REF_BOOT_N = 100
REF_BOOT_SEED = 424242
QUAD_POINTS = 3000
QUAD_LOG_BETA = (math.log(0.5), math.log(BETA_MAX))
REF_TABLE_SIZE = 200


def log_post_mean_lbar(ev, grid, prior, n):
    """log E_post[Lbar] by the trapezoid rule in u = log beta."""
    us = np.linspace(*QUAD_LOG_BETA, n)
    log_lbar = np.array([ev.profile_loglik(grid, sigma_from_beta(math.exp(u))) for u in us])
    log_w = np.array([prior.logpdf(math.exp(u)) for u in us]) + us  # d beta = beta du
    log_w[[0, -1]] += math.log(0.5)
    return float(logsumexp(2 * log_lbar + log_w) - logsumexp(log_lbar + log_w))


def bayes_oracle(inputs, n):
    grid, prior = ThetaGrid.uniform(workloads.THETA_STEP), BetaPrior()
    ln10 = math.log(10.0)
    logs = [
        log_post_mean_lbar(MixtureLikelihood(inputs.ds, h, inputs.freqs), grid, prior, n)
        for h in (inputs.hp, inputs.hd)
    ]
    return (logs[0] - logs[1]) / ln10


def main() -> int:
    inputs = run.perlin_inputs()
    refs = {}
    t0 = time.perf_counter()

    fit = fit_joint(inputs.ds, inputs.hp, inputs.freqs)
    boot = bootstrap_lr(
        inputs.ds, inputs.hp, inputs.hd, inputs.freqs, n=REF_BOOT_N, seed=REF_BOOT_SEED
    )
    reps = {"n": int(boot.sigma_hat.size), "seed": REF_BOOT_SEED}
    for key, vals in (
        ("log10_lr", boot.log10_lr),
        ("sigma_hat", boot.sigma_hat),
        ("theta_hat", boot.theta_hat),
    ):
        reps[key] = {"mean": float(vals.mean()), "sd": float(vals.std(ddof=1))}
    refs["bootstrap"] = {
        "baseline": {"sigma": fit.sigma, "theta": fit.theta, "loglik": fit.loglik},
        "baseline_log10_lr": log10_lr(
            inputs.ds, inputs.hp, inputs.hd, fit.params, fit.params, inputs.freqs
        ),
        "replicates": reps,
    }
    print(f"bootstrap refs {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    oracle = bayes_oracle(inputs, QUAD_POINTS)
    coarse = bayes_oracle(inputs, QUAD_POINTS // 2)
    refs["bayes"] = {
        "oracle_log10_lr": oracle,
        "quadrature": {
            "points": QUAD_POINTS,
            "log_beta_range": list(QUAD_LOG_BETA),
            "half_grid_difference": abs(oracle - coarse),
        },
    }
    print(f"bayes oracle {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    ranked = certified_topk(
        inputs.ds, BOTH_UNKNOWN, inputs.freqs, n_samples=workloads.N_SAMPLES, seed=workloads.REF_CASE_SEED
    )
    table = {}
    for entry in ranked.entries[:REF_TABLE_SIZE]:
        row = {}
        for m, (g1, g2) in zip(entry.config.markers, entry.config.pairs):
            row[f"c1_{m}"], row[f"c2_{m}"] = str(g1), str(g2)
        table[checks.config_key(row)] = entry.probability
    refs["deconvolve"] = {
        "seed": workloads.REF_CASE_SEED,
        "n_samples": workloads.N_SAMPLES,
        "certified_k": ranked.certified_k,
        "entries": table,
    }
    print(f"deconvolve refs {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    with open(run.BENCH / "refs.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
