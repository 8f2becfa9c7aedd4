"""Parametric bootstrap of parameter estimates and log10 LR.

Each replicate simulates a fresh set of relative peak sizes from the
fitted model (genotype pairs drawn from their posterior at the baseline
MLE, then Dirichlet sizes via normalized gamma draws), refits, and
recomputes the shared-MLE likelihood ratio. Replicates use independent
counter-based substreams so results are reproducible regardless of
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import FitResult, fit_joint
from .likelihood import MixtureLikelihood, log10_lr
from .streams import RNG_ALGORITHM, substream
from .types import (
    FrequencyTable,
    GenotypeConfig,
    Hypothesis,
    MarkerData,
    MixtureDataset,
    ModelParams,
    NumericError,
    allele_sort_key,
)

_SIZE_FLOOR = 1e-12


@dataclass(frozen=True)
class BootstrapReport:
    """Replicate estimates, percentile interval and reproducibility metadata."""

    sigma_hat: np.ndarray
    theta_hat: np.ndarray
    log10_lr: np.ndarray
    ci99_log10_lr: tuple[float, float]
    n: int
    n_failed: int
    seed: int
    rng: str
    baseline: FitResult
    baseline_log10_lr: float

    def to_dict(self) -> dict:
        qs = [1, 5, 10, 25, 50, 75, 90, 95, 99]
        histograms = {
            name: {
                "quantiles": dict(zip(qs, np.percentile(vals, qs).tolist())),
                "mean": float(vals.mean()),
                "sd": float(vals.std(ddof=1)) if vals.size > 1 else None,
            }
            for name, vals in (
                ("sigma_hat", self.sigma_hat),
                ("theta_hat", self.theta_hat),
                ("log10_lr", self.log10_lr),
            )
            if vals.size
        }
        return {
            "n": self.n,
            "n_failed": self.n_failed,
            "seed": self.seed,
            "rng": self.rng,
            "baseline_log10_lr": self.baseline_log10_lr,
            "baseline": self.baseline.to_dict(),
            "ci99_log10_lr": list(self.ci99_log10_lr),
            "histograms": histograms,
        }


def simulate_dataset(
    template: MixtureDataset,
    h: Hypothesis,
    params: ModelParams,
    freqs: FrequencyTable | None = None,
    rng: np.random.Generator | None = None,
    genotypes: GenotypeConfig | None = None,
) -> MixtureDataset:
    """Draw one synthetic dataset from the fitted model.

    Per marker, a genotype pair is drawn from its posterior given the
    template's observed sizes (fixed contributors stay fixed), unless a
    full configuration is supplied; relative sizes are then Dirichlet
    draws with concentration beta * mu over the pair's support.
    """
    if rng is None:
        rng = substream(0)
    if genotypes is None:
        ev = MixtureLikelihood(template, h, freqs)
        ev.check_feasible()
        probs = np.exp(ev.pair_log_probs(params.theta, params.sigma))
    markers = []
    for i, md in enumerate(template.markers):
        if genotypes is None:
            b = ev.blocks[i]
            j = rng.choice(b.stop - b.start, p=probs[b])
            support = ev.alleles[i]
            n1, n2 = ev.row_doses(i, j)
        else:
            g1, g2 = genotypes.pair(md.marker)
            support = tuple(sorted(g1.support() | g2.support(), key=allele_sort_key))
            n1 = np.array([g1.count(a) for a in support], dtype=float)
            n2 = np.array([g2.count(a) for a in support], dtype=float)
        mu = 0.5 * (params.theta * n1 + (1.0 - params.theta) * n2)
        w = np.maximum(rng.gamma(shape=params.beta * mu), _SIZE_FLOOR)
        markers.append(MarkerData(md.marker, support, w / w.sum()))
    return MixtureDataset(tuple(markers))


def bootstrap_lr(
    ds: MixtureDataset,
    hp: Hypothesis,
    hd: Hypothesis,
    freqs: FrequencyTable | None,
    n: int,
    seed: int = 0,
    genotype_mode: str = "posterior",
) -> BootstrapReport:
    """Parametric bootstrap of (sigma, theta, log10 LR) under hp.

    genotype_mode 'posterior' redraws the genotype configuration from its
    posterior at the baseline MLE for every replicate; 'fixed' conditions
    all replicates on the maximum-posterior configuration.
    """
    if genotype_mode not in ("posterior", "fixed"):
        raise ValueError(f"unknown genotype_mode {genotype_mode!r}")
    if n < 1:
        raise ValueError(f"replicate count must be positive, got {n}")
    baseline = fit_joint(ds, hp, freqs)
    if not baseline.converged:
        raise NumericError("baseline fit did not converge")
    base_params = baseline.params
    baseline_lr = log10_lr(ds, hp, hd, base_params, base_params, freqs)

    fixed_cfg = None
    if genotype_mode == "fixed":
        ev = MixtureLikelihood(ds, hp, freqs)
        logp = ev.pair_log_probs(base_params.theta, base_params.sigma)
        fixed_cfg = ev.config_from_indices([int(np.argmax(logp[b])) for b in ev.blocks])

    sig, the, lrs = [], [], []
    n_failed = 0
    for i in range(n):
        rng = substream(seed, i)
        try:
            sim = simulate_dataset(ds, hp, base_params, freqs, rng, genotypes=fixed_cfg)
            refit = fit_joint(sim, hp, freqs)
            if not refit.converged:
                raise NumericError("replicate fit did not converge")
            p = refit.params
            lrs.append(log10_lr(sim, hp, hd, p, p, freqs))
            sig.append(refit.sigma)
            the.append(refit.theta)
        except (NumericError, ValueError):
            n_failed += 1
    if n_failed > 0.1 * n:
        raise NumericError(f"bootstrap aborted: {n_failed}/{n} replicate refits failed")

    lrs_arr = np.asarray(lrs)
    ci = tuple(np.percentile(lrs_arr, [0.5, 99.5]))  # type-7 empirical quantiles
    return BootstrapReport(
        sigma_hat=np.asarray(sig),
        theta_hat=np.asarray(the),
        log10_lr=lrs_arr,
        ci99_log10_lr=(float(ci[0]), float(ci[1])),
        n=n,
        n_failed=n_failed,
        seed=seed,
        rng=RNG_ALGORITHM,
        baseline=baseline,
        baseline_log10_lr=baseline_lr,
    )
