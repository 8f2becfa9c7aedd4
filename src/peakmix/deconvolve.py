"""Mixture deconvolution: sample profile pairs, score exactly, certify top-k.

Sampled configurations account for a total probability mass p, so no
undiscovered configuration can exceed 1 - p; every discovered
configuration above that threshold is therefore certified to be among the
k most probable, without fixing k in advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimate import fit_joint
from .gibbs import BetaPrior, bayes_config_probabilities, run_chain
from .likelihood import MixtureLikelihood, ThetaGrid
from .streams import substream
from .types import (
    FrequencyTable,
    GenotypeConfig,
    Hypothesis,
    MixtureDataset,
    ModelParams,
    Profile,
    allele_sort_key,
)

_CHUNK = 1024


@dataclass(frozen=True)
class RankedPair:
    """One scored configuration; match flags are per marker per contributor."""

    config: GenotypeConfig
    probability: float
    matches: tuple[tuple[bool, bool], ...] | None = None


@dataclass(frozen=True)
class RankedPairList:
    """Discovered configurations sorted by probability, with the mass certificate."""

    entries: tuple[RankedPair, ...]
    total_mass: float
    certified_k: int
    mode: str
    n_samples: int
    seed: int

    def certified(self) -> tuple[RankedPair, ...]:
        return self.entries[: self.certified_k]


def _config_sort_key(cfg: GenotypeConfig):
    return tuple(
        tuple(map(allele_sort_key, g1.alleles)) + tuple(map(allele_sort_key, g2.alleles))
        for g1, g2 in cfg.pairs
    )


def _marker_choice_probs(ev: MixtureLikelihood, theta: float, sigma: float) -> list[np.ndarray]:
    ev.check_feasible()
    p = np.exp(ev.pair_log_probs(theta, sigma))
    return [p[b] for b in ev.blocks]


def sample_profile_pairs(
    ds: MixtureDataset,
    h: Hypothesis,
    freqs: FrequencyTable | None = None,
    *,
    params: ModelParams | None = None,
    chain_configs: Sequence[GenotypeConfig] | None = None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> list[GenotypeConfig]:
    """Distinct profile-pair configurations discovered by sampling.

    With `params`, markers are sampled independently from their genotype
    posteriors at the fixed (theta, sigma); with `chain_configs`, the
    recorded Gibbs configurations are used. Sampling is chunked over
    counter-based substreams, so a longer run extends a shorter one.
    """
    if (params is None) == (chain_configs is None):
        raise ValueError("pass exactly one of params or chain_configs")
    if chain_configs is not None:
        return sorted(dict.fromkeys(chain_configs), key=_config_sort_key)
    if n_samples < 1:
        raise ValueError(f"sample count must be positive, got {n_samples}")

    ev = MixtureLikelihood(ds, h, freqs)
    probs = _marker_choice_probs(ev, params.theta, params.sigma)
    seen: dict[GenotypeConfig, None] = {}
    for start in range(0, n_samples, _CHUNK):
        take = min(_CHUNK, n_samples - start)
        rng = substream(seed, start // _CHUNK)
        draws = np.empty((_CHUNK, len(probs)), dtype=int)
        for m, p in enumerate(probs):
            draws[:, m] = rng.choice(p.size, size=_CHUNK, p=p)
        for row in draws[:take]:
            cfg = ev.config_from_indices(row)
            seen.setdefault(cfg)
    return sorted(seen, key=_config_sort_key)


def exact_pair_probability(
    cfg: GenotypeConfig,
    ds: MixtureDataset,
    h: Hypothesis,
    freqs: FrequencyTable | None = None,
    *,
    params: ModelParams | None = None,
    sigma: float | None = None,
    grid: ThetaGrid | None = None,
) -> float:
    """Exact posterior probability of one configuration.

    With `params`, probabilities factor over markers at fixed (theta,
    sigma). With `sigma` and `grid`, theta is marginalized jointly across
    markers (a single global theta), so the result is a normalized grid
    mixture rather than a product.
    """
    ev = MixtureLikelihood(ds, h, freqs)
    idx = ev.config_indices(cfg)
    if idx is None:
        return 0.0
    if params is not None:
        return math.exp(ev.config_log_prob(idx, params.theta, params.sigma))
    if sigma is None or grid is None:
        raise ValueError("pass params, or sigma together with grid")
    return math.exp(ev.config_log_prob_profile(idx, grid, sigma))


def _score_fixed(ev: MixtureLikelihood, configs, params: ModelParams) -> np.ndarray:
    # per-row normalized log-weights once, then gather per config
    logp = ev.pair_log_probs(params.theta, params.sigma)
    out = np.zeros(len(configs))
    for c, cfg in enumerate(configs):
        idx = ev.config_indices(cfg)
        if idx is not None:
            out[c] = math.exp(logp[ev.starts + idx].sum())
    return out


def _truth_matches(cfg: GenotypeConfig, truth: tuple[Profile, Profile]):
    t1, t2 = truth
    return tuple(
        (g1 == t1.genotype(m), g2 == t2.genotype(m))
        for m, (g1, g2) in zip(cfg.markers, cfg.pairs)
    )


def certified_topk(
    ds: MixtureDataset,
    h: Hypothesis,
    freqs: FrequencyTable | None = None,
    *,
    mode: str = "mle",
    params: ModelParams | None = None,
    grid: ThetaGrid | None = None,
    prior: BetaPrior | None = None,
    sigma_samples: np.ndarray | None = None,
    chain_configs: Sequence[GenotypeConfig] | None = None,
    chain_n: int = 55_000,
    chain_burnin: int = 5_000,
    chain_thin: int = 5,
    n_samples: int = 100_000,
    seed: int = 0,
    truth: tuple[Profile, Profile] | None = None,
) -> RankedPairList:
    """Sample configurations, score each exactly, and certify the top k.

    mode 'mle' fits (theta, sigma) by maximum likelihood under `h` when
    `params` is not given and scores configurations at the fixed estimate;
    mode 'bayes' records Gibbs configurations and scores them averaged
    over the chain's sigma draws. certified_k counts entries whose
    probability exceeds 1 minus the discovered mass (0 means the sampling
    budget was too small to certify anything).
    """
    if mode == "mle":
        if params is None:
            params = fit_joint(ds, h, freqs).params
        configs = sample_profile_pairs(
            ds, h, freqs, params=params, n_samples=n_samples, seed=seed
        )
        ev = MixtureLikelihood(ds, h, freqs)
        probs = _score_fixed(ev, configs, params)
    elif mode == "bayes":
        if grid is None:
            grid = ThetaGrid.uniform()
        if prior is None:
            prior = BetaPrior()
        if sigma_samples is None or chain_configs is None:
            samples, _ = run_chain(
                ds, h, grid, prior, freqs, chain_n, chain_burnin, chain_thin, seed
            )
            sigma_samples = samples.sigma
            chain_configs = samples.configs
        configs = sample_profile_pairs(
            ds, h, freqs, chain_configs=chain_configs, seed=seed
        )
        probs = bayes_config_probabilities(ds, h, sigma_samples, grid, freqs, configs)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    order = sorted(
        range(len(configs)),
        key=lambda c: (-probs[c], _config_sort_key(configs[c])),
    )
    total = float(np.sum(probs))
    threshold = 1.0 - total
    entries = tuple(
        RankedPair(
            configs[c],
            float(probs[c]),
            _truth_matches(configs[c], truth) if truth is not None else None,
        )
        for c in order
    )
    certified = sum(1 for e in entries if e.probability > threshold)
    return RankedPairList(
        entries=entries,
        total_mass=total,
        certified_k=certified,
        mode=mode,
        n_samples=n_samples if mode == "mle" else len(chain_configs),
        seed=seed,
    )
