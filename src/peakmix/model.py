"""Gamma/Dirichlet peak-size model primitives.

Peak sizes at one marker are modelled as independent gamma variables with
shapes beta * mu_a, where mu_a is the expected relative size of allele a
given the two contributor genotypes and the mixture proportion theta.
Normalizing by the marker total makes the relative sizes Dirichlet
distributed with concentration beta * mu; beta relates to the generic
peak imbalance sigma through sigma = 1/sqrt(beta + 1).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

import numpy as np
from scipy.special import betaincinv, gammaln

from .types import (
    FrequencyTable,
    Genotype,
    MeanFractions,
    Profile,
    allele_sort_key,
)

DEFAULT_DB_SIZE = 302


def mean_fractions(g1: Genotype, g2: Genotype, theta: float) -> MeanFractions:
    """Expected relative peak sizes for a genotype pair at mixture proportion theta.

    mu_a = (theta * n1_a + (1 - theta) * n2_a) / 2 with n_i_a the number of
    copies of allele a carried by contributor i; the support is the union
    of both genotypes.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    support = sorted(g1.support() | g2.support(), key=allele_sort_key)
    mu = {
        a: 0.5 * (theta * g1.count(a) + (1.0 - theta) * g2.count(a))
        for a in support
    }
    return MeanFractions(mu)


def beta_from_sigma(sigma: float) -> float:
    """Gamma-shape scale beta = 1/sigma^2 - 1."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    return 1.0 / (sigma * sigma) - 1.0


def sigma_from_beta(beta: float) -> float:
    """Inverse of beta_from_sigma: sigma = 1/sqrt(beta + 1)."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return 1.0 / math.sqrt(beta + 1.0)


def log_dirichlet_density(r: Sequence[float], alpha: Sequence[float]) -> float:
    """Log Dirichlet density of r under concentration alpha, in the log domain.

    Returns -inf when some r_a <= 0 meets alpha_a >= 1 (density vanishes);
    a one-component r is the degenerate point mass with log density 0.
    """
    r = np.asarray(r, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if r.ndim != 1 or r.shape != alpha.shape or r.size < 1:
        raise ValueError("r and alpha must be 1-d sequences of equal length")
    if np.any(alpha <= 0) or not np.all(np.isfinite(alpha)):
        raise ValueError("concentration parameters must be positive")
    nonpos = r <= 0
    if np.any(nonpos):
        if np.any(nonpos & (alpha >= 1.0)):
            return -math.inf
        return math.inf
    if abs(r.sum() - 1.0) > 1e-6:
        raise ValueError(f"r must sum to 1, got {r.sum()!r}")
    return float(
        gammaln(alpha.sum()) - gammaln(alpha).sum() + ((alpha - 1.0) * np.log(r)).sum()
    )


def all_genotypes(labels: Iterable[str]) -> list[Genotype]:
    """Every genotype over the given allele labels, in canonical order."""
    labs = sorted({str(a) for a in labels}, key=allele_sort_key)
    return [Genotype(a, b) for a, b in combinations_with_replacement(labs, 2)]


def enumerate_genotype_pairs(observed: Iterable[str]) -> list[tuple[Genotype, Genotype]]:
    """Ordered genotype pairs whose combined support equals the observed alleles.

    With no drop-out or drop-in, a pair explains the marker only when every
    observed allele is carried by someone and no carried allele is
    unobserved. More than four observed alleles cannot be explained by two
    contributors, giving an empty list.
    """
    labs = sorted({str(a) for a in observed}, key=allele_sort_key)
    obs = frozenset(labs)
    if not 1 <= len(labs) <= 4:
        return []
    genotypes = [(g, g.support()) for g in all_genotypes(labs)]
    return [(g1, g2) for g1, s1 in genotypes for g2, s2 in genotypes if s1 | s2 == obs]


def hw_genotype_log_prior(g: Genotype, marker: str, freqs: FrequencyTable) -> float:
    """Hardy-Weinberg log probability of a genotype: q_a^2 or 2 q_a q_b."""
    a, b = g.alleles
    qa = freqs.freq(marker, a)
    if a == b:
        return 2.0 * math.log(qa)
    qb = freqs.freq(marker, b)
    return math.log(2.0 * qa * qb)


def augment_frequencies(
    freqs: FrequencyTable,
    profiles: Sequence[Profile],
    weight: float = 1.0,
    db_size: int = DEFAULT_DB_SIZE,
) -> FrequencyTable:
    """Add profile alleles to the database as pseudo-counts and renormalize.

    Existing frequencies are interpreted as counts against 2 * db_size
    alleles per marker; each allele occurrence in each profile adds
    `weight` counts. Alleles absent from the table (but carried by a
    profile) gain positive frequency.
    """
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    if db_size <= 0:
        raise ValueError(f"db_size must be positive, got {db_size}")
    counts: dict[str, dict[str, float]] = {
        m: {a: q * 2.0 * db_size for a, q in fm.items()}
        for m, fm in freqs.freqs.items()
    }
    for profile in profiles:
        for marker, g in profile.genotypes.items():
            cm = counts.setdefault(marker, {})
            for label in g.alleles:
                cm[label] = cm.get(label, 0.0) + weight
    return FrequencyTable(
        {m: {a: c / sum(cm.values()) for a, c in cm.items()} for m, cm in counts.items()}
    )


def hb_prediction_interval(sigma: float, level: float = 0.95) -> tuple[float, float]:
    """Central prediction interval for the heterozygote balance.

    The balance (ratio of the two peaks of a balanced heterozygote) is
    F(beta, beta)-distributed; quantiles come from the regularized
    incomplete beta inverse. The endpoints are exact reciprocals.
    """
    beta = beta_from_sigma(sigma)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    y = betaincinv(beta / 2.0, beta / 2.0, (1.0 - level) / 2.0)
    lo = y / (1.0 - y)
    return (float(lo), float(1.0 / lo))
