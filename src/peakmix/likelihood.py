"""Exact mixture likelihoods by per-marker genotype marginalization.

Given a hypothesis, each marker contributes a sum over admissible genotype
pairs of Dirichlet densities weighted by Hardy-Weinberg priors for the
unfixed contributors. Markers are independent given (theta, sigma), so the
joint log likelihood is the sum of marker terms; the sigma-profile
likelihood additionally averages theta over a discrete grid.

Evaluation runs on sufficient statistics. Every observed allele carries a
dose (n1, n2) in {0,1,2}^2 without (0,0), so at a given (theta, beta) the
concentrations beta * mu take at most eight distinct values and sum to
beta. Each (marker, pair) row is stored as a histogram H over the eight
dose codes, L1 = sum n1 log r, L2 = sum n2 log r, and its log prior minus
sum log r. The log density plus prior of every row at every theta is then

    gammaln(beta) - H . gammaln(beta * mu8(theta))
        + beta/2 * (theta L1 + (1 - theta) L2) + const,

one (J, 8) gammaln table and one matmul for all rows of all markers. The
sum over pairs is a segmented log-sum-exp over each marker's contiguous
block of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .model import (
    all_genotypes,
    beta_from_sigma,
    enumerate_genotype_pairs,
    hw_genotype_log_prior,
)
from .types import (
    DataError,
    FrequencyTable,
    Genotype,
    GenotypeConfig,
    Hypothesis,
    MarkerData,
    MixtureDataset,
    ModelParams,
    NumericError,
    allele_sort_key,
)

# dose code k <-> (n1, n2) = divmod(k + 1, 3); (0, 0) never meets an observed allele
_N1, _N2 = np.array([divmod(k + 1, 3) for k in range(8)], dtype=float).T


def _dose_means(theta):
    """Mean fraction of each dose code; shape (8,) for a scalar theta, (J, 8) for J thetas."""
    th = np.asarray(theta, dtype=float)[..., None]
    return 0.5 * (th * _N1 + (1.0 - th) * _N2)


def lse(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along one axis, stable, without scipy's per-call dispatch."""
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m, axis=axis)


@dataclass(frozen=True)
class ThetaGrid:
    """Discretized mixture-proportion prior: support points and masses."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape or pts.size == 0:
            raise ValueError("points and weights must be matching 1-d arrays")
        if np.any(pts <= 0) or np.any(pts >= 1):
            raise ValueError("grid points must lie in (0, 1)")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(wts <= 0) or abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        pts = pts.copy()
        wts = wts.copy()
        pts.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def uniform(cls, step: float = 0.01) -> "ThetaGrid":
        """Uniform grid {step, 2*step, ..., 1 - step}."""
        if not step > 0:
            raise ValueError(f"theta grid step must be positive, got {step}")
        n = round(1.0 / step) - 1
        if n < 1:
            raise ValueError(f"step {step} leaves no interior points")
        pts = np.arange(1, n + 1, dtype=float) * step
        wts = np.full(n, 1.0 / n)
        return cls(pts, wts / wts.sum())

    @classmethod
    def single(cls, theta: float) -> "ThetaGrid":
        return cls(np.array([theta]), np.array([1.0]))

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class MarkerGenotypeDist:
    """Normalized posterior over genotype pairs at one marker."""

    marker: str
    entries: tuple[tuple[tuple[Genotype, Genotype], float], ...]
    normalized: bool = True

    def probabilities(self) -> list[tuple[tuple[Genotype, Genotype], float]]:
        return [(pair, math.exp(lw)) for pair, lw in self.entries]

    def top(self) -> tuple[Genotype, Genotype]:
        return max(self.entries, key=lambda e: e[1])[0]


def _admissible_pairs(md: MarkerData, h: Hypothesis, freqs: FrequencyTable | None):
    """Genotype pairs that explain the marker exactly, with their log priors."""
    obs = md.allele_set
    g1f = h.known1.genotype(md.marker) if h.known1 is not None else None
    g2f = h.known2.genotype(md.marker) if h.known2 is not None else None
    if g1f is not None and g2f is not None:
        ok = g1f.support() | g2f.support() == obs
        return ([(g1f, g2f)], [0.0]) if ok else ([], [])
    if g1f is not None or g2f is not None:
        fixed = g1f if g1f is not None else g2f
        fixed_support = fixed.support()
        if not fixed_support <= obs:
            return [], []
        pairs, log_prior = [], []
        for g in all_genotypes(md.alleles):
            if fixed_support | g.support() == obs:
                pairs.append((fixed, g) if g1f is not None else (g, fixed))
                log_prior.append(hw_genotype_log_prior(g, md.marker, freqs))
        return pairs, log_prior
    pairs = enumerate_genotype_pairs(md.alleles)
    return pairs, [
        hw_genotype_log_prior(g1, md.marker, freqs) + hw_genotype_log_prior(g2, md.marker, freqs)
        for g1, g2 in pairs
    ]


class MixtureLikelihood:
    """Reusable evaluator: enumerates genotype pairs once, evaluates many params.

    Rows are the (marker, pair) combinations, marker by marker in canonical
    pair order; `blocks[i]` slices marker i's rows, and per-marker pair
    indices (as in `config_indices`) are offsets within that block. Each
    marker's alleles are held in canonical label order (`alleles[i]`).
    """

    def __init__(self, ds: MixtureDataset, h: Hypothesis, freqs: FrequencyTable | None = None):
        if ds.markers and h.n_unknown > 0 and freqs is None:
            raise DataError("frequency table required when a contributor is unknown")
        self.ds = ds
        self.h = h
        self.markers = ds.marker_ids()
        self.alleles, self.pairs, self.pair_index = [], [], []
        rel, log_prior, n1, n2, entry_allele = [], [], [], [], []
        for md in ds.markers:
            labs = tuple(sorted(md.alleles, key=allele_sort_key))
            size_of = dict(zip(md.alleles, md.rel_sizes.tolist()))
            pairs, prior = _admissible_pairs(md, h, freqs)
            first = len(rel)
            rel += [size_of[a] for a in labs]
            entry_allele += list(range(first, len(rel))) * len(pairs)
            for g1, g2 in pairs:
                n1 += [g1.count(a) for a in labs]
                n2 += [g2.count(a) for a in labs]
            log_prior += prior
            self.alleles.append(labs)
            self.pairs.append(pairs)
            self.pair_index.append({p: j for j, p in enumerate(pairs)})
        sizes = np.array([len(p) for p in self.pairs], dtype=int)
        widths = np.repeat(np.array([len(a) for a in self.alleles], dtype=int), sizes)
        n_rows = int(sizes.sum())
        # doses of each (row, allele) entry; row r's entries start at entry_starts[r]
        self.n1 = n1 = np.array(n1, dtype=float)
        self.n2 = n2 = np.array(n2, dtype=float)
        self.entry_starts = np.cumsum(widths) - widths
        row = np.repeat(np.arange(n_rows), widths)
        log_r = np.log(np.array(rel, dtype=float))
        self.log_r_total = float(log_r.sum())
        log_r = log_r[np.array(entry_allele, dtype=int)]
        codes = (3.0 * n1 + n2 - 1.0).astype(int)
        hist = np.bincount(8 * row + codes, minlength=8 * n_rows)
        self.hist = hist.reshape(n_rows, 8).astype(float)
        self.l1 = np.bincount(row, weights=n1 * log_r, minlength=n_rows)
        self.l2 = np.bincount(row, weights=n2 * log_r, minlength=n_rows)
        sum_log_r = np.bincount(row, weights=log_r, minlength=n_rows)
        self._const = np.array(log_prior, dtype=float) - sum_log_r
        self.starts = np.cumsum(sizes) - sizes
        self.blocks = [slice(s, s + n) for s, n in zip(self.starts, sizes)]
        self.row_marker = np.repeat(np.arange(sizes.size), sizes)
        # segmented reductions run over the non-empty blocks only
        self._nonempty = sizes > 0
        self._seg_starts = self.starts[self._nonempty]
        self._row_seg = np.repeat(np.arange(self._seg_starts.size), sizes[self._nonempty])

    @property
    def feasible(self) -> bool:
        return all(self.pairs)

    def check_feasible(self):
        """Raise NumericError naming the first marker no admissible pair explains."""
        for marker, pairs in zip(self.markers, self.pairs):
            if not pairs:
                raise NumericError(
                    f"marker {marker!r}: hypothesis cannot explain the observed alleles"
                )

    def row_doses(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Doses (n1, n2) over `alleles[i]` of marker i's pair j."""
        e = self.entry_starts[self.starts[i] + j]
        k = slice(e, e + len(self.alleles[i]))
        return self.n1[k], self.n2[k]

    # -- the one Dirichlet mixture term --------------------------------------

    def pair_terms(self, thetas, beta: float) -> np.ndarray:
        """Log density plus log prior of every row at every theta; shape (J, R)."""
        th = np.asarray(thetas, dtype=float)[:, None]
        lin = 0.5 * (th * self.l1 + (1.0 - th) * self.l2)
        dirichlet_norm = gammaln(beta) - gammaln(beta * _dose_means(thetas)) @ self.hist.T
        return dirichlet_norm + beta * lin + self._const

    def marker_lse(self, terms: np.ndarray) -> np.ndarray:
        """Per-marker log-sum-exp of row terms; shape (J, M), -inf where no pair exists."""
        out = np.full((terms.shape[0], len(self.pairs)), -np.inf)
        if self._seg_starts.size:
            m = np.maximum.reduceat(terms, self._seg_starts, axis=1)
            s = np.add.reduceat(np.exp(terms - m[:, self._row_seg]), self._seg_starts, axis=1)
            out[:, self._nonempty] = m + np.log(s)
        return out

    def config_beta_terms(self, idx: np.ndarray, theta: float):
        """Summed Dirichlet log density of one configuration at theta, as a function of beta.

        Over the chosen rows the terms collapse to
        M gammaln(beta) - c . gammaln(beta mu8) + beta lin + k, with c the
        summed dose histogram; returns that function and its derivative.
        """
        rows = self.starts + idx
        mu8 = _dose_means(theta)
        counts = self.hist[rows].sum(axis=0)
        weighted = counts * mu8
        lin = 0.5 * (theta * self.l1[rows].sum() + (1.0 - theta) * self.l2[rows].sum())

        def f(beta: float) -> float:
            norm = rows.size * gammaln(beta) - counts @ gammaln(beta * mu8)
            return norm + beta * lin - self.log_r_total

        def df(beta: float) -> float:
            return rows.size * digamma(beta) - weighted @ digamma(beta * mu8) + lin

        return f, df

    def grid_loglik(self, thetas, beta: float) -> np.ndarray:
        """Joint log likelihood at each theta for one beta; shape (J,)."""
        return self.marker_lse(self.pair_terms(thetas, beta)).sum(axis=1)

    # -- sigma-parameterized views --------------------------------------------

    def marker_logliks(self, grid_points: np.ndarray, sigma: float) -> np.ndarray:
        """Per-marker log likelihoods at each theta; shape (M, J)."""
        return self.marker_lse(self.pair_terms(grid_points, beta_from_sigma(sigma))).T

    def loglik(self, theta: float, sigma: float) -> float:
        return float(self.grid_loglik(np.array([theta]), beta_from_sigma(sigma))[0])

    def loglik_grid(self, grid: ThetaGrid, sigma: float) -> np.ndarray:
        """Joint log likelihood at every grid point; shape (J,)."""
        return self.grid_loglik(grid.points, beta_from_sigma(sigma))

    def profile_loglik(self, grid: ThetaGrid, sigma: float) -> float:
        """Log likelihood of sigma with theta averaged over the grid."""
        return float(lse(grid.log_weights + self.loglik_grid(grid, sigma)))

    def marker_pair_terms(self, i: int, theta: float, sigma: float) -> np.ndarray:
        """Unnormalized per-pair log weights for marker i; shape (P,)."""
        return self.pair_terms(np.array([theta]), beta_from_sigma(sigma))[0, self.blocks[i]]

    def pair_log_probs(self, theta: float, sigma: float) -> np.ndarray:
        """Log posterior probability of each row's pair at its marker; shape (R,)."""
        terms = self.pair_terms(np.array([theta]), beta_from_sigma(sigma))
        return (terms - self.marker_lse(terms)[:, self.row_marker])[0]

    # -- configurations --------------------------------------------------------

    def config_indices(self, cfg: GenotypeConfig) -> np.ndarray | None:
        """Pair index per marker for a configuration, or None if unsupported."""
        idx = np.empty(len(self.markers), dtype=int)
        for i, (marker, index) in enumerate(zip(self.markers, self.pair_index)):
            j = index.get(cfg.pair(marker))
            if j is None:
                return None
            idx[i] = j
        return idx

    def config_from_indices(self, idx: np.ndarray) -> GenotypeConfig:
        return GenotypeConfig(self.markers, tuple(p[j] for p, j in zip(self.pairs, idx)))

    def config_log_prob(self, idx: np.ndarray, theta: float, sigma: float) -> float:
        """Log posterior probability of one configuration at fixed (theta, sigma)."""
        return float(self.pair_log_probs(theta, sigma)[self.starts + idx].sum())

    def config_log_prob_profile(self, idx: np.ndarray, grid: ThetaGrid, sigma: float):
        """Log posterior probability of configurations with theta on the grid.

        `idx` holds one configuration's pair indices, shape (M,), or C of
        them, shape (C, M); the result is a scalar or shape (C,).
        """
        terms = self.pair_terms(grid.points, beta_from_sigma(sigma))
        num = grid.log_weights + terms[:, self.starts + np.asarray(idx)].sum(axis=-1).T
        den = grid.log_weights + self.marker_lse(terms).sum(axis=1)
        return lse(num) - lse(den)


def marker_loglik(
    md: MarkerData,
    h: Hypothesis,
    params: ModelParams,
    freqs: FrequencyTable | None = None,
) -> float:
    """Log likelihood of one marker's relative sizes under a hypothesis.

    Sums Dirichlet densities with concentration beta * mu over all genotype
    pairs consistent with the hypothesis and the observed alleles, each
    weighted by the Hardy-Weinberg prior of its unfixed contributors.
    Returns -inf when no pair can explain the marker.
    """
    return MixtureLikelihood(MixtureDataset((md,)), h, freqs).loglik(params.theta, params.sigma)


def loglik_joint(
    ds: MixtureDataset,
    h: Hypothesis,
    params: ModelParams,
    freqs: FrequencyTable | None = None,
) -> float:
    """Joint log likelihood of the dataset: sum of marker log likelihoods."""
    return MixtureLikelihood(ds, h, freqs).loglik(params.theta, params.sigma)


def loglik_sigma_profile(
    ds: MixtureDataset,
    h: Hypothesis,
    sigma: float,
    grid: ThetaGrid,
    freqs: FrequencyTable | None = None,
) -> float:
    """Log likelihood of sigma alone, averaging theta over the grid prior."""
    return MixtureLikelihood(ds, h, freqs).profile_loglik(grid, sigma)


def genotype_posterior(
    md: MarkerData,
    h: Hypothesis,
    params: ModelParams,
    freqs: FrequencyTable | None = None,
) -> MarkerGenotypeDist:
    """Posterior distribution over genotype pairs at one marker."""
    ev = MixtureLikelihood(MixtureDataset((md,)), h, freqs)
    ev.check_feasible()
    lw = ev.pair_log_probs(params.theta, params.sigma)
    return MarkerGenotypeDist(md.marker, tuple(zip(ev.pairs[0], map(float, lw))))


def log10_lr(
    ds: MixtureDataset,
    hp: Hypothesis,
    hd: Hypothesis,
    params_p: ModelParams,
    params_d: ModelParams,
    freqs: FrequencyTable | None = None,
) -> float:
    """Base-10 log likelihood ratio of hp against hd.

    Pass the same params for both hypotheses for shared-MLE evaluation (the
    default reporting convention), or per-hypothesis MLEs.
    """
    lp = loglik_joint(ds, hp, params_p, freqs)
    ld = loglik_joint(ds, hd, params_d, freqs)
    if lp == -math.inf and ld == -math.inf:
        raise NumericError("both hypotheses have zero likelihood")
    return (lp - ld) / math.log(10.0)
