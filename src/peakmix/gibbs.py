"""Gibbs sampling over (genotype configuration, theta, beta).

One sweep alternates (i) a blocked draw of theta (genotypes marginalized
out on the grid) followed by per-marker genotype pairs given theta, and
(ii) a draw of beta from its full conditional, which is log-concave for a
log-concave prior and is sampled exactly by adaptive rejection sampling.
Posterior summaries, Monte Carlo marginal-likelihood ratios and averaged
configuration probabilities are all derived from the recorded samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln
from scipy.stats import gamma as gamma_dist

from .likelihood import MixtureLikelihood, ThetaGrid, lse
from .model import sigma_from_beta
from .streams import substream
from .types import (
    FrequencyTable,
    GenotypeConfig,
    Hypothesis,
    MixtureDataset,
    NumericError,
)

BETA_MAX = 4.0e4  # sigma >= 0.005
_BETA_LO = 1e-9


class ConcavityError(NumericError):
    """The target density violated the log-concavity assumption."""


@dataclass(frozen=True)
class BetaPrior:
    """Gamma prior (shape-scale form) on beta = 1/sigma^2 - 1."""

    shape: float = 3.6
    scale: float = 49.0

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("prior shape and scale must be positive")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    def logpdf(self, beta: float) -> float:
        if beta <= 0:
            return -math.inf
        return (
            (self.shape - 1.0) * math.log(beta)
            - beta / self.scale
            - gammaln(self.shape)
            - self.shape * math.log(self.scale)
        )

    def dlogpdf(self, beta: float) -> float:
        return (self.shape - 1.0) / beta - 1.0 / self.scale

    def sigma_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Central prior interval for sigma implied by the beta prior."""
        q = (1.0 - level) / 2.0
        b_lo = gamma_dist.ppf(q, self.shape, scale=self.scale)
        b_hi = gamma_dist.ppf(1.0 - q, self.shape, scale=self.scale)
        return (sigma_from_beta(b_hi), sigma_from_beta(b_lo))


@dataclass(frozen=True)
class ChainState:
    """Current genotype configuration, theta grid index and beta."""

    genotypes: GenotypeConfig
    theta_index: int
    beta: float


@dataclass(frozen=True)
class ChainSamples:
    """Recorded draws (post burn-in, thinned)."""

    sigma: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    configs: tuple[GenotypeConfig, ...]
    seed: int

    def __len__(self) -> int:
        return self.sigma.size


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior means, central 99% credibility intervals and correlation."""

    sigma_mean: float
    theta_mean: float
    cri99: dict[str, tuple[float, float]]
    corr: float
    n_samples: int
    burnin: int
    thin: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "sigma_mean": self.sigma_mean,
            "theta_mean": self.theta_mean,
            "cri99": {k: list(v) for k, v in self.cri99.items()},
            "corr": self.corr,
            "n_samples": self.n_samples,
            "burnin": self.burnin,
            "thin": self.thin,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BayesLR:
    """Monte Carlo marginal-likelihood ratio with naive standard error."""

    log10_lr: float
    se: float
    n_samples: int
    seed: int


# ---------------------------------------------------------------------------
# adaptive rejection sampling


class _Hull:
    """Piecewise-linear upper (tangent) and lower (secant) hulls in log space."""

    def __init__(self, xs, hs, dhs, lo: float, hi: float):
        order = np.argsort(xs)
        self.x = np.asarray(xs, float)[order]
        self.h = np.asarray(hs, float)[order]
        self.d = np.asarray(dhs, float)[order]
        self.lo = lo
        self.hi = hi
        self._refresh()

    def _refresh(self):
        x, h, d = self.x, self.h, self.d
        k = x.size
        z = np.empty(k + 1)
        z[0], z[k] = self.lo, self.hi
        for j in range(k - 1):
            dd = d[j] - d[j + 1]
            if abs(dd) < 1e-12:
                z[j + 1] = 0.5 * (x[j] + x[j + 1])
            else:
                z[j + 1] = (h[j + 1] - h[j] - x[j + 1] * d[j + 1] + x[j] * d[j]) / dd
        self.z = z
        log_mass = np.empty(k)
        for j in range(k):
            log_mass[j] = self._segment_log_mass(j)
        total = float(lse(log_mass))
        if not np.isfinite(total):
            raise NumericError("upper hull has non-finite mass")
        self.log_mass = log_mass
        self.log_total = total

    def _segment_log_mass(self, j: int) -> float:
        a, b = self.z[j], self.z[j + 1]
        if a >= b:
            return -math.inf
        d = self.d[j]
        u_at = lambda t: self.h[j] + d * (t - self.x[j])
        if math.isinf(b):
            if d >= 0:
                raise NumericError("upper hull not integrable on the right")
            return u_at(a) - math.log(-d)
        if math.isinf(a):
            if d <= 0:
                raise NumericError("upper hull not integrable on the left")
            return u_at(b) - math.log(d)
        if abs(d) < 1e-12:
            return u_at(a) + math.log(b - a)
        ua, ub = u_at(a), u_at(b)
        top, bot = max(ua, ub), min(ua, ub)
        return top + math.log1p(-math.exp(bot - top)) - math.log(abs(d))

    def upper(self, t: float) -> float:
        j = int(np.searchsorted(self.z, t, side="right")) - 1
        j = min(max(j, 0), self.x.size - 1)
        return float(self.h[j] + self.d[j] * (t - self.x[j]))

    def lower(self, t: float) -> float:
        x, h = self.x, self.h
        if t < x[0] or t > x[-1] or x.size < 2:
            return -math.inf
        j = min(int(np.searchsorted(x, t, side="right")) - 1, x.size - 2)
        w = (t - x[j]) / (x[j + 1] - x[j])
        return float((1.0 - w) * h[j] + w * h[j + 1])

    def sample(self, rng: np.random.Generator) -> float:
        probs = np.exp(self.log_mass - self.log_total)
        probs = probs / probs.sum()
        j = int(rng.choice(probs.size, p=probs))
        a, b = self.z[j], self.z[j + 1]
        d = self.d[j]
        v = rng.random()
        v = min(max(v, 1e-300), 1.0 - 1e-16)
        if math.isinf(b):
            return a + math.log(1.0 - v) / d  # d < 0 here
        if math.isinf(a):
            return b + math.log(v) / d  # d > 0 here
        if abs(d) < 1e-12:
            return a + v * (b - a)
        big = d * (b - a)
        if big > 30.0:
            return b + math.log(v) / d
        return a + math.log1p(v * math.expm1(big)) / d

    def insert(self, t: float, ht: float, dt: float) -> bool:
        if not math.isfinite(ht):
            return False
        if np.any(np.abs(self.x - t) < 1e-12 * max(1.0, abs(t))):
            return False
        j = int(np.searchsorted(self.x, t))
        slack = 1e-6 * (1.0 + abs(dt))
        if j > 0 and self.d[j - 1] < dt - slack:
            raise ConcavityError("derivative increased: density is not log-concave")
        if j < self.d.size and dt < self.d[j] - slack:
            raise ConcavityError("derivative increased: density is not log-concave")
        self.x = np.insert(self.x, j, t)
        self.h = np.insert(self.h, j, ht)
        self.d = np.insert(self.d, j, dt)
        self._refresh()
        return True


def _numeric_dlog(logpdf: Callable[[float], float], lo: float, hi: float):
    def d(t: float) -> float:
        e = 1e-6 * max(1.0, abs(t))
        a, b = t - e, t + e
        if a <= lo:
            a = t
        if b >= hi:
            b = t
        return (logpdf(b) - logpdf(a)) / (b - a)

    return d


def _init_points(
    logpdf, dlog, lo: float, hi: float, init: Sequence[float] | None
) -> list[float]:
    if init is not None:
        pts = [float(t) for t in init if lo < t < hi and math.isfinite(logpdf(t))]
        if not pts:
            raise ValueError("no usable initial points inside the domain")
    else:
        if math.isinf(lo) and math.isinf(hi):
            pts = [-1.0, 0.0, 1.0]
        elif math.isinf(hi):
            pts = [lo + 0.5, lo + 1.5, lo + 3.0]
        elif math.isinf(lo):
            pts = [hi - 3.0, hi - 1.5, hi - 0.5]
        else:
            w = hi - lo
            pts = [lo + 0.1 * w, lo + 0.5 * w, lo + 0.9 * w]
        pts = [t for t in pts if math.isfinite(logpdf(t))]
        if not pts:
            raise ValueError("could not find finite initial points")
    pts = sorted(pts)
    # unbounded sides need a tangent sloping toward the boundary
    if math.isinf(hi):
        step = max(1.0, abs(pts[-1]))
        while dlog(pts[-1]) >= 0:
            cand = pts[-1] + step
            step *= 2.0
            if not math.isfinite(logpdf(cand)) or step > 1e12:
                raise NumericError("no decreasing tangent found on the right")
            pts.append(cand)
    if math.isinf(lo):
        step = max(1.0, abs(pts[0]))
        while dlog(pts[0]) <= 0:
            cand = pts[0] - step
            step *= 2.0
            if not math.isfinite(logpdf(cand)) or step > 1e12:
                raise NumericError("no increasing tangent found on the left")
            pts.insert(0, cand)
    return pts


def ars_sample(
    logpdf: Callable[[float], float],
    rng: np.random.Generator,
    *,
    lo: float = -math.inf,
    hi: float = math.inf,
    dlogpdf: Callable[[float], float] | None = None,
    init: Sequence[float] | None = None,
    max_refine: int = 200,
) -> float:
    """One exact draw from a log-concave density by adaptive rejection sampling.

    The upper hull is built from tangents at evaluated points, the lower
    squeezing hull from secants; both are refined whenever a candidate is
    rejected. A candidate falling above the upper hull raises
    ConcavityError, since that cannot happen for a concave log density.
    """
    dlog = dlogpdf if dlogpdf is not None else _numeric_dlog(logpdf, lo, hi)
    pts = _init_points(logpdf, dlog, lo, hi, init)
    hull = _Hull(pts, [logpdf(t) for t in pts], [dlog(t) for t in pts], lo, hi)

    for _ in range(max_refine):
        t = hull.sample(rng)
        if not lo < t < hi:
            continue
        u = hull.upper(t)
        logw = math.log(rng.random() + 1e-300)
        if logw <= hull.lower(t) - u:
            return t
        ht = logpdf(t)
        if ht > u + 1e-8 * (1.0 + abs(ht)):
            raise ConcavityError(
                f"log density at {t!r} lies above the tangent hull; not log-concave"
            )
        if logw <= ht - u:
            return t
        hull.insert(t, ht, dlog(t))
    raise NumericError(f"adaptive rejection sampling did not accept in {max_refine} tries")


# ---------------------------------------------------------------------------
# Gibbs engine


class _GibbsEngine:
    """One sweep reads the shared likelihood core: one (J, R) term table per beta."""

    def __init__(
        self,
        ds: MixtureDataset,
        h: Hypothesis,
        grid: ThetaGrid,
        prior: BetaPrior,
        freqs: FrequencyTable | None,
    ):
        self.ev = MixtureLikelihood(ds, h, freqs)
        self.ev.check_feasible()
        self.grid = grid
        self.prior = prior
        self.log_w = grid.log_weights

    def beta_conditional(self, pair_idx: np.ndarray, theta_index: int):
        """Log density (and derivative) of beta given genotypes and theta."""
        f, df = self.ev.config_beta_terms(pair_idx, self.grid.points[theta_index])
        prior = self.prior

        def logpdf(beta: float) -> float:
            if not 0.0 < beta:
                return -math.inf
            return float(prior.logpdf(beta) + f(beta))

        def dlogpdf(beta: float) -> float:
            return float(prior.dlogpdf(beta) + df(beta))

        return logpdf, dlogpdf

    def sample_beta(self, pair_idx: np.ndarray, theta_index: int, beta: float, rng) -> float:
        logpdf, dlogpdf = self.beta_conditional(pair_idx, theta_index)
        init = [x for x in (0.5 * beta, beta, 2.0 * beta) if _BETA_LO < x < BETA_MAX]
        return ars_sample(
            logpdf, rng, lo=_BETA_LO, hi=BETA_MAX, dlogpdf=dlogpdf, init=init
        )

    def step_indices(self, beta: float, rng) -> tuple[np.ndarray, int, float]:
        # step 1 conditions only on beta: (theta, genotypes) are drawn jointly,
        # genotypes marginalized out of the theta weights
        ev = self.ev
        terms = ev.pair_terms(self.grid.points, beta)
        marg = ev.marker_lse(terms)
        logp = self.log_w + marg.sum(axis=1)
        probs = np.exp(logp - lse(logp))
        probs /= probs.sum()
        j = int(rng.choice(probs.size, p=probs))
        w = np.exp(terms[j] - marg[j, ev.row_marker])
        new_idx = np.array(
            [int(rng.choice(b.stop - b.start, p=w[b])) for b in ev.blocks], dtype=int
        )
        new_beta = self.sample_beta(new_idx, j, beta, rng)
        return new_idx, j, new_beta

    def initial_indices(self) -> tuple[np.ndarray, int, float]:
        beta0 = self.prior.mean
        j0 = int(np.argmin(np.abs(self.grid.points - 0.5)))
        terms = self.ev.pair_terms(self.grid.points[j0:j0 + 1], beta0)[0]
        idx = np.array([int(np.argmax(terms[b])) for b in self.ev.blocks], dtype=int)
        return idx, j0, beta0


def gibbs_step(
    state: ChainState,
    ds: MixtureDataset,
    h: Hypothesis,
    grid: ThetaGrid,
    prior: BetaPrior,
    freqs: FrequencyTable | None,
    rng: np.random.Generator,
) -> ChainState:
    """One Gibbs sweep: (theta, genotypes) given beta, then beta given the rest."""
    eng = _GibbsEngine(ds, h, grid, prior, freqs)
    if eng.ev.config_indices(state.genotypes) is None:
        raise NumericError("configuration outside the enumerated support")
    new_idx, j, beta = eng.step_indices(state.beta, rng)
    return ChainState(eng.ev.config_from_indices(new_idx), j, beta)


def initial_state(
    ds: MixtureDataset,
    h: Hypothesis,
    grid: ThetaGrid,
    prior: BetaPrior,
    freqs: FrequencyTable | None = None,
) -> ChainState:
    """Deterministic starting state: modal genotypes, middle theta, prior-mean beta."""
    eng = _GibbsEngine(ds, h, grid, prior, freqs)
    idx, j0, beta0 = eng.initial_indices()
    return ChainState(eng.ev.config_from_indices(idx), j0, beta0)


def run_chain(
    ds: MixtureDataset,
    h: Hypothesis,
    grid: ThetaGrid,
    prior: BetaPrior,
    freqs: FrequencyTable | None = None,
    n: int = 55_000,
    burnin: int = 5_000,
    thin: int = 5,
    seed: int = 0,
) -> tuple[ChainSamples, PosteriorSummary]:
    """Run one chain and summarize the recorded (sigma, theta, genotypes) draws."""
    if n <= burnin:
        raise ValueError("n must exceed burnin")
    if thin < 1:
        raise ValueError(f"thin must be a positive integer, got {thin}")
    eng = _GibbsEngine(ds, h, grid, prior, freqs)
    rng = substream(seed)
    idx, j, beta = eng.initial_indices()
    sigmas, thetas, betas, configs = [], [], [], []
    for it in range(n):
        idx, j, beta = eng.step_indices(beta, rng)
        if it >= burnin and (it - burnin) % thin == 0:
            sigmas.append(sigma_from_beta(beta))
            thetas.append(float(eng.grid.points[j]))
            betas.append(beta)
            configs.append(eng.ev.config_from_indices(idx))
    samples = ChainSamples(
        sigma=np.asarray(sigmas),
        theta=np.asarray(thetas),
        beta=np.asarray(betas),
        configs=tuple(configs),
        seed=seed,
    )
    summary = summarize_chain(samples, burnin=burnin, thin=thin)
    return samples, summary


def summarize_chain(samples: ChainSamples, burnin: int, thin: int) -> PosteriorSummary:
    sig, the = samples.sigma, samples.theta
    corr = float(np.corrcoef(sig, the)[0, 1]) if sig.size > 1 else math.nan
    return PosteriorSummary(
        sigma_mean=float(sig.mean()),
        theta_mean=float(the.mean()),
        cri99={
            "sigma": tuple(float(q) for q in np.percentile(sig, [0.5, 99.5])),
            "theta": tuple(float(q) for q in np.percentile(the, [0.5, 99.5])),
        },
        corr=corr,
        n_samples=int(sig.size),
        burnin=burnin,
        thin=thin,
        seed=samples.seed,
    )


def marginal_loglik_mc(
    ds: MixtureDataset,
    h: Hypothesis,
    grid: ThetaGrid,
    prior: BetaPrior,
    freqs: FrequencyTable | None,
    betas: np.ndarray,
) -> tuple[float, float]:
    """Monte Carlo log marginal likelihood over sigma draws, with naive stderr.

    `prior` is unused: the average is over the given beta draws.
    """
    ev = MixtureLikelihood(ds, h, freqs)
    ev.check_feasible()
    log_w = grid.log_weights
    vals = np.array([lse(log_w + ev.grid_loglik(grid.points, b)) for b in betas])
    log_mean = float(lse(vals) - math.log(vals.size))
    y = np.exp(vals - log_mean)
    se = float(y.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
    return log_mean, se


def bayes_log10_lr(
    ds: MixtureDataset,
    hp: Hypothesis,
    hd: Hypothesis,
    grid: ThetaGrid,
    prior: BetaPrior,
    freqs: FrequencyTable | None = None,
    n: int = 55_000,
    burnin: int = 5_000,
    thin: int = 5,
    seed: int = 0,
    shared_sigmas: bool = False,
    samples_p: ChainSamples | None = None,
    samples_d: ChainSamples | None = None,
) -> BayesLR:
    """Marginal-likelihood log10 ratio estimated from per-hypothesis chains.

    Each marginal likelihood is the Monte Carlo average of the exact
    sigma-profile likelihood over that hypothesis's posterior sigma draws
    (one chain per hypothesis; `shared_sigmas` reuses the hp draws for hd).
    Precomputed chains may be passed to avoid re-running them.
    """
    if samples_p is None:
        samples_p, _ = run_chain(ds, hp, grid, prior, freqs, n, burnin, thin, seed)
    if shared_sigmas:
        betas_d = samples_p.beta
    else:
        if samples_d is None:
            samples_d, _ = run_chain(ds, hd, grid, prior, freqs, n, burnin, thin, seed + 1)
        betas_d = samples_d.beta
    log_p, se_p = marginal_loglik_mc(ds, hp, grid, prior, freqs, samples_p.beta)
    log_d, se_d = marginal_loglik_mc(ds, hd, grid, prior, freqs, betas_d)
    ln10 = math.log(10.0)
    return BayesLR(
        log10_lr=(log_p - log_d) / ln10,
        se=math.hypot(se_p, se_d) / ln10,
        n_samples=len(samples_p),
        seed=seed,
    )


def bayes_config_probabilities(
    ds: MixtureDataset,
    h: Hypothesis,
    sigma_samples: np.ndarray,
    grid: ThetaGrid,
    freqs: FrequencyTable | None,
    configs: Sequence[GenotypeConfig],
) -> np.ndarray:
    """Average over sigma draws of exact config probabilities (theta on the grid)."""
    ev = MixtureLikelihood(ds, h, freqs)
    ev.check_feasible()
    rows = [ev.config_indices(cfg) for cfg in configs]
    supported = [c for c, idx in enumerate(rows) if idx is not None]
    probs = np.zeros(len(configs))
    if not supported:
        return probs
    idx_mat = np.vstack([rows[c] for c in supported])  # (C, M)
    acc = np.zeros(len(supported))
    for s in np.asarray(sigma_samples, dtype=float):
        acc += np.exp(ev.config_log_prob_profile(idx_mat, grid, s))
    probs[supported] = acc / len(sigma_samples)
    return probs


def bayes_pair_probability(
    pair: GenotypeConfig,
    ds: MixtureDataset,
    h: Hypothesis,
    sigma_samples: np.ndarray,
    grid: ThetaGrid,
    freqs: FrequencyTable | None = None,
) -> float:
    """Posterior probability of one configuration, averaged over sigma draws."""
    return float(
        bayes_config_probabilities(ds, h, sigma_samples, grid, freqs, [pair])[0]
    )
