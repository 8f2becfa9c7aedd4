import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp
from scipy.stats import chisquare, gamma as gamma_dist, kstest

from peakmix.gibbs import (
    BetaPrior,
    _GibbsEngine,
    ChainState,
    ConcavityError,
    ars_sample,
    bayes_config_probabilities,
    bayes_log10_lr,
    bayes_pair_probability,
    gibbs_step,
    initial_state,
    run_chain,
)
from peakmix.likelihood import MixtureLikelihood, ThetaGrid, loglik_joint, marker_loglik
from peakmix.model import (
    beta_from_sigma,
    enumerate_genotype_pairs,
    log_dirichlet_density,
    sigma_from_beta,
)
from peakmix.streams import substream
from peakmix.types import (
    FrequencyTable,
    Genotype,
    GenotypeConfig,
    Hypothesis,
    MarkerData,
    MixtureDataset,
    ModelParams,
    Profile,
)

GRID = ThetaGrid.uniform(0.01)
EMPTY = MixtureDataset(())


@pytest.fixture(scope="module")
def one_marker():
    ds = MixtureDataset((MarkerData("M", ("a", "b"), np.array([0.62, 0.38])),))
    freqs = FrequencyTable({"M": {"a": 0.4, "b": 0.6}})
    return ds, freqs


class TestBetaPrior:
    def test_matches_scipy_logpdf(self):
        prior = BetaPrior()
        for b in (5.0, 50.0, 176.4, 900.0):
            assert prior.logpdf(b) == pytest.approx(
                gamma_dist.logpdf(b, 3.6, scale=49), abs=1e-10
            )

    def test_sigma_interval_published(self):
        lo, hi = BetaPrior().sigma_interval(0.95)
        assert lo == pytest.approx(0.05, abs=0.002)
        assert hi == pytest.approx(0.15, abs=0.002)

    def test_validation(self):
        with pytest.raises(ValueError):
            BetaPrior(shape=-1.0)


class TestArsSample:
    def test_gaussian_ks(self):
        rng = substream(100)
        draws = np.array(
            [ars_sample(lambda x: -0.5 * x * x, rng, dlogpdf=lambda x: -x) for _ in range(10_000)]
        )
        assert kstest(draws, "norm").pvalue > 0.01

    def test_gamma_prior_ks_and_moments(self):
        prior = BetaPrior()
        rng = substream(101)
        draws = np.array(
            [
                ars_sample(
                    prior.logpdf, rng, lo=0.0, hi=math.inf,
                    dlogpdf=prior.dlogpdf, init=[50.0, 150.0, 400.0],
                )
                for _ in range(10_000)
            ]
        )
        assert kstest(draws, lambda x: gamma_dist.cdf(x, 3.6, scale=49)).pvalue > 0.01
        se = math.sqrt(3.6) * 49 / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(3.6 * 49, abs=3 * se)

    def test_exponential_boundary_mode(self):
        rng = substream(102)
        draws = np.array(
            [
                ars_sample(lambda x: -x, rng, lo=0.0, hi=math.inf,
                           dlogpdf=lambda x: -1.0, init=[0.5, 2.0])
                for _ in range(5_000)
            ]
        )
        assert kstest(draws, "expon").pvalue > 0.01

    def test_numeric_derivative_fallback(self):
        rng = substream(103)
        draws = np.array(
            [ars_sample(lambda x: -0.5 * x * x, rng) for _ in range(2_000)]
        )
        assert kstest(draws, "norm").pvalue > 0.01

    def test_concavity_violation_detected(self):
        rng = substream(104)
        # convex log density: tangents underestimate, so evaluation exposes it
        with pytest.raises(ConcavityError):
            for _ in range(200):
                ars_sample(
                    lambda x: 0.5 * x * x, rng, lo=-2.0, hi=2.0, dlogpdf=lambda x: x
                )

    def test_bad_init_rejected(self):
        rng = substream(105)
        with pytest.raises(ValueError):
            ars_sample(lambda x: -x * x, rng, lo=0.0, hi=1.0, init=[5.0])


class TestPriorRecovery:
    def test_empty_dataset_recovers_prior(self):
        samples, summary = run_chain(
            EMPTY, Hypothesis(), GRID, BetaPrior(), None,
            n=11_000, burnin=1_000, thin=1, seed=31,
        )
        assert kstest(samples.beta, lambda x: gamma_dist.cdf(x, 3.6, scale=49)).pvalue > 0.01
        # theta is uniform over the grid
        counts = np.array([(samples.theta == p).sum() for p in GRID.points])
        assert chisquare(counts).pvalue > 0.01
        lo, hi = summary.cri99["sigma"]
        assert lo < summary.sigma_mean < hi


class TestGibbsStep:
    def test_theta_conditional_matches_enumeration(self, one_marker):
        ds, freqs = one_marker
        h = Hypothesis()
        beta = beta_from_sigma(0.08)
        # exact grid posterior by brute force through the public likelihood
        grid = ThetaGrid.uniform(0.1)
        logp = np.array(
            [
                loglik_joint(ds, h, ModelParams(t, 0.08), freqs)
                for t in grid.points
            ]
        ) + grid.log_weights
        exact = np.exp(logp - logsumexp(logp))
        state = initial_state(ds, h, grid, BetaPrior(), freqs)
        state = ChainState(state.genotypes, state.theta_index, beta)
        n = 4000
        counts = np.zeros(len(grid))
        for i in range(n):
            new = gibbs_step(state, ds, h, grid, BetaPrior(), freqs, substream(57, i))
            counts[new.theta_index] += 1
        freq = counts / n
        se = np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(freq - exact) <= 3 * se + 1e-12)

    def test_beta_conditional_mode_exceeds_prior_mode(self):
        # balanced two-allele marker with fixed identical heterozygotes:
        # the data favor balance, pushing beta above the prior mode
        g = Genotype("a", "b")
        profile = Profile({"M": g})
        ds = MixtureDataset((MarkerData("M", ("a", "b"), np.array([0.5, 0.5])),))
        h = Hypothesis(known1=profile, known2=profile)
        prior = BetaPrior()
        prior_mode = (prior.shape - 1) * prior.scale

        def conditional(beta):
            return prior.logpdf(beta) + marker_loglik(
                ds.markers[0], h, ModelParams(0.5, sigma_from_beta(beta))
            )

        res = minimize_scalar(
            lambda b: -conditional(b), bounds=(1.0, 4e4), method="bounded"
        )
        assert res.x > prior_mode + 10.0

    def test_beta_conditional_draws_match_quadrature(self, one_marker):
        # iid ARS draws from the beta conditional against its numerically
        # normalized CDF
        ds, freqs = one_marker
        h = Hypothesis()
        grid = ThetaGrid.uniform(0.1)
        prior = BetaPrior()
        state = initial_state(ds, h, grid, prior, freqs)
        g1, g2 = state.genotypes.pair("M")
        theta = grid.points[state.theta_index]

        def cond_logpdf(beta):
            return prior.logpdf(beta) + marker_loglik(
                ds.markers[0],
                Hypothesis(known1=Profile({"M": g1}), known2=Profile({"M": g2})),
                ModelParams(theta, sigma_from_beta(beta)),
            )

        norm, _ = quad(lambda b: math.exp(cond_logpdf(b)), 1e-6, 4e4, limit=200)
        xs = np.linspace(1.0, 2500.0, 400)
        cdf_vals = np.array(
            [quad(lambda b: math.exp(cond_logpdf(b)), 1e-6, x, limit=200)[0] / norm for x in xs]
        )
        cdf = lambda x: np.interp(x, xs, cdf_vals)
        rng = substream(58)
        draws = np.array(
            [
                ars_sample(cond_logpdf, rng, lo=1e-6, hi=4e4, init=[80.0, 200.0, 500.0])
                for _ in range(3_000)
            ]
        )
        assert kstest(draws, cdf).pvalue > 0.01


    def test_beta_conditional_matches_dirichlet_sum(self, perlin_ds, perlin_minor, perlin_freqs_synth):
        # the dose-histogram form of the beta conditional against the prior
        # plus a per-marker sum of Dirichlet densities, and its derivative
        # against a central difference
        prior = BetaPrior()
        eng = _GibbsEngine(perlin_ds, Hypothesis(known2=perlin_minor), GRID, prior, perlin_freqs_synth)
        idx, _, _ = eng.initial_indices()
        cfg = eng.ev.config_from_indices(idx)
        j = 68
        theta = GRID.points[j]
        logpdf, dlogpdf = eng.beta_conditional(idx, j)
        for beta in (5.0, 50.0, 176.4, 2000.0, 3.0e4):
            want = prior.logpdf(beta)
            for md in perlin_ds.markers:
                g1, g2 = cfg.pair(md.marker)
                mu = np.array(
                    [0.5 * (theta * g1.count(a) + (1 - theta) * g2.count(a)) for a in md.alleles]
                )
                want += log_dirichlet_density(md.rel_sizes, beta * mu)
            assert logpdf(beta) == pytest.approx(want, rel=1e-12, abs=1e-9)
            step = 1e-5 * beta
            central = (logpdf(beta + step) - logpdf(beta - step)) / (2 * step)
            assert dlogpdf(beta) == pytest.approx(central, rel=1e-6, abs=1e-7)


# (theta index, hex pair index per marker) of the first 30 sweeps of a
# seed-0 Perlin chain, both contributors unknown, as drawn by the earlier
# per-marker evaluator: each sweep makes one theta choice, then one pair
# choice per marker, then the ARS beta draw, all from substream(0)
PINNED_THETA_INDEX = [
    27, 30, 63, 28, 30, 69, 68, 30, 31, 31, 28, 68, 30, 68, 29,
    29, 29, 32, 69, 30, 67, 31, 31, 71, 65, 31, 68, 67, 29, 31,
]
PINNED_PAIRS = [
    "1348276125", "1348206125", "431035a492", "1348276125", "1348206120",
    "431035a491", "431035a491", "13482b6120", "1348276120", "1348206120",
    "1348276125", "431035a491", "1348276125", "431035a492", "1348276125",
    "1348276125", "1348276120", "13482b6120", "431035a491", "1348276125",
    "431035a491", "1348276125", "1348276120", "431035a491", "431038a492",
    "1348276125", "431035a491", "431035a492", "13482b6120", "1348206120",
]


class TestRunChain:
    def test_draw_order_pinned(self, perlin_ds, perlin_freqs_synth):
        h = Hypothesis()
        samples, _ = run_chain(
            perlin_ds, h, GRID, BetaPrior(), perlin_freqs_synth, n=30, burnin=0, thin=1, seed=0
        )
        ev = MixtureLikelihood(perlin_ds, h, perlin_freqs_synth)
        assert [int(round(t / 0.01)) - 1 for t in samples.theta] == PINNED_THETA_INDEX
        assert ["".join(f"{i:x}" for i in ev.config_indices(c)) for c in samples.configs] == PINNED_PAIRS

    def test_deterministic_under_seed(self, one_marker):
        ds, freqs = one_marker
        args = (ds, Hypothesis(), GRID, BetaPrior(), freqs)
        s1, p1 = run_chain(*args, n=300, burnin=50, thin=2, seed=5)
        s2, p2 = run_chain(*args, n=300, burnin=50, thin=2, seed=5)
        assert np.array_equal(s1.sigma, s2.sigma)
        assert np.array_equal(s1.theta, s2.theta)
        assert s1.configs == s2.configs
        assert p1 == p2

    def test_summary_contains_means(self, one_marker):
        ds, freqs = one_marker
        _, summary = run_chain(
            ds, Hypothesis(), GRID, BetaPrior(), freqs, n=500, burnin=100, thin=1, seed=6
        )
        for key, mean in (("sigma", summary.sigma_mean), ("theta", summary.theta_mean)):
            lo, hi = summary.cri99[key]
            assert lo <= mean <= hi

    def test_requires_n_beyond_burnin(self, one_marker):
        ds, freqs = one_marker
        with pytest.raises(ValueError):
            run_chain(ds, Hypothesis(), GRID, BetaPrior(), freqs, n=10, burnin=10)

    def test_perlin_posterior_sanity(self, perlin_ds, perlin_minor, perlin_freqs_synth):
        h = Hypothesis(known2=perlin_minor)
        _, summary = run_chain(
            perlin_ds, h, GRID, BetaPrior(), perlin_freqs_synth,
            n=1_600, burnin=300, thin=1, seed=12,
        )
        assert summary.sigma_mean == pytest.approx(0.073, abs=0.012)
        assert summary.theta_mean == pytest.approx(0.695, abs=0.02)


class TestBayesLr:
    def test_same_hypothesis_gives_zero(self, one_marker):
        ds, freqs = one_marker
        h = Hypothesis()
        result = bayes_log10_lr(
            ds, h, h, GRID, BetaPrior(), freqs,
            n=400, burnin=100, thin=1, seed=9, shared_sigmas=True,
        )
        assert result.log10_lr == pytest.approx(0.0, abs=1e-12)
        result = bayes_log10_lr(
            ds, h, h, GRID, BetaPrior(), freqs, n=500, burnin=100, thin=1, seed=9
        )
        assert abs(result.log10_lr) <= max(3 * result.se, 0.05)

    def test_precomputed_chain_matches_internal(self, one_marker):
        ds, freqs = one_marker
        hp = Hypothesis(known1=Profile({"M": Genotype("a", "a")}))
        hd = Hypothesis()
        kwargs = dict(n=400, burnin=100, thin=1, seed=4)
        samples_p, _ = run_chain(ds, hp, GRID, BetaPrior(), freqs, **kwargs)
        reused = bayes_log10_lr(
            ds, hp, hd, GRID, BetaPrior(), freqs, **kwargs, samples_p=samples_p
        )
        fresh = bayes_log10_lr(ds, hp, hd, GRID, BetaPrior(), freqs, **kwargs)
        assert reused.log10_lr == pytest.approx(fresh.log10_lr, abs=1e-12)


class TestBayesPairProbability:
    def test_unique_config_has_probability_one(self):
        ds = MixtureDataset(
            (
                MarkerData("M1", ("a",), np.array([1.0])),
                MarkerData("M2", ("b",), np.array([1.0])),
            )
        )
        freqs = FrequencyTable({"M1": {"a": 0.5, "z": 0.5}, "M2": {"b": 1.0}})
        cfg = GenotypeConfig(
            ("M1", "M2"),
            (
                (Genotype("a", "a"), Genotype("a", "a")),
                (Genotype("b", "b"), Genotype("b", "b")),
            ),
        )
        got = bayes_pair_probability(cfg, ds, Hypothesis(), np.array([0.07, 0.1]), GRID, freqs)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_out_of_support_config_is_zero(self, one_marker):
        ds, freqs = one_marker
        cfg = GenotypeConfig(("M",), ((Genotype("a", "a"), Genotype("a", "a")),))
        got = bayes_pair_probability(cfg, ds, Hypothesis(), np.array([0.08]), GRID, freqs)
        assert got == 0.0

    def test_enumerated_configs_sum_to_one_per_sigma(self, one_marker):
        ds, freqs = one_marker
        pairs = enumerate_genotype_pairs(["a", "b"])
        configs = [GenotypeConfig(("M",), (p,)) for p in pairs]
        for sigma in (0.05, 0.1, 0.2):
            probs = bayes_config_probabilities(
                ds, Hypothesis(), np.array([sigma]), GRID, freqs, configs
            )
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
