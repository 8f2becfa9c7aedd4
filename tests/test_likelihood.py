import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import dirichlet as sp_dirichlet

from peakmix.likelihood import (
    MixtureLikelihood,
    ThetaGrid,
    genotype_posterior,
    log10_lr,
    loglik_joint,
    loglik_sigma_profile,
    marker_loglik,
)
from peakmix.types import (
    DataError,
    FrequencyTable,
    Genotype,
    Hypothesis,
    MarkerData,
    MixtureDataset,
    ModelParams,
    NumericError,
    Profile,
)


def brute_marker_loglik(md, h, params, freqs):
    """Oracle: loop over every genotype pair with its own mu / prior / density.

    Non-covering pairs score -inf; densities come from scipy, priors from
    first principles.
    """
    labs = sorted(set(md.alleles))
    genotypes = [Genotype(a, b) for a, b in combinations_with_replacement(labs, 2)]
    obs = set(md.alleles)
    rel = {a: r for a, r in zip(md.alleles, md.rel_sizes)}
    beta = 1.0 / params.sigma**2 - 1.0

    def prior(g):
        qa = freqs.freq(md.marker, g.alleles[0])
        qb = freqs.freq(md.marker, g.alleles[1])
        return qa * qa if g.alleles[0] == g.alleles[1] else 2 * qa * qb

    g1s = [h.known1.genotype(md.marker)] if h.known1 else genotypes
    g2s = [h.known2.genotype(md.marker)] if h.known2 else genotypes
    terms = []
    for g1 in g1s:
        for g2 in g2s:
            if set(g1.alleles) | set(g2.alleles) != obs:
                continue
            mu = {
                a: (params.theta * g1.count(a) + (1 - params.theta) * g2.count(a)) / 2
                for a in md.alleles
            }
            alpha = np.array([beta * mu[a] for a in md.alleles])
            r = np.array([rel[a] for a in md.alleles])
            if len(md.alleles) == 1:
                logdd = 0.0
            else:
                logdd = sp_dirichlet.logpdf(r / r.sum(), alpha)
            w = 1.0
            if h.known1 is None:
                w *= prior(g1)
            if h.known2 is None:
                w *= prior(g2)
            terms.append(logdd + math.log(w) if w > 0 else -math.inf)
    if not terms:
        return -math.inf
    m = max(terms)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(t - m) for t in terms))


@pytest.fixture
def toy_freqs():
    return FrequencyTable(
        {
            "M1": {"a": 0.3, "b": 0.5, "c": 0.2},
            "M2": {"x": 0.6, "y": 0.4},
            "M3": {"p": 0.25, "q": 0.25, "r": 0.3, "s": 0.2},
        }
    )


@pytest.fixture
def toy_ds():
    return MixtureDataset(
        (
            MarkerData("M1", ("a", "b", "c"), np.array([0.5, 0.3, 0.2])),
            MarkerData("M2", ("x", "y"), np.array([0.8, 0.2])),
            MarkerData("M3", ("p", "q", "r", "s"), np.array([0.4, 0.3, 0.2, 0.1])),
        )
    )


class TestThetaGrid:
    def test_uniform_default(self):
        grid = ThetaGrid.uniform(0.01)
        assert len(grid) == 99
        assert grid.points[0] == pytest.approx(0.01)
        assert grid.points[-1] == pytest.approx(0.99)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaGrid(np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ThetaGrid(np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ThetaGrid(np.array([0.4, 0.5]), np.array([0.7, 0.5]))


class TestMarkerLoglik:
    def test_shared_heterozygote_is_symmetric_beta(self, perlin_ds, perlin_major, perlin_minor):
        # D3 genotypes are the same heterozygote for both contributors, so
        # mu = (1/2, 1/2) whatever theta is, and the density reduces to a
        # symmetric Beta at the observed size.
        md = perlin_ds.by_marker("D3")
        h = Hypothesis(known1=perlin_major, known2=perlin_minor)
        params = ModelParams(theta=0.696, sigma=0.067)
        beta = params.beta
        expected = beta_dist.logpdf(md.rel_sizes[0], beta / 2, beta / 2)
        assert marker_loglik(md, h, params) == pytest.approx(expected, rel=1e-12)

    def test_single_allele_both_unknown(self):
        md = MarkerData("M", ("a",), np.array([1.0]))
        freqs = FrequencyTable({"M": {"a": 0.3, "b": 0.7}})
        got = marker_loglik(md, Hypothesis(), ModelParams(0.6, 0.1), freqs)
        assert got == pytest.approx(4 * math.log(0.3), abs=1e-12)

    def test_four_alleles_has_six_terms(self, toy_ds, toy_freqs):
        md = toy_ds.by_marker("M3")
        dist = genotype_posterior(md, Hypothesis(), ModelParams(0.7, 0.08), toy_freqs)
        assert len(dist.entries) == 6

    def test_inconsistent_fixed_profile(self, toy_ds, toy_freqs):
        bad = Profile({"M2": Genotype("x", "z"), "M1": Genotype("a", "b"), "M3": Genotype("p", "q")})
        md = toy_ds.by_marker("M2")
        got = marker_loglik(md, Hypothesis(known1=bad), ModelParams(0.7, 0.08), toy_freqs)
        assert got == -math.inf

    def test_requires_freqs_for_unknowns(self, toy_ds):
        with pytest.raises(DataError):
            marker_loglik(toy_ds.by_marker("M2"), Hypothesis(), ModelParams(0.7, 0.08))

    @pytest.mark.parametrize("marker", ["M1", "M2"])
    @pytest.mark.parametrize(
        "fix", ["none", "one", "both"]
    )
    def test_matches_brute_force(self, toy_ds, toy_freqs, marker, fix):
        md = toy_ds.by_marker(marker)
        full = {
            "M1": Genotype("a", "b"),
            "M2": Genotype("x", "y"),
            "M3": Genotype("p", "q"),
        }
        other = {
            "M1": Genotype("c", "c"),
            "M2": Genotype("x", "x"),
            "M3": Genotype("r", "s"),
        }
        h = {
            "none": Hypothesis(),
            "one": Hypothesis(known1=Profile(full)),
            "both": Hypothesis(known1=Profile(full), known2=Profile(other)),
        }[fix]
        params = ModelParams(0.65, 0.09)
        got = marker_loglik(md, h, params, toy_freqs)
        want = brute_marker_loglik(md, h, params, toy_freqs)
        assert got == pytest.approx(want, abs=1e-10)


class TestJointLoglik:
    def test_factorizes_over_markers(self, toy_ds, toy_freqs):
        params = ModelParams(0.7, 0.08)
        h = Hypothesis()
        total = loglik_joint(toy_ds, h, params, toy_freqs)
        parts = sum(marker_loglik(md, h, params, toy_freqs) for md in toy_ds.markers)
        assert total == pytest.approx(parts, abs=1e-12)

    def test_single_marker_dataset(self, toy_freqs):
        md = MarkerData("M1", ("a", "b"), np.array([0.6, 0.4]))
        ds = MixtureDataset((md,))
        params = ModelParams(0.55, 0.1)
        assert loglik_joint(ds, Hypothesis(), params, toy_freqs) == pytest.approx(
            marker_loglik(md, Hypothesis(), params, toy_freqs), abs=1e-12
        )

    def test_relabel_symmetry(self, toy_ds, toy_freqs):
        for theta in (0.2, 0.35, 0.5, 0.83):
            a = loglik_joint(toy_ds, Hypothesis(), ModelParams(theta, 0.09), toy_freqs)
            b = loglik_joint(toy_ds, Hypothesis(), ModelParams(1 - theta, 0.09), toy_freqs)
            assert a == pytest.approx(b, abs=1e-10)

    def test_perlin_grid_argmax(self, perlin_ds, perlin_major, perlin_minor):
        h = Hypothesis(known1=perlin_major, known2=perlin_minor)
        ev = MixtureLikelihood(perlin_ds, h)
        thetas = np.arange(0.64, 0.76, 0.004)
        sigmas = np.arange(0.05, 0.09, 0.002)
        vals = np.array([[ev.loglik(t, s) for s in sigmas] for t in thetas])
        it, isig = np.unravel_index(np.argmax(vals), vals.shape)
        assert thetas[it] == pytest.approx(0.696, abs=0.004)
        assert sigmas[isig] == pytest.approx(0.067, abs=0.002)

    def test_monotone_information_bound(self, toy_ds, toy_freqs):
        # fixing a contributor can never beat the marginal sum by more than
        # its own prior mass
        params = ModelParams(0.7, 0.08)
        profile = Profile(
            {"M1": Genotype("a", "b"), "M2": Genotype("x", "y"), "M3": Genotype("p", "q")}
        )
        for md in toy_ds.markers:
            fixed = marker_loglik(md, Hypothesis(known1=profile), params, toy_freqs)
            g = profile.genotype(md.marker)
            qa = toy_freqs.freq(md.marker, g.alleles[0])
            qb = toy_freqs.freq(md.marker, g.alleles[1])
            prior = qa * qa if g.is_homozygous else 2 * qa * qb
            marginal = marker_loglik(md, Hypothesis(), params, toy_freqs)
            assert fixed + math.log(prior) <= marginal + 1e-9


class TestSigmaProfile:
    def test_single_point_grid(self, toy_ds, toy_freqs):
        grid = ThetaGrid.single(0.62)
        got = loglik_sigma_profile(toy_ds, Hypothesis(), 0.09, grid, toy_freqs)
        want = loglik_joint(toy_ds, Hypothesis(), ModelParams(0.62, 0.09), toy_freqs)
        assert got == pytest.approx(want, abs=1e-12)

    def test_grid_refinement_stability(self, perlin_ds, perlin_major, perlin_minor):
        from peakmix.estimate import fit_sigma

        h = Hypothesis(known1=perlin_major, known2=perlin_minor)
        coarse = fit_sigma(perlin_ds, h, ThetaGrid.uniform(0.01))
        fine = fit_sigma(perlin_ds, h, ThetaGrid.uniform(0.002))
        assert abs(coarse.sigma - fine.sigma) < 1e-3


class TestGenotypePosterior:
    def test_single_allele_forced(self, toy_freqs):
        md = MarkerData("M2", ("x",), np.array([1.0]))
        dist = genotype_posterior(md, Hypothesis(), ModelParams(0.7, 0.08), toy_freqs)
        assert len(dist.entries) == 1
        assert dist.entries[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_weights_normalize(self, perlin_ds, perlin_freqs_synth):
        params = ModelParams(0.692, 0.07)
        for md in perlin_ds.markers:
            dist = genotype_posterior(md, Hypothesis(), params, perlin_freqs_synth)
            total = sum(p for _, p in dist.probabilities())
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_error_on_impossible_marker(self, toy_ds, toy_freqs):
        bad = Profile({"M1": Genotype("a", "b"), "M2": Genotype("z", "z"), "M3": Genotype("p", "q")})
        with pytest.raises(NumericError):
            genotype_posterior(
                toy_ds.by_marker("M2"), Hypothesis(known1=bad), ModelParams(0.7, 0.08), toy_freqs
            )


class TestLog10Lr:
    def test_identical_hypotheses(self, toy_ds, toy_freqs):
        params = ModelParams(0.7, 0.08)
        assert log10_lr(toy_ds, Hypothesis(), Hypothesis(), params, params, toy_freqs) == 0.0

    def test_antisymmetric_under_swap(self, toy_ds, toy_freqs):
        profile = Profile(
            {"M1": Genotype("a", "b"), "M2": Genotype("x", "y"), "M3": Genotype("p", "q")}
        )
        hp = Hypothesis(known1=profile)
        hd = Hypothesis()
        params = ModelParams(0.7, 0.08)
        fwd = log10_lr(toy_ds, hp, hd, params, params, toy_freqs)
        rev = log10_lr(toy_ds, hd, hp, params, params, toy_freqs)
        assert fwd == pytest.approx(-rev, abs=1e-12)

    def test_infinite_when_one_side_impossible(self, toy_ds, toy_freqs):
        bad = Profile({"M1": Genotype("a", "b"), "M2": Genotype("z", "z"), "M3": Genotype("p", "q")})
        params = ModelParams(0.7, 0.08)
        got = log10_lr(toy_ds, Hypothesis(), Hypothesis(known1=bad), params, params, toy_freqs)
        assert got == math.inf


class TestSufficientStatisticCore:
    """The dose-histogram core against the per-pair brute-force oracle on Perlin."""

    @pytest.mark.parametrize("sigma", [0.005, 0.08, 0.5])
    @pytest.mark.parametrize("fix", ["none", "one", "both"])
    def test_matches_brute_force_on_perlin(
        self, perlin_ds, perlin_major, perlin_minor, perlin_freqs_synth, fix, sigma
    ):
        h = {
            "none": Hypothesis(),
            "one": Hypothesis(known2=perlin_minor),
            "both": Hypothesis(known1=perlin_major, known2=perlin_minor),
        }[fix]
        grid = ThetaGrid.uniform(0.01)
        ev = MixtureLikelihood(perlin_ds, h, perlin_freqs_synth)
        want = np.array(
            [
                [brute_marker_loglik(md, h, ModelParams(t, sigma), perlin_freqs_synth) for t in grid.points]
                for md in perlin_ds.markers
            ]
        )
        on_grid = ev.marker_logliks(grid.points, sigma)
        by_point = np.column_stack([ev.marker_logliks(np.array([t]), sigma)[:, 0] for t in grid.points])
        np.testing.assert_allclose(on_grid, want, rtol=0, atol=1e-9)
        np.testing.assert_allclose(by_point, want, rtol=0, atol=1e-9)
        for t in (grid.points[0], 0.69, grid.points[-1]):
            assert ev.loglik(t, sigma) == pytest.approx(
                sum(brute_marker_loglik(md, h, ModelParams(t, sigma), perlin_freqs_synth)
                    for md in perlin_ds.markers),
                abs=1e-9,
            )
