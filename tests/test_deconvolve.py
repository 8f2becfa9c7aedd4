import itertools
import math

import numpy as np
import pytest

from peakmix.deconvolve import (
    certified_topk,
    exact_pair_probability,
    sample_profile_pairs,
)
from peakmix.estimate import fit_joint
from peakmix.gibbs import BetaPrior
from peakmix.likelihood import ThetaGrid
from peakmix.model import enumerate_genotype_pairs
from peakmix.types import (
    FrequencyTable,
    Genotype,
    GenotypeConfig,
    Hypothesis,
    MarkerData,
    MixtureDataset,
    ModelParams,
)

GRID = ThetaGrid.uniform(0.01)


@pytest.fixture(scope="module")
def toy2():
    ds = MixtureDataset(
        (
            MarkerData("M1", ("a", "b"), np.array([0.75, 0.25])),
            MarkerData("M2", ("x", "y", "z"), np.array([0.5, 0.3, 0.2])),
        )
    )
    freqs = FrequencyTable(
        {"M1": {"a": 0.3, "b": 0.6, "c": 0.1}, "M2": {"x": 0.2, "y": 0.5, "z": 0.3}}
    )
    return ds, freqs


def all_configs(ds):
    per_marker = [enumerate_genotype_pairs(md.alleles) for md in ds.markers]
    markers = ds.marker_ids()
    return [
        GenotypeConfig(markers, combo) for combo in itertools.product(*per_marker)
    ]


@pytest.fixture(scope="module")
def degenerate():
    ds = MixtureDataset(
        (
            MarkerData("M1", ("a",), np.array([1.0])),
            MarkerData("M2", ("b",), np.array([1.0])),
        )
    )
    freqs = FrequencyTable({"M1": {"a": 0.4, "c": 0.6}, "M2": {"b": 0.7, "d": 0.3}})
    return ds, freqs


class TestSampleProfilePairs:
    def test_deterministic_dataset_yields_single_config(self, degenerate):
        ds, freqs = degenerate
        configs = sample_profile_pairs(
            ds, Hypothesis(), freqs, params=ModelParams(0.7, 0.08), n_samples=500, seed=1
        )
        assert len(configs) == 1
        (cfg,) = configs
        assert cfg.pair("M1") == (Genotype("a", "a"), Genotype("a", "a"))

    def test_empirical_frequencies_match_exact(self, toy2):
        ds, freqs = toy2
        one = MixtureDataset((ds.markers[0],))
        params = ModelParams(0.7, 0.1)
        n = 100_000
        counts: dict = {}
        # chunked sampling with per-chunk substreams; recount by re-sampling
        # configs one chunk at a time through the public API
        from peakmix.likelihood import MixtureLikelihood, genotype_posterior

        dist = genotype_posterior(one.markers[0], Hypothesis(), params, freqs)
        exact = {pair: p for pair, p in dist.probabilities()}
        from peakmix.streams import substream

        ev = MixtureLikelihood(one, Hypothesis(), freqs)
        lw = ev.marker_pair_terms(0, params.theta, params.sigma)
        probs = np.exp(lw - lw.max())
        probs /= probs.sum()
        for chunk in range(n // 1000):
            rng = substream(17, chunk)
            draws = rng.choice(len(probs), size=1000, p=probs)
            for d in draws:
                counts[ev.pairs[0][d]] = counts.get(ev.pairs[0][d], 0) + 1
        for pair, p in exact.items():
            se = math.sqrt(p * (1 - p) / n)
            assert counts.get(pair, 0) / n == pytest.approx(p, abs=3 * se + 1e-4)

    def test_requires_exactly_one_source(self, toy2):
        ds, freqs = toy2
        with pytest.raises(ValueError):
            sample_profile_pairs(ds, Hypothesis(), freqs)


class TestExactPairProbability:
    def test_full_enumeration_sums_to_one_fixed_params(self, toy2):
        ds, freqs = toy2
        params = ModelParams(0.7, 0.09)
        total = sum(
            exact_pair_probability(cfg, ds, Hypothesis(), freqs, params=params)
            for cfg in all_configs(ds)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_full_enumeration_sums_to_one_profile_mode(self, toy2):
        ds, freqs = toy2
        total = sum(
            exact_pair_probability(cfg, ds, Hypothesis(), freqs, sigma=0.09, grid=GRID)
            for cfg in all_configs(ds)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_out_of_support_is_zero(self, toy2):
        ds, freqs = toy2
        markers = ds.marker_ids()
        cfg = GenotypeConfig(
            markers,
            (
                (Genotype("a", "a"), Genotype("a", "a")),  # does not cover b
                (Genotype("x", "y"), Genotype("y", "z")),
            ),
        )
        assert exact_pair_probability(
            cfg, ds, Hypothesis(), freqs, params=ModelParams(0.7, 0.09)
        ) == 0.0

    def test_product_over_markers_fixed_params(self, toy2):
        ds, freqs = toy2
        params = ModelParams(0.66, 0.11)
        cfg = all_configs(ds)[0]
        whole = exact_pair_probability(cfg, ds, Hypothesis(), freqs, params=params)
        parts = 1.0
        for i, md in enumerate(ds.markers):
            sub = MixtureDataset((md,))
            sub_cfg = GenotypeConfig((md.marker,), (cfg.pairs[i],))
            parts *= exact_pair_probability(sub_cfg, sub, Hypothesis(), freqs, params=params)
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_mode_arguments_validated(self, toy2):
        ds, freqs = toy2
        with pytest.raises(ValueError):
            exact_pair_probability(all_configs(ds)[0], ds, Hypothesis(), freqs)


class TestCertifiedTopk:
    def test_deterministic_dataset_certifies_single_config(self, degenerate):
        ds, freqs = degenerate
        ranked = certified_topk(
            ds, Hypothesis(), freqs, mode="mle",
            params=ModelParams(0.7, 0.08), n_samples=300, seed=2,
        )
        assert len(ranked.entries) == 1
        assert ranked.total_mass == pytest.approx(1.0, abs=1e-12)
        assert ranked.certified_k == 1

    def test_certificate_soundness_by_enumeration(self, toy2):
        ds, freqs = toy2
        params = ModelParams(0.7, 0.09)
        ranked = certified_topk(
            ds, Hypothesis(), freqs, mode="mle", params=params, n_samples=4000, seed=3
        )
        threshold = 1.0 - ranked.total_mass
        discovered = {e.config for e in ranked.entries}
        for cfg in all_configs(ds):
            if cfg not in discovered:
                p = exact_pair_probability(cfg, ds, Hypothesis(), freqs, params=params)
                assert p <= threshold + 1e-12
        # entries sorted descending and certified entries lead the list
        probs = [e.probability for e in ranked.entries]
        assert probs == sorted(probs, reverse=True)
        assert all(e.probability > threshold for e in ranked.certified())

    def test_monotone_in_sampling_budget(self, toy2):
        ds, freqs = toy2
        params = ModelParams(0.7, 0.09)
        small = certified_topk(
            ds, Hypothesis(), freqs, mode="mle", params=params, n_samples=512, seed=4
        )
        large = certified_topk(
            ds, Hypothesis(), freqs, mode="mle", params=params, n_samples=4096, seed=4
        )
        assert large.total_mass >= small.total_mass - 1e-12
        assert large.certified_k >= small.certified_k
        assert {e.config for e in small.entries} <= {e.config for e in large.entries}

    def test_bayes_mode_certificate_and_symmetry(self, toy2):
        from peakmix.gibbs import bayes_config_probabilities, run_chain

        ds, freqs = toy2
        h = Hypothesis()
        samples, _ = run_chain(
            ds, h, GRID, BetaPrior(), freqs, n=1_500, burnin=300, thin=1, seed=5
        )
        bayes = certified_topk(
            ds, h, freqs, mode="bayes", grid=GRID, prior=BetaPrior(),
            sigma_samples=samples.sigma, chain_configs=samples.configs, seed=5,
        )
        assert bayes.total_mass == pytest.approx(1.0, abs=0.05)
        # soundness: nothing undiscovered beats the certificate threshold
        discovered = {e.config for e in bayes.entries}
        every = all_configs(ds)
        probs = bayes_config_probabilities(ds, h, samples.sigma, GRID, freqs, every)
        threshold = 1.0 - bayes.total_mass
        for cfg, p in zip(every, probs):
            if cfg not in discovered:
                assert p <= threshold + 1e-12
        # with both contributors unknown, mirrored configs carry equal mass
        by_cfg = dict(zip(every, probs))
        markers = ds.marker_ids()
        for cfg, p in by_cfg.items():
            mirror = GenotypeConfig(markers, tuple((b, a) for a, b in cfg.pairs))
            assert by_cfg[mirror] == pytest.approx(p, abs=1e-10)

    def test_bayes_mode_deterministic(self, toy2):
        ds, freqs = toy2
        kwargs = dict(
            mode="bayes", grid=GRID, prior=BetaPrior(),
            chain_n=800, chain_burnin=200, chain_thin=1, seed=5,
        )
        a = certified_topk(ds, Hypothesis(), freqs, **kwargs)
        b = certified_topk(ds, Hypothesis(), freqs, **kwargs)
        assert [(e.config, e.probability) for e in a.entries] == [
            (e.config, e.probability) for e in b.entries
        ]

    def test_perlin_mle_structure(self, perlin_ds, perlin_major, perlin_minor, perlin_freqs_synth):
        truth = GenotypeConfig.from_profiles(
            perlin_ds.marker_ids(), perlin_major, perlin_minor
        )
        fit = fit_joint(perlin_ds, Hypothesis(), perlin_freqs_synth)
        ranked = certified_topk(
            perlin_ds, Hypothesis(), perlin_freqs_synth, mode="mle",
            params=fit.params, n_samples=20_000, seed=6,
            truth=(perlin_major, perlin_minor),
        )
        assert len(ranked.entries) >= 8
        assert ranked.certified_k >= 2
        assert ranked.total_mass > 0.99
        assert ranked.entries[0].config == truth
        assert all(all(pair) for pair in ranked.entries[0].matches)

    def test_unknown_mode_rejected(self, toy2):
        ds, freqs = toy2
        with pytest.raises(ValueError):
            certified_topk(ds, Hypothesis(), freqs, mode="map")
