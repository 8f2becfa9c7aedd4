import math
from pathlib import Path

import numpy as np
import pytest

from peakmix.bootstrap import simulate_dataset
from peakmix.estimate import _joint_newton, _newton, _profile_derivatives, fit_joint, fit_sigma
from peakmix.io import read_peaks
from peakmix.likelihood import MixtureLikelihood, ThetaGrid
from peakmix.model import beta_from_sigma, sigma_from_beta
from peakmix.streams import substream
from peakmix.types import (
    Genotype,
    Hypothesis,
    MarkerData,
    MixtureDataset,
    ModelParams,
    Profile,
)


DATA = Path(__file__).resolve().parent / "data"

# the fitters must not lean on numpy's silent handling of overflow or nan
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

HYPOTHESES = ["both-known", "one-unknown", "both-unknown"]


@pytest.fixture
def perlin_ev(request, perlin_ds, perlin_major, perlin_minor, perlin_freqs_synth):
    h = {
        "both-known": Hypothesis(known1=perlin_major, known2=perlin_minor),
        "one-unknown": Hypothesis(known2=perlin_minor),
        "both-unknown": Hypothesis(),
    }[request.param]
    return MixtureLikelihood(perlin_ds, h, perlin_freqs_synth)


def _central(f, x, e):
    return (f(x + e) - f(x - e)) / (2 * e)


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("perlin_ev", HYPOTHESES, indirect=True)
    @pytest.mark.parametrize("sigma", [0.02, 0.07, 0.3])
    def test_loglik_matches_central_differences(self, perlin_ev, sigma):
        beta = beta_from_sigma(sigma)
        et, eb = 1e-4, 1e-3 * beta
        for theta in (0.3, 0.55, 0.7):
            ll, g, h = perlin_ev.grid_derivatives(np.array([theta]), beta)
            assert ll[0] == pytest.approx(perlin_ev.loglik(theta, sigma), abs=1e-12)
            f = lambda dt, db: float(perlin_ev.grid_loglik(np.array([theta + dt]), beta + db)[0])
            tb = (f(et, eb) - f(et, -eb) - f(-et, eb) + f(-et, -eb)) / (4 * et * eb)
            want_h = np.array(
                [
                    [(f(et, 0) - 2 * ll[0] + f(-et, 0)) / et**2, tb],
                    [tb, (f(0, eb) - 2 * ll[0] + f(0, -eb)) / eb**2],
                ]
            )
            want_g = [(f(et, 0) - f(-et, 0)) / (2 * et), (f(0, eb) - f(0, -eb)) / (2 * eb)]
            # compared with each parameter in units of its curvature scale
            scale = np.sqrt(np.abs(np.diag(want_h)))
            assert np.allclose(g[0] / scale, want_g / scale, rtol=0, atol=1e-4)
            unit = np.outer(scale, scale)
            assert np.allclose(h[0] / unit, want_h / unit, rtol=0, atol=1e-4)
            assert h[0, 0, 1] == h[0, 1, 0]

    @pytest.mark.parametrize("perlin_ev", HYPOTHESES, indirect=True)
    @pytest.mark.parametrize("sigma", [0.02, 0.07, 0.3])
    def test_profile_matches_central_differences(self, perlin_ev, sigma):
        grid = ThetaGrid.uniform(0.01)
        beta = beta_from_sigma(sigma)
        f = lambda b: perlin_ev.profile_loglik(grid, sigma_from_beta(b))
        prof, g, h = _profile_derivatives(perlin_ev, grid, beta)
        assert prof == pytest.approx(f(beta), abs=1e-12)
        e = 1e-5 * beta
        assert g == pytest.approx(_central(f, beta, e), rel=1e-6, abs=1e-9)
        e = 1e-3 * beta  # wider, so rounding in f stays far below the curvature
        assert h == pytest.approx((f(beta + e) - 2 * prof + f(beta - e)) / e**2, rel=1e-5)


class TestNewton:
    def test_rejects_non_finite_trials(self):
        # a*log(z) - z: the first Newton step from 3a lands at -3a, where
        # the log is undefined, so the search must halve back into z > 0
        a = 0.1

        def derivs(z):
            return a * np.log(z[0]) - z[0], np.array([a / z[0] - 1.0]), np.array([[-a / z[0] ** 2]])

        z, converged, evals = _newton(derivs, np.array([3 * a]))
        assert converged
        assert z[0] == pytest.approx(a, abs=1e-12)
        assert evals < 20

    def test_leaves_a_saddle(self):
        # x^2 - x^4 - y^2 is flat in x at x = 0; only the curvature step leaves it
        def derivs(z):
            x, y = z
            g = np.array([2 * x - 4 * x**3, -2 * y])
            return x**2 - x**4 - y**2, g, np.array([[2 - 12 * x**2, 0.0], [0.0, -2.0]])

        z, converged, _ = _newton(derivs, np.array([0.0, 0.3]))
        assert converged
        assert abs(z[0]) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert z[1] == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def perlin_both_known(perlin_ds, perlin_major, perlin_minor):
    return fit_joint(perlin_ds, Hypothesis(known1=perlin_major, known2=perlin_minor))


class TestFitJoint:
    def test_perlin_both_known_estimates(self, perlin_both_known):
        fit = perlin_both_known
        assert fit.converged
        assert fit.sigma == pytest.approx(0.067, abs=0.002)
        assert fit.theta == pytest.approx(0.696, abs=0.002)

    def test_perlin_both_known_intervals(self, perlin_both_known):
        lo, hi = perlin_both_known.ci99["sigma"]
        assert lo == pytest.approx(0.041, abs=0.002)
        assert hi == pytest.approx(0.094, abs=0.002)
        lo, hi = perlin_both_known.ci99["theta"]
        assert lo == pytest.approx(0.667, abs=0.002)
        assert hi == pytest.approx(0.725, abs=0.002)

    def test_perlin_both_known_correlation(self, perlin_both_known):
        assert perlin_both_known.corr == pytest.approx(-0.042, abs=0.01)

    def test_gradient_vanishes_at_optimum(self, perlin_ds, perlin_major, perlin_minor, perlin_both_known):
        ev = MixtureLikelihood(
            perlin_ds, Hypothesis(known1=perlin_major, known2=perlin_minor)
        )
        fit = perlin_both_known
        eps = 1e-5
        dtheta = (ev.loglik(fit.theta + eps, fit.sigma) - ev.loglik(fit.theta - eps, fit.sigma)) / (2 * eps)
        dsigma = (ev.loglik(fit.theta, fit.sigma + eps) - ev.loglik(fit.theta, fit.sigma - eps)) / (2 * eps)
        scale = 1e-3 * max(1.0, abs(fit.loglik))
        assert abs(dtheta) < scale
        assert abs(dsigma) < scale

    def test_start_invariance(self, perlin_ds, perlin_major, perlin_minor, perlin_both_known):
        ev = MixtureLikelihood(perlin_ds, Hypothesis(known1=perlin_major, known2=perlin_minor))
        for t0 in (0.3, 0.55, 0.9):
            for s0 in (0.02, 0.1, 0.3):
                theta, sigma, converged, _ = _joint_newton(ev, (t0, s0))
                assert converged
                assert sigma == pytest.approx(perlin_both_known.sigma, abs=5e-4)
                assert theta == pytest.approx(perlin_both_known.theta, abs=5e-4)

    def test_both_unknown_reports_major_share(self, evett_ds, evett_freqs_synth):
        fit = fit_joint(evett_ds, Hypothesis(), evett_freqs_synth)
        assert fit.theta >= 0.5
        assert "theta-symmetric-ridge" in fit.warnings
        assert fit.theta == pytest.approx(0.895, abs=0.01)
        assert fit.sigma == pytest.approx(0.096, abs=0.01)

    def test_balanced_four_allele_finds_the_higher_mode(self, perlin_freqs_synth):
        # theta = 1/2 is a stationary point of a both-unknown likelihood; a
        # fit started there stops at l = 51.067, below the mode near
        # theta = 0.519, sigma = 0.0148
        ds = read_peaks(DATA / "balanced_four_allele.csv")
        fit = fit_joint(ds, Hypothesis(), perlin_freqs_synth)
        assert fit.converged
        assert fit.loglik >= 53.47
        assert fit.theta == pytest.approx(0.5187, abs=1e-3)
        assert fit.sigma == pytest.approx(0.0148, abs=1e-3)

    def test_ci_respects_domain(self, evett_ds, evett_freqs_synth):
        fit = fit_joint(evett_ds, Hypothesis(), evett_freqs_synth)
        for lo, hi in fit.ci99.values():
            assert 0.0 < lo < hi < 1.0


class TestFitSigma:
    def test_perlin_both_known(self, perlin_ds, perlin_major, perlin_minor, perlin_both_known):
        h = Hypothesis(known1=perlin_major, known2=perlin_minor)
        fit = fit_sigma(perlin_ds, h, ThetaGrid.uniform(0.01))
        assert fit.converged and not fit.boundary
        # profile and joint estimates agree closely for strongly identified data
        assert fit.sigma == pytest.approx(perlin_both_known.sigma, abs=0.002)
        lo, hi = fit.ci99["sigma"]
        assert 0.0 < lo < fit.sigma < hi < 1.0

    def test_curvature_matches_reported_se(self, perlin_ds, perlin_major, perlin_minor):
        h = Hypothesis(known1=perlin_major, known2=perlin_minor)
        grid = ThetaGrid.uniform(0.01)
        fit = fit_sigma(perlin_ds, h, grid)
        ev = MixtureLikelihood(perlin_ds, h)
        step = max(1e-4, 1e-3 * fit.sigma)
        ll = lambda s: ev.profile_loglik(grid, s)
        d2 = (ll(fit.sigma + step) - 2 * ll(fit.sigma) + ll(fit.sigma - step)) / step**2
        assert 1.0 / fit.se["sigma"] ** 2 == pytest.approx(-d2, rel=0.05)

    def test_balanced_data_hits_lower_boundary(self):
        # two identical perfectly balanced heterozygote markers, both fixed:
        # the likelihood increases monotonically as sigma shrinks
        g = Genotype("a", "b")
        profile = Profile({"M1": g, "M2": g})
        ds = MixtureDataset(
            (
                MarkerData("M1", ("a", "b"), np.array([0.5, 0.5])),
                MarkerData("M2", ("a", "b"), np.array([0.5, 0.5])),
            )
        )
        fit = fit_sigma(
            ds,
            Hypothesis(known1=profile, known2=profile),
            ThetaGrid.uniform(0.01),
        )
        assert fit.boundary
        assert fit.sigma == pytest.approx(0.005, abs=1e-3)


@pytest.mark.slow
class TestSimulationCoverage:
    def test_sigma_recovery(self, perlin_major, perlin_minor):
        # refits on data simulated at sigma=0.07 recover the truth within
        # 3 sampling standard errors at least 99% of the time, and the
        # curvature-based stderr agrees with the simulation's own sd
        h = Hypothesis(known1=perlin_major, known2=perlin_minor)
        markers = sorted(perlin_major.markers())
        template = _template_for(h, markers)
        truth = ModelParams(theta=0.7, sigma=0.07)
        grid = ThetaGrid.uniform(0.01)
        n = 400
        hats, ses = [], []
        for i in range(n):
            rng = substream(202, i)
            sim = simulate_dataset(template, h, truth, None, rng)
            fit = fit_sigma(sim, h, grid)
            hats.append(fit.sigma)
            ses.append(fit.se["sigma"])
        hats = np.asarray(hats)
        stderr = hats.std(ddof=1)
        covered = np.mean(np.abs(hats - truth.sigma) <= 3 * stderr)
        assert covered >= 0.99
        assert abs(hats.mean() - truth.sigma) <= 3 * stderr / math.sqrt(n)
        assert np.mean(ses) == pytest.approx(stderr, rel=0.2)


def _template_for(h: Hypothesis, markers) -> MixtureDataset:
    mds = []
    for m in markers:
        support = sorted(
            h.known1.genotype(m).support() | h.known2.genotype(m).support()
        )
        sizes = np.full(len(support), 1.0 / len(support))
        mds.append(MarkerData(m, tuple(support), sizes))
    return MixtureDataset(tuple(mds))
