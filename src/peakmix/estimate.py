"""Maximum likelihood fitting of (theta, sigma) with Wald uncertainty.

Both fits run Newton's method on the analytic derivatives of the
likelihood core (`MixtureLikelihood.grid_derivatives`). The joint fit
works on (logit theta, log beta) from the best point of a coarse
(theta, sigma) grid; the sigma-only fit works on log beta, with theta
averaged over the grid prior and sigma clamped to [SIGMA_MIN, SIGMA_MAX].
Each step is halved until the log likelihood is finite and does not
fall. Where the Hessian is not negative definite the step follows the
gradient plus the direction of largest curvature, which leaves saddle
points. Standard errors come from the analytic Hessian on the
(sigma, theta) scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .likelihood import MixtureLikelihood, ThetaGrid, lse
from .model import beta_from_sigma, sigma_from_beta
from .types import (
    FrequencyTable,
    Hypothesis,
    MixtureDataset,
    ModelParams,
)

Z99 = 2.5758  # normal quantile for 99% Wald intervals

SIGMA_MIN = 0.005
SIGMA_MAX = 0.5

_DOMAIN_EPS = 1e-9
_START_SIGMAS = (0.02, 0.05, 0.08, 0.12, 0.2, 0.35)
_MAX_ITER = 100
_MAX_STEP = 2.0  # longest step in the transformed coordinates
_STEP_TOL = 1e-9
_GAIN_TOL = 1e-10  # relative to the log likelihood


@dataclass(frozen=True)
class FitResult:
    """Estimates, curvature-based uncertainty and bookkeeping for one fit."""

    sigma: float
    theta: float | None
    loglik: float
    se: dict[str, float]
    cov: np.ndarray
    ci99: dict[str, tuple[float, float]]
    corr: float | None
    converged: bool
    evals: int
    boundary: bool = False
    warnings: tuple[str, ...] = ()

    @property
    def params(self) -> ModelParams:
        if self.theta is None:
            raise ValueError("sigma-only fit has no theta estimate")
        return ModelParams(theta=self.theta, sigma=self.sigma)

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "theta": self.theta,
            "loglik": self.loglik,
            "se": dict(self.se),
            "cov": np.asarray(self.cov).tolist(),
            "ci99": {k: list(v) for k, v in self.ci99.items()},
            "corr": self.corr,
            "converged": self.converged,
            "evals": self.evals,
            "boundary": self.boundary,
            "warnings": list(self.warnings),
        }


def _clip_interval(lo: float, hi: float) -> tuple[float, float]:
    return (max(lo, _DOMAIN_EPS), min(hi, 1.0 - _DOMAIN_EPS))


def _reparam(grad: np.ndarray, hess: np.ndarray, d1: np.ndarray, d2: np.ndarray):
    """Gradient and Hessian after a coordinate-wise change of variables.

    d1 and d2 hold each old coordinate's first and second derivative with
    respect to its new one.
    """
    return grad * d1, hess * np.outer(d1, d1) + np.diag(grad * d2)


def _newton(derivs, z: np.ndarray, lo=-math.inf, hi=math.inf):
    """Maximize f from z by Newton steps with step halving; derivs(z) -> (f, grad, hess).

    Iterates are clipped to [lo, hi]. Returns the final point, whether it
    converged and the number of derivative evaluations.
    """

    def evaluate(z):
        with np.errstate(all="ignore"):  # non-finite trial values are rejected below
            f, g, h = derivs(z)
        return f, g, h, bool(np.isfinite(f) and np.all(np.isfinite(g)) and np.all(np.isfinite(h)))

    f, g, h, ok = evaluate(z)
    evals = 1
    if not ok:
        return z, False, evals
    for _ in range(_MAX_ITER):
        eig, vec = np.linalg.eigh(h)
        newton = bool(eig[-1] < 0)
        if newton:
            step = -vec @ ((vec.T @ g) / eig)
        else:
            # ascent along the gradient plus the direction of largest curvature
            v = vec[:, -1]
            step = g / max(1.0, float(np.linalg.norm(g))) + math.copysign(1.0, g @ v) * v
        length = float(np.linalg.norm(step))
        if length > _MAX_STEP:
            step *= _MAX_STEP / length
        # a Newton step whose predicted gain is lost in rounding is taken unchecked
        small = newton and -0.5 * float(g @ step) <= _GAIN_TOL * (1.0 + abs(f))
        t = 1.0
        while True:
            trial = np.clip(z + t * step, lo, hi)
            ft, gt, ht, ok = evaluate(trial)
            evals += 1
            if np.max(np.abs(trial - z)) <= _STEP_TOL:
                # the step is spent: a stationary point, a bound, or a failed search
                return (trial, newton or t == 1.0, evals) if ok else (z, False, evals)
            if ok and (small or ft >= f):
                break
            t *= 0.5
        z, f, g, h = trial, ft, gt, ht
    return z, False, evals


def _profile_derivatives(ev: MixtureLikelihood, grid: ThetaGrid, beta: float):
    """Sigma-profile log likelihood and its first two derivatives in beta.

    The derivatives are moments of the beta-gradient under the theta
    posterior on the grid: E[g] and E[h] + Var[g].
    """
    ll, g, h = ev.grid_derivatives(grid.points, beta)
    logp = grid.log_weights + ll
    prof = float(lse(logp))
    p = np.exp(logp - prof)
    gb = g[:, 1]
    mean = float(p @ gb)
    return prof, mean, float(p @ (h[:, 1, 1] + (gb - mean) ** 2))


def fit_sigma(
    ds: MixtureDataset,
    h: Hypothesis,
    grid: ThetaGrid,
    freqs: FrequencyTable | None = None,
) -> FitResult:
    """Maximize the sigma-profile log likelihood over [SIGMA_MIN, SIGMA_MAX]."""
    ev = MixtureLikelihood(ds, h, freqs)
    ev.check_feasible()

    def derivs(z):
        beta = math.exp(z[0])
        f, g, hb = _profile_derivatives(ev, grid, beta)
        return f, np.array([g * beta]), np.array([[hb * beta**2 + g * beta]])

    lo, hi = math.log(beta_from_sigma(SIGMA_MAX)), math.log(beta_from_sigma(SIGMA_MIN))
    start = max(_START_SIGMAS, key=lambda s: ev.profile_loglik(grid, s))
    z, converged, evals = _newton(derivs, np.array([math.log(beta_from_sigma(start))]), lo, hi)
    boundary = bool(z[0] <= lo or z[0] >= hi)
    beta = math.exp(z[0])
    sigma_hat = min(max(sigma_from_beta(beta), SIGMA_MIN), SIGMA_MAX)
    ll0, g, hb = _profile_derivatives(ev, grid, beta)
    evals += 1

    # d beta / d sigma = -2 sigma^-3, d2 beta / d sigma2 = 6 sigma^-4
    d2 = hb * 4.0 * sigma_hat**-6 + g * 6.0 * sigma_hat**-4
    warnings: list[str] = []
    if d2 < 0:
        var = -1.0 / d2
        se = math.sqrt(var)
        ci = _clip_interval(sigma_hat - Z99 * se, sigma_hat + Z99 * se)
    else:
        var = math.nan
        se = math.nan
        ci = (math.nan, math.nan)
        warnings.append("curvature-not-negative")

    return FitResult(
        sigma=sigma_hat,
        theta=None,
        loglik=ll0,
        se={"sigma": se},
        cov=np.array([[var]]),
        ci99={"sigma": ci},
        corr=None,
        converged=converged,
        evals=evals,
        boundary=boundary,
        warnings=tuple(warnings),
    )


def _coarse_start(ev: MixtureLikelihood, symmetric: bool) -> tuple[float, float]:
    thetas = np.arange(0.5 if symmetric else 0.1, 0.951, 0.05)
    if symmetric:
        thetas[0] = 0.51  # theta = 1/2 is stationary by symmetry: a Newton step keeps theta there
    sigmas = np.array(_START_SIGMAS)
    ll = np.column_stack([ev.grid_loglik(thetas, beta_from_sigma(s)) for s in sigmas])
    k = int(np.argmax(ll))  # first maximum in theta-major order
    if not np.isfinite(ll.flat[k]):
        return 0.7, 0.08
    i, j = divmod(k, sigmas.size)
    return float(thetas[i]), float(sigmas[j])


def _joint_newton(ev: MixtureLikelihood, start: tuple[float, float]):
    """Newton on (logit theta, log beta) from start = (theta, sigma).

    Returns (theta, sigma, converged, derivative evaluations).
    """

    def derivs(z):
        theta, beta = expit(z[0]), math.exp(z[1])
        ll, g, h = ev.grid_derivatives(np.array([theta]), beta)
        jt = theta * (1.0 - theta)
        d1 = np.array([jt, beta])
        d2 = np.array([jt * (1.0 - 2.0 * theta), beta])
        return (ll[0], *_reparam(g[0], h[0], d1, d2))

    z0 = np.array([logit(start[0]), math.log(beta_from_sigma(start[1]))])
    z, converged, evals = _newton(derivs, z0)
    return float(expit(z[0])), sigma_from_beta(math.exp(z[1])), converged, evals


def fit_joint(
    ds: MixtureDataset,
    h: Hypothesis,
    freqs: FrequencyTable | None = None,
) -> FitResult:
    """Joint maximum likelihood fit of (theta, sigma) with Wald 99% intervals.

    With both contributors unknown the likelihood is symmetric in
    theta <-> 1-theta; the maximum with theta >= 0.5 is reported.
    """
    ev = MixtureLikelihood(ds, h, freqs)
    ev.check_feasible()
    theta_hat, sigma_hat, converged, evals = _joint_newton(ev, _coarse_start(ev, h.both_unknown))
    warnings: list[str] = []
    if h.both_unknown:
        warnings.append("theta-symmetric-ridge")
        if theta_hat < 0.5:
            theta_hat = 1.0 - theta_hat

    ll, g, hess = ev.grid_derivatives(np.array([theta_hat]), beta_from_sigma(sigma_hat))
    evals += 1
    # to (theta, sigma): d beta / d sigma = -2 sigma^-3, d2 beta / d sigma2 = 6 sigma^-4
    _, hess = _reparam(
        g[0], hess[0], np.array([1.0, -2.0 * sigma_hat**-3]), np.array([0.0, 6.0 * sigma_hat**-4])
    )
    hess = hess[::-1, ::-1]  # (sigma, theta) order

    eigs = np.linalg.eigvalsh(hess)
    if np.all(eigs < 0):
        cov = np.linalg.inv(-hess)
        se_sigma = math.sqrt(cov[0, 0])
        se_theta = math.sqrt(cov[1, 1])
        corr = float(cov[0, 1] / (se_sigma * se_theta))
        ci = {
            "sigma": _clip_interval(sigma_hat - Z99 * se_sigma, sigma_hat + Z99 * se_sigma),
            "theta": _clip_interval(theta_hat - Z99 * se_theta, theta_hat + Z99 * se_theta),
        }
    else:
        warnings.append("hessian-not-negative-definite")
        cov = np.full((2, 2), math.nan)
        se_sigma = se_theta = math.nan
        corr = None
        ci = {"sigma": (math.nan, math.nan), "theta": (math.nan, math.nan)}

    return FitResult(
        sigma=sigma_hat,
        theta=theta_hat,
        loglik=float(ll[0]),
        se={"sigma": se_sigma, "theta": se_theta},
        cov=cov,
        ci99=ci,
        corr=corr,
        converged=converged,
        evals=evals,
        warnings=tuple(warnings),
    )
