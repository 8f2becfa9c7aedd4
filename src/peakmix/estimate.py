"""Maximum likelihood fitting of (theta, sigma) with Wald uncertainty.

The one-parameter fit maximizes the sigma-profile likelihood by bounded
1-d search; the two-parameter fit runs Nelder-Mead on logit-transformed
coordinates (keeping iterates interior) followed by coordinate parabolic
polish. Standard errors come from central-difference second derivatives
on the original scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit, logit

from .likelihood import MixtureLikelihood, ThetaGrid
from .model import beta_from_sigma
from .types import (
    FrequencyTable,
    Hypothesis,
    MixtureDataset,
    ModelParams,
)

Z99 = 2.5758  # normal quantile for 99% Wald intervals

_DOMAIN_EPS = 1e-9


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs for the likelihood maximizers."""

    sigma_lo: float = 0.005
    sigma_hi: float = 0.5
    max_evals: int = 200
    xatol: float = 1e-6
    f_atol: float = 1e-7
    max_evals_joint: int = 4000
    polish_rounds: int = 2
    start: tuple[float, float] | None = None


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


def numerical_hessian(
    f: Callable[[np.ndarray], float],
    x: Sequence[float],
    steps: Sequence[float],
) -> np.ndarray:
    """Symmetric central-difference Hessian of f at x."""
    x = np.asarray(x, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if np.any(steps <= 0):
        raise ValueError("step sizes must be positive")
    k = x.size
    hess = np.empty((k, k))
    f0 = f(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = steps[j]
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return 0.5 * (hess + hess.T)


def _clip_interval(lo: float, hi: float) -> tuple[float, float]:
    return (max(lo, _DOMAIN_EPS), min(hi, 1.0 - _DOMAIN_EPS))


def _fd_step(estimate: float) -> float:
    # balances truncation against roundoff in the loglik evaluations
    return max(1e-4, 1e-3 * estimate)


def _safe_step(x: float, step: float) -> float:
    """Shrink a stencil step so x +/- step stays inside (0, 1)."""
    return min(step, 0.5 * x, 0.5 * (1.0 - x))


def fit_sigma(
    ds: MixtureDataset,
    h: Hypothesis,
    grid: ThetaGrid,
    freqs: FrequencyTable | None = None,
    opts: FitOptions | None = None,
) -> FitResult:
    """Maximize the sigma-profile log likelihood over a bracketed interval."""
    opts = opts or FitOptions()
    ev = MixtureLikelihood(ds, h, freqs)
    ev.check_feasible()
    evals = 0

    def nll(s: float) -> float:
        nonlocal evals
        evals += 1
        return -ev.profile_loglik(grid, s)

    res = minimize_scalar(
        nll,
        bounds=(opts.sigma_lo, opts.sigma_hi),
        method="bounded",
        options={"xatol": opts.xatol, "maxiter": opts.max_evals},
    )
    sigma_hat = float(res.x)
    converged = bool(res.success)
    boundary = (
        sigma_hat - opts.sigma_lo <= 50 * opts.xatol
        or opts.sigma_hi - sigma_hat <= 50 * opts.xatol
    )

    step = _safe_step(sigma_hat, _fd_step(sigma_hat))
    ll0 = -nll(sigma_hat)
    d2 = (-nll(sigma_hat + step) - 2.0 * ll0 + -nll(sigma_hat - step)) / step**2
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
    sigmas = np.array([0.02, 0.05, 0.08, 0.12, 0.2, 0.35])
    ll = np.column_stack([ev.grid_loglik(thetas, beta_from_sigma(s)) for s in sigmas])
    k = int(np.argmax(ll))  # first maximum in theta-major order
    if not np.isfinite(ll.flat[k]):
        return 0.7, 0.08
    i, j = divmod(k, sigmas.size)
    return float(thetas[i]), float(sigmas[j])


def fit_joint(
    ds: MixtureDataset,
    h: Hypothesis,
    freqs: FrequencyTable | None = None,
    opts: FitOptions | None = None,
) -> FitResult:
    """Joint maximum likelihood fit of (theta, sigma) with Wald 99% intervals.

    With both contributors unknown the likelihood is symmetric in
    theta <-> 1-theta; the maximum with theta >= 0.5 is reported.
    """
    opts = opts or FitOptions()
    ev = MixtureLikelihood(ds, h, freqs)
    ev.check_feasible()
    evals = 0

    def loglik(theta: float, sigma: float) -> float:
        nonlocal evals
        evals += 1
        return ev.loglik(theta, sigma)

    def nll_z(z: np.ndarray) -> float:
        return -loglik(float(expit(z[0])), float(expit(z[1])))

    start = opts.start or _coarse_start(ev, h.both_unknown)
    z0 = np.array([logit(start[0]), logit(start[1])])
    res = minimize(
        nll_z,
        z0,
        method="Nelder-Mead",
        options={
            "fatol": opts.f_atol * 1e-2,
            "xatol": 1e-8,
            "maxfev": opts.max_evals_joint,
        },
    )
    theta_hat = float(expit(res.x[0]))
    sigma_hat = float(expit(res.x[1]))
    converged = bool(res.success)
    warnings: list[str] = []

    # coordinate parabolic polish on the original scale
    for _ in range(opts.polish_rounds):
        r = minimize_scalar(
            lambda t: -loglik(t, sigma_hat),
            bounds=_clip_interval(theta_hat - 0.02, theta_hat + 0.02),
            method="bounded",
            options={"xatol": 1e-9},
        )
        theta_hat = float(r.x)
        r = minimize_scalar(
            lambda s: -loglik(theta_hat, s),
            bounds=_clip_interval(sigma_hat - 0.02, sigma_hat + 0.02),
            method="bounded",
            options={"xatol": 1e-9},
        )
        sigma_hat = float(r.x)

    if h.both_unknown:
        warnings.append("theta-symmetric-ridge")
        if theta_hat < 0.5:
            theta_hat = 1.0 - theta_hat

    ll0 = loglik(theta_hat, sigma_hat)
    x_hat = np.array([sigma_hat, theta_hat])
    steps = np.array(
        [
            _safe_step(sigma_hat, _fd_step(sigma_hat)),
            _safe_step(theta_hat, _fd_step(theta_hat)),
        ]
    )
    hess = numerical_hessian(lambda x: loglik(x[1], x[0]), x_hat, steps)

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
        loglik=ll0,
        se={"sigma": se_sigma, "theta": se_theta},
        cov=cov,
        ci99=ci,
        corr=corr,
        converged=converged,
        evals=evals,
        warnings=tuple(warnings),
    )
