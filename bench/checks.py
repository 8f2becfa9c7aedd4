"""Checks on the reports the CLI wrote; each returns a list of failures.

Deterministic values are compared with the references in ``refs.json`` to
a tight tolerance.  Seeded stochastic values are compared within a
Monte Carlo tolerance, so a change that legitimately reorders random
draws still passes while a wrong answer does not.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Deterministic tolerances (absolute).  The fitter converges to about 1e-7
# in (theta, sigma); a log10 LR evaluated at the shared MLE moves to first
# order with the hd likelihood, so it gets the looser 1e-4 (still ten
# times tighter than the 1e-3 shift the checker's own test must catch).
PARAM_TOL = 1e-5
LOGLIK_TOL = 1e-6
LOG10_LR_TOL = 1e-4
PROB_TOL = 1e-5
# Monte Carlo tolerances, in standard errors.
Z_MC = 5.0
# Floor on the Bayes LR tolerance: the report's mc_se assumes independent
# draws, which understates the error of a short autocorrelated chain.
BAYES_MC_FLOOR = 0.05


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _close(failures, what, got, want, tol):
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol):
        failures.append(f"{what}: got {got!r}, reference {want!r} (tol {tol:g})")


def check_bootstrap(out: Path, ref: dict, n: int) -> list[str]:
    """lr.json and bootstrap.csv of one `peakmix bootstrap` call."""
    f: list[str] = []
    rep = read_json(out / "lr.json")
    base = rep["baseline"]
    _close(f, "baseline.sigma", base["sigma"], ref["baseline"]["sigma"], PARAM_TOL)
    _close(f, "baseline.theta", base["theta"], ref["baseline"]["theta"], PARAM_TOL)
    _close(f, "baseline.loglik", base["loglik"], ref["baseline"]["loglik"], LOGLIK_TOL)
    _close(f, "baseline_log10_lr", rep["baseline_log10_lr"], ref["baseline_log10_lr"], LOG10_LR_TOL)
    if rep["n"] != n:
        f.append(f"n: got {rep['n']}, asked for {n}")
    rows = read_csv(out / "bootstrap.csv")
    n_ok = rep["n"] - rep["n_failed"]
    if len(rows) != n_ok:
        f.append(f"bootstrap.csv has {len(rows)} rows, report says {n_ok} replicates")
        return f
    mc = ref["replicates"]
    for key in ("log10_lr", "sigma_hat", "theta_hat"):
        vals = [float(r[key]) for r in rows]
        mean = sum(vals) / len(vals)
        hist_mean = rep["histograms"][key]["mean"]
        if abs(mean - hist_mean) > 1e-9 * (1 + abs(mean)):
            f.append(f"{key}: csv mean {mean!r} != report mean {hist_mean!r}")
        tol = Z_MC * mc[key]["sd"] * math.sqrt(1.0 / len(vals) + 1.0 / mc["n"])
        _close(f, f"mean {key}", mean, mc[key]["mean"], tol)
    lo, hi = rep["ci99_log10_lr"]
    lrs = [float(r["log10_lr"]) for r in rows]
    eps = 1e-9 * (1 + max(map(abs, lrs)))
    if not min(lrs) - eps <= lo <= sum(lrs) / len(lrs) <= hi <= max(lrs) + eps:
        f.append(f"ci99_log10_lr {lo!r}..{hi!r} is not a percentile interval of the replicates")
    return f


def check_bayes(out: Path, ref: dict, n_samples: int) -> list[str]:
    """lr.json of one `peakmix evidence --method bayes` call against the quadrature oracle."""
    f: list[str] = []
    rep = read_json(out / "lr.json")
    if rep["n_samples"] != n_samples:
        f.append(f"n_samples: got {rep['n_samples']}, expected {n_samples}")
    se = rep["mc_se"]
    if not (isinstance(se, float) and math.isfinite(se) and se >= 0):
        f.append(f"mc_se {se!r} is not a finite non-negative number")
        se = 0.0
    tol = max(Z_MC * se, BAYES_MC_FLOOR)
    _close(f, "bayes log10_lr", rep["log10_lr"], ref["oracle_log10_lr"], tol)
    return f


def config_key(row: dict[str, str]) -> str:
    return ";".join(f"{k}={row[k]}" for k in sorted(row) if k.startswith(("c1_", "c2_")))


def check_deconvolution(out: Path, n_samples: int) -> list[str]:
    """Structural checks on one certified deconvolution report."""
    f: list[str] = []
    summary = read_json(out / "deconvolution.json")
    rows = read_csv(out / "deconvolution.csv")
    mass, k = summary["total_mass"], summary["certified_k"]
    probs = [float(r["probability"]) for r in rows]
    if len(rows) != summary["n_discovered"]:
        f.append(f"csv has {len(rows)} entries, report says {summary['n_discovered']}")
    if not 0 < mass <= 1 + 1e-9:
        f.append(f"total_mass {mass!r} outside (0, 1]")
    if abs(sum(probs) - mass) > 1e-9 * max(1, len(probs)):
        f.append(f"entry probabilities sum to {sum(probs)!r}, total_mass is {mass!r}")
    if any(b > a for a, b in zip(probs, probs[1:])):
        f.append("entries are not sorted by probability")
    expect_k = sum(1 for p in probs if p > 1.0 - mass)
    if k != expect_k:
        f.append(f"certified_k {k} but {expect_k} entries exceed 1 - mass")
    flags = [int(r["certified"]) for r in rows]
    if flags != [1] * k + [0] * (len(rows) - k):
        f.append("certified flags do not mark exactly the first certified_k entries")
    if not 0 < len(rows) <= n_samples:
        f.append(f"{len(rows)} distinct configurations from {n_samples} samples")
    return f


def check_deconvolution_reference(out: Path, ref: dict) -> list[str]:
    """Certified entries of the fixed reference case against stored probabilities."""
    f = check_deconvolution(out, ref["n_samples"])
    table = ref["entries"]
    rows = read_csv(out / "deconvolution.csv")
    k = read_json(out / "deconvolution.json")["certified_k"]
    if k < 1:
        f.append("reference case certified nothing")
    for row in rows[:k]:
        key = config_key(row)
        if key not in table:
            f.append(f"certified entry {key} is not in the reference table")
            continue
        _close(f, f"probability of {key}", float(row["probability"]), table[key], PROB_TOL)
    return f
