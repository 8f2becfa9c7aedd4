#!/usr/bin/env python3
"""peakmix benchmark: closed-loop workloads driven through the CLI entry point.

    python3 bench/run.py --workload {bootstrap,bayes,deconvolve} \
        --seed N --seconds S --trace {0,1}

Run from the root of a peakmix checkout (it imports ``src/peakmix`` and reads
``data/``).  One process, one thread, one client: each workload calls
``peakmix.cli.main(argv)`` in-process, the path a ``peakmix ...`` command
takes, and starts the next call only when the previous one has returned.
Every report a call writes is checked (see checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 makes each call plain
and then traced, and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Results, the environment record and the spans are
also written under .bench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC, DATA = ROOT / "src", ROOT / "data"
WORK = ROOT / ".bench_run"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 3
REQUIRED = (
    SRC / "peakmix" / "cli.py",
    DATA / "perlin_peaks.csv",
    DATA / "perlin_freqs_synthetic.csv",
    DATA / "perlin_minor.csv",
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "call_s_p50": "s",
}
# Workload-specific names of the shared metrics, for the printed summary.
WORKLOAD_NAMES = {
    "bootstrap": {"work_per_s": "boot_reps_per_s"},
    "bayes": {"work_per_s": "bayes_sweeps_per_s"},
    "deconvolve": {"work_per_s": "deconv_cases_per_s", "call_s_p50": "deconv_case_s_p50"},
}
PER_LAYER = {
    "cli.import_s": "s",
    "io.read_ms": "ms",
    "io.write_ms": "ms",
    "likelihood.builds_per_unit": "count",
    "likelihood.build_ms": "ms",
    "likelihood.point_evals_per_unit": "count",
    "likelihood.point_us": "us",
    "likelihood.log10_lr_ms": "ms",
    "estimate.fit_joint_ms": "ms",
    "estimate.evals_per_fit": "count",
    "bootstrap.simulate_ms": "ms",
    "gibbs.sweep_ms": "ms",
    "gibbs.ars_ms": "ms",
    "gibbs.ars_logpdf_evals_per_draw": "count",
    "gibbs.theta_genotype_ms": "ms",
    "gibbs.marginal_ms_per_beta": "ms",
    "deconvolve.fit_ms": "ms",
    "deconvolve.sample_ms": "ms",
    "deconvolve.score_ms": "ms",
    "deconvolve.distinct_per_draw": "ratio",
    "deconvolve.diffuse_share": "ratio",
    "deconvolve.diffuse_distinct_per_draw": "ratio",
    "deconvolve.diffuse_case_s": "s",
    "split.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def use_checkout():
    """Pin BLAS to one thread and import peakmix from this checkout's src/."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        raise SystemExit(f"bench: not a peakmix checkout, missing {', '.join(missing)}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for p in (str(BENCH), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)


def load_refs() -> dict:
    with open(BENCH / "refs.json") as fh:
        return json.load(fh)


def perlin_inputs():
    """Perlin fixture with synthetic frequencies: minor known vs both unknown."""
    from types import SimpleNamespace

    from peakmix import io
    from peakmix.types import Hypothesis

    return SimpleNamespace(
        ds=io.read_peaks(DATA / "perlin_peaks.csv"),
        freqs=io.read_frequencies(DATA / "perlin_freqs_synthetic.csv"),
        hp=Hypothesis(known2=io.read_profile(DATA / "perlin_minor.csv")),
        hd=Hypothesis(),
    )


def make_workload(name: str, seed: int, work: Path):
    import workloads

    return workloads.WORKLOADS[name](seed, work, DATA, load_refs())


def git_commit() -> str | None:
    """HEAD of the checkout's own .git; None when it has none or git is absent."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process, one thread",
        "platform": platform.platform(),
    }


# -- set-up ---------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child process: a fresh-interpreter import plus the workload's set-up."""
    use_checkout()
    t0 = time.perf_counter()
    import peakmix.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    work = WORK / f"probe-{os.getpid()}"
    try:
        make_workload(workload, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))
    return 0


def fresh_setups(workload: str, seed: int) -> list[dict]:
    """Time SETUP_PROBES fresh processes from spawn to exit, gauging the machine around each."""
    import machine

    out = []
    for _ in range(SETUP_PROBES):
        before = machine.kernel()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["wall_s"] = wall
        rec["slowdown"] = machine.slowdown(before, machine.kernel())
        out.append(rec)
    return out


# -- the closed loop --------------------------------------------------------


def invoke(argv: list[str]):
    """One in-process CLI call; returns (exit code, wall seconds)."""
    import peakmix.cli

    t0 = time.perf_counter()
    try:
        code = peakmix.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed call, not a crashed benchmark
        code = "exception: " + traceback.format_exc(limit=3)
    return code, time.perf_counter() - t0


def checked(check, out: Path, code) -> tuple:
    """Run check(out) on a successful call; a failed call or unreadable report fails."""
    if code != 0:
        return None, [f"exit code {code!r}"]
    try:
        return check(out), []
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return None, [f"unreadable report: {exc!r}"]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def one_call(wl, i: int, work: Path) -> dict:
    out = work / f"call{i:04d}"
    shutil.rmtree(out, ignore_errors=True)
    code, seconds = invoke(wl.argv(i, out))
    rec = {"i": i, "seconds": seconds, "code": code, "units": 0, "sub_failed": 0, "info": None}
    res, rec["failures"] = checked(lambda o: wl.check(i, o), out, code)
    if res is None:
        rec["sub_failed"] = wl.sub_ops
    else:
        rec["units"], rec["failures"], rec["sub_failed"], rec["info"] = res
    return rec


def closed_loop(wl, work: Path, seconds: float):
    """Back-to-back calls until `seconds` of call time have passed.

    The machine's reference kernel runs before the first call and after
    each call, outside the calls' time, so that two samples bracket each call.
    """
    import machine

    records, busy = [], 0.0
    before = machine.kernel()
    while busy < seconds:
        records.append(one_call(wl, len(records), work))
        after = machine.kernel()
        records[-1]["slowdown"] = machine.slowdown(before, after)
        before = after
        busy += records[-1]["seconds"]
    return records


def paired_trace(wl, work: Path, seconds: float, tracer):
    """Each call twice, plain then traced, until `seconds` of plain call time.

    Pairing the two back to back keeps the machine's drift out of the
    overhead estimate.
    """
    import tracer as tr

    plain, traced = [], []
    while sum(r["seconds"] for r in plain) < seconds:
        i = len(plain)
        plain.append(one_call(wl, i, work))
        tr.install_peakmix(tracer)
        try:
            traced.append(one_call(wl, i, work))
        finally:
            tracer.uninstall()
    return plain, traced


def side_calls(calls, work: Path) -> list[dict]:
    """Checked calls outside the timed stream (see Workload.warmup_calls)."""
    records = []
    for label, argv, check in calls:
        out = work / label
        code, seconds = invoke(argv(out))
        rec = {"label": label, "seconds": seconds, "code": code, "info": None}
        res, failures = checked(check, out, code)
        if res is not None:
            failures, rec["info"] = res
        rec["failures"] = [f"{label} case: {f}" for f in failures]
        records.append(rec)
    return records


# -- metrics ----------------------------------------------------------------


def end_to_end(records, setups, peak_rss_mb) -> tuple[dict, dict]:
    """(metrics at the reference machine speed, the same medians unadjusted).

    Each set-up probe and each timed call is divided by the slowdown the
    reference kernel measured just before and just after it (see
    machine.py); the metrics are medians of the adjusted values.
    """
    med = statistics.median
    raw = {
        "setup_s": med(s["wall_s"] for s in setups),
        "work_per_s": med(r["units"] / r["seconds"] for r in records),
        "call_s_p50": med(r["seconds"] for r in records),
        "slowdown_p50": med(r["slowdown"] for r in records),
    }
    metrics = {
        "setup_s": med(s["wall_s"] / s["slowdown"] for s in setups),
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": med(r["units"] * r["slowdown"] / r["seconds"] for r in records),
        "call_s_p50": med(r["seconds"] / r["slowdown"] for r in records),
    }
    return metrics, raw


def per_layer(tracer, traced, untraced, setups, wl_summary) -> dict:
    tot = tracer.totals()
    spans = tracer.spans

    def get(name, key="total_s"):
        return tot.get(name, {}).get(key, 0.0)

    def per(x, n):
        return x / n if n else 0.0

    def under(child, parent):
        return sum(
            s.end - s.start
            for s in spans
            if s.name == child and s.parent >= 0 and spans[s.parent].name == parent
        )

    units = len(traced)
    c = tracer.counters
    sweeps = c.get("gibbs.sweeps", 0)
    n_topk = get("deconvolve.certified_topk", "calls")
    fit_d = under("estimate.fit_joint", "deconvolve.certified_topk")
    sample_d = under("deconvolve.sample", "deconvolve.certified_topk")
    cli_s = get("cli.main")
    covered = (
        under("estimate.fit_joint", "bootstrap.bootstrap_lr")
        + get("bootstrap.simulate")
        + under("likelihood.log10_lr", "bootstrap.bootstrap_lr")
        + get("gibbs.run_chain")
        + get("gibbs.marginal")
        + get("deconvolve.certified_topk")
    )
    typical, diffuse = wl_summary.get("typical", {}), wl_summary.get("diffuse", {})
    t_traced = sum(r["seconds"] for r in traced)
    t_untraced = sum(r["seconds"] for r in untraced)
    return {
        "cli.import_s": statistics.median(s["import_s"] for s in setups),
        "io.read_ms": 1e3 * per(get("io.read"), units),
        "io.write_ms": 1e3 * per(get("io.write"), units),
        "likelihood.builds_per_unit": per(get("likelihood.build", "calls"), units),
        "likelihood.build_ms": 1e3 * per(get("likelihood.build", "self_s"), get("likelihood.build", "calls")),
        "likelihood.point_evals_per_unit": per(get("likelihood.point", "calls"), units),
        "likelihood.point_us": 1e6 * per(get("likelihood.point", "self_s"), get("likelihood.point", "calls")),
        "likelihood.log10_lr_ms": 1e3 * per(get("likelihood.log10_lr"), get("likelihood.log10_lr", "calls")),
        "estimate.fit_joint_ms": 1e3 * per(get("estimate.fit_joint", "self_s"), get("estimate.fit_joint", "calls")),
        "estimate.evals_per_fit": per(c.get("estimate.evals", 0), get("estimate.fit_joint", "calls")),
        "bootstrap.simulate_ms": 1e3 * per(get("bootstrap.simulate"), get("bootstrap.simulate", "calls")),
        "gibbs.sweep_ms": 1e3 * per(get("gibbs.run_chain"), sweeps),
        "gibbs.ars_ms": 1e3 * per(get("gibbs.ars"), get("gibbs.ars", "calls")),
        "gibbs.ars_logpdf_evals_per_draw": per(c.get("gibbs.ars_logpdf_evals", 0), c.get("gibbs.ars_draws", 0)),
        "gibbs.theta_genotype_ms": 1e3 * per(get("gibbs.run_chain") - get("gibbs.ars"), sweeps),
        "gibbs.marginal_ms_per_beta": 1e3 * per(get("gibbs.marginal"), c.get("gibbs.marginal_betas", 0)),
        "deconvolve.fit_ms": 1e3 * per(fit_d, n_topk),
        "deconvolve.sample_ms": 1e3 * per(sample_d, n_topk),
        "deconvolve.score_ms": 1e3 * per(get("deconvolve.certified_topk") - fit_d - sample_d, n_topk),
        "deconvolve.distinct_per_draw": typical.get("distinct_per_draw", 0.0),
        "deconvolve.diffuse_share": diffuse.get("diffuse_share", 0.0),
        "deconvolve.diffuse_distinct_per_draw": diffuse.get("distinct_per_draw", 0.0),
        "deconvolve.diffuse_case_s": diffuse.get("case_s_p50", 0.0),
        "split.covered_frac": per(covered, cli_s),
        "trace.overhead_frac": per(t_traced, t_untraced) - 1.0,
    }


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    # One CPU for the whole run, inherited by the set-up probes, so that the
    # reference kernel gauges the CPU the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setups = fresh_setups(args.workload, args.seed)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"work-{run_id}-{os.getpid()}"
    try:
        import peakmix.cli  # noqa: F401

        if not Path(peakmix.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"bench: imported peakmix from {peakmix.cli.__file__}, not {SRC}")
        env = environment(args)
        wl = make_workload(args.workload, args.seed, work)
        extra = side_calls(wl.warmup_calls(), work)
        if args.trace:
            import tracer as tr

            tracer = tr.Tracer()
            untraced, records = paired_trace(wl, work, args.seconds / 2, tracer)
        else:
            records = closed_loop(wl, work, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            extra += side_calls(wl.probe_calls(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # An operation is a CLI call, plus each of its sub-operations (bootstrap replicates).
    all_calls = records + (untraced if args.trace else [])
    summary = wl.summary(records + extra)
    failures = [f for r in all_calls + extra for f in r["failures"]]
    attempted = len(all_calls) * (1 + wl.sub_ops) + len(extra)
    failed = sum(1 for r in all_calls + extra if r["failures"])
    failed += sum(r["sub_failed"] for r in all_calls)

    if args.trace:
        metrics = per_layer(tracer, records, untraced, setups, summary)
        units = PER_LAYER
    else:
        metrics, raw = end_to_end(records, setups, peak_rss_mb)
        units = END_TO_END

    result = {
        "env": env,
        "workload": summary,
        "calls": [
            {k: r[k] for k in ("i", "seconds", "slowdown", "code", "units", "failures") if k in r}
            for r in all_calls
        ],
        "side_calls": extra,
        "setups": setups,
        "metrics": metrics,
    }
    if not args.trace:
        result["raw"] = raw
    if args.trace:
        result["missing_wrappers"] = tracer.missing
        result["layers"] = tracer.totals()
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{run_id}.jsonl")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{run_id}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print("env " + json.dumps(env, sort_keys=True))
    if summary:
        print("workload " + json.dumps(summary, sort_keys=True))
    for f in failures[:20]:
        print("FAILED " + f)
    aliases = WORKLOAD_NAMES[args.workload]
    for name, value in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"{name}{alias} = {value:.6g} {units[name]}")
    if not args.trace:
        print("unadjusted " + json.dumps({k: round(v, 6) for k, v in raw.items()}, sort_keys=True))
    print(f"calls = {len(records)}, {wl.unit} = {sum(r['units'] for r in records)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    use_checkout()
    sys.exit(main())
