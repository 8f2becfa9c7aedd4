"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout()

import cases  # noqa: E402
import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

REFS = run.load_refs()


# -- tracer -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    t = tr.Tracer()
    t.spans = [
        tr.Span("root", 0.0, 10.0, -1),
        tr.Span("a", 1.0, 4.0, 0),
        tr.Span("leaf", 2.0, 3.0, 1),
        tr.Span("b", 5.0, 6.0, 0),
        tr.Span("leaf", 7.0, 9.5, 0),
    ]
    assert t.self_times() == pytest.approx([10 - 3 - 1 - 2.5, 3 - 1, 1, 1, 2.5])
    tot = t.totals()
    assert tot["leaf"] == pytest.approx({"calls": 2, "total_s": 3.5, "self_s": 3.5})
    assert tot["root"]["total_s"] == pytest.approx(10.0)


def test_recorded_spans_nest_and_restore():
    t = tr.Tracer()
    t.span("outer", t.span, "inner", sum, [1, 2])
    assert [(s.name, s.parent) for s in t.spans] == [("outer", -1), ("inner", 0)]
    assert t.spans[1].start >= t.spans[0].start and t.spans[1].end <= t.spans[0].end
    assert t._stack == []


def test_wrappers_install_uninstall_and_tolerate_missing_names():
    import peakmix.bootstrap
    import peakmix.likelihood

    before = (peakmix.bootstrap.fit_joint, peakmix.likelihood.MixtureLikelihood.loglik)
    t = tr.Tracer()
    tr.install_peakmix(t)
    t.wrap("peakmix.likelihood.NoSuchName", "gone")
    t.wrap("peakmix.no_such_module.f", "gone")
    try:
        assert peakmix.bootstrap.fit_joint is not before[0]
        assert t.missing == ["peakmix.likelihood.NoSuchName", "peakmix.no_such_module.f"]
    finally:
        t.uninstall()
    assert (peakmix.bootstrap.fit_joint, peakmix.likelihood.MixtureLikelihood.loglik) == before


def test_traced_fit_counts_evaluations():
    import peakmix.deconvolve

    inputs = run.perlin_inputs()
    t = tr.Tracer()
    tr.install_peakmix(t)
    try:
        res = peakmix.deconvolve.fit_joint(inputs.ds, inputs.hp, inputs.freqs)
    finally:
        t.uninstall()
    tot = t.totals()
    assert tot["estimate.fit_joint"]["calls"] == 1
    assert t.counters["estimate.evals"] == res.evals
    # the fitter's count omits its coarse start grid; the wrapper sees both
    assert tot["likelihood.point"]["calls"] > res.evals
    assert tot["likelihood.build"]["calls"] == 1


# -- case generator -------------------------------------------------------------


def _case(kind, index, seed, tmp_path):
    inputs = run.perlin_inputs()
    rec = cases.make_case(kind, index, seed, inputs.ds, inputs.freqs, tmp_path / f"{index}-{seed}")
    return Path(rec["path"]).read_bytes(), rec


@pytest.mark.parametrize("kind", ["typical", "diffuse"])
def test_cases_reproducible_per_seed(tmp_path, kind):
    a, rec = _case(kind, 0, 5, tmp_path / "a")
    b, _ = _case(kind, 0, 5, tmp_path / "b")
    c, _ = _case(kind, 0, 6, tmp_path / "c")
    d, _ = _case(kind, 1, 5, tmp_path / "d")
    assert a == b
    assert a != c and a != d
    ranges = cases.KINDS[kind]
    assert ranges["theta"][0] <= rec["theta"] <= ranges["theta"][1]
    assert ranges["sigma"][0] <= rec["sigma"] <= ranges["sigma"][1]
    if kind == "diffuse":
        assert rec["alleles_per_marker"] == [4] * len(rec["alleles_per_marker"])


# -- output checks ----------------------------------------------------------------


def _write_csv(path, header, rows, comment="# config"):
    with open(path, "w", newline="") as fh:
        fh.write(comment + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _bootstrap_report(out: Path, shift_lr=0.0):
    ref = REFS["bootstrap"]
    mc = ref["replicates"]
    n = workloads.BOOT_N
    rows, cols = [], ("sigma_hat", "theta_hat", "log10_lr")
    for i in range(n):
        sign = 1 if i % 2 else -1
        rows.append([i] + [mc[c]["mean"] + sign * 0.5 * mc[c]["sd"] for c in cols])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "bootstrap.csv", ["replicate", *cols], rows)
    lrs = [r[3] for r in rows]
    report = {
        "n": n,
        "n_failed": 0,
        "baseline": dict(ref["baseline"]),
        "baseline_log10_lr": ref["baseline_log10_lr"] + shift_lr,
        "ci99_log10_lr": [min(lrs), max(lrs)],
        "histograms": {c: {"mean": sum(r[k + 1] for r in rows) / n} for k, c in enumerate(cols)},
    }
    (out / "lr.json").write_text(json.dumps(report))


def test_bootstrap_check_rejects_shifted_log10_lr(tmp_path):
    _bootstrap_report(tmp_path / "ok")
    assert checks.check_bootstrap(tmp_path / "ok", REFS["bootstrap"], workloads.BOOT_N) == []
    _bootstrap_report(tmp_path / "bad", shift_lr=1e-3)
    failures = checks.check_bootstrap(tmp_path / "bad", REFS["bootstrap"], workloads.BOOT_N)
    assert len(failures) == 1 and failures[0].startswith("baseline_log10_lr")


def test_bayes_check_uses_the_oracle(tmp_path):
    ref = REFS["bayes"]
    n_kept = len(range(workloads.BURNIN, workloads.CHAIN_N, workloads.THIN))
    for name, lr, ok in (("ok", ref["oracle_log10_lr"] + 0.01, True), ("bad", ref["oracle_log10_lr"] + 0.2, False)):
        out = tmp_path / name
        out.mkdir()
        (out / "lr.json").write_text(
            json.dumps({"log10_lr": lr, "mc_se": 0.005, "n_samples": n_kept})
        )
        assert (checks.check_bayes(out, ref, n_kept) == []) is ok


def _deconvolution_report(out: Path, bump=0.0):
    ref = REFS["deconvolve"]
    entries = sorted(ref["entries"].items(), key=lambda kv: -kv[1])
    probs = [p for _, p in entries]
    probs[0] += bump
    mass = sum(probs)
    k = sum(p > 1 - mass for p in probs)
    first = dict(part.split("=") for part in entries[0][0].split(";"))
    header = ["rank", "probability", "certified", *first]
    rows = []
    for rank, ((key, _), p) in enumerate(zip(entries, probs), start=1):
        cols = dict(part.split("=") for part in key.split(";"))
        rows.append([rank, repr(p), int(rank <= k), *(cols[c] for c in first)])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "deconvolution.csv", header, rows)
    (out / "deconvolution.json").write_text(
        json.dumps({"total_mass": mass, "certified_k": k, "n_discovered": len(rows)})
    )


def test_deconvolution_check_rejects_changed_certified_probability(tmp_path):
    ref = REFS["deconvolve"]
    _deconvolution_report(tmp_path / "ok")
    assert checks.check_deconvolution_reference(tmp_path / "ok", ref) == []
    _deconvolution_report(tmp_path / "bad", bump=-1e-3)
    # the perturbed report is internally consistent; only the reference catches it
    assert checks.check_deconvolution(tmp_path / "bad", ref["n_samples"]) == []
    failures = checks.check_deconvolution_reference(tmp_path / "bad", ref)
    assert len(failures) == 1 and failures[0].startswith("probability of")


def test_deconvolution_structure_rejects_wrong_certified_k(tmp_path):
    _deconvolution_report(tmp_path)
    summary = json.loads((tmp_path / "deconvolution.json").read_text())
    summary["certified_k"] += 1
    (tmp_path / "deconvolution.json").write_text(json.dumps(summary))
    failures = checks.check_deconvolution(tmp_path, REFS["deconvolve"]["n_samples"])
    assert any(f.startswith("certified_k") for f in failures)


def test_aborted_bootstrap_call_fails_all_its_replicates(tmp_path):
    # no input files under tmp_path, so the CLI exits nonzero and writes no report
    wl = workloads.Bootstrap(5, tmp_path, tmp_path, REFS)
    rec = run.one_call(wl, 0, tmp_path)
    assert rec["code"] != 0 and rec["failures"]
    assert rec["units"] == 0 and rec["sub_failed"] == workloads.BOOT_N


# -- end-to-end metrics -------------------------------------------------------------


def test_end_to_end_scales_timings_by_the_measured_slowdown():
    import machine

    ref = machine.REFERENCE_S
    assert machine.slowdown(ref, 3 * ref) == pytest.approx(2.0)
    # the slow calls ran while the machine was slow: adjusted, all take 1 s
    setups = [{"wall_s": w, "slowdown": w / 2} for w in (3.0, 4.0, 5.0)]
    records = [{"units": 4, "seconds": s, "slowdown": s} for s in (1.0, 2.0, 4.0)]
    metrics, raw = run.end_to_end(records, setups, 100.0)
    assert raw == pytest.approx({"setup_s": 4.0, "work_per_s": 2.0, "call_s_p50": 2.0, "slowdown_p50": 2.0})
    assert metrics == pytest.approx(
        {"setup_s": 2.0, "peak_rss_mb": 100.0, "work_per_s": 4.0, "call_s_p50": 1.0}
    )


def test_machine_kernel_is_timed_and_does_not_load_peakmix():
    import subprocess

    code = "import sys, machine; t = machine.kernel(); assert t > 0; assert 'peakmix' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- declared metrics -------------------------------------------------------------


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
