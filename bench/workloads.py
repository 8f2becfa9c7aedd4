"""The three closed-loop workloads: what one CLI call is and how it is checked.

Each workload builds the argv of call i, and checks the reports that call
wrote.  ``check`` returns (units of work done, failures, failed
sub-operations, info); a failure is a report that disagrees with its
reference or breaks a structural rule.  A call that exits nonzero leaves
no report, and all ``sub_ops`` of its sub-operations count as failed.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path

import cases
import checks

# Calls are kept to about 2 s so that a run's median rests on 15 or more
# of them: the shared machine's speed moves by up to a third from one call
# to the next.
BOOT_N = 4  # bootstrap replicates per call
# Per chain; two chains per call.  THIN is the CLI default, so marginal
# averaging gets about the share of a paper-sized run (20 of 150 draws kept
# here, 10k of 55k there).
CHAIN_N, BURNIN, THIN = 150, 50, 5
N_SAMPLES = 100_000  # the CLI's default --n-samples
THETA_STEP = 0.01  # the CLI's default --theta-grid
REF_CASE_SEED = 17
WARMUP_CALL = 800_000  # call index of the untimed warm-up call
DIFFUSE_CALL = 900_000  # first call index whose seed the diffuse probes use
DIFFUSE_PROBES = 3
# A diffuse case's cost grows with its distinct configurations, up to one per
# draw; the probes use fewer draws so they stay a small part of a run.
DIFFUSE_SAMPLES = 10_000


def call_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


class Workload:
    name = ""
    unit = ""
    sub_ops = 0  # sub-operations per call that count as operations of their own

    def __init__(self, seed: int, work: Path, data: Path, refs: dict):
        self.seed, self.work, self.data, self.refs = seed, work, data, refs
        self.perlin = [
            "--peaks", str(data / "perlin_peaks.csv"),
            "--freqs", str(data / "perlin_freqs_synthetic.csv"),
        ]

    def argv(self, i: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, out: Path):
        raise NotImplementedError

    def warmup_calls(self):
        """Checked, untimed calls made before the timed loop.

        Each is (label, argv(out), check(out) -> (failures, info)).  The
        default is one call of the workload's own kind on inputs outside
        the timed stream.
        """
        i = WARMUP_CALL
        yield "warmup", lambda out: self.argv(i, out), lambda out: (self.check(i, out)[1], None)

    def probe_calls(self):
        """Checked calls made after the timed loop of a traced run, in warmup_calls' shape."""
        return iter(())

    def summary(self, records: list[dict]) -> dict:
        """Workload record from the checked calls (each has "seconds" and "info")."""
        return {}


class Bootstrap(Workload):
    """`peakmix bootstrap`, Perlin, unknown+minor vs two unknowns, BOOT_N replicates."""

    name, unit = "bootstrap", "replicates"
    sub_ops = BOOT_N

    def argv(self, i, out):
        return [
            "bootstrap", *self.perlin,
            "--profile", f"minor={self.data / 'perlin_minor.csv'}:2",
            "--hypothesis", "unknown,minor", "--hd", "unknown,unknown",
            "--n", str(BOOT_N), "--seed", str(call_seed(self.seed, i)), "--out", str(out),
        ]

    def check(self, i, out):
        failures = checks.check_bootstrap(out, self.refs["bootstrap"], BOOT_N)
        n_failed = checks.read_json(out / "lr.json")["n_failed"]
        return BOOT_N - n_failed, failures, n_failed, {}


class Bayes(Workload):
    """`peakmix evidence --method bayes`: two chains of CHAIN_N sweeps, then marginal averaging."""

    name, unit = "bayes", "sweeps"

    def argv(self, i, out):
        return [
            "evidence", "--method", "bayes", *self.perlin,
            "--profile", f"minor={self.data / 'perlin_minor.csv'}:2",
            "--hypothesis", "unknown,minor", "--hd", "unknown,unknown",
            "--chain-n", str(CHAIN_N), "--burnin", str(BURNIN), "--thin", str(THIN),
            "--seed", str(call_seed(self.seed, i)), "--out", str(out),
        ]

    def check(self, i, out):
        n_kept = len(range(BURNIN, CHAIN_N, THIN))
        failures = checks.check_bayes(out, self.refs["bayes"], n_kept)
        return 2 * CHAIN_N, failures, 0, {}


class Deconvolve(Workload):
    """`peakmix deconvolve --method mle` on a stream of distinct synthetic cases.

    Typical cases form the timed stream.  The fixed reference case is the
    warm-up call, and a traced run makes DIFFUSE_PROBES diffuse-kind cases
    after the stream, checked and timed apart from it (see cases.py).
    """

    name, unit = "deconvolve", "cases"
    PREGENERATED = 12

    def __init__(self, seed, work, data, refs):
        super().__init__(seed, work, data, refs)
        from peakmix import io

        self.template = io.read_peaks(data / "perlin_peaks.csv")
        self.freqs = io.read_frequencies(data / "perlin_freqs_synthetic.csv")
        self.cases: list[dict] = []
        self._ensure(self.PREGENERATED - 1)

    def _make(self, kind, index):
        return cases.make_case(kind, index, self.seed, self.template, self.freqs, self.work / "cases")

    def _ensure(self, i):
        while len(self.cases) <= i:
            self.cases.append(self._make("typical", len(self.cases)))

    def _argv(self, peaks, seed, out, n_samples=N_SAMPLES):
        return [
            "deconvolve", "--method", "mle", "--n-samples", str(n_samples),
            "--peaks", str(peaks), "--freqs", str(self.data / "perlin_freqs_synthetic.csv"),
            "--hypothesis", "unknown,unknown", "--seed", str(seed), "--out", str(out),
        ]

    def argv(self, i, out):
        self._ensure(i)
        return self._argv(self.cases[i]["path"], call_seed(self.seed, i), out)

    def _case_info(self, case, out, n_samples=N_SAMPLES):
        summary = checks.read_json(out / "deconvolution.json")
        return {
            "kind": case["kind"],
            "certified_k": summary["certified_k"],
            "n_samples": n_samples,
            "n_discovered": summary["n_discovered"],
            "alleles_per_marker": case["alleles_per_marker"],
        }

    def check(self, i, out):
        failures = checks.check_deconvolution(out, N_SAMPLES)
        return 1, failures, 0, self._case_info(self.cases[i], out)

    def warmup_calls(self):
        """The reference case: Perlin, both unknown, against stored probabilities."""

        def reference_check(out):
            return checks.check_deconvolution_reference(out, self.refs["deconvolve"]), None

        yield (
            "reference",
            lambda out: self._argv(self.data / "perlin_peaks.csv", REF_CASE_SEED, out),
            reference_check,
        )

    def probe_calls(self):
        """DIFFUSE_PROBES balanced four-allele cases.

        The probes are a fixed, seeded set: every traced run makes all of
        them, so their share of diffuse results and their cost depend on the
        inputs, not on how many timed cases the run reached.
        """
        for t in range(DIFFUSE_PROBES):
            case = self._make("diffuse", t)

            def check(out, case=case):
                return (
                    checks.check_deconvolution(out, DIFFUSE_SAMPLES),
                    self._case_info(case, out, DIFFUSE_SAMPLES),
                )

            yield (
                f"diffuse{t}",
                lambda out, case=case, t=t: self._argv(
                    case["path"], call_seed(self.seed, DIFFUSE_CALL + t), out, DIFFUSE_SAMPLES
                ),
                check,
            )

    def summary(self, records):
        """Per case kind, since the two kinds run at different sample counts."""
        done = [r for r in records if r.get("info")]
        hist = Counter(n for r in done for n in r["info"]["alleles_per_marker"])
        out = {"alleles_per_marker_hist": {str(k): hist[k] for k in sorted(hist)}}
        for kind in ("typical", "diffuse"):
            recs = [r for r in done if r["info"]["kind"] == kind]
            if not recs:
                continue
            infos = [r["info"] for r in recs]
            out[kind] = {
                "cases": len(recs),
                "n_samples": infos[0]["n_samples"],
                "distinct_per_draw": sum(x["n_discovered"] for x in infos)
                / sum(x["n_samples"] for x in infos),
                "certified_k0": sum(x["certified_k"] == 0 for x in infos),
                "diffuse_share": sum(x["certified_k"] == 0 for x in infos) / len(infos),
                "case_s_p50": statistics.median(r["seconds"] for r in recs),
            }
        return out


WORKLOADS = {w.name: w for w in (Bootstrap, Bayes, Deconvolve)}
