import json
from pathlib import Path

import numpy as np
import pytest

from peakmix.cli import main
from peakmix.io import (
    read_frequencies,
    read_peaks,
    read_profile,
    read_repeat_numbers,
    write_peaks,
)
from peakmix.types import DataError

from conftest import DATA


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngestPeaks:
    def test_reads_published_table(self):
        ds = read_peaks(DATA / "evett_peaks.csv")
        assert len(ds) == 6
        d8 = ds.by_marker("D8")
        assert d8.alleles == ("10", "11", "14")
        assert np.allclose(d8.rel_sizes, [0.4347, 0.0285, 0.5368], atol=1e-9)

    def test_renormalizes_rounded_rows(self):
        ds = read_peaks(DATA / "evett_peaks.csv")
        for md in ds.markers:
            assert md.rel_sizes.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equal_areas_become_uniform(self, tmp_path):
        path = write(
            tmp_path, "p.csv",
            "marker,allele,area\nM1,a,250\nM1,b,250\nM2,x,10\nM2,y,10\n",
        )
        ds = read_peaks(path)
        assert np.allclose(ds.by_marker("M1").rel_sizes, [0.5, 0.5])

    def test_repeat_correction(self, tmp_path):
        path = write(
            tmp_path, "p.csv",
            "marker,allele,area\nM1,10,200\nM1,20,100\nM2,10,1\nM2,20,1\n",
        )
        ds = read_peaks(path, repeat_correction=True)
        assert np.allclose(ds.by_marker("M1").rel_sizes, [0.8, 0.2])

    def test_repeat_numbers_map(self, tmp_path):
        path = write(
            tmp_path, "p.csv",
            "marker,allele,area\nM1,a,200\nM1,b,100\nM2,a,1\nM2,b,1\n",
        )
        ds = read_peaks(path, repeat_correction=True, repeat_numbers={"a": 10, "b": 20})
        assert np.allclose(ds.by_marker("M1").rel_sizes, [0.8, 0.2])

    def test_unparseable_repeat_number(self, tmp_path):
        path = write(tmp_path, "p.csv", "marker,allele,area\nM1,a,200\nM2,b,100\n")
        with pytest.raises(DataError, match="repeat number"):
            read_peaks(path, repeat_correction=True)

    def test_duplicate_row_rejected_with_line(self, tmp_path):
        path = write(
            tmp_path, "p.csv",
            "marker,allele,rel\nM1,a,0.5\nM1,a,0.5\nM2,x,1.0\n",
        )
        with pytest.raises(DataError, match=r":3"):
            read_peaks(path)

    def test_nonpositive_size_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "marker,allele,rel\nM1,a,0.5\nM1,b,-0.5\nM2,x,1\n")
        with pytest.raises(DataError, match="positive"):
            read_peaks(path)

    def test_bad_number_names_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "marker,allele,rel\nM1,a,0.5\nM1,b,oops\nM2,x,1\n")
        with pytest.raises(DataError, match=r":3"):
            read_peaks(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "marker,allele,height\nM1,a,0.5\n")
        with pytest.raises(DataError, match="'area' or 'rel'"):
            read_peaks(path)

    def test_too_few_markers(self, tmp_path):
        path = write(tmp_path, "p.csv", "marker,allele,rel\nM1,a,1.0\n")
        with pytest.raises(DataError, match="at least 2"):
            read_peaks(path)

    def test_round_trip(self, tmp_path, perlin_ds):
        out = tmp_path / "echo.csv"
        write_peaks(perlin_ds, out, comment="round trip")
        back = read_peaks(out)
        for md, orig in zip(back.markers, perlin_ds.markers):
            assert md.marker == orig.marker
            assert md.alleles == orig.alleles
            assert np.allclose(md.rel_sizes, orig.rel_sizes, atol=1e-9)


class TestOtherReaders:
    def test_profile(self):
        p = read_profile(DATA / "perlin_minor.csv")
        assert str(p.genotype("D19")) == "14/14"

    def test_frequencies_validate(self, tmp_path):
        path = write(tmp_path, "f.csv", "marker,allele,freq\nM1,a,0.5\nM1,b,0.1\n")
        with pytest.raises(DataError, match="sum"):
            read_frequencies(path)

    def test_repeat_numbers_reader(self, tmp_path):
        path = write(tmp_path, "r.csv", "allele,repeat\n9.3,9.3\nE,12\n")
        got = read_repeat_numbers(path)
        assert got == {"9.3": 9.3, "E": 12.0}


class TestCliRuns:
    def test_fit_both_known(self, tmp_path):
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--profile", f"major={DATA / 'perlin_major.csv'}:1",
                "--profile", f"minor={DATA / 'perlin_minor.csv'}:2",
                "--hypothesis", "major,minor",
                "--method", "mle-joint",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["fit"]["sigma"] == pytest.approx(0.067, abs=0.002)
        assert payload["fit"]["theta"] == pytest.approx(0.696, abs=0.002)
        assert payload["config"]["command"] == "fit"

    def test_fit_sigma_only(self, tmp_path):
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--profile", f"major={DATA / 'perlin_major.csv'}:1",
                "--profile", f"minor={DATA / 'perlin_minor.csv'}:2",
                "--hypothesis", "major,minor",
                "--method", "mle-sigma",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["fit"]["theta"] is None

    def test_missing_frequency_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "evett_peaks.csv"),
                "--freqs", str(missing),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "data"
        assert str(missing) in err["message"]

    def test_unknown_hypothesis_without_freqs_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "evett_peaks.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "frequency table" in err["message"]

    def test_infeasible_hypothesis_exits_3(self, tmp_path, capsys):
        wrong = write(
            tmp_path, "wrong.csv",
            "marker,allele1,allele2\n"
            + "\n".join(f"{m},99,99" for m in ["D8", "D18", "D21", "FGA", "TH01", "VWA"]),
        )
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "evett_peaks.csv"),
                "--freqs", str(DATA / "evett_freqs_synthetic.csv"),
                "--profile", f"bad={wrong}:1",
                "--hypothesis", "bad,unknown",
                "--out", str(tmp_path),
            ]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "numeric"

    def test_evidence_shared_and_per_hypothesis(self, tmp_path):
        base = [
            "evidence",
            "--peaks", str(DATA / "evett_peaks.csv"),
            "--freqs", str(DATA / "evett_freqs_synthetic.csv"),
            "--profile", f"suspect={DATA / 'evett_major.csv'}:1",
            "--hypothesis", "suspect",
            "--out", str(tmp_path),
        ]
        assert main(base) == 0
        shared = json.loads((tmp_path / "lr.json").read_text())
        assert shared["shared_mle"] is True
        assert main(base + ["--per-hypothesis-mle"]) == 0
        per = json.loads((tmp_path / "lr.json").read_text())
        assert per["shared_mle"] is False
        assert "hd" in per["fits"]

    def test_evidence_bayes_method(self, tmp_path):
        code = main(
            [
                "evidence",
                "--peaks", str(DATA / "evett_peaks.csv"),
                "--freqs", str(DATA / "evett_freqs_synthetic.csv"),
                "--profile", f"suspect={DATA / 'evett_major.csv'}:1",
                "--hypothesis", "suspect,unknown",
                "--method", "bayes",
                "--chain-n", "400",
                "--burnin", "100",
                "--thin", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "lr.json").read_text())
        assert payload["method"] == "bayes"
        assert payload["mc_se"] >= 0.0
        assert payload["n_samples"] == 300

    def test_bootstrap_outputs_reproducible(self, tmp_path):
        args = [
            "bootstrap",
            "--peaks", str(DATA / "evett_peaks.csv"),
            "--freqs", str(DATA / "evett_freqs_synthetic.csv"),
            "--profile", f"suspect={DATA / 'evett_major.csv'}:1",
            "--hypothesis", "suspect,unknown",
            "--n", "4",
            "--seed", "11",
            "--out", str(tmp_path),
        ]
        outs = []
        for _ in range(2):
            assert main(args) == 0
            outs.append((tmp_path / "bootstrap.csv").read_bytes())
        assert outs[0] == outs[1]
        payload = json.loads((tmp_path / "lr.json").read_text())
        assert payload["rng"] == "philox4x64"
        assert payload["n"] == 4

    def test_gibbs_writes_trace_and_summary(self, tmp_path):
        code = main(
            [
                "gibbs",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--freqs", str(DATA / "perlin_freqs_synthetic.csv"),
                "--profile", f"minor={DATA / 'perlin_minor.csv'}:2",
                "--hypothesis", "minor",
                "--chain-n", "300",
                "--burnin", "50",
                "--thin", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("# ")
        assert trace[1] == "iteration,sigma,theta"
        assert len(trace) == 2 + 125
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["fit"]["n_samples"] == 125

    def test_fit_bayes_method(self, tmp_path):
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--freqs", str(DATA / "perlin_freqs_synthetic.csv"),
                "--method", "bayes",
                "--chain-n", "300",
                "--burnin", "100",
                "--thin", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert 0.0 < payload["fit"]["sigma_mean"] < 1.0
        assert (tmp_path / "trace.csv").exists()

    def test_deconvolve_bayes_method(self, tmp_path):
        code = main(
            [
                "deconvolve",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--freqs", str(DATA / "perlin_freqs_synthetic.csv"),
                "--method", "bayes",
                "--chain-n", "300",
                "--burnin", "100",
                "--thin", "1",
                "--seed", "8",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "deconvolution.json").read_text())
        assert summary["mode"] == "bayes"
        assert 0.0 < summary["total_mass"] <= 1.0 + 1e-9

    def test_deconvolve_csv_layout(self, tmp_path):
        code = main(
            [
                "deconvolve",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--freqs", str(DATA / "perlin_freqs_synthetic.csv"),
                "--n-samples", "4000",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "deconvolution.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[:3] == ["rank", "probability", "certified"]
        assert "c1_D19" in header and "c2_VWA" in header
        summary = json.loads((tmp_path / "deconvolution.json").read_text())
        assert summary["certified_k"] >= 1

    def test_simulate_round_trips(self, tmp_path):
        args = [
            "simulate",
            "--peaks", str(DATA / "perlin_peaks.csv"),
            "--profile", f"major={DATA / 'perlin_major.csv'}:1",
            "--profile", f"minor={DATA / 'perlin_minor.csv'}:2",
            "--hypothesis", "major,minor",
            "--sigma", "0.07",
            "--theta", "0.7",
            "--seed", "21",
            "--out", str(tmp_path),
        ]
        outs = []
        for _ in range(2):
            assert main(args) == 0
            outs.append((tmp_path / "sim_peaks.csv").read_bytes())
        assert outs[0] == outs[1]
        sim = read_peaks(tmp_path / "sim_peaks.csv")
        assert sim.marker_ids() == read_peaks(DATA / "perlin_peaks.csv").marker_ids()

    def test_bad_profile_arg_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--profile", "oops",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    def test_single_token_hypothesis_needs_slot(self, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--freqs", str(DATA / "perlin_freqs_synthetic.csv"),
                "--profile", f"minor={DATA / 'perlin_minor.csv'}",
                "--hypothesis", "minor",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "slot" in err["message"]

    @pytest.mark.parametrize(
        "args, needle",
        [
            (["fit", "--theta-grid", "0"], "step"),
            (["bootstrap", "--n", "0"], "replicate count"),
            (["bootstrap", "--n", "-3"], "replicate count"),
            (["gibbs", "--thin", "0"], "thin"),
            (["gibbs", "--burnin", "-1"], "burnin"),
            (["deconvolve", "--n-samples", "0"], "sample count"),
            (["deconvolve", "--n-samples", "-5"], "sample count"),
        ],
    )
    def test_invalid_numeric_option_exits_2(self, tmp_path, capsys, args, needle):
        code = main(
            args
            + [
                "--peaks", str(DATA / "perlin_peaks.csv"),
                "--freqs", str(DATA / "perlin_freqs_synthetic.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "data"
        assert needle in err["message"]
