"""Seeded synthetic mixture cases for the deconvolve workload.

Contributor genotypes are Hardy-Weinberg draws from the bundled synthetic
Perlin frequency table over the Perlin markers; theta and sigma are drawn
from the ranges below; peak sizes come from the package's own model
simulator (`simulate_dataset(..., genotypes=cfg)`) and are written with
`io.write_peaks`.  Only public peakmix API is used, so the program under
test sees nothing but the written peak tables.

Two kinds of case, because with 100k samples the cost of a case is
bimodal.  A typical case certifies its top configurations after
discovering a handful to a few thousand distinct ones (1.2-2.5 s each on
a shared 2-core VM).  A diffuse case discovers up to one distinct
configuration per draw and certifies nothing (certified_k 0); it costs
5-20 s, and how much is set by the simulated noise, not by anything the
generator controls.  Drawn from one wide range (theta in [0.6, 0.85],
sigma in [0.05, 0.15]) diffuse cases came at random, one in six to one in
twenty-four depending on the genotypes, so cases per second depended on
luck far beyond the benchmark's bounds.  Hence:

  typical  theta in [0.65, 0.85], sigma in [0.05, 0.10]: a clearly
           unbalanced mixture at up to twice the Perlin imbalance (sigma
           about 0.05).  None of 30 probe cases was diffuse.  These form
           the timed stream.
  diffuse  theta in [0.50, 0.52], sigma in [0.02, 0.04], and four distinct
           alleles at every marker: a balanced four-allele mixture, where
           the two contributors' genotypes cannot be told apart.  About
           three in four such cases have certified_k 0, depending on the
           simulated noise.  A traced run makes three of them after the
           timed stream, checked and timed apart from it, with 10k samples instead of
           100k to keep them short.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TYPICAL = {"theta": (0.65, 0.85), "sigma": (0.05, 0.10)}
DIFFUSE = {"theta": (0.50, 0.52), "sigma": (0.02, 0.04)}
KINDS = {"typical": TYPICAL, "diffuse": DIFFUSE}


def draw_genotypes(freqs, markers, rng, four_alleles=False):
    """One Hardy-Weinberg genotype pair per marker (contributor 1 first).

    With four_alleles, each marker's draw is repeated until the pair
    carries four distinct alleles.
    """
    from peakmix.types import Genotype, GenotypeConfig

    pairs = []
    for m in markers:
        alleles = freqs.alleles(m)
        p = np.array([freqs.freq(m, a) for a in alleles])
        a = rng.choice(len(alleles), size=4, p=p / p.sum())
        while four_alleles and len(set(a)) < 4:
            a = rng.choice(len(alleles), size=4, p=p / p.sum())
        pairs.append(
            (Genotype(alleles[a[0]], alleles[a[1]]), Genotype(alleles[a[2]], alleles[a[3]]))
        )
    return GenotypeConfig(tuple(markers), tuple(pairs))


def make_case(kind, index, seed, template, freqs, out_dir):
    """Write one peak table; the same (kind, index, seed) gives the same table."""
    from peakmix import io
    from peakmix.bootstrap import simulate_dataset
    from peakmix.types import BOTH_UNKNOWN, ModelParams

    ranges = KINDS[kind]
    key = [seed, index, list(KINDS).index(kind), 0xDEC0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
    theta = rng.uniform(*ranges["theta"])
    sigma = rng.uniform(*ranges["sigma"])
    cfg = draw_genotypes(freqs, template.marker_ids(), rng, four_alleles=kind == "diffuse")
    ds = simulate_dataset(
        template, BOTH_UNKNOWN, ModelParams(theta=theta, sigma=sigma), freqs, rng, genotypes=cfg
    )
    path = Path(out_dir) / f"{kind}{index:04d}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    io.write_peaks(ds, path)
    return {
        "path": str(path),
        "kind": kind,
        "theta": theta,
        "sigma": sigma,
        "alleles_per_marker": [len(md.alleles) for md in ds.markers],
    }
