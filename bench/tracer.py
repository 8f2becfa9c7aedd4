"""In-memory span tracer installed around peakmix's public names.

Wrappers live here, outside the package, and are installed only in the
traced run.  Each name is wrapped in the namespace of the module that
calls it (for example ``peakmix.bootstrap.fit_joint`` rather than
``peakmix.estimate.fit_joint``), because ``from x import f`` binds the
caller's own reference.  A name that no longer exists is recorded as
missing and reads as zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + n

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- installation ------------------------------------------------------

    def wrap(self, target: str, name: str, wrapper_factory=None):
        """Replace ``module[.Class].attr`` by a span-recording wrapper.

        ``wrapper_factory(orig)`` may return a custom wrapper; by default a
        plain span is recorded around every call.
        """
        module_name, _, attr = target.rpartition(".")
        owner = _resolve(module_name)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            if target not in self.missing:
                self.missing.append(target)
            return
        if wrapper_factory is not None:
            wrapper = wrapper_factory(orig)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, orig, *args, **kwargs)
        setattr(owner, attr, functools.wraps(orig)(wrapper))
        self._installed.append((owner, attr, orig))

    def uninstall(self):
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                p = self.spans[s.parent]
                lo, hi = max(s.start, p.start), min(s.end, p.end)
                if hi > lo:
                    child_time[s.parent] += hi - lo
        return [max(0.0, (s.end - s.start) - c) for s, c in zip(self.spans, child_time)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: call count, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            t = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += s.end - s.start
            t["self_s"] += self_s
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def install_peakmix(tracer: Tracer):
    """Wrap the public names each workload's layers are called through."""
    w = tracer.wrap
    w("peakmix.cli.main", "cli.main")
    for fn in ("read_peaks", "read_frequencies", "read_profile", "read_repeat_numbers"):
        w(f"peakmix.io.{fn}", "io.read")
    for fn in (
        "write_peaks",
        "write_json_report",
        "write_bootstrap_csv",
        "write_trace_csv",
        "write_deconvolution_csv",
    ):
        w(f"peakmix.io.{fn}", "io.write")
    w("peakmix.likelihood.MixtureLikelihood.__init__", "likelihood.build")
    w("peakmix.likelihood.MixtureLikelihood.loglik", "likelihood.point")
    for mod in ("cli", "bootstrap"):
        w(f"peakmix.{mod}.log10_lr", "likelihood.log10_lr")

    def fit_factory(orig):
        def fit(*args, **kwargs):
            res = tracer.span("estimate.fit_joint", orig, *args, **kwargs)
            tracer.count("estimate.evals", getattr(res, "evals", 0))
            return res
        return fit

    for mod in ("cli", "bootstrap", "deconvolve"):
        w(f"peakmix.{mod}.fit_joint", "estimate.fit_joint", fit_factory)
    w("peakmix.cli.bootstrap_lr", "bootstrap.bootstrap_lr")
    w("peakmix.bootstrap.simulate_dataset", "bootstrap.simulate")

    w("peakmix.cli.bayes_log10_lr", "gibbs.bayes_log10_lr")

    def chain_factory(orig):
        def run_chain(*args, **kwargs):
            res = tracer.span("gibbs.run_chain", orig, *args, **kwargs)
            tracer.count("gibbs.sweeps", kwargs.get("n", args[5] if len(args) > 5 else 55_000))
            return res
        return run_chain

    def marginal_factory(orig):
        def marginal(*args, **kwargs):
            res = tracer.span("gibbs.marginal", orig, *args, **kwargs)
            betas = kwargs.get("betas", args[5] if len(args) > 5 else ())
            tracer.count("gibbs.marginal_betas", len(betas))
            return res
        return marginal

    w("peakmix.gibbs.run_chain", "gibbs.run_chain", chain_factory)
    w("peakmix.gibbs.marginal_loglik_mc", "gibbs.marginal", marginal_factory)

    def ars_factory(orig):
        def ars_sample(logpdf, *args, **kwargs):
            def counted(x):
                tracer.count("gibbs.ars_logpdf_evals")
                return logpdf(x)
            res = tracer.span("gibbs.ars", orig, counted, *args, **kwargs)
            tracer.count("gibbs.ars_draws")
            return res
        return ars_sample

    w("peakmix.gibbs.ars_sample", "gibbs.ars", ars_factory)

    w("peakmix.cli.certified_topk", "deconvolve.certified_topk")
    w("peakmix.deconvolve.sample_profile_pairs", "deconvolve.sample")
