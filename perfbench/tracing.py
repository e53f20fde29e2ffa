"""Spans around bnsharp's public functions and the FFT calls it makes.

``Tracer.install`` replaces each traced function in every module namespace
where a caller looks the name up (``bnsharp`` and its submodules, and the
``numpy.fft`` / ``scipy.fft`` namespaces).  Spans (name, start, end, parent)
are kept in memory; ``layer_metrics`` turns them into per-layer self times
and counts, and ``dump`` writes them out.  Nothing is replaced unless
``install`` is called, so an untraced run runs the program as it is.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

#: The FFT entry points wrapped in numpy.fft and scipy.fft.
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
             "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

#: Span name -> (home module, function name).  Several functions may share a
#: span name; their spans are summed into one layer.
TRACED = {
    "cli.write": [("bnsharp.cli", "write_atomic"),
                  ("bnsharp.cli", "write_manifest")],
    "constants.optimize_full": [("bnsharp.constants", "optimize_full")],
    "constants.closed_forms": [("bnsharp.constants", n) for n in
                               ("closed_p2_inf", "closed_p22",
                                "closed_e2_inf", "closed_e22")],
    "constants.candidate_lower_bound_E": [
        ("bnsharp.constants", "candidate_lower_bound_E")],
    "trigpoly.norm_lp": [("bnsharp.trigpoly", "norm_lp")],
    "levitan.levitan_coefficients": [
        ("bnsharp.levitan", "levitan_coefficients")],
    "levitan.levitan_evaluate": [("bnsharp.levitan", "levitan_evaluate")],
    "levitan.check_norm_contraction": [
        ("bnsharp.levitan", "check_norm_contraction")],
    "bandlimited.cs_extremal": [("bnsharp.bandlimited", "cs_extremal")],
    "bandlimited.akhiezer_family": [("bnsharp.bandlimited",
                                     "akhiezer_family")],
    "bandlimited.norm_lp_truncated": [("bnsharp.bandlimited",
                                       "norm_lp_truncated")],
    "bandlimited.poisson_window_sum": [("bnsharp.bandlimited",
                                        "poisson_window_sum")],
}

#: Per-layer metric -> unit, in the order they are reported.  ``.s`` is self
#: time; counts are summed over the layer's calls.
LAYER_UNITS = {
    "cli.write_s": "s",
    "cli.rows": "count",
    "body.lattice_points.calls": "count",
    "body.lattice_points.s": "s",
    "body.lattice_points.points": "count",
    "constants.optimize_full.calls": "count",
    "constants.optimize_full.s": "s",
    "constants.optimize_full.restarts": "count",
    "constants.optimize_full.unknowns": "count",
    "constants.closed_forms.calls": "count",
    "constants.closed_forms.s": "s",
    "constants.candidate_lower_bound_E.s": "s",
    "fft.calls": "count",
    "fft.s": "s",
    "fft.points": "count",
    "trigpoly.norm_lp.calls": "count",
    "trigpoly.norm_lp.s": "s",
    "levitan.levitan_coefficients.calls": "count",
    "levitan.levitan_coefficients.s": "s",
    "levitan.levitan_evaluate.s": "s",
    "levitan.truncation_K": "count",
    "levitan.check_norm_contraction.s": "s",
    "bandlimited.cs_extremal.s": "s",
    "bandlimited.akhiezer_family.s": "s",
    "bandlimited.norm_lp_truncated.calls": "count",
    "bandlimited.norm_lp_truncated.s": "s",
    "bandlimited.poisson_window_sum.s": "s",
}


def _fft_points(args, kwargs) -> int:
    s = kwargs.get("s", kwargs.get("n"))
    if s is None and len(args) > 1:
        s = args[1]
    if s is None:
        return int(getattr(args[0], "size", 0)) if args else 0
    return math.prod(s) if isinstance(s, (tuple, list)) else int(s)


class Tracer:
    """Records nested spans in one thread (the benchmark runs one worker)."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        """Replace every traced name where bnsharp's callers look it up."""
        import numpy.fft
        import scipy.fft

        import bnsharp
        from bnsharp.body import ConvexBody

        namespaces = [bnsharp] + [sys.modules[n] for n in sorted(sys.modules)
                                  if n.startswith("bnsharp.")]
        counters = {
            "write_atomic": _count_rows,
            "optimize_full": _count_optimize,
            "levitan_coefficients": _count_truncation,
        }
        for name, targets in TRACED.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapper = self.wrap(name, original, counters.get(attr))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
        ConvexBody.lattice_points = self.wrap(
            "body.lattice_points", ConvexBody.lattice_points, _count_points)
        for module in (numpy.fft, scipy.fft):
            for attr in FFT_NAMES:
                if hasattr(module, attr):
                    setattr(module, attr, self.wrap(
                        "fft", getattr(module, attr), _count_fft))

    def self_times(self) -> dict[str, float]:
        """Sum over spans of (duration - time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics averaged per round."""
        self_s = self.self_times()
        calls = self.call_counts()
        raw = {
            "cli.write_s": self_s["cli.write"],
            "cli.rows": self.counts["cli.rows"],
            "body.lattice_points.points": self.counts["lattice.points"],
            "constants.optimize_full.restarts": self.counts["opt.restarts"],
            "constants.optimize_full.unknowns": self.counts["opt.unknowns"],
            "fft.points": self.counts["fft.points"],
            "levitan.truncation_K": self.counts["levitan.K"],
        }
        for metric in LAYER_UNITS:
            layer, _, kind = metric.rpartition(".")
            if metric in raw:
                continue
            raw[metric] = calls[layer] if kind == "calls" else self_s[layer]
        return {k: raw[k] / rounds for k in LAYER_UNITS}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _count_rows(counts, args, kwargs, out) -> None:
    path, text = args[0], args[1]
    if not path.endswith(".manifest.json"):
        counts["cli.rows"] += text.count("\n") - 1   # minus the header


def _count_optimize(counts, args, kwargs, out) -> None:
    counts["opt.restarts"] += len(out.restart_values)
    counts["opt.unknowns"] += len(out.best_coefficients)


def _count_truncation(counts, args, kwargs, out) -> None:
    counts["levitan.K"] += out.truncation_K


def _count_points(counts, args, kwargs, out) -> None:
    counts["lattice.points"] += len(out)


def _count_fft(counts, args, kwargs, out) -> None:
    counts["fft.points"] += _fft_points(args, kwargs)
