"""Spans and counters recorded from outside cqedkit.

`installed(tracer, cq)` replaces the module and class attributes that the CLI
and library call through with wrappers that open a span (name, start,
end, parent) and bump counters, and puts the originals back on exit.
Spans stay in memory; `layer_metrics` turns one pass's spans and counts
into the per-layer metrics, with self time = span duration minus the
time its child spans cover.
"""
import contextlib
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


def _wrap(tracer, fn, name, count):
    def wrapper(*args, **kwargs):
        if name is None:
            out = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                out = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, out)
        return out
    return wrapper


def _add(key, amount):
    """A counter hook: tracer.counts[key] += amount(call args, result)."""
    return lambda tracer, args, out: tracer.add(key, amount(args, out))


def _targets(cq):
    """(owner, attribute, span name or None for a counter only, counter)."""
    traj, clickio, kernels, hbt, specfit = (
        cq.trajectory, cq.clickio, cq.kernels, cq.hbt, cq.specfit)
    prop = traj.SingleExcitationPropagator
    return [
        (traj, "simulate_stream", "trajectory.simulate_stream",
         _add("clicks", lambda a, out: len(out))),
        (prop, "sample_emissions", "trajectory.sample_emissions",
         _add("excitations", lambda a, out: int(a[2]))),
        (prop, "amplitudes", None, _add("amplitude_evals", lambda a, out: len(a[1]))),
        (traj.ClickStream, "filter", "trajectory.filter", None),
        (clickio, "write_click_stream", "clickio.write",
         _add("bytes_written", lambda a, out: os.path.getsize(a[0]))),
        (clickio, "read_click_stream", "clickio.read",
         _add("rows_read", lambda a, out: len(out))),
        (clickio, "read_spectrum", "clickio.read_spectrum", None),
        (clickio, "write_histogram", "clickio.write_histogram", None),
        (kernels, "pair_histogram", "kernels.pair_histogram",
         _add("pairs", lambda a, out: int(np.sum(out)))),
        (hbt, "correlate", "hbt.correlate", None),
        (hbt, "pulsed_g2_zero", "hbt.estimate", None),
        (hbt, "cross_g2_zero", "hbt.estimate", None),
        (hbt, "normalized_g2", "hbt.estimate", None),
        (specfit, "fit_series", "specfit.fit_series", None),
        (specfit, "fit_double_lorentzian", "specfit.fit",
         _add("fits", lambda a, out: 1)),
        (specfit, "double_lorentzian", None, _add("model_evals", lambda a, out: 1)),
        (specfit, "double_lorentzian_jacobian", None,
         _add("jacobian_evals", lambda a, out: 1)),
        (specfit, "initial_guess", "specfit.initial_guess", None),
        (specfit, "assemble_anticrossing", "specfit.extract",
         _add("fits_dropped", lambda a, out: len(a[0]) - len(out.temperature))),
        (specfit, "extract_coupling", "specfit.extract", None),
    ]


@contextlib.contextmanager
def installed(tracer, cq):
    """Wrap the layer entry points of the imported cqedkit package `cq`."""
    saved = []
    try:
        for owner, attr, name, count in _targets(cq):
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans):
    """Self time of each span: duration minus its children's durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def dump(tracer):
    """JSON-ready spans (with self times, relative to the pass start)."""
    t0 = tracer.spans[0].start
    return {
        "counts": dict(tracer.counts),
        "spans": [{"id": s.id, "name": s.name, "parent": s.parent,
                   "start": s.start - t0, "end": s.end - t0, "self": st}
                  for s, st in zip(tracer.spans, self_times(tracer.spans))],
    }


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    by_id = {s.id: s for s in spans}

    def total(name, top_only=False):
        out = 0.0
        for s in spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            if top_only and p is not None and p.name == name:
                continue
            out += s.end - s.start
        return out

    selfs = dict(zip((s.id for s in spans), self_times(spans)))
    correlate_self = sum(selfs[s.id] for s in spans if s.name == "hbt.correlate")
    c = lambda k: counts.get(k, 0)
    ratio = lambda a, b: a / b if b else 0.0
    sample_s = total("trajectory.sample_emissions")
    read_s = total("clickio.read")
    kernel_s = total("kernels.pair_histogram")
    return {
        "trajectory.simulate_stream_s": total("trajectory.simulate_stream"),
        "trajectory.sample_emissions_s": sample_s,
        "trajectory.excitations": c("excitations"),
        "trajectory.amplitude_evals": c("amplitude_evals"),
        "trajectory.excitations_per_s": ratio(c("excitations"), sample_s),
        "trajectory.clicks_per_excitation": ratio(c("clicks"), c("excitations")),
        "trajectory.filter_s": total("trajectory.filter"),
        "clickio.write_s": total("clickio.write"),
        "clickio.read_s": read_s,
        "clickio.bytes_written": c("bytes_written"),
        "clickio.read_rows_per_s": ratio(c("rows_read"), read_s),
        "kernels.pair_histogram_s": kernel_s,
        "kernels.pairs": c("pairs"),
        "kernels.pairs_per_s": ratio(c("pairs"), kernel_s),
        "hbt.correlate_self_s": correlate_self,
        "hbt.estimate_s": total("hbt.estimate", top_only=True),
        "specfit.fit_series_s": total("specfit.fit_series"),
        "specfit.fits": c("fits"),
        "specfit.model_evals": c("model_evals"),
        "specfit.jacobian_evals": c("jacobian_evals"),
        "specfit.initial_guess_s": total("specfit.initial_guess"),
        "specfit.extract_s": total("specfit.extract", top_only=True),
        "specfit.fits_dropped": c("fits_dropped"),
    }


def covered_share(spans):
    """Share of the operations' time spent inside some layer span.

    Top-level spans are the benchmark's operations (a CLI call or a
    library call); their direct children are the layers.
    """
    by_id = {s.id: s for s in spans}
    ops = sum(s.end - s.start for s in spans if s.parent is None)
    covered = sum(s.end - s.start for s in spans
                  if s.parent is not None and by_id[s.parent].parent is None)
    return covered / ops
