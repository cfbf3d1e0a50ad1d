"""In-memory spans around calls into tropico's public functions.

A traced run replaces each function named in ``wraps()`` by a wrapper that
records one span (name, start, end, parent) per call and, where given,
adds counters derived from the call's result.  Nothing inside the package
is edited: calls that a module makes through a name it imported from
another module are not wrapped, and their time stays in the caller's self
time.  Spans are kept in memory and written out when the run ends.

What tracing costs is estimated, not measured as traced minus untraced
pass time: that difference is far smaller than the noise between two
passes.  ``calibrate`` and ``span_cost`` time one traced call
of a no-op function with one counter, less one plain call; a pass costs
that much per span it records.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

from tropico import cli, diagram, io, lattice, render, tropical

# the package attribute tropico.realize is the function, not the module
realize = importlib.import_module("tropico.realize")


def _doublings(result):
    realization, cfg = result
    ratio = Fraction(lattice.dot(cfg.direction, cfg.points[0])) / realize.default_spacing(
        realization.spec
    )
    return {"realize.marked_diagrams": 1, "realize.spacing_doublings": round(math.log2(ratio))}


def _svg_bytes(result):
    return {"render.svg_bytes": len(result.encode())}


def wraps():
    """(owner, attribute, span name, counter function or None) for every
    public call the benchmark traces."""
    return [
        # DiagramSpec.data reaches direction_data through diagram's import
        (lattice, "direction_data", "lattice.direction_data", None),
        (diagram, "direction_data", "lattice.direction_data", None),
        (diagram, "count", "diagram.count", None),
        (diagram, "enumerate_diagrams", "diagram.enumerate_diagrams",
         lambda r: {"diagram.diagrams": len(r)}),
        (diagram, "enumerate_markings", "diagram.enumerate_markings",
         lambda r: {"diagram.marking_classes": len(r)}),
        (realize, "realize_stretched", "realize.realize_stretched", _doublings),
        (realize, "verify_realization", "realize.verify_realization",
         lambda r: {"realize.violations": len(r)}),
        (tropical, "tropical_multiplicity", "tropical.tropical_multiplicity", None),
        (tropical.ParametrizedCurve, "to_plane_curve", "tropical.to_plane_curve",
         lambda r: {"tropical.crossings": len(r.crossings)}),
        (tropical, "corner_locus", "tropical.corner_locus",
         lambda r: {"tropical.subdivision_cells": len(r[1].cells)}),
        (tropical, "legendre_transform", "tropical.legendre_transform", None),
        (tropical, "stable_intersection_generic", "tropical.stable_intersection_generic", None),
        # the attempts made inside stable_intersection_generic
        (tropical, "stable_intersection", "tropical.stable_intersection", None),
        (io, "curve_to_json", "io.curve_to_json", None),
        (io, "dumps", "io.dumps", lambda r: {"io.json_bytes": len(r.encode())}),
        (render, "render_curve_svg", "render.render_curve_svg", _svg_bytes),
        (render, "render_subdivision_svg", "render.render_subdivision_svg", _svg_bytes),
        (cli, "cmd", "cli.cmd", None),
    ]


class Tracer:
    """Spans and counters of one run, plus the wrappers that record them."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.pass_counters = Counter()  # the part of counters added by traced passes
        self._stack = []
        self._originals = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, owner, attr, name, counter):
        original = owner.__dict__[attr]
        span = self.span
        counters = self.counters

        def traced(*args, **kwargs):
            with span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                counters.update(counter(result))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        for owner, attr, name, counter in wraps():
            self._wrap(owner, attr, name, counter)
        try:
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    def totals(self, seconds, root=None):
        """Inclusive seconds and calls per span name, and self seconds per
        layer, over the spans under roots named ``root`` (all if None);
        ``seconds(start, end)`` gives a span's duration."""
        inside = [False] * len(self.spans)
        dur = [seconds(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (name, _, _, parent) in enumerate(self.spans):
            inside[i] = root is None or name == root or (parent >= 0 and inside[parent])
            if parent >= 0:
                child[parent] += dur[i]
        inclusive, self_s, calls = Counter(), Counter(), Counter()
        for i, (name, _, _, _) in enumerate(self.spans):
            if inside[i]:
                inclusive[name] += dur[i]
                calls[name] += 1
                self_s[name.split(".")[0]] += dur[i] - child[i]
        return inclusive, self_s, calls

    def dump(self, path, extra):
        """Write every span (times relative to the tracer's creation) and
        the summary ``extra`` as JSON."""
        spans = [
            [name, round(start - self.t0, 7), round(end - self.t0, 7), parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**extra, "spans": spans}, fh)


CALIBRATION_CALLS = 20000


def calibrate(reps=5):
    """``reps`` triples (t0, t1, t2) of perf_counter times: CALIBRATION_CALLS
    plain calls of a no-op function run from t0 to t1, then as many traced
    calls, each recording a span and updating a counter, from t1 to t2."""

    def noop():
        return None

    probe = Tracer()
    owner = SimpleNamespace(call=noop)
    probe._wrap(owner, "call", "probe.call", lambda r: {"probe.calls": 1})
    traced = owner.call
    out = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        t1 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            traced()
        out.append((t0, t1, perf_counter()))
        probe.spans.clear()
    return out


def span_cost(seconds, triples):
    """Seconds one traced call adds to a plain one: the median over the
    ``calibrate`` triples; ``seconds(start, end)`` gives a duration."""
    return statistics.median(
        (seconds(t1, t2) - seconds(t0, t1)) / CALIBRATION_CALLS for t0, t1, t2 in triples
    )
