"""Spans around the benchmark's calls into orbitlab's layers.

Nothing inside the program is instrumented.  A traced run replaces the
public names at the point where each caller looks them up (module
attributes of ``orbitlab.equidist`` and ``orbitlab.cli``), records one
span per call (per ``next()`` for chunk iterators) in memory, and puts
the originals back afterwards.  Per-layer metrics are derived from the
spans once the run has ended.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in used by untraced operations: records nothing."""

    def span(self, name):
        return nullcontext()

    def count(self, name, k=1):
        pass

    def install(self):
        pass

    def uninstall(self):
        pass


class Tracer:
    """Spans ``[id, name, start, end, parent_id]`` and integer counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + int(k)

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), int(value))

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _chunk_stream(self, fn):
        """Time every ``next()`` of a ``(levels, mats)`` chunk iterator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("balls.iter"):
                it = iter(fn(*args, **kwargs))
            while True:
                with tracer.span("balls.iter"):
                    try:
                        levels, mats = next(it)
                    except StopIteration:
                        return
                tracer.count("balls.chunks")
                tracer.count("balls.elements", len(mats))
                tracer.peak("balls.max_chunk_elems", len(mats))
                yield levels, mats
        return wrapper

    def _emit(self, fn):
        @functools.wraps(fn)
        def wrapper(report, fmt, path):
            with self.span("cli.emit"):
                out = fn(report, fmt, path)
            if fmt == "csv":
                self.count("cli.rows", len(report[1]))
            self.count("cli.bytes_out", os.path.getsize(path))
            return out
        return wrapper

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap the looked-up names; undo with :meth:`uninstall`."""
        from orbitlab import cli, equidist

        for module in (equidist, cli):
            self._patch(module, "iter_ball_chunks",
                        self._chunk_stream(module.iter_ball_chunks))
        for attr, name in (("calibrate_orientation", "equidist.calibrate"),
                           ("predicted_limit", "equidist.predict"),
                           ("check_density_hypothesis", "equidist.predict"),
                           ("skew_ball_ratio_limit", "volumes.ratio_limit"),
                           ("slope_fit", "volumes.slope_fit")):
            self._patch(equidist, attr,
                        self._timed(name, getattr(equidist, attr)))
        self._patch(cli, "run_experiment",
                    self._timed("equidist.run", cli.run_experiment))
        self._patch(cli, "parse_config",
                    self._timed("cli.parse", cli.parse_config))
        self._patch(cli, "emit_report", self._emit(cli.emit_report))

    def uninstall(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)


def span_times(spans):
    """Per span name: (inclusive seconds, self seconds, calls).

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap, since the caller is a
    single thread."""
    child = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out = {}
    for sid, name, start, end, _ in spans:
        total, own, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (total + end - start,
                     own + end - start - child.get(sid, 0.0), calls + 1)
    return out


def layer_metrics(spans, counters):
    """Per-layer values of one traced operation (seconds or counts)."""
    t = span_times(spans)

    def incl(name):
        return t.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return t.get(name, (0.0, 0.0, 0))[1]

    return {
        "balls.iter_s": incl("balls.iter"),
        "balls.chunks": counters.get("balls.chunks", 0),
        "balls.max_chunk_elems": counters.get("balls.max_chunk_elems", 0),
        "balls.count_sl2_s": incl("balls.count_sl2"),
        "balls.count_sl3_s": incl("balls.count_sl3"),
        "balls.elements": counters.get("balls.elements", 0),
        "equidist.run_s": incl("equidist.run"),
        "equidist.self_s": own("equidist.run"),
        "equidist.calibrate_s": incl("equidist.calibrate"),
        "equidist.predict_s": incl("equidist.predict"),
        "volumes.ratio_limit_s": incl("volumes.ratio_limit"),
        "volumes.ratio_limit_calls": t.get("volumes.ratio_limit",
                                           (0.0, 0.0, 0))[2],
        "volumes.slope_fit_s": incl("volumes.slope_fit"),
        "cli.parse_s": incl("cli.parse"),
        "cli.rows_s": own("cli.main"),
        "cli.emit_s": incl("cli.emit"),
        "cli.rows": counters.get("cli.rows", 0),
        "cli.bytes_out": counters.get("cli.bytes_out", 0),
    }
