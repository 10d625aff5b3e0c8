"""Spans around jerkmeter's module boundaries, recorded from outside.

``Tracer.install()`` replaces each function named in ``BOUNDARIES`` with
a wrapper that records one span per call, wherever a jerkmeter module
holds a reference to it, and ``uninstall()`` puts the originals back.
Nothing in the program itself is changed on disk.

A span is ``(id, parent, name, start, end, counts)`` with times from
``time.perf_counter``. Each thread keeps its own stack of open spans; a
thread whose stack is empty (a pool worker) takes the innermost open span
of the thread that installed the tracer as its parent, so
``cross_validate`` spans hang under ``exhaustive_search``. Spans stay in
memory until the caller takes them.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time


def _read_frame_counts(args, result):
    if result is None:
        return {}
    luma, chroma = result
    return {"frames": 1, "bytes": luma.samples.nbytes + len(chroma)}


def _series_counts(args, result):
    return {"pairs": result.transition_count}


def _events_counts(args, result):
    return {"events": len(result.events)}


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# (module, attribute path, span name, counts from (args, result), record CPU)
BOUNDARIES = (
    ("jerkmeter.video_io", "Y4MReader.read_frame", "video_io.Y4MReader.read_frame",
     _read_frame_counts, False),
    ("jerkmeter.frame_analysis", "compute_series", "frame_analysis.compute_series",
     _series_counts, False),
    ("jerkmeter.frame_analysis", "detect_scene_cuts",
     "frame_analysis.detect_scene_cuts", None, False),
    ("jerkmeter.freeze_detection", "detect_freezes",
     "freeze_detection.detect_freezes", _events_counts, False),
    ("jerkmeter.features", "extract", "features.extract", None, False),
    ("jerkmeter.quality_model", "score_features", "quality_model.score_features",
     None, False),
    ("jerkmeter.quality_model", "default_model", "quality_model.default_model",
     None, False),
    ("jerkmeter.training", "load_samples_csv", "training.load_samples_csv",
     None, False),
    ("jerkmeter.training", "exhaustive_search", "training.exhaustive_search",
     None, True),
    ("jerkmeter.training", "cross_validate", "training.cross_validate", None, False),
    ("jerkmeter.training", "train_lm", "training.train_lm", None, False),
    ("numpy.linalg", "solve", "numpy.linalg.solve", None, False),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.counts = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counts=None, cpu=False):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._owner_stack[-1].id if self._owner_stack else None
        span = Span(next(self._ids), parent, name, time.perf_counter())
        cpu_start = cpu_seconds() if cpu else 0.0
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if cpu:
            span.counts["cpu_s"] = cpu_seconds() - cpu_start
        if counts is not None:
            span.counts.update(counts(args, result))
        return result

    def _wrap(self, fn, name, counts, cpu):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts, cpu)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every boundary function; call from the thread that drives."""
        self._local.stack = self._owner_stack
        for module_name, path, name, counts, cpu in BOUNDARIES:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            traced = self._wrap(original, name, counts, cpu)
            self._patch(owner, attr, original, traced)
            if owner is module and module_name.startswith("jerkmeter"):
                # Modules that imported the function by name hold their own
                # reference; replace those too.
                for other_name, other in list(sys.modules.items()):
                    if other_name.startswith("jerkmeter") and other is not module:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, key, original, traced)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children on one thread nest without overlap; children on pool
    threads can overlap each other, hence the union.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered = 0.0
        lo_end = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, lo_end)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                lo_end = hi
        result[s.id] = (s.end - s.start) - covered
    return result


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def summarise(spans: list[Span], call: dict) -> dict[str, float]:
    """Per-layer figures of one traced ``cli.run`` call.

    Layers the call did not reach read 0. ``call`` gives the clip's
    width and height, which the computed FD byte rate needs.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total_ms(name):
        return 1e3 * sum(s.end - s.start for s in by_name.get(name, ()))

    def count(name, key=None):
        found = by_name.get(name, ())
        return float(sum(s.counts.get(key, 0) for s in found) if key else len(found))

    root = by_name["cli.run"][0]
    out = {"cli.self_ms": 1e3 * own[root.id],
           "trace.self_sum_ratio": sum(own.values()) / (root.end - root.start)}

    read_ms = total_ms("video_io.Y4MReader.read_frame")
    read_bytes = count("video_io.Y4MReader.read_frame", "bytes")
    out["video_io.read_ms"] = read_ms
    out["video_io.frames"] = count("video_io.Y4MReader.read_frame", "frames")
    out["video_io.read_mb_s"] = read_bytes / 1e6 / (read_ms / 1e3) if read_ms else 0.0

    series = by_name.get("frame_analysis.compute_series", ())
    pairs = count("frame_analysis.compute_series", "pairs")
    fd_s = sum(own[s.id] for s in series)
    pixels = call.get("width", 0) * call.get("height", 0)
    out["frame_analysis.series_ms"] = total_ms("frame_analysis.compute_series")
    out["frame_analysis.fd_pairs"] = pairs
    out["frame_analysis.fd_us_per_pair"] = 1e6 * fd_s / pairs if pairs else 0.0
    out["frame_analysis.fd_gb_s_computed"] = (
        2.0 * pixels * pairs / 1e9 / fd_s if fd_s > 0 else 0.0)
    out["frame_analysis.scene_cut_ms"] = total_ms("frame_analysis.detect_scene_cuts")
    out["freeze_detection.detect_ms"] = total_ms("freeze_detection.detect_freezes")
    out["freeze_detection.events"] = count("freeze_detection.detect_freezes", "events")
    out["features.extract_ms"] = total_ms("features.extract")
    out["quality_model.score_ms"] = total_ms("quality_model.score_features")
    out["quality_model.load_ms"] = total_ms("quality_model.default_model")

    search = by_name.get("training.exhaustive_search", ())
    search_s = sum(s.end - s.start for s in search)
    search_ids = {s.id for s in search}
    cv_ms = [1e3 * (s.end - s.start) for s in by_name.get("training.cross_validate", ())]
    lm = by_name.get("training.train_lm", ())
    lm_ms = [1e3 * (s.end - s.start) for s in lm]
    out["training.load_csv_ms"] = total_ms("training.load_samples_csv")
    out["training.search_ms"] = 1e3 * search_s
    out["training.cv_calls"] = float(len(cv_ms))
    out["training.cv_ms.p50"] = _percentile(cv_ms, 50)
    out["training.lm_fits"] = float(len(lm_ms))
    out["training.lm_ms.p50"] = _percentile(lm_ms, 50)
    out["training.lm_ms.p90"] = _percentile(lm_ms, 90)
    out["training.solves"] = count("numpy.linalg.solve")
    out["training.solve_ms"] = total_ms("numpy.linalg.solve")
    out["training.final_fit_ms"] = 1e3 * sum(
        s.end - s.start for s in lm if s.parent in search_ids)
    out["training.cpu_per_wall"] = (
        sum(s.counts.get("cpu_s", 0.0) for s in search) / search_s if search_s else 0.0)
    return out
