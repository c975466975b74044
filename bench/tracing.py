"""Per-layer tracing built from outside the package.

``Tracer.install`` replaces public functions and methods of the contextmeter
modules with timing or counting wrappers. A function is replaced under every
module attribute that holds it, so a name a caller imported with
``from .model import read_jsonl`` is wrapped too; methods and classmethods
are replaced on their class. ``Tracer.uninstall`` puts every original back.

Spans (name, start, end, parent, thread) and counts are kept in memory and
turned into per-layer metrics by ``layer_metrics``. Recording is guarded by
one lock because ``retrieve`` and ``score`` call into the layers from a
thread pool; the pool the CLI resolves is swapped for one that hands the
submitting thread's current span to the worker as its parent.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterator, Optional

STAGES = ("ingest", "recast", "retrieve", "profile", "score_record", "score_replay", "analyze", "report")
DETECTORS = (
    "jaccard",
    "claim_evidence_overlap",
    "repeats_claim",
    "flesch_reading_ease",
    "entity_overlap",
    "hedging_flags",
    "unreliable_source",
    "verdict_word_flags",
    "aggregate_profile",
)
#: Every per-layer metric, in report order. A layer a workload never calls
#: reports 0.
LAYER_METRICS = (
    *(f"cli.{stage}.self_s" for stage in STAGES),
    "model.read_jsonl.s",
    "model.read_jsonl.rows",
    "model.write_jsonl.s",
    "model.write_jsonl.rows",
    "model.canonical_json.calls",
    "ingest.load_druid.s",
    "ingest.load_triplets.s",
    "ingest.corpus_stats.s",
    "retrieval.search.s",
    "retrieval.search.calls",
    "retrieval.search.results",
    "retrieval.chunk_page.s",
    "retrieval.chunks",
    "retrieval.filter_claim_repeats.s",
    "retrieval.rouge_l.calls",
    "retrieval.lcs_length.calls",
    "retrieval.lcs_length.s",
    "retrieval.claim_repeat.removed_ratio",
    "retrieval.chunks_dropped",
    "retrieval.rerank.s",
    "retrieval.select_pages.s",
    "retrieval.assemble_evidence.s",
    *(f"characteristics.{name}.s" for name in DETECTORS),
    "characteristics.lexicon_loads",
    "characteristics.words.calls",
    "lm.render_prompt.s",
    "lm.prompt_hash.s",
    "lm.store_load.s",
    "lm.store_records_loaded",
    "lm.checksum.calls",
    "lm.store_get.s",
    "lm.store_append.s",
    "lm.store_appends",
    "lm.provider.s",
    "lm.provider.calls",
    "lm.replay_hits",
    "lm.replay_misses",
    "metrics.score_sample.s",
    "metrics.delta_p.calls",
    "analysis.stratified_acu.s",
    "analysis.prediction_shift.s",
    "analysis.krippendorff_alpha.s",
    "analysis.correlation_grid.s",
    "analysis.spearman.calls",
    "analysis.characteristic_values.calls",
    "tracing.overhead_s",
)


def is_time(metric: str) -> bool:
    """Whether a per-layer metric is a duration; every other one is a count
    or a ratio of counts and must repeat exactly."""
    return metric.endswith((".s", "_s"))


class Tracer:
    """Collects spans and counts from wrapped functions of any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # itertools.count.__next__ is a single C call, so ids are unique
        # across threads without the lock.
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, str, float, float, Optional[int], int]] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def run_span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = Counter()

    # -- wrappers ------------------------------------------------------------------

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Span around every call; ``after(args, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run_span(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Count every call under ``name``, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def iterated(self, name: str, fn: Callable) -> Callable:
        """For generator functions: one span per ``next``, so only the time
        spent producing items is charged, not the consumer's time between
        them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return wrapper

    def _iterate(self, name: str, inner: Iterator) -> Iterator:
        try:
            while True:
                try:
                    item = self.run_span(name, next, inner)
                except StopIteration:
                    return
                self.count(name + ".rows")
                yield item
        finally:
            inner.close()

    def counting_iterable(self, name: str, items) -> Iterator:
        for item in items:
            self.count(name)
            yield item

    # -- installation ------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` wherever a contextmeter module holds it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "contextmeter" or name.startswith("contextmeter.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self, provider_cls) -> None:
        """Wrap every traced layer; ``provider_cls`` is the in-process
        provider class whose calls stand for the model round trip."""
        from contextmeter import analysis, characteristics, cli, ingest, lm, metrics, model, retrieval

        count = self.count
        span = self.timed
        counted = self.counted
        threshold = retrieval.CLAIM_REPEAT_THRESHOLD
        # Spans without a metric of their own (run_pipeline, profile,
        # load_template, score, grid_to_csv) keep library work out of the
        # CLI stages' self time.
        functions = [
            (model, "read_jsonl", functools.partial(self.iterated, "model.read_jsonl")),
            (model, "write_jsonl", self._counted_write),
            (model, "canonical_json", functools.partial(counted, "model.canonical_json.calls")),
            (ingest, "load_druid", functools.partial(span, "ingest.load_druid")),
            (ingest, "load_triplets", functools.partial(span, "ingest.load_triplets")),
            (retrieval, "run_pipeline", functools.partial(span, "retrieval.run_pipeline")),
            (retrieval, "search", lambda f: span("retrieval.search", f, lambda args, result: (
                count("retrieval.search.calls"), count("retrieval.search.results", len(result))))),
            (retrieval, "chunk_page", lambda f: span("retrieval.chunk_page", f, lambda args, result: (
                count("retrieval.chunks", len(result))))),
            (retrieval, "filter_claim_repeats", lambda f: span("retrieval.filter_claim_repeats", f, lambda args, result: (
                result is None and count("retrieval.chunks_dropped")))),
            (retrieval, "rouge_l", lambda f: counted("retrieval.rouge_l.calls", f, lambda args, result: (
                result > threshold and count("retrieval.claim_repeat.removed")))),
            (retrieval, "lcs_length", lambda f: span("retrieval.lcs_length", f, lambda args, result: (
                count("retrieval.lcs_length.calls")))),
            (retrieval, "rerank", functools.partial(span, "retrieval.rerank")),
            (retrieval, "select_pages", functools.partial(span, "retrieval.select_pages")),
            (retrieval, "assemble_evidence", functools.partial(span, "retrieval.assemble_evidence")),
            (characteristics, "profile", functools.partial(span, "characteristics.profile")),
            (characteristics, "words", functools.partial(counted, "characteristics.words.calls")),
            *((characteristics, name, functools.partial(span, f"characteristics.{name}")) for name in DETECTORS),
            (lm, "load_template", functools.partial(span, "lm.load_template")),
            (lm, "render_prompt", functools.partial(span, "lm.render_prompt")),
            (lm, "prompt_hash", functools.partial(span, "lm.prompt_hash")),
            (metrics, "score_sample", functools.partial(span, "metrics.score_sample")),
            (metrics, "delta_p", functools.partial(counted, "metrics.delta_p.calls")),
            (analysis, "stratified_acu", functools.partial(span, "analysis.stratified_acu")),
            (analysis, "prediction_shift", functools.partial(span, "analysis.prediction_shift")),
            (analysis, "krippendorff_alpha", functools.partial(span, "analysis.krippendorff_alpha")),
            (analysis, "correlation_grid", functools.partial(span, "analysis.correlation_grid")),
            (analysis, "grid_to_csv", functools.partial(span, "analysis.grid_to_csv")),
            (analysis, "spearman", functools.partial(counted, "analysis.spearman.calls")),
            (analysis, "characteristic_values", functools.partial(counted, "analysis.characteristic_values.calls")),
        ]
        for module, attr, make in functions:
            self.patch_function(module, attr, make)

        methods = [
            *((ingest.Corpus, attr, functools.partial(span, "ingest.corpus_stats")) for attr in (
                "totals", "per_source_counts", "stance_histogram", "relevance_histogram", "inter_context_conflicts")),
            (characteristics.HedgeLexicon, "default", functools.partial(counted, "characteristics.lexicon_loads")),
            (characteristics.ReliabilityList, "default", functools.partial(counted, "characteristics.lexicon_loads")),
            (lm.ReplayStore, "__init__", lambda f: span("lm.store_load", f, lambda args, result: (
                count("lm.store_records_loaded", len(args[0]))))),
            (lm.ReplayStore, "get", lambda f: span("lm.store_get", f, lambda args, result: (
                count("lm.replay_misses" if result is None else "lm.replay_hits")))),
            (lm.ReplayStore, "append", lambda f: span("lm.store_append", f, lambda args, result: (
                count("lm.store_appends")))),
            (lm.ScoreRecord, "checksum", functools.partial(counted, "lm.checksum.calls")),
            (lm.VerdictScorer, "score", functools.partial(span, "lm.score")),
            (provider_cls, "next_token_distribution", lambda f: span("lm.provider", f, lambda args, result: (
                count("lm.provider.calls")))),
        ]
        for cls, attr, make in methods:
            self.patch_method(cls, attr, make)
        self._set(cli, "ThreadPoolExecutor", _pool_class(self))

    def _counted_write(self, original: Callable) -> Callable:
        """``write_jsonl`` in a span, counting the records it consumes."""

        def write_jsonl(path, records, *args, **kwargs):
            rows = self.counting_iterable("model.write_jsonl.rows", records)
            return original(path, rows, *args, **kwargs)

        return self.timed("model.write_jsonl", functools.wraps(original)(write_jsonl))


def _pool_class(tracer: Tracer):
    """A ThreadPoolExecutor whose tasks start under the submitter's span."""

    class TracedPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None

            def run(*a, **k):
                worker_stack = tracer._stack()
                depth = len(worker_stack)
                if parent is not None:
                    worker_stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    del worker_stack[depth:]

            return super().submit(run, *args, **kwargs)

    return TracedPool


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer values of one repetition from its spans and counts.

    ``<name>.s`` sums the durations of every span of that name across
    threads. ``cli.<stage>.self_s`` is the stage span minus the part of its
    interval that its direct children, on any thread, cover.
    """
    busy: Counter = Counter()
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, name, start, end, parent, _thread in spans:
        busy[name] += end - start
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    values: dict[str, float] = {}
    for span_id, name, start, end, parent, _thread in spans:
        if name.startswith("cli."):
            covered = _union_length(
                [(max(s, start), min(e, end)) for s, e in children.get(span_id, []) if e > start and s < end]
            )
            key = f"{name}.self_s"
            values[key] = values.get(key, 0.0) + (end - start) - covered
    for name, seconds in busy.items():
        values[f"{name}.s"] = seconds
    for name, n in counts.items():
        values[name] = n
    calls = counts.get("retrieval.rouge_l.calls", 0)
    values["retrieval.claim_repeat.removed_ratio"] = (
        counts.get("retrieval.claim_repeat.removed", 0) / calls if calls else 0.0
    )
    return {metric: values.get(metric, 0) for metric in LAYER_METRICS if metric != "tracing.overhead_s"}
