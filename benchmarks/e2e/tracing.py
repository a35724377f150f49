"""Benchmark-side tracing: spans around the calls into each layer.

While :func:`traced` is active, the public methods listed in ``TARGETS`` are
wrapped (on their classes, from outside — no file under ``src/`` knows) and
each call records a span: name, layer, start, end, thread and parent.  The
parent is the innermost enclosing span on the same thread; a span that starts
on a pool thread with nothing open attaches to the span the main thread is
blocked in, which is sound because the load model keeps one request in
flight.  Spans stay in memory; the runner writes them out when it ends.

Self time of a span = its duration minus the union of its children's
intervals (children on pool threads may overlap each other).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter

#: Distance served by a class, for the per-distance breakdowns.
DISTANCE_OF = {
    "HammingFeatureExtractor": "hamming",
    "EditFeatureExtractor": "edit",
    "MinHashJaccardFeatureExtractor": "jaccard",
    "PStableEuclideanFeatureExtractor": "euclidean",
    "PackedHammingSelector": "hamming",
    "PigeonholeHammingSelector": "hamming",
    "QGramEditSelector": "edit",
    "PrefixFilterJaccardSelector": "jaccard",
    "BallIndexEuclideanSelector": "euclidean",
    "HammingDistance": "hamming",
    "EditDistance": "edit",
    "JaccardDistance": "jaccard",
    "EuclideanDistance": "euclidean",
}


def _first_len(args: tuple) -> int:
    """Batch size of a ``method(self, records, ...)`` call."""
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 1


#: (owner, attribute, layer, batch-size reader).  A class owner covers every
#: subclass that defines the method; a module owner wraps a function.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[tuple], int]]], ...] = (
    ("repro.featurization.base:FeatureExtractor", "transform_records", "featurization", _first_len),
    ("repro.featurization.base:FeatureExtractor", "transform_thresholds", "featurization", _first_len),
    ("repro.core.estimator:CardNetEstimator", "estimate_curve_many", "core", _first_len),
    ("repro.core.estimator:CardNetEstimator", "estimate_batch", "core", _first_len),
    ("repro.core.estimator:CardNetEstimator", "incremental_fit", "core", None),
    ("repro.core.incremental:IncrementalUpdateManager", "process", "core", None),
    ("repro.core.incremental:IncrementalUpdateManager", "revalidate", "core", None),
    ("repro.core.incremental", "relabel_delta", "core", None),
    ("repro.core.incremental", "relabel", "core", None),
    ("repro.baselines.db_specialized:HistogramHammingEstimator", "estimate_curve_many", "baselines", _first_len),
    ("repro.serving.service:EstimationService", "estimate", "serving", None),
    ("repro.serving.service:EstimationService", "estimate_many", "serving", _first_len),
    ("repro.serving.service:EstimationService", "estimate_curve", "serving", None),
    ("repro.serving.service:EstimationService", "estimate_curve_many", "serving", _first_len),
    ("repro.serving.service:EstimationService", "invalidate", "serving", None),
    ("repro.serving.service:EstimationService", "register", "serving", None),
    ("repro.serving.service:EstimationService", "unregister", "serving", None),
    ("repro.optimizer.gph:GPHQueryProcessor", "plan", "optimizer", None),
    ("repro.engine.planner:QueryPlanner", "plan_many", "engine", _first_len),
    ("repro.engine.planner:QueryPlanner", "iter_plans", "engine", None),
    ("repro.engine.executor:QueryExecutor", "execute", "engine", None),
    ("repro.engine.feedback:FeedbackMonitor", "observe", "engine", None),
    ("repro.engine.engine:SimilarityQueryEngine", "execute", "engine", None),
    ("repro.engine.engine:SimilarityQueryEngine", "execute_many", "engine", _first_len),
    ("repro.engine.engine:SimilarityQueryEngine", "apply_update", "engine", None),
    ("repro.engine.engine:SimilarityQueryEngine", "save", "store", None),
    ("repro.engine.engine:SimilarityQueryEngine", "load", "store", None),
    ("repro.selection.base:SimilaritySelector", "query", "selection", None),
    ("repro.selection.base:SimilaritySelector", "verified_candidates", "selection", None),
    ("repro.selection.base:SimilaritySelector", "cardinality_curve", "selection", None),
    ("repro.selection.base:SimilaritySelector", "insert_many", "selection", _first_len),
    ("repro.selection.base:SimilaritySelector", "delete_many", "selection", _first_len),
    ("repro.selection.base:SimilaritySelector", "compact", "selection", None),
    ("repro.selection.delta:DeltaIndexMixin", "insert_many", "selection", _first_len),
    ("repro.selection.delta:DeltaIndexMixin", "delete_many", "selection", _first_len),
    ("repro.selection.delta:DeltaIndexMixin", "compact", "selection", None),
    ("repro.sharding.selector:ShardedSelector", "query_with_counts", "sharding", None),
    ("repro.sharding.selector:ShardedSelector", "route_operation", "sharding", None),
    ("repro.sharding.selector:ShardedSelector", "apply_routed", "sharding", None),
    ("repro.sharding.group:MergedShardEstimator", "estimate_curve_many", "sharding", _first_len),
    ("repro.distances.base:DistanceFunction", "cross_distances", "distances", None),
)
#: ShardedSelector is a SimilaritySelector subclass; its spans are the
#: sharding layer's, not the selection layer's.
_LAYER_OVERRIDE = {"ShardedSelector": "sharding"}


class Span:
    __slots__ = (
        "name", "layer", "tag", "count", "phase", "thread", "start", "end",
        "parent", "value", "index", "self_time",
    )

    def __init__(self, name, layer, tag, count, phase, thread, parent) -> None:
        self.name = name
        self.layer = layer
        self.tag = tag
        self.count = count
        self.phase = phase
        self.thread = thread
        self.parent: Optional["Span"] = parent
        self.start = 0.0
        self.end = 0.0
        self.value: Optional[float] = None
        self.index = -1
        self.self_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; one per traced repeat."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Set by the runner: "latency", "bulk", "update" or "other".
        self.phase = "other"
        self._main = threading.get_ident()
        self._main_stack: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, tag: Optional[str], count: int) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, layer, tag, count, self.phase, threading.get_ident(), parent)
        stack.append(span)
        self.spans.append(span)
        span.start = _clock()
        return span

    def end(self, span: Span) -> None:
        span.end = _clock()
        self._stack().pop()

    # ------------------------------------------------------------------ #
    def finish(self) -> List[Span]:
        """Number the spans and compute every self time."""
        children: Dict[int, List[Span]] = {}
        for index, span in enumerate(self.spans):
            span.index = index
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
                low = max(child.start, reach)
                high = min(child.end, span.end)
                if high > low:
                    covered += high - low
                    reach = high
            span.self_time = max(0.0, span.duration - covered)
        return self.spans

    def to_json(self) -> Dict[str, Any]:
        origin = self.spans[0].start if self.spans else 0.0
        threads: Dict[int, int] = {}
        rows = []
        for span in self.spans:
            rows.append([
                span.index,
                -1 if span.parent is None else span.parent.index,
                span.name,
                span.layer,
                span.tag,
                span.phase,
                threads.setdefault(span.thread, len(threads)),
                round((span.start - origin) * 1e6, 1),
                round((span.end - origin) * 1e6, 1),
                round(span.self_time * 1e6, 1),
                span.count,
                span.value,
            ])
        return {
            "columns": [
                "index", "parent", "name", "layer", "tag", "phase", "thread",
                "start_us", "end_us", "self_us", "count", "value",
            ],
            "spans": rows,
        }


def _wrap(function: Callable, name: str, layer: str, count_of, recorder: Recorder) -> Callable:
    if inspect.isgeneratorfunction(function):
        # One span per resumption: a generator's work happens in next().
        @functools.wraps(function)
        def traced_generator(*args, **kwargs) -> Iterator:
            iterator = function(*args, **kwargs)
            tag = DISTANCE_OF.get(type(args[0]).__name__) if args else None
            while True:
                span = recorder.begin(name, layer, tag, 1)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.end(span)
                yield item

        return traced_generator

    @functools.wraps(function)
    def traced_call(*args, **kwargs):
        tag = DISTANCE_OF.get(type(args[0]).__name__) if args else None
        span = recorder.begin(name, layer, tag, count_of(args) if count_of else 1)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(span)
        if type(result) in (int, float):
            span.value = result
        return result

    return traced_call


def _subclasses(cls: type) -> List[type]:
    found, queue = [cls], [cls]
    while queue:
        for sub in queue.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                queue.append(sub)
    return found


@contextlib.contextmanager
def traced() -> Iterator[Recorder]:
    """Install the wrappers, yield the recorder, always restore."""
    recorder = Recorder()
    undo: List[Tuple[Any, str, Any]] = []
    seen = set()
    try:
        for owner_path, attribute, layer, count_of in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            owners = _subclasses(getattr(module, class_name)) if class_name else [module]
            for owner in owners:
                raw = vars(owner).get(attribute)
                if raw is None or (id(owner), attribute) in seen:
                    continue
                seen.add((id(owner), attribute))
                owner_name = owner.__name__ if class_name else module_name.rsplit(".", 1)[-1]
                name = f"{owner_name}.{attribute}"
                span_layer = _LAYER_OVERRIDE.get(owner_name, layer)
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        _wrap(raw.__func__, name, span_layer, count_of, recorder)
                    )
                else:
                    wrapped = _wrap(raw, name, span_layer, count_of, recorder)
                undo.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(undo):
            setattr(owner, attribute, raw)
