"""End-to-end tracing: per-request span trees.

A *span* is one timed stage of one request — planning, a driver index scan,
one shard's slice of a fan-out — with a name, monotonic start/duration, free
-form attributes, and child spans.  Spans form per-request trees: the active
span lives in thread-local state, so nested ``with span(...)`` blocks build
the tree without any explicit plumbing.  The library runs every stage on the
caller's thread, so one request's tree lives on the thread that issued it;
requests issued from different client threads build separate trees.

**Zero cost when off.**  Tracing is globally disabled unless ``REPRO_TRACE``
is set (or :func:`enable_tracing` is called).  A disabled ``span(...)`` block
does one thread-local read plus one bool check and yields a shared no-op
object — no allocation, no timestamps, no tree.  Span timings use
``time.perf_counter()`` and are therefore only comparable *within* one
process.

Tracing never changes what is computed: with spans on, query results are
bit-identical to spans off (pinned by tests and a CI variant running the
whole tier-1 suite under ``REPRO_TRACE=1``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "off")


#: Module switch: ``REPRO_TRACE=1`` (or enable_tracing()) turns span recording
#: on for spans that have no active parent.  A span whose parent is active is
#: ALWAYS recorded — that is what lets one forced trace (explain_analyze)
#: collect its full tree while the rest of the process stays untraced.
_ENABLED = _env_flag("REPRO_TRACE")

_ids = itertools.count(1)


def _next_id() -> str:
    """Process-unique span id: the pid, then a per-process counter."""
    return f"{os.getpid():x}-{next(_ids):x}"


def tracing_enabled() -> bool:
    """Whether root spans are being recorded in this process."""
    return _ENABLED


def enable_tracing() -> None:
    global _ENABLED
    _ENABLED = True


def disable_tracing() -> None:
    global _ENABLED
    _ENABLED = False


class _ThreadState(threading.local):
    span: "Optional[Span]" = None


_ACTIVE = _ThreadState()


def current_span() -> "Optional[Span]":
    """The thread's active span (``None`` outside any trace).

    This is also the *trace context* the runtime captures at task submission:
    a non-``None`` value means "this thread is inside a trace", and spans
    started on other threads under this context attach to it.
    """
    return _ACTIVE.span


class Span:
    """One timed, named, attributed node of a trace tree.

    Plain data + ``__slots__``: spans never hold locks — concurrent children
    append under the GIL, which is safe for ``list.append``.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "pid",
        "start",
        "duration",
        "attributes",
        "children",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        self.name = name
        self.span_id = _next_id()
        self.trace_id = trace_id if trace_id is not None else self.span_id
        self.parent_id = parent_id
        self.pid = os.getpid()
        self.start = time.perf_counter()
        self.duration: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List[Span] = []

    # -- recording ------------------------------------------------------- #
    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; chainable inside a ``with span(...)`` block."""
        self.attributes.update(attributes)
        return self

    def finish(self) -> "Span":
        if self.duration is None:
            self.duration = time.perf_counter() - self.start
        return self

    def child(self, name: str, **attributes: Any) -> "Span":
        """Create (and attach) a child span; caller finishes it."""
        node = Span(name, trace_id=self.trace_id, parent_id=self.span_id, **attributes)
        self.children.append(node)
        return node

    # -- introspection --------------------------------------------------- #
    def iter_spans(self) -> Iterator["Span"]:
        """Depth-first over self and every descendant."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> List["Span"]:
        """Every descendant (or self) with ``name``, depth-first order."""
        return [node for node in self.iter_spans() if node.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering of the subtree."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "duration_seconds": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def tree(self, indent: int = 0) -> str:
        """Human-readable span tree (the EXPLAIN ANALYZE rendering)."""
        duration = "…" if self.duration is None else f"{self.duration * 1e3:.3f} ms"
        attributes = "".join(
            f" {key}={value!r}" for key, value in sorted(self.attributes.items())
        )
        lines = [f"{'  ' * indent}- {self.name} [{duration}]{attributes}"]
        lines.extend(child.tree(indent + 1) for child in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, children={len(self.children)})"


class _NoopSpan:
    """Shared sink for disabled spans: every recording call is a no-op."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def child(self, name: str, **attributes: Any) -> "_NoopSpan":
        return self

    def finish(self) -> "_NoopSpan":
        return self

    def find(self, name: str) -> List[Span]:
        return []

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    @property
    def children(self) -> List[Span]:
        return []

    @property
    def duration(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class span:
    """Context manager starting one span under the thread's active span.

    Records iff a parent span is active on this thread OR tracing is globally
    enabled (in which case a parentless span becomes its own root).  When
    neither holds it yields :data:`NOOP_SPAN` — the disabled fast path.
    """

    __slots__ = ("_name", "_attributes", "_force", "_span", "_parent")

    def __init__(self, _name: str, _force: bool = False, **attributes: Any) -> None:
        self._name = _name
        self._attributes = attributes
        self._force = _force
        self._span: Optional[Span] = None

    def __enter__(self):
        parent = _ACTIVE.span
        if parent is None and not (_ENABLED or self._force):
            return NOOP_SPAN
        if parent is None:
            node = Span(self._name, **self._attributes)
        else:
            node = parent.child(self._name, **self._attributes)
        self._parent = parent
        self._span = node
        _ACTIVE.span = node
        return node

    def __exit__(self, exc_type, exc, tb) -> bool:
        node = self._span
        if node is not None:
            if exc_type is not None:
                node.attributes.setdefault("error", repr(exc))
            node.finish()
            _ACTIVE.span = self._parent
        return False


def start_trace(name: str, **attributes: Any) -> span:
    """A root span recorded even when tracing is globally disabled.

    The per-request opt-in: ``explain_analyze`` runs exactly one traced query
    in an otherwise untraced process.
    """
    return span(name, _force=True, **attributes)
