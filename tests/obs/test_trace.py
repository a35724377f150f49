"""Trace layer: span trees, the off-by-default no-op path, and one tree per
client thread."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.obs import (
    NOOP_SPAN,
    Span,
    current_span,
    disable_tracing,
    enable_tracing,
    span,
    start_trace,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts (and leaves) with global tracing disabled."""
    disable_tracing()
    yield
    disable_tracing()


class TestSpanTree:
    def test_nested_spans_build_a_tree(self):
        with start_trace("root") as root:
            assert current_span() is root
            with span("child-a") as a:
                with span("leaf") as leaf:
                    assert current_span() is leaf
            with span("child-b"):
                pass
        assert current_span() is None
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in a.children] == ["leaf"]
        assert root.duration is not None and root.duration >= 0.0
        assert leaf.trace_id == root.trace_id
        assert leaf.parent_id == a.span_id

    def test_attributes_and_find(self):
        with start_trace("root") as root:
            with span("work", shard=3) as node:
                node.set(rows=7)
        found = root.find("work")
        assert len(found) == 1
        assert found[0].attributes == {"shard": 3, "rows": 7}
        assert [s.name for s in root.iter_spans()] == ["root", "work"]

    def test_exception_sets_error_attribute(self):
        with pytest.raises(ValueError):
            with start_trace("root") as root:
                with span("explode"):
                    raise ValueError("boom")
        (failed,) = root.find("explode")
        assert "boom" in failed.attributes["error"]
        assert failed.duration is not None

    def test_to_dict_and_tree_render(self):
        with start_trace("root") as root:
            with span("inner", k="v"):
                pass
        as_dict = root.to_dict()
        assert as_dict["name"] == "root"
        assert as_dict["children"][0]["attributes"] == {"k": "v"}
        rendered = root.tree()
        assert "root" in rendered and "inner" in rendered

    def test_spans_pickle(self):
        with start_trace("root") as root:
            with span("inner"):
                pass
        clone = pickle.loads(pickle.dumps(root))
        assert clone.name == "root"
        assert clone.children[0].name == "inner"
        assert clone.span_id == root.span_id


class TestDisabledPath:
    def test_spans_are_noops_when_off(self):
        assert not tracing_enabled()
        with span("anything") as node:
            assert node is NOOP_SPAN
            with span("nested") as inner:
                assert inner is NOOP_SPAN
        assert current_span() is None
        assert NOOP_SPAN.set(a=1) is NOOP_SPAN
        assert NOOP_SPAN.find("anything") == []
        assert list(NOOP_SPAN.iter_spans()) == []
        assert NOOP_SPAN.children == []

    def test_enable_disable_toggle(self):
        enable_tracing()
        try:
            with span("now-recorded") as node:
                assert isinstance(node, Span)
        finally:
            disable_tracing()
        with span("off-again") as node:
            assert node is NOOP_SPAN

    def test_start_trace_forces_recording_while_off(self):
        with start_trace("forced") as root:
            assert isinstance(root, Span)
            with span("child") as child:
                assert isinstance(child, Span)
        assert root.children == [child]

    def test_env_flag_enables_tracing(self):
        script = textwrap.dedent(
            """
            from repro.obs import tracing_enabled, span, Span
            assert tracing_enabled()
            with span("root") as node:
                assert isinstance(node, Span)
            print("traced-ok")
            """
        )
        env = dict(os.environ, REPRO_TRACE="1")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "traced-ok" in done.stdout


class TestClientThreads:
    def test_each_client_thread_builds_its_own_tree(self, client_threads):
        def work(i):
            with start_trace("root", index=i) as root:
                with span("inner", index=i):
                    pass
            return root

        roots = client_threads(work, range(4))
        assert [root.attributes["index"] for root in roots] == [0, 1, 2, 3]
        for index, root in enumerate(roots):
            (inner,) = root.find("inner")
            assert inner.parent_id == root.span_id
            assert inner.attributes["index"] == index
        assert current_span() is None

    def test_untraced_tasks_record_nothing(self, client_threads):
        def work(_):
            with span("untraced") as opened:
                return opened, current_span()

        ((opened, active),) = client_threads(work, [None])
        assert opened is NOOP_SPAN and active is None
        assert current_span() is None

