"""Unit coverage for the span tracer and the structured event bus."""

import threading

import pytest

from repro.obs import NULL_TRACER, EventBus, NullTracer, Tracer, aggregate_spans


class TestTracer:
    def test_nesting_and_parent_linkage(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner_a"):
                pass
            with tr.span("inner_b"):
                pass
        inner_a, inner_b, outer = tr.spans
        assert [s.name for s in tr.spans] == ["inner_a", "inner_b", "outer"]
        assert outer.parent is None
        assert inner_a.parent == outer.id
        assert inner_b.parent == outer.id
        assert inner_a.id != inner_b.id
        # siblings are disjoint in time and inside the parent window
        assert outer.t0_ns <= inner_a.t0_ns
        assert inner_a.t0_ns + inner_a.dur_ns <= inner_b.t0_ns
        assert inner_b.t0_ns + inner_b.dur_ns <= outer.t0_ns + outer.dur_ns

    def test_attrs_at_open_and_mid_span(self):
        tr = Tracer()
        with tr.span("s", loop="L2") as sp:
            sp.set(n_changed=7)
        (rec,) = tr.spans
        assert rec.attrs == {"loop": "L2", "n_changed": 7}

    def test_exception_unwinds_parent_stack(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("boom"):
                    raise RuntimeError("x")
        # both spans closed despite the exception; stack is clean
        assert [s.name for s in tr.spans] == ["boom", "outer"]
        with tr.span("after"):
            pass
        assert tr.spans[-1].parent is None

    def test_counters_and_instants(self):
        tr = Tracer()
        tr.counter("hits")
        tr.counter("hits", 2)
        tr.event("mark", detail="d")
        assert tr.counters == {"hits": 3}
        (ev,) = tr.events
        assert ev["kind"] == "instant" and ev["name"] == "mark"
        assert ev["attrs"] == {"detail": "d"}

    def test_bounded_buffer_counts_drops(self):
        tr = Tracer(max_spans=2)
        for i in range(5):
            with tr.span(f"s{i}"):
                pass
        assert len(tr.spans) == 2
        assert tr.dropped == 3

    def test_retroactive_record(self):
        tr = Tracer()
        pid = tr.record("job", t0_ns=100, dur_ns=50, attempt=1)
        tr.record("step", t0_ns=110, dur_ns=10, parent=pid)
        job, step = tr.spans
        assert job.attrs == {"attempt": 1}
        assert step.parent == pid

    def test_threads_keep_their_own_span_stacks(self):
        """Two threads interleave nested spans: each span's parent is the
        enclosing span of its own thread, and each thread has its lane."""
        tr = Tracer()
        barrier = threading.Barrier(2)

        def nest(tag):
            with tr.span(f"outer_{tag}"):
                barrier.wait()
                with tr.span(f"inner_{tag}"):
                    barrier.wait()
                barrier.wait()

        threads = [threading.Thread(target=nest, args=(t,)) for t in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        by_name = {s.name: s for s in tr.spans}
        for tag in "ab":
            outer, inner = by_name[f"outer_{tag}"], by_name[f"inner_{tag}"]
            assert outer.parent is None
            assert inner.parent == outer.id
            assert inner.tid == outer.tid
        assert by_name["outer_a"].tid != by_name["outer_b"].tid
        assert {s.tid for s in tr.spans} == {1, 2}

    def test_clear(self):
        tr = Tracer(max_spans=1)
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        tr.counter("c")
        tr.clear()
        assert not tr.spans and not tr.counters and tr.dropped == 0


class TestNullTracer:
    def test_shared_noop_singleton(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        with NULL_TRACER.span("x", attr=1) as sp:
            assert sp.set(more=2) is sp
        NULL_TRACER.counter("c")
        NULL_TRACER.event("e")
        NULL_TRACER.record("r", 0, 0)
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.counters == {}
        # span() hands out one shared stateless context manager
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestAggregateSpans:
    def test_self_time_subtracts_direct_children(self):
        tr = Tracer()
        parent = tr.record("outer", t0_ns=0, dur_ns=1_000_000_000)
        tr.record("leaf", t0_ns=0, dur_ns=600_000_000, parent=parent)
        agg = aggregate_spans(tr.spans)
        assert agg["outer"]["total_s"] == pytest.approx(1.0)
        assert agg["outer"]["self_s"] == pytest.approx(0.4)
        assert agg["leaf"]["self_s"] == pytest.approx(0.6)
        assert agg["outer"]["count"] == 1

    def test_children_on_other_threads_are_not_subtracted(self):
        """A child span on another thread ran concurrently with its
        parent: subtracting it would drive the parent's self time below
        zero (two 0.8 s workers under a 1 s parent)."""
        tr = Tracer()
        parent = tr.record("compute", t0_ns=0, dur_ns=1_000_000_000)
        tr.record("strip", t0_ns=0, dur_ns=300_000_000, parent=parent)
        main_lane = tr.spans[0].tid

        def worker():
            tr.record("strip", t0_ns=0, dur_ns=800_000_000, parent=parent)

        for _ in range(2):
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive()
        assert {s.tid for s in tr.spans} == {main_lane, main_lane + 1, main_lane + 2}
        agg = aggregate_spans(tr.spans)
        assert agg["compute"]["self_s"] == pytest.approx(0.7)
        assert agg["strip"]["self_s"] == pytest.approx(1.9)


class TestEventBus:
    def test_emit_orders_and_categorizes(self):
        bus = EventBus()
        bus.emit("a", "x", {"v": 1})
        bus.emit("b", "y", {"v": 2})
        bus.emit("a", "z", {"v": 3})
        assert [r.seq for r in bus.all()] == [0, 1, 2]
        assert [r.name for r in bus.category("a")] == ["x", "z"]
        assert bus.counts() == {"a": 2, "b": 1}

    def test_record_to_dict(self):
        bus = EventBus()
        rec = bus.emit("guard", "verified", {"event": "verified", "ok": True})
        assert rec.to_dict() == {
            "kind": "event",
            "seq": 0,
            "category": "guard",
            "name": "verified",
            "payload": {"event": "verified", "ok": True},
        }

    def test_payloads_in_emit_order(self):
        """What ``prog.guard_events`` / ``adapt.fallback_log`` return: one
        category's payload dicts, oldest first, others filtered out."""
        bus = EventBus()
        assert bus.payloads("guard") == []
        bus.emit("guard", "verified", {"event": "verified", "loop": "L2"})
        bus.emit("adapt.fallback", "over_threshold", {"reason": "over_threshold"})
        bus.emit("guard", "corrupted", {"event": "corrupted"})
        (first, second) = bus.payloads("guard")
        assert first == {"event": "verified", "loop": "L2"}
        assert second == {"event": "corrupted"}
        assert bus.payloads("adapt.fallback") == [{"reason": "over_threshold"}]

    def test_payloads_is_a_copy(self):
        bus = EventBus()
        bus.emit("c", "x", {"event": "x"})
        got = bus.payloads("c")
        got.append({"event": "not emitted"})
        got.clear()
        assert bus.payloads("c") == [{"event": "x"}]
        assert bus.counts() == {"c": 1}
        # reading a category nobody wrote does not create it
        assert bus.payloads("empty") == [] and bus.counts() == {"c": 1}

    def test_replace_category_lifts_names_per_category(self):
        """Restored events are named the way their writers name them:
        guard / serve records by ``"event"``, adapt fallbacks by
        ``"reason"``, a payload with neither by its category."""
        bus = EventBus()
        bus.replace_category("guard", [{"event": "remap_divergence", "n_bad": 2}])
        bus.replace_category(
            "adapt.fallback", [{"reason": "over_threshold", "event": "ignored"}]
        )
        bus.replace_category("misc", [{"v": 1}])
        assert [r.name for r in bus.all()] == [
            "remap_divergence",
            "over_threshold",
            "misc",
        ]

    def test_replace_category_keeps_other_categories_and_order(self):
        bus = EventBus()
        bus.emit("a", "a0", {"event": "a0"})
        bus.emit("b", "b0", {"event": "b0"})
        bus.emit("a", "a1", {"event": "a1"})
        bus.emit("c", "c0", {"event": "c0"})
        restored = [{"event": "r0"}, {"event": "r1"}, {"event": "r2"}]
        bus.replace_category("a", restored)
        assert bus.payloads("a") == restored
        assert bus.payloads("b") == [{"event": "b0"}]
        assert bus.counts() == {"a": 3, "b": 1, "c": 1}
        # survivors keep their relative order and seq; the restored
        # events land after them, and a later emit after those
        bus.emit("b", "b1", {"event": "b1"})
        order = bus.all()
        assert [r.name for r in order] == ["b0", "c0", "r0", "r1", "r2", "b1"]
        assert [r.seq for r in order] == sorted(r.seq for r in order)
        # replacing with nothing drops the category
        bus.replace_category("a", [])
        assert bus.payloads("a") == [] and bus.counts() == {"b": 2, "c": 1}
        assert [r.name for r in bus.all()] == ["b0", "c0", "b1"]
