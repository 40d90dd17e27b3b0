"""Unit tests for the ProbeBus event layer: dispatch rebinding,
attach/detach, and the closed event vocabulary."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.bus import EVENTS, ProbeBus, _noop


class Recorder:
    """Subscribes to two events, recording every call."""

    def __init__(self):
        self.published = []
        self.dropped = []

    def on_publish(self, time, thread, seq, staleness, cas_failures=0, loop_enter=float("nan")):
        self.published.append((time, thread, seq, staleness))

    def on_drop(self, time, thread, cas_failures, loop_enter=float("nan")):
        self.dropped.append((time, thread, cas_failures))


class TestDispatchRebinding:
    def test_zero_subscribers_is_noop(self):
        bus = ProbeBus()
        for event in EVENTS:
            assert getattr(bus, event) is _noop
        bus.publish(0.0, 0, 0, 0)  # no error, no effect

    def test_single_subscriber_is_the_bound_handler(self):
        bus = ProbeBus()
        rec = bus.attach(Recorder())
        # No wrapper frame: the emit attribute IS the handler.
        assert bus.publish == rec.on_publish
        bus.publish(1.0, 2, 3, 4)
        assert rec.published == [(1.0, 2, 3, 4)]

    def test_two_subscribers_fan_out_in_order(self):
        bus = ProbeBus()
        order = []
        a, b = Recorder(), Recorder()
        a.on_publish = lambda *args: order.append("a")
        b.on_publish = lambda *args: order.append("b")
        bus.attach(a)
        bus.attach(b)
        bus.publish(0.0, 0, 0, 0)
        assert order == ["a", "b"]
        assert bus.handler_count("publish") == 2

    def test_detach_restores_previous_dispatch(self):
        bus = ProbeBus()
        a = bus.attach(Recorder())
        b = bus.attach(Recorder())
        bus.detach(b)
        assert bus.publish == a.on_publish
        bus.detach(a)
        assert bus.publish is _noop

    def test_unsubscribed_events_stay_noop(self):
        bus = ProbeBus()
        bus.attach(Recorder())  # publish/drop only
        assert bus.cas_attempt is _noop
        assert bus.lock_wait is _noop

    def test_emitter_is_none_without_a_subscriber(self):
        bus = ProbeBus()
        assert all(bus.emitter(event) is None for event in EVENTS)
        a = bus.attach(Recorder())
        assert bus.emitter("publish") == a.on_publish
        assert bus.emitter("cas_attempt") is None
        bus.attach(Recorder())
        assert bus.emitter("publish") is bus.publish
        bus.detach(a)


class TestAttachValidation:
    def test_attach_returns_subscriber(self):
        bus = ProbeBus()
        rec = Recorder()
        assert bus.attach(rec) is rec
        assert bus.subscribers == (rec,)

    def test_attach_handlerless_object_rejected(self):
        with pytest.raises(ConfigurationError, match="no on_<event> handler"):
            ProbeBus().attach(object())

    def test_subscribe_unknown_event_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown telemetry event"):
            ProbeBus().subscribe("frobnicate", lambda *a: None)

    def test_detach_never_attached_rejected(self):
        with pytest.raises(ConfigurationError, match="never attached"):
            ProbeBus().detach(Recorder())

    def test_subscribe_single_event(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("reclaim", lambda t, tid, seq: seen.append(seq))
        bus.reclaim(0.0, 1, 7)
        assert seen == [7]


class TestEventVocabulary:
    def test_all_events_have_emit_attributes(self):
        bus = ProbeBus()
        for event in EVENTS:
            assert callable(getattr(bus, event))

    def test_vocabulary_is_closed(self):
        # The bus only accepts the documented events: the protocol
        # vocabulary plus the host-side execution events (kernel_fallback,
        # the run-cache traffic trio, and the task-queue lifecycle).
        assert set(EVENTS) == {
            "read_pinned", "grad_done", "lau_enter", "cas_attempt",
            "publish", "drop", "lock_wait", "reclaim", "view_divergence",
            "kernel_fallback", "cache_hit", "cache_miss", "cache_bypass",
            "task_enqueued", "task_leased", "task_done", "task_requeued",
        }
