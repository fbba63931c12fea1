"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator, StopSimulation
from repro.sim.sync import Event


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callback_fires_at_scheduled_time(self, sim):
        seen = []
        sim.call_in(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_call_at_absolute_time(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append("a"))
        sim.call_at(3.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b"]
        assert sim.now == 3.0

    def test_fifo_tie_break_at_same_time(self, sim):
        seen = []
        for i in range(10):
            sim.call_at(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(10))

    def test_interleaved_times_dispatch_in_order(self, sim):
        seen = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.call_at(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(Event(sim), delay=-1.0)

    def test_schedule_in_past_rejected(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(Event(sim), 1.0)

    def test_nested_scheduling_from_callback(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.call_in(1.0, lambda: seen.append(("inner", sim.now)))

        sim.call_at(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestRun:
    def test_run_until_stops_clock_at_horizon(self, sim):
        sim.call_at(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.queue_size == 1

    def test_run_until_resumable(self, sim):
        seen = []
        sim.call_at(10.0, lambda: seen.append("x"))
        sim.run(until=4.0)
        sim.run()
        assert seen == ["x"]

    def test_stop_simulation_carries_value(self, sim):
        def stopper():
            raise StopSimulation("done")

        sim.call_at(1.0, stopper)
        sim.call_at(2.0, lambda: pytest.fail("should not run"))
        assert sim.run() == "done"

    def test_events_dispatched_counter(self, sim):
        for t in range(5):
            sim.call_at(float(t), lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_step_single_event(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append(1))
        sim.call_at(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.step()
        assert not sim.step()

    def test_run_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.call_at(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_peek_next_event_time(self, sim):
        assert sim.peek() is None
        sim.call_at(7.0, lambda: None)
        assert sim.peek() == 7.0


class TestCancellation:
    def test_cancelled_event_not_dispatched(self, sim):
        ev = Event(sim)
        seen = []
        ev.add_callback(lambda e: seen.append(1))
        ev.succeed()
        ev.cancelled = True
        sim.run()
        assert seen == []


class TestDrainBoundaries:
    """The one dispatch loop behind ``run()``, ``run(until=T)`` and
    ``run_until_before(T)``: which events at exactly T fire, where the clock
    parks, when ``on_advance`` fires, and what a stop leaves behind."""

    @staticmethod
    def _load(sim, times=(1.0, 2.0, 2.0, 3.0, 4.0)):
        fired = []
        advances = []
        sim.on_advance = lambda: advances.append(sim.now)
        for t in times:
            sim.call_at(t, lambda t=t: fired.append(t))
        # a same-time follow-up scheduled while the t=3 batch drains
        sim.call_at(3.0, lambda: sim.call_in(0.0, lambda: fired.append("3+")))
        return fired, advances

    def test_unbounded_drains_everything_and_parks_at_last_event(self, sim):
        fired, advances = self._load(sim)
        sim.run()
        assert fired == [1.0, 2.0, 2.0, 3.0, "3+", 4.0]
        assert sim.now == 4.0
        assert advances == [0.0, 1.0, 2.0, 3.0]  # once per distinct timestamp
        assert sim.events_dispatched == 7
        assert sim.queue_size == 0

    def test_until_is_inclusive_and_parks_at_horizon(self, sim):
        fired, advances = self._load(sim)
        sim.run(until=3.0)
        assert fired == [1.0, 2.0, 2.0, 3.0, "3+"]
        assert sim.now == 3.0
        assert advances == [0.0, 1.0, 2.0]  # no advance past the horizon
        assert sim.events_dispatched == 6
        assert sim.peek() == 4.0

    def test_until_parks_past_a_drained_queue(self, sim):
        fired, advances = self._load(sim)
        sim.run(until=10.0)
        assert fired[-1] == 4.0
        assert sim.now == 10.0
        assert advances == [0.0, 1.0, 2.0, 3.0]

    def test_until_now_fires_the_current_batch(self, sim):
        seen = []
        sim.call_in(0.0, lambda: seen.append("now"))
        sim.call_in(1.0, lambda: seen.append("later"))
        sim.run(until=0.0)
        assert seen == ["now"] and sim.now == 0.0

    def test_until_before_leaves_horizon_events_pending(self, sim):
        fired, advances = self._load(sim)
        sim.run_until_before(3.0)
        assert fired == [1.0, 2.0, 2.0]
        assert sim.now == 2.0  # strictly below the horizon, never parked on it
        assert advances == [0.0, 1.0]
        assert sim.events_dispatched == 3
        assert sim.peek() == 3.0
        sim.run()
        assert fired == [1.0, 2.0, 2.0, 3.0, "3+", 4.0]
        assert advances == [0.0, 1.0, 2.0, 3.0]
        assert sim.events_dispatched == 7

    def test_until_before_now_fires_nothing(self, sim):
        seen = []
        sim.call_in(0.0, lambda: seen.append("now"))
        sim.run_until_before(0.0)
        assert seen == [] and sim.now == 0.0 and sim.queue_size == 1

    @pytest.mark.parametrize("mode", ["unbounded", "until", "before"])
    def test_stop_counts_the_stopper_and_keeps_the_clock(self, sim, mode):
        seen = []

        def stopper():
            seen.append("stop")
            raise StopSimulation("halt")

        sim.call_at(1.0, lambda: seen.append(1.0))
        sim.call_at(2.0, stopper)
        sim.call_at(2.0, lambda: seen.append("same-time"))
        sim.call_at(3.0, lambda: seen.append(3.0))
        if mode == "unbounded":
            value = sim.run()
        elif mode == "until":
            value = sim.run(until=5.0)
        else:
            value = sim.run_until_before(5.0)
        assert value == "halt"
        assert seen == [1.0, "stop"]
        assert sim.now == 2.0  # a stopped run does not park at the horizon
        assert sim.events_dispatched == 2
        assert sim.queue_size == 2
        assert sim.run() is None
        assert seen == [1.0, "stop", "same-time", 3.0]

    def test_past_horizon_rejected_without_rewinding_the_clock(self, sim):
        """Regression: ``run(until=T)`` with ``T < now`` used to set the
        clock back to T, after which a ``call_at`` between T and the old
        time fired after that time had already passed."""
        seen = []
        sim.call_at(2.0, lambda: seen.append(2.0))
        sim.call_at(5.0, lambda: seen.append(5.0))
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert sim.now == 3.0
        # the exclusive drain never parks the clock, so a past horizon is
        # a no-op (a shard sitting out a window), not a rewind
        assert sim.run_until_before(1.0) is None
        assert sim.now == 3.0 and seen == [2.0]
        with pytest.raises(SimulationError):
            sim.call_at(1.5, lambda: seen.append(1.5))
        sim.run()
        assert seen == [2.0, 5.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []
            for t in (3.0, 1.0, 1.0, 2.0):
                sim.call_at(t, lambda t=t: trace.append((sim.now, t)))
            sim.call_at(1.5, lambda: sim.call_in(0.5, lambda: trace.append("nested")))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
