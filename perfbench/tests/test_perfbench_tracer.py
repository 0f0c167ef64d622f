import numpy as np
import pytest

import tradelab.agents.td3 as td3_module
import tradelab.neuralnet as neuralnet
from tradelab.agents import Td3Agent, Td3Config
from tradelab.env import TradingEnv
from tracer import Tracer, self_times


def test_self_time_subtracts_the_covered_part_of_each_span():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [8, 12] is a child of b that runs past its parent and is clipped to it.
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, 3]
    got = self_times(starts, ends, parents)
    np.testing.assert_allclose(got, [10 - 3 - 4, 3 - 1, 1, 4 - 1, 4])


def test_self_times_of_recorded_spans_sum_to_the_root_duration():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    stats = tracer.stats()
    assert stats["outer.calls"] == 1 and stats["inner.calls"] == 2
    assert stats["inner.self_s"] == 2.0  # two spans of one tick each
    assert stats["outer.self_s"] + stats["inner.self_s"] == 5.0
    assert stats["trace.errors"] == 0


def test_functions_are_patched_where_they_are_looked_up():
    original = neuralnet.forward
    tracer = Tracer()
    try:
        tracer.install()
        # td3 imported forward by name; its own binding must be the wrapper
        assert td3_module.forward is neuralnet.forward is not original
        agent = Td3Agent(4, Td3Config(actor_hidden=(8,), critic_hidden=(8,)), seed=0)
        agent.policy(np.zeros(4))
        stats = tracer.stats()
    finally:
        tracer.uninstall()
    assert td3_module.forward is original and neuralnet.forward is original
    assert stats["agents.td3.Td3Agent.policy.calls"] == 1
    assert stats["neuralnet.forward.calls"] == 1
    assert stats["neuralnet.forward.rows"] == 1
    assert stats["neuralnet.macs"] == 4 * 8 + 8 * 1


def test_methods_are_patched_on_the_class_and_restored():
    original = TradingEnv.__dict__["step"]
    tracer = Tracer()
    tracer.install()
    assert TradingEnv.__dict__["step"] is not original
    tracer.uninstall()
    assert TradingEnv.__dict__["step"] is original


def test_a_failing_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise RuntimeError("boom")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(RuntimeError):
        wrapped()
    stats = tracer.stats()
    assert stats["boom.calls"] == 1 and stats["trace.errors"] == 0
