"""Tests that every ``NetAgent`` passes, written once.

``test_td3`` and ``test_dqn`` run them on their own agent through subclasses
named like their other test classes, so each test keeps its id in its agent's
file. A subclass sets ``make(window, seed, **config_overrides)`` and the
class attributes each contract's docstring names.
"""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import make_series, push_pairs
from tradelab.agents import training
from tradelab.env import EnvConfig


def fill(agent, gen, n):
    """A buffer of n random steps, each action one of ``agent.random_actions``."""
    return push_pairs([
        (gen.normal(size=agent.window), action, float(gen.normal(scale=0.01)),
         gen.normal(size=agent.window), False)
        for action in agent.random_actions(gen, n)
    ], agent.config.buffer_capacity)


def assert_unchanged(agent, snap):
    assert all(np.array_equal(snap[name], x) for name, x in agent.snapshot().items())


def moments(agent):
    """A copy of each ``opts`` state's moments and step, by network name."""
    return {name: (opt.m.copy(), opt.v.copy(), opt.step) for name, opt in agent.opts.items()}


class UpdateContract:
    """``step_sizes`` maps each trained network to the config field of its Adam step
    size; ``failed_update`` is (config overrides under which one update moves every
    network, the message of a second update on a NaN-reward batch)."""

    def test_opts_hold_a_zeroed_state_per_trained_network(self):
        fields = dict.fromkeys(self.step_sizes.values())  # a distinct step size for each field
        agent = self.make(3, 0, **{field: 1e-3 * (k + 2) for k, field in enumerate(fields)})
        assert agent.opts.keys() == self.step_sizes.keys()
        for name, field in self.step_sizes.items():
            opt, theta = agent.opts[name], agent.nets[name].theta
            assert opt.m.shape == opt.v.shape == theta.shape
            assert not opt.m.any() and not opt.v.any()
            assert (opt.lr, opt.step) == (getattr(agent.config, field), 0)
        # no target network has a state
        assert agent.nets.keys() - agent.opts.keys() == {name for name in agent.nets if "target" in name}

    def test_underfilled_buffer_rejected(self, rng):
        agent = self.make(3, 0, batch_size=16)
        buffer = fill(agent, rng, 4)
        before = agent.snapshot()
        with pytest.raises(ValueError, match=r"^buffer holds 4 < batch size 16$"):
            agent.update(buffer, 0, np.random.default_rng(0))
        assert agent.updates == 0
        assert_unchanged(agent, before)
        assert all(opt.step == 0 and not opt.m.any() for opt in agent.opts.values())

    def test_a_failed_update_changes_nothing(self, rng):
        """A non-finite loss raises by name before any network, moment or count moves."""
        overrides, message = self.failed_update
        agent = self.make(3, 1, **overrides)
        agent.update(fill(agent, rng, 32), 0, np.random.default_rng(0))
        assert all(opt.step == 1 for opt in agent.opts.values())  # every moment off zero
        before, stepped = agent.snapshot(), moments(agent)
        nan_buffer = push_pairs([(rng.normal(size=3), action, math.nan, rng.normal(size=3), False)
                                 for action in agent.random_actions(rng, agent.config.batch_size)],
                                agent.config.buffer_capacity)
        with pytest.raises(ValueError) as err:
            agent.update(nan_buffer, 0, np.random.default_rng(0))
        assert str(err.value) == message
        assert_unchanged(agent, before)
        for name, (m, v, step) in moments(agent).items():
            want_m, want_v, want_step = stepped[name]
            assert np.array_equal(m, want_m) and np.array_equal(v, want_v) and step == want_step
        assert agent.updates == 1

    def test_updates_after_the_first_run_in_kept_arrays(self, rng):
        """An update's passes, gradients and Adam steps reuse the arrays the first one
        made, so a later update allocates only small temporaries (at the default
        sizes, about 55 KiB against 476 KiB for TD3 and 236 KiB for DQN with fresh
        arrays). Freeing a few hundred KiB per update lets glibc trim the heap top
        and fault it back in on every update, whenever the heap layout leaves those
        arrays at the top."""
        agent = type(self.make(3, 0))(30)  # the default config: batch 64, hidden (64, 32)
        buffer = fill(agent, rng, 256)
        gen = np.random.default_rng(0)
        for _ in range(2):  # TD3 moves its actor on every second update
            agent.update(buffer, 0, gen)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                agent.update(buffer, 0, gen)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 96 * 1024, f"an update allocated {peak / 1024:.0f} KiB"

    def test_train_drops_the_update_arrays(self, rng):
        agent = self.make(3, 0, batch_size=4, warmup_episodes=1)
        series = make_series(100.0 + np.cumsum(rng.normal(size=40)))
        training.train(agent, series, EnvConfig(window=3), 2, 0)
        assert agent.updates > 0
        assert not agent.tapes


class CheckpointContract:
    """``poison`` is (network, theta index, the array key that index lies in);
    ``window_mismatch`` is (window, the message of loading a window-3 checkpoint
    into an agent of that window); ``traced`` names the methods perfbench counts."""

    def test_roundtrip(self, tmp_path, rng):
        agent = self.make(3, 7)
        agent.update(fill(agent, rng, 32), 0, np.random.default_rng(0))
        agent.episodes_trained = 9
        path = tmp_path / "agent.npz"
        agent.save(path)
        twin = self.make(3, 99)
        twin.load(path)
        assert twin.episodes_trained == 9
        assert twin.nets.keys() == agent.nets.keys()
        assert_unchanged(twin, agent.snapshot())

    def test_non_finite_weight_fails_at_load(self, tmp_path):
        agent = self.make(3, 7)
        name, index, key = self.poison
        agent.nets[name].theta[index] = np.nan
        path = tmp_path / "agent.npz"
        agent.save(path)
        twin = self.make(3, 8)
        before = twin.snapshot()
        with pytest.raises(ValueError) as err:
            twin.load(path)
        assert str(err.value) == f"{path}: checkpoint array {key} is not finite"
        assert_unchanged(twin, before)

    def test_window_mismatch_names_path_and_window(self, tmp_path):
        path = tmp_path / "agent.npz"
        self.make(3, 7).save(path)
        window, message = self.window_mismatch
        other = self.make(window, 7)
        dims = {name: net.layer_dims for name, net in other.nets.items()}
        before = other.snapshot()
        with pytest.raises(ValueError) as err:
            other.load(path)
        assert str(err.value) == f"{path}: {message}"
        assert {name: net.layer_dims for name, net in other.nets.items()} == dims
        assert_unchanged(other, before)  # nothing was replaced

    def test_traced_methods_are_bound_on_the_class(self):
        cls = type(self.make(3, 0))
        for name in self.traced:
            assert name in vars(cls), (
                f"{cls.__name__}.{name} must be bound in the class body: perfbench's tracer "
                "wraps only the methods in vars(cls), so an inherited one goes uncounted")
