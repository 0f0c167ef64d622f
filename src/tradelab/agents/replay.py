"""FIFO experience replay of env steps stored as rows of one observation table.

A buffer lives for one training run: it is built on that run's table, and a
stored row's state is ``observations[row]`` and its next state is
``observations[row + 1]``, because every env step advances the bar by one.
"""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """Ring of four columns, 21 bytes a row; once full, the oldest row is evicted first."""

    def __init__(self, capacity: int, observations: np.ndarray):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if len(observations) > 2**31:  # row + 1 must stay an int32
            raise ValueError(f"a {len(observations)}-row table is past int32 replay rows (at most 2**31)")
        self.capacity = capacity
        self.observations = observations
        self._pushed = 0
        self._row = np.empty(capacity, np.int32)
        self._action = np.empty(capacity, np.float64)
        self._reward = np.empty(capacity, np.float64)
        self._terminal = np.empty(capacity, np.bool_)
        # push stores through memoryviews, which skip numpy's scalar assignment
        self._columns = tuple(map(memoryview, (self._row, self._action, self._reward, self._terminal)))
        self._last_row = len(observations) - 1  # the last row a step can start at, exclusive

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, row: int, action: float, reward: float, terminal: bool) -> None:
        if not 0 <= row < self._last_row:
            raise ValueError(f"row {row} needs a next row inside the {len(self.observations)}-row table")
        i = self._pushed % self.capacity
        rows, actions, rewards, terminals = self._columns
        rows[i], actions[i], rewards[i], terminals[i] = row, action, reward, terminal
        self._pushed += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        """(states, actions, rewards, next_states, terminals) of a uniform draw, one row each."""
        if not self._pushed:
            raise ValueError("cannot sample from an empty buffer")
        slots = rng.integers(0, len(self), size=batch_size)
        rows = self._row[slots]
        return (self.observations[rows], self._action[slots], self._reward[slots],
                self.observations[rows + 1], self._terminal[slots].astype(np.float64))
