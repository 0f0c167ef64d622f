"""FIFO experience replay of env steps stored as rows of one observation table.

A stored row's state is ``observations[row]`` and its next state is
``observations[row + 1]``, because every env step advances the bar by one.
"""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """Ring of four columns, 21 bytes a row; once full, the oldest row is evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.observations: np.ndarray | None = None
        self._pushed = 0
        self._allocate(0)  # the first push allocates the ring

    def _allocate(self, n: int) -> None:
        self._row = np.empty(n, np.int32)
        self._action = np.empty(n, np.float64)
        self._reward = np.empty(n, np.float64)
        self._terminal = np.empty(n, np.bool_)

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def bind(self, observations: np.ndarray) -> None:
        """Index future rows into ``observations``; rows already held need an equal table."""
        if len(observations) > 2**31:  # row + 1 must stay an int32
            raise ValueError(f"a {len(observations)}-row table is past int32 replay rows (at most 2**31)")
        if self._pushed and not np.array_equal(observations, self.observations):
            raise ValueError("cannot bind a different observation table while the buffer holds rows")
        self.observations = observations

    def push(self, row: int, action: float, reward: float, terminal: bool) -> None:
        if self.observations is None:
            raise ValueError("bind an observation table before pushing")
        if not 0 <= row < len(self.observations) - 1:
            raise ValueError(f"row {row} needs a next row inside the {len(self.observations)}-row table")
        if not self._pushed:
            self._allocate(self.capacity)
        i = self._pushed % self.capacity
        self._row[i], self._action[i], self._reward[i], self._terminal[i] = row, action, reward, terminal
        self._pushed += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        """(states, actions, rewards, next_states, terminals) of a uniform draw, one row each."""
        if not self._pushed:
            raise ValueError("cannot sample from an empty buffer")
        slots = rng.integers(0, len(self), size=batch_size)
        rows = self._row[slots]
        return (self.observations[rows], self._action[slots], self._reward[slots],
                self.observations[rows + 1], self._terminal[slots].astype(np.float64))
