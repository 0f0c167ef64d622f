"""FIFO experience replay of env steps stored as rows of one observation table.

A stored row's state is ``observations[row]`` and its next state is
``observations[row + 1]``, because every env step advances the bar by one.
"""

from __future__ import annotations

import numpy as np

ROW_DTYPE = np.dtype([("row", np.intp), ("action", np.float64), ("reward", np.float64),
                      ("terminal", np.float64)])


class ReplayBuffer:
    """Ring buffer; once full, the oldest row is evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.observations: np.ndarray | None = None
        self._ring: np.ndarray | None = None  # allocated on the first push
        self._pushed = 0

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def bind(self, observations: np.ndarray) -> None:
        """Index future rows into ``observations``; rows already held need an equal table."""
        if self._pushed and not np.array_equal(observations, self.observations):
            raise ValueError("cannot bind a different observation table while the buffer holds rows")
        self.observations = observations

    def push(self, row: int, action: float, reward: float, terminal: bool) -> None:
        if self.observations is None:
            raise ValueError("bind an observation table before pushing")
        if not 0 <= row < len(self.observations) - 1:
            raise ValueError(f"row {row} needs a next row inside the {len(self.observations)}-row table")
        if self._ring is None:
            self._ring = np.empty(self.capacity, dtype=ROW_DTYPE)
        self._ring[self._pushed % self.capacity] = (row, action, reward, terminal)
        self._pushed += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        """(states, actions, rewards, next_states, terminals) of a uniform draw, one row each."""
        if not self._pushed:
            raise ValueError("cannot sample from an empty buffer")
        batch = self._ring[rng.integers(0, len(self), size=batch_size)]
        rows = batch["row"]
        return (self.observations[rows], batch["action"], batch["reward"],
                self.observations[rows + 1], batch["terminal"])

    def items(self) -> np.ndarray:
        """Stored rows (fields of ``ROW_DTYPE``) in insertion order, oldest first."""
        held = np.empty(0, ROW_DTYPE) if self._ring is None else self._ring[: len(self)]
        return np.roll(held, -self._pushed)  # the oldest row sits at pushed % capacity
