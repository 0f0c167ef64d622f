"""FIFO experience replay with uniform sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: float
    reward: float
    next_state: np.ndarray
    terminal: bool


def batch_arrays(batch: list[Transition]):
    """(states, actions, rewards, next_states, terminals) of a sampled batch, one row each."""
    s = np.array([tr.state for tr in batch], dtype=np.float64)
    a = np.array([tr.action for tr in batch], dtype=np.float64)
    r = np.array([tr.reward for tr in batch], dtype=np.float64)
    s2 = np.array([tr.next_state for tr in batch], dtype=np.float64)
    term = np.array([tr.terminal for tr in batch], dtype=np.float64)
    return s, a, r, s2, term


class ReplayBuffer:
    """Ring buffer; once full, the oldest transition is evicted first."""

    def __init__(self, capacity: int, seed: int | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._cursor = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator | None = None) -> list[Transition]:
        if not self._items:
            raise ValueError("cannot sample from an empty buffer")
        gen = self._rng if rng is None else rng
        idx = gen.integers(0, len(self._items), size=batch_size)
        return [self._items[i] for i in idx]

    def items(self) -> list[Transition]:
        """Contents in insertion order, oldest first."""
        return self._items[self._cursor :] + self._items[: self._cursor]
