"""The one bootstrap target of every agent's temporal-difference update."""

from __future__ import annotations

import numpy as np


def bootstrap_target(r, terminal, gamma: float, next_value) -> np.ndarray:
    """y = r + gamma * (1 - terminal) * next_value, elementwise: r alone on terminal rows.

    ``next_value`` is the caller's estimate of the next state's value: TD3's
    min(q1', q2'), DQN's max over the target net's action values, or a
    Q-table row's max.
    """
    return r + gamma * (1.0 - terminal) * next_value
