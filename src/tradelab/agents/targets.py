"""The one bootstrap target of every agent's temporal-difference update."""

from __future__ import annotations

import numpy as np


def bootstrap_target(r, terminal, gamma: float, next_value) -> np.ndarray:
    """y = r + gamma * (1 - terminal) * next_value, elementwise: r alone on terminal rows.

    ``next_value`` is the caller's estimate of the next state's value: TD3's
    min(q1', q2'), DQN's max over the target net's action values, or a
    Q-table row's max.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    return r + gamma * (1.0 - terminal) * next_value
