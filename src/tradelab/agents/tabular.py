"""Tabular Q-learning on small finite MDPs.

Shares :func:`bootstrap_target` with the network agents; used to validate
that arithmetic against exact value iteration on toy problems.
"""

from __future__ import annotations

import numpy as np

from .targets import bootstrap_target


def q_learning_update(
    q: np.ndarray, s: int, a: int, r: float, s_next: int, terminal: bool, alpha: float, gamma: float
) -> None:
    """Temporal-difference update of one (state, action) cell, in place."""
    target = bootstrap_target(r, terminal, gamma, q[s_next].max())
    q[s, a] += alpha * (target - q[s, a])


def q_learning(
    next_state: np.ndarray,
    reward: np.ndarray,
    gamma: float,
    alpha: float,
    steps: int,
    rng: np.random.Generator,
    epsilon: float = 1.0,
    start_state: int = 0,
) -> np.ndarray:
    """Run epsilon-greedy Q-learning on a deterministic MDP given as arrays.

    ``next_state[s, a]`` and ``reward[s, a]`` define the dynamics; the MDP is
    continuing (no terminal states). Returns the learned Q-table.
    """
    n_states, n_actions = next_state.shape
    if reward.shape != next_state.shape:
        raise ValueError("next_state and reward tables must have matching shapes")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    q = np.zeros((n_states, n_actions))
    s = start_state
    for _ in range(steps):
        if rng.random() < epsilon:
            a = int(rng.integers(n_actions))
        else:
            a = int(np.argmax(q[s]))
        s2 = int(next_state[s, a])
        q_learning_update(q, s, a, float(reward[s, a]), s2, False, alpha, gamma)
        s = s2
    return q
