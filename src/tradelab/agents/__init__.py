"""Learning agents: continuous-action TD3, discrete DQN, replay, schedules."""

from .dqn import DqnAgent, DqnConfig, dqn_target
from .replay import ReplayBuffer
from .schedules import DecaySchedule, schedule_value
from .tabular import q_learning, q_learning_update
from .td3 import (
    Td3Agent,
    Td3Config,
    actor_gradient,
    td3_critic_target,
    td3_select_action,
    td3_target_action,
)
from .training import train

__all__ = [
    "DecaySchedule",
    "DqnAgent",
    "DqnConfig",
    "ReplayBuffer",
    "Td3Agent",
    "Td3Config",
    "actor_gradient",
    "dqn_target",
    "q_learning",
    "q_learning_update",
    "schedule_value",
    "td3_critic_target",
    "td3_select_action",
    "td3_target_action",
    "train",
]
