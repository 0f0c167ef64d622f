"""Learning agents: continuous-action TD3, discrete DQN, replay, schedules."""

from .dqn import DqnAgent, DqnConfig
from .replay import ReplayBuffer
from .schedules import DecaySchedule, schedule_value
from .targets import bootstrap_target
from .td3 import (
    Td3Agent,
    Td3Config,
    actor_gradient,
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
    "bootstrap_target",
    "schedule_value",
    "td3_select_action",
    "td3_target_action",
    "train",
]
