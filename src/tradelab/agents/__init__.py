"""Learning agents: TD3, DQN, their replay buffer, and ``training``, what both share."""

from .dqn import DqnAgent, DqnConfig
from .replay import ReplayBuffer
from .td3 import Td3Agent, Td3Config
from .training import DecaySchedule, bootstrap_target, schedule_value, train

__all__ = [
    "DecaySchedule",
    "DqnAgent",
    "DqnConfig",
    "ReplayBuffer",
    "Td3Agent",
    "Td3Config",
    "bootstrap_target",
    "schedule_value",
    "train",
]
