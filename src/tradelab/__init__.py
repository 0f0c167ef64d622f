"""tradelab: a single-asset daily-trading reinforcement-learning laboratory.

Continuous-action (TD3-style) and discrete (DQN-style) agents trained from
scratch on a log-return trading MDP, eight benchmark strategies, performance
metrics with a paired t-test, and a reproducible multi-seed batch harness.
"""

from .data import PriceSeries, SplitSpec, chronological_split, load_csv, pct_change
from .env import EnvConfig, TradingEnv
from .stats import Score, TTestResult, paired_ttest_one_sided, return_pct, sharpe, t_upper_tail

__version__ = "0.1.0"
