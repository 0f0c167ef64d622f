"""tradelab: a single-asset daily-trading reinforcement-learning laboratory.

Continuous-action (TD3-style) and discrete (DQN-style) agents trained from
scratch on a log-return trading MDP, nine benchmark strategies, performance
metrics with a paired t-test, and a reproducible multi-seed batch harness.
"""

from .data import PriceBar, PriceSeries, SplitSpec, chronological_split, load_csv, pct_change
from .env import EnvConfig, TradingEnv, settle
from .stats import RunReport, TTestResult, paired_ttest_one_sided, return_pct, sharpe, t_upper_tail

__version__ = "0.1.0"
