import numpy as np
import pytest

from tradelab.agents import ReplayBuffer, training


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def train_buffers(monkeypatch):
    """The replay buffers that ``train`` builds while the test runs, in build order."""
    built = []

    class RecordingBuffer(ReplayBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(training, "ReplayBuffer", RecordingBuffer)
    return built
