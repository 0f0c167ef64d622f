import os

import pytest

from tradelab.agents import DqnAgent, DqnConfig, Td3Agent, Td3Config
from tradelab.agents import dqn as dqn_module
from tradelab.agents import td3 as td3_module
from tradelab.fileio import atomic_open
from tradelab.harness import _write_atomic


class Boom(Exception):
    pass


def test_write_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    _write_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_keeps_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(Boom):
        with atomic_open(path, "w") as fh:
            fh.write("half of the new")
            fh.flush()
            raise Boom
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_concurrent_writers_never_share_a_temporary(tmp_path):
    path = tmp_path / "out.csv"
    with atomic_open(path, "w") as first:
        with atomic_open(path, "w") as second:
            assert first.name != second.name
            first.write("first\n")
            second.write("second\n")
        assert path.read_text() == "second\n"
    assert path.read_text() == "first\n"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("make,module", [
    (lambda: Td3Agent(3, Td3Config(actor_hidden=(4,), critic_hidden=(4,)), seed=0), td3_module),
    (lambda: DqnAgent(3, DqnConfig(hidden=(4,)), seed=0), dqn_module),
])
def test_failed_checkpoint_save_keeps_old_checkpoint(make, module, tmp_path, monkeypatch):
    path = tmp_path / "agent.npz"
    agent = make()
    agent.save(path)
    before = path.read_bytes()

    def half_savez(fh, **payload):
        fh.write(b"PK\x03\x04 truncated")
        raise Boom

    monkeypatch.setattr(module.np, "savez", half_savez)
    with pytest.raises(Boom):
        agent.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["agent.npz"]
    make().load(path)
