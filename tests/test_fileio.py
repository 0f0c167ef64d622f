import os

import pytest

from tradelab.agents import DqnAgent, DqnConfig, Td3Agent, Td3Config
from tradelab.agents import dqn as dqn_module
from tradelab.agents import td3 as td3_module
from tradelab.fileio import atomic_open
from tradelab.harness import _write_csv


class Boom(Exception):
    pass


def test_write_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    _write_csv(path, "new", "%s", [["row"]])
    assert path.read_text() == "new\nrow\n"
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


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_a_temporary_that_cannot_be_made_names_the_file_asked_for(tmp_path, mode):
    """Not the random temporary name, and not a FileNotFoundError, which the evaluate
    verb would report as a missing checkpoint."""
    path = tmp_path / "gone" / "out.csv"
    with pytest.raises(ValueError) as failed:
        with atomic_open(path, mode):
            pytest.fail("opened a file in a missing directory")
    assert str(failed.value) == f"{path}: No such file or directory"
    assert not isinstance(failed.value, OSError)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_a_directory_in_the_way_names_the_file_asked_for(tmp_path, mode):
    """A directory at ``path`` fails the final move: a ValueError naming ``path``, not an
    OSError naming the temporary, and the directory and its folder stay as they were."""
    path = tmp_path / "ttest.csv"
    (path / "inner").mkdir(parents=True)
    with pytest.raises(ValueError) as failed:
        with atomic_open(path, mode) as fh:
            fh.write("row\n" if mode == "w" else b"row\n")
    assert str(failed.value) == f"{path}: Is a directory"
    assert not isinstance(failed.value, OSError)
    assert os.listdir(tmp_path) == ["ttest.csv"]
    assert os.listdir(path) == ["inner"]


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
