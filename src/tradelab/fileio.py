"""Atomic file replacement for every file the package writes."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a fresh temporary file beside ``path``; move it into place on success.

    The temporary name is unique per call, so concurrent writers of the same
    path never share one. If the body raises, the temporary file is removed
    and ``path`` keeps its previous content. ``mode`` is "w" or "wb";
    ``kwargs`` go to :func:`open`.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
