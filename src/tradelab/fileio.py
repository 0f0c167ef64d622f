"""Atomic replacement for every file the package writes, and one way to read its inputs."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a fresh temporary file beside ``path``; move it into place on success.

    The temporary name is unique per call, so concurrent writers of the same
    path never share one. If the body raises, the temporary file is removed
    and ``path`` keeps its previous content. A temporary file that cannot be
    made (a missing directory, no permission) or moved onto ``path`` (a
    directory there) raises ValueError("<path>: <reason>").
    ``mode`` is "w" or "wb"; ``kwargs`` go to :func:`open`.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    try:
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as exc:  # name the file asked for, not its temporary
        raise ValueError(f"{path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ValueError(f"{path}: {exc.strerror}") from None
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


@contextmanager
def reading(path, missing: str | None = None):
    """``path`` opened as UTF-8 text for reading, less any leading byte-order mark.
    A directory, an unreadable file or bytes that are not UTF-8 raise
    ValueError("<path>: <reason>"); a missing file raises FileNotFoundError, as
    ``"<missing>: <path>"`` when ``missing`` is given."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except FileNotFoundError:
        if missing is None:
            raise
        raise FileNotFoundError(f"{missing}: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}") from None
