"""Filesystem helpers shared by every module that persists results.

The one rule: a reader must never observe a half-written file.  All
persistent artifacts (run manifests, sweep rollups, cache entries,
sweep checkpoints) go through :func:`atomic_write_text`, which writes to
a temporary file in the destination directory and publishes it with
``os.replace`` — atomic on POSIX and Windows alike.  Concurrent batch
jobs sharing a manifest or cache directory therefore race only on
*which* complete file wins, never on file contents.

Append-only streams (the telemetry relay's NDJSON spools) use
:func:`open_append` instead: ``O_APPEND`` + one line-buffered write per
record means each record lands as a single contiguous append, so a
concurrent tail sees only whole-line prefixes of the file — the worst a
crashed writer can leave behind is one truncated *final* line, which
tolerant readers skip.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import IO, Union

PathLike = Union[str, Path]


def open_append(path: PathLike, encoding: str = "utf-8") -> IO[str]:
    """Open ``path`` for line-buffered appending, creating parents.

    Every ``write`` of a newline-terminated record reaches the kernel
    immediately (line buffering) at the current end of file
    (``O_APPEND``), which is what makes live spool tailing work: a
    reader polling the file never sees bytes of record *n+1* before all
    of record *n*.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("a", encoding=encoding, buffering=1)


def atomic_write_text(
    path: PathLike, text: str, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Parent directories are created as needed.  The temporary file lives
    in the destination directory so the final rename never crosses a
    filesystem boundary; it is removed on any failure, so an interrupted
    or killed writer can never leave a truncated file at ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
