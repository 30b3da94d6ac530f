"""Durable file I/O helpers shared by every on-disk artifact writer.

Traces, metrics, graph JSON and checkpoints are all written
through :func:`atomic_write`: the bytes land in a temporary file in the
*same directory*, are flushed and fsynced, and only then renamed over
the destination with :func:`os.replace`. A crash — or a SIGKILL — at
any point leaves either the old file or the new file, never a
truncated hybrid. (``os.replace`` is atomic on POSIX and on Windows;
the same-directory requirement keeps the rename on one filesystem.)

The temporary file is opened with ``O_EXCL`` under a per-pid,
per-attempt name, so *concurrent* writers — service workers sharing a
compile cache, ``table1 --jobs`` processes, threads within one daemon
— can never interleave bytes into the same staging file. Whichever
writer renames last wins whole; every intermediate observation of the
destination is a complete document.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def fsync_dir(path: Union[str, Path]) -> None:
    """Best-effort fsync of a directory, making renames in it durable.

    Silently a no-op where directories cannot be opened for reading
    (e.g. Windows); the rename itself is still atomic there.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: Union[bytes, str]) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + replace).

    ``str`` data is encoded as UTF-8. Parent directories are created
    as needed. On any failure the temporary file is removed and the
    destination is left untouched. Returns ``path`` as a
    :class:`~pathlib.Path`.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL claims the staging file exclusively; the attempt counter
    # sidesteps leftovers from a previous kill (same pid reused) and
    # races between threads sharing one pid. The name keeps the
    # ``.*.tmp.*`` shape that checkpoint-store sweeps clean up.
    fd = None
    tmp = None
    for attempt in range(10_000):
        candidate = path.parent / f".{path.name}.tmp.{os.getpid()}.{attempt}"
        try:
            fd = os.open(
                str(candidate), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
            tmp = candidate
            break
        except FileExistsError:
            continue
    if fd is None:
        raise OSError(f"cannot allocate a staging file for {path}")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
    return path
