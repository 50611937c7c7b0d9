"""Crash-atomic file writes.

Every whole-file artifact the pipeline persists (`--cache-file`
pickles, ``--stats-out``/``--metrics-out``/``--trace-out`` JSON,
markdown reports) goes through :func:`atomic_write_bytes`:
the payload is written to a temporary file *in the same directory* as
the destination, flushed and fsynced, then moved over the destination
with ``os.replace``. A crash at any point leaves either the old file
or the new file — never a torn half-write — and the temp file is
removed on failure.

The containing directory is fsynced after the rename (best-effort;
some platforms refuse ``open(dir)``), so the rename itself survives a
power cut on journaling filesystems.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "fsync_directory",
]


def fsync_directory(directory: str) -> None:
    """fsync a directory so a rename inside it is durable (best effort)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes, *,
                       fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    ``fsync=False`` skips the flush-to-disk (still atomic against
    concurrent readers, not against power loss) for hot paths where the
    caller batches durability elsewhere.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    if fsync:
        fsync_directory(directory)


def atomic_write_text(path: str, text: str, *,
                      encoding: str = "utf-8",
                      fsync: bool = True) -> None:
    """:func:`atomic_write_bytes` for text payloads."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write_json(path: str, payload, *, indent: int = 1,
                      sort_keys: bool = True,
                      fsync: bool = True) -> None:
    """Serialize ``payload`` as JSON and write it crash-atomically."""
    atomic_write_text(
        path,
        json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n",
        fsync=fsync)
