"""Durable files: atomic replace on write, quarantine on corruption.

Every persisted artifact of a sweep (point-cache entries, snapshot
arenas) follows one discipline, implemented once here:

* :func:`write_atomic` writes to a temporary file in the target's
  directory, fsyncs it and renames it over the target with
  ``os.replace`` (atomic on POSIX), so a crash — even SIGKILL — leaves
  either the old file or the new one, never a torn one.
* :func:`quarantine` moves a file that failed verification aside as
  ``*.corrupt`` (so the evidence survives for inspection) or, if the
  rename fails, deletes it; either way the next read misses and the
  caller rebuilds deterministically.

Callers keep their own counters and fault sites; this module only
touches the file system.
"""

from __future__ import annotations

import os
import tempfile
from typing import Union


def write_atomic(path: str, data: Union[bytes, str]) -> None:
    """Durably replace ``path`` with ``data`` (temp file, fsync, rename).

    The parent directory must exist.  On any failure the temporary
    file is removed and the exception propagates; ``path`` is untouched.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def quarantine(path: str) -> None:
    """Move a corrupt ``path`` aside (``*.corrupt``) so reloads miss it."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
