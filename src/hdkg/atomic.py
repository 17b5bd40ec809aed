"""Atomic artifact writes: a temp file beside the target, then ``os.replace``.

A process killed mid-write leaves the old artifact, or none, plus at worst a
hidden ``.<name>.<random>.tmp`` file; never a target that only looks
complete.  Nothing is fsynced, so a power loss is not covered.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Yield a file open on a temp path; a clean exit moves it onto ``path``.

    If the body raises, the temp file is removed and ``path`` is untouched.
    The temp file gets the permissions ``open`` would give the target.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
