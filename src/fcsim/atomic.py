"""Atomic file output: write a temp file in the target directory, then rename."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_bytes(path, data) -> None:
    """Replace path with bytes-like data; on failure the temp file is removed."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))
