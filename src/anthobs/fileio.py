"""Crash-safe artifact writes.

Every artifact is written to ``<name>.tmp`` next to its target and then
renamed into place with ``os.replace``, which is atomic on one file system:
a reader (or a re-check after a killed sweep) sees either the complete new
file or whatever was there before, never a truncated one.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via ``<path>.tmp`` and an atomic rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
