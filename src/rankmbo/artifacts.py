"""Crash-safe artifact writes.

Every artifact is written to a temp file in its target's directory, then moved
onto the target name with ``os.replace``.  A reader such as ``compare`` thus
sees either the previous file or the complete new one, never a partial one,
and a writer that raises leaves neither its target nor a temp file behind.
The data is not fsynced: this guards against a crash of the process, not of
the machine.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open", "write_json"]


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None):
    """Text file handle whose content replaces ``path`` when the block exits
    normally; if the block raises, the temp file is removed and ``path`` is
    left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "x", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """``obj`` as indented JSON with a final newline, written atomically."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
