"""Crash-safe artifact writes: every artifact goes through ``write_json`` or
``write_csv``.

Each is written to a temp file in its target's directory, then moved onto the
target name with ``os.replace``.  A reader such as ``compare`` thus sees either
the previous file or the complete new one, never a partial one, and a writer
that raises leaves neither its target nor a temp file behind.  The data is not
fsynced: this guards against a crash of the process, not of the machine.

CSV cells follow one rule: a float (numpy float64 included) is written with 17
significant digits, so it parses back to the same double; ``None`` is an empty
cell; anything else is written as ``csv`` writes it.  Rows end in CRLF, and a
cell holding a comma, a quote or a line break is quoted.
"""

from __future__ import annotations

import csv
import json
import os
import secrets
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from pathlib import Path

__all__ = ["write_csv", "write_json"]


@contextmanager
def _atomic_open(path: str | Path, newline: str | None = None):
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
    with _atomic_open(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """A header row, then one row per item of ``rows``, written atomically.

    ``rows`` may be a generator; an exception it raises leaves ``path`` as it
    was."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv itself writes None as an empty cell
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows
        )
