"""Artifact writes that a resumed run can trust."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` so that readers see no file or the whole file.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then moves onto ``path`` in one step.  A write that fails
    or is cut off midway leaves ``path`` as it was, so resume, which skips
    any artifact that exists, never accepts a partial one.  On failure the
    temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
