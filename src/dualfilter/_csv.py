"""CSV text for the artifact writers."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def csv_text(header: str, rows: Iterable[Iterable]) -> str:
    """``header`` and one line per row, each newline-terminated.

    Cells print with ``str``, which gives a float its shortest round-trip
    form.  Rows should hold Python scalars (``array_row.tolist()``, one row
    at a time): those format faster than numpy scalars, and converting a
    whole array at once would hold every row's objects in memory together.
    """
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def grid_rows(dt: float, table: np.ndarray) -> Iterator[list]:
    """Rows ``[k * dt, *table[k]]`` of a 2-D array on a uniform time grid."""
    for k, row in enumerate(table):
        yield [k * dt, *row.tolist()]
