"""Trace tables: column names over one array of cell values and a mask of
undefined cells, formatted as CSV text only when written.

`write_csv` writes the bytes of the standard library's `csv.writer` with its
defaults: fields joined by ",", lines ended by "\\r\\n", an undefined cell as
an empty field.  For a Python float `str` equals `repr`, which is what
`csv.writer` writes, so one precomputed row format of "%s" fields serves
every row.  Rows reach it through `tolist()` a block at a time, so a field
is never a numpy scalar (whose `str` differs) and neither all row lists nor
the whole text are held at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows formatted per write; bounds the row lists and text held at once.
ROW_BLOCK = 512

# Characters that make csv.writer quote a field.
_QUOTED = (",", '"', "\r", "\n")


@dataclass
class Table:
    """A trace table.  values[i, j] is the cell of row i under column j, and
    mask[i, j] (if a mask is given) marks it undefined.  With `numbered`,
    the first column is the row number and is not stored in `values`."""

    columns: list[str]
    values: np.ndarray
    mask: np.ndarray | None = None
    numbered: bool = False

    @property
    def rows(self) -> list[list]:
        """Every row as a list, undefined cells None."""
        return [row for block in self._blocks(ROW_BLOCK, None) for row in block]

    def _blocks(self, size: int, undefined):
        """The rows as lists, `size` at a time, with the row number in front
        when numbered and undefined cells `undefined`."""
        masked = (np.empty(0, dtype=int) if self.mask is None
                  else np.flatnonzero(self.mask.any(axis=1)))
        for lo in range(0, len(self.values), size):
            rows = self.values[lo:lo + size].tolist()
            for i in masked[(masked >= lo) & (masked < lo + size)].tolist():
                rows[i - lo] = [undefined if m else v
                                for v, m in zip(rows[i - lo], self.mask[i].tolist())]
            if self.numbered:
                rows = [[n, *row] for n, row in enumerate(rows, lo)]
            yield rows


def _check(cells) -> None:
    """Refuse a cell whose CSV field would differ from csv.writer's: a numpy
    scalar or other object, or a string that csv.writer quotes."""
    for v in cells:
        if type(v) not in (int, float, bool, str):
            raise TypeError(f"table cell {v!r} is not a Python int, float or str")
        if type(v) is str and any(c in v for c in _QUOTED):
            raise ValueError(f"table cell {v!r} would need CSV quoting")


def write_csv(table: Table, path) -> None:
    """Write the header and every row of the table as CSV."""
    if len(table.columns) < 2:
        raise ValueError("a CSV table needs two columns or more")
    _check(table.columns)
    fmt = ",".join(["%s"] * len(table.columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(fmt % tuple(table.columns))
        for rows in table._blocks(ROW_BLOCK, ""):
            if table.values.dtype == object:
                for row in rows:
                    _check(row)
            fh.write("".join([fmt % tuple(row) for row in rows]))
