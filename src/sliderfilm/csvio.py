"""The one CSV column writer behind every tabular artifact.

Cells are formatted by column dtype: floats as repr (shortest string
that reads back to the same double, so -0.0 and subnormals survive),
integers in decimal, booleans as lowercase true/false.  Rows are written
in fixed-size chunks so a long trajectory never holds all of its cell
strings at once.
"""

import numpy as np

__all__ = ["write_csv"]

_CHUNK_ROWS = 4096

_BOOL_CELL = {True: "true", False: "false"}.__getitem__


def _cell_format(col: np.ndarray):
    kind = col.dtype.kind
    if kind == "f":
        return repr
    if kind in "iu":
        return str
    if kind == "b":
        return _BOOL_CELL
    raise TypeError(f"no CSV cell format for dtype {col.dtype}")


def write_csv(path, columns: dict) -> None:
    """Write equal-length 1-D columns as CSV with a header of their names."""
    cols = [np.asarray(c) for c in columns.values()]
    n = cols[0].size if cols else 0
    if any(c.ndim != 1 or c.size != n for c in cols):
        raise ValueError("CSV columns must be 1-D and of equal length")
    fmts = [_cell_format(c) for c in cols]
    with open(path, "w", newline="") as f:
        f.write(",".join(columns) + "\n")
        for lo in range(0, n, _CHUNK_ROWS):
            cells = [map(fmt, c[lo : lo + _CHUNK_ROWS].tolist()) for fmt, c in zip(fmts, cols)]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")
