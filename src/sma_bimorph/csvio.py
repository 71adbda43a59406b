"""Deterministic CSV emission.

Artifacts are diffed byte-for-byte in tests, so the writer is strict:
fixed column order, '\n' newlines, UTF-8, shortest round-trip decimal
formatting (repr) for floats, no trailing whitespace.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError

# rows formatted and written per pass; bounds the text held in memory
CHUNK_ROWS = 1024


@dataclass(frozen=True)
class CsvSchema:
    name: str
    columns: tuple

    @property
    def header(self):
        return ",".join(self.columns)


TRACE_SCHEMA = CsvSchema("trace", ("t_s", "delta_mm", "delta_filt_mm"))
SWEEP_SCHEMA = CsvSchema("sweep", ("f_hz", "dc_pct", "amado_mm", "amado_std_mm", "amado_norm"))
POWER_SCHEMA = CsvSchema("power", ("t_s", "v_t_v", "v_b_v", "i_t_a", "i_b_a", "p_a_w"))
TRAJECTORY_SCHEMA = CsvSchema("trajectory", ("t_s", "x_mm", "y_mm", "psi_deg", "v_mm_s"))
SPEED_SCAN_SCHEMA = CsvSchema("speed_scan", ("f_hz", "v_mm_s"))


def _checked_column(schema: CsvSchema, name: str, column):
    """column itself if it is a 1-D float64 ndarray; ParameterError otherwise."""
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype == np.float64:
        return column
    got = (f"a {column.ndim}-D {column.dtype} array" if isinstance(column, np.ndarray)
           else f"a {type(column).__name__}")
    raise ParameterError(
        f"column {name!r} of schema {schema.name!r} must be a 1-D float64 array, got {got}")


def _format_chunk(chunk) -> list:
    """Text of each value in one chunk of a checked column."""
    # each distinct bit pattern is formatted once, so -0.0 and 0.0 (and
    # every NaN payload) keep their own text; only the first value of each
    # run of one pattern is sorted
    bits = chunk.view(np.uint64)
    heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    distinct, index = np.unique(bits[heads], return_inverse=True)
    if len(distinct) == len(chunk):
        return list(map(repr, chunk.tolist()))
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return np.repeat(texts[index], np.diff(heads, append=len(chunk))).tolist()


def write_csv(path, schema: CsvSchema, columns) -> Path:
    """Write one 1-D float64 array per schema column under the fixed header.

    Every column is checked before the file is opened, so a rejected call
    leaves no file behind.
    """
    path = Path(path)
    columns = list(columns)
    if len(columns) != len(schema.columns):
        raise ParameterError(
            f"{len(columns)} columns given for schema {schema.name!r} "
            f"with columns {schema.columns}")
    columns = [_checked_column(schema, name, column)
               for name, column in zip(schema.columns, columns)]
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ParameterError(
            f"columns of schema {schema.name!r} differ in length: "
            f"{dict(zip(schema.columns, map(len, columns)))}")
    n_rows = lengths.pop()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(schema.header + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            texts = [_format_chunk(column[start:start + CHUNK_ROWS]) for column in columns]
            out.write("\n".join(map(",".join, zip(*texts))) + "\n")
    return path
