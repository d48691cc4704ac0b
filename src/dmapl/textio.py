"""The text codec behind every numeric file: dataset CSVs, soft-label
snapshots, split audits and model files.

Each file is rows of numbers in plain text. Floats are written with 17
significant digits (`%.17g`), which round-trips every float64 exactly;
integers with `%d`. Two dialects cover the files: `CSV` (comma and CRLF
line ends, as `csv.writer` writes them; `"`-quoted fields are read) and
`ROWS`, the space-separated rows of model files.

Writing formats each distinct value of a column once, then the block of
rows with one `%` operation and one `write`. Reading parses every numeric
field of a block with one `np.loadtxt` call, numpy's C parser, which
converts a float field with the same correctly rounded algorithm as
Python's `float`. It reads ASCII decimal numbers; a field that only
Python's `float` or `int` would take (digit-group underscores, non-ASCII
digits) is rejected.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

FLOAT = "%.17g"
INT = "%d"

# Values formatted per `%` operation. Every file of the benchmark-sized runs
# fits in one; larger files go out in chunks, so the temporary Python objects
# stay bounded.
_CHUNK_VALUES = 1 << 16


class Dialect(NamedTuple):
    """Field delimiter, line terminator and quote character of a format.
    A whitespace delimiter reads as any run of whitespace."""

    delimiter: str
    newline: str
    quotechar: str | None


CSV = Dialect(",", "\r\n", '"')
ROWS = Dialect(" ", "\n", None)


def write_rows(fh, columns: list[np.ndarray], formats: list[str], dialect: Dialect) -> None:
    """Write one line per row to the open text file `fh`. Each column is an
    (n,) or (n, k) array, all with the same n; each of its k values per row
    is formatted with the column's `%` format. Nothing is quoted, so string
    values must hold neither the delimiter nor a line break."""
    if not len(columns[0]):
        return
    blocks = [np.asarray(c).reshape(len(c), -1) for c in columns]
    n, width = len(blocks[0]), sum(b.shape[1] for b in blocks)
    line = dialect.delimiter.join(["%s"] * width) + dialect.newline
    step = max(1, _CHUNK_VALUES // width)
    for lo in range(0, n, step):
        texts = np.hstack([_format(b[lo:lo + step], fmt) for b, fmt in zip(blocks, formats)])
        fh.write(line * len(texts) % tuple(texts.ravel().tolist()))


def _format(block: np.ndarray, fmt: str) -> np.ndarray:
    """`fmt % v` for every value of `block`, as strings in an object array of
    the same shape. Each distinct value is formatted once, because a
    soft-label snapshot holds only a handful of them; floats are told apart
    by their bits, so 0.0 and -0.0 keep their own text."""
    flat = block.ravel()
    if flat.dtype.kind == "f":
        bits, inverse = np.unique(flat.view(f"i{flat.itemsize}"), return_inverse=True)
        distinct = bits.view(flat.dtype).tolist()
    else:
        distinct, inverse = np.unique(flat, return_inverse=True)
        distinct = distinct.tolist()
    texts = ((fmt + "\n") * len(distinct) % tuple(distinct)).split("\n")[:-1]
    return np.array(texts, dtype=object)[inverse.ravel()].reshape(block.shape)


def write_csv(path: str, header: list[str], columns: list[np.ndarray],
              formats: list[str]) -> None:
    """A CSV file: the header line, then `write_rows` in the CSV dialect."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV.delimiter.join(header) + CSV.newline)
        write_rows(fh, columns, formats, CSV)


def read_rows(lines: list[str], columns: list[tuple[type, int]], dialect: Dialect,
              first_line: int) -> list[np.ndarray]:
    """Parse text lines into one contiguous (n, k) array per (dtype, k)
    column spec, with one `np.loadtxt` call. Blank lines are skipped, so n
    counts the others. Raises ValueError `line N: <reason>`, counting
    `lines[0]` as line `first_line`, for the first line with the wrong
    number of fields, a field that does not parse as its column's dtype, or
    a float that is not finite; lines are looked at one by one only then."""
    try:
        arrays = _parse(lines, columns, dialect)
    except ValueError:
        raise ValueError(_first_bad_line(lines, columns, dialect, first_line)) from None
    floats = [a for a in arrays if a.dtype.kind == "f"]
    if not all(np.isfinite(a).all() for a in floats):
        row = np.all([np.isfinite(a).all(axis=1) for a in floats], axis=0).argmin()
        raise ValueError(f"line {line_number(lines, row, dialect, first_line)}: "
                         "non-finite value")
    return arrays


def line_number(lines: list[str], row: int, dialect: Dialect, first_line: int) -> int:
    """The line number of parsed row `row` of `lines`. `np.loadtxt` skips a
    line with nothing but its line end, or nothing but whitespace if
    whitespace delimits fields."""
    strip = str.strip if dialect.delimiter.isspace() else lambda line: line.strip("\r\n")
    return [n for n, line in enumerate(lines, first_line) if strip(line)][row]


def _parse(lines: list[str], columns: list[tuple[type, int]], dialect: Dialect) -> list[np.ndarray]:
    dtype = np.dtype([(f"c{j}", kind, (k,)) for j, (kind, k) in enumerate(columns)])
    delimiter = None if dialect.delimiter.isspace() else dialect.delimiter
    with warnings.catch_warnings():
        # loadtxt warns about input without data; no rows is a valid result here
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                           quotechar=dialect.quotechar, ndmin=1)
    return [np.ascontiguousarray(table[name]) for name in dtype.names]


def _first_bad_line(lines: list[str], columns: list[tuple[type, int]], dialect: Dialect,
                    first_line: int) -> str:
    """`line N: <reason>` for the first line that does not parse on its own.
    Fields are told apart by the delimiter alone, so a quoted field that
    holds one counts as two."""
    kinds = [np.dtype(kind) for kind, k in columns for _ in range(k)]
    for lineno, line in enumerate(lines, first_line):
        try:
            _parse([line], columns, dialect)
            continue
        except ValueError:
            fields = line.split(None if dialect.delimiter.isspace() else dialect.delimiter)
        if len(fields) != len(kinds):
            return f"line {lineno}: expected {len(kinds)} fields, got {len(fields)}"
        for field, kind in zip(fields, kinds):
            try:
                _parse([field], [(kind, 1)], dialect)
            except ValueError:
                what = "non-numeric value" if kind.kind == "f" else "not a 64-bit integer"
                return f"line {lineno}: {what} {field!r}"
        return f"line {lineno}: malformed row"
    return "malformed data"
