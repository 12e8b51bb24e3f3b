"""Columnar numeric datasets with CSV load/save.

A Dataset is a mapping of column names to equal-length float64 vectors.
CSV loading drops any row with a missing value in the requested columns
and warns with the count; a non-numeric token that is not a missing-value
marker is an error naming the column and line, and so are a header that
names a requested column twice, text that is not UTF-8 and a field over
the csv module's size limit. A leading byte-order mark is ignored.
"""

from __future__ import annotations

import csv
import warnings
from array import array

import numpy as np

from .exceptions import DataValidationError

_MISSING = {"", "na", "nan", "null"}


class Dataset:
    """Named numeric columns of equal length."""

    def __init__(self, columns: dict[str, np.ndarray]):
        if not columns:
            raise DataValidationError("dataset needs at least one column")
        cols: dict[str, np.ndarray] = {}
        n = None
        for name, values in columns.items():
            arr = np.asarray(values, dtype=np.float64).reshape(-1)
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DataValidationError(
                    f"column {name!r} has length {arr.shape[0]}, expected {n}"
                )
            cols[name] = arr
        self.columns = cols
        self.n = int(n)
        self.n_dropped = 0  # rows removed at load time

    def __len__(self) -> int:
        return self.n

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataValidationError(f"column {name!r} not found in dataset")
        return self.columns[name]

    def covariate(self, name: str) -> np.ndarray:
        """Column `name` as a term's input, which must be finite throughout."""
        x = self.column(name)
        if not np.all(np.isfinite(x)):
            raise DataValidationError(f"covariate {name!r} contains non-finite values")
        return x

    def names(self) -> list[str]:
        return list(self.columns)

    def require(self, names) -> None:
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise DataValidationError(
                f"dataset is missing required column(s): {', '.join(missing)}"
            )

    def take(self, mask: np.ndarray) -> "Dataset":
        return Dataset({name: col[mask] for name, col in self.columns.items()})

    @classmethod
    def from_csv(cls, path, columns=None) -> "Dataset":
        """Load a header-ed CSV, keeping `columns` (default: all).

        Rows with missing values in the kept columns are dropped; their
        count is reported in a warning and stored in ``n_dropped``.
        """
        # utf-8-sig drops the byte-order mark that spreadsheet programs write first
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
                if columns is None:
                    keep = header
                else:
                    keep = list(columns)
                    missing = [c for c in keep if c not in header]
                    if missing:
                        raise DataValidationError(
                            f"{path}: missing required column(s): {', '.join(missing)}"
                        )
                repeated = [c for c in dict.fromkeys(keep) if header.count(c) > 1]
                if repeated:
                    raise DataValidationError(
                        f"{path}: repeated column(s): {', '.join(repeated)}"
                    )
                positions = [header.index(c) for c in keep]

                # the kept rows' values in one flat buffer: 8 bytes a value, no list per row
                values = array("d")
                n_dropped = 0
                for lineno, row in enumerate(reader, start=2):
                    if not row or all(not cell.strip() for cell in row):
                        continue
                    if len(row) != len(header):
                        raise DataValidationError(
                            f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                        )
                    parsed = []
                    ok = True
                    for col, pos in zip(keep, positions):
                        cell = row[pos].strip()
                        if cell.lower() in _MISSING:
                            ok = False  # drop the row, but still check its other cells
                            continue
                        try:
                            parsed.append(float(cell))
                        except ValueError:
                            raise DataValidationError(
                                f"{path}:{lineno}: non-numeric value {cell!r} in column {col!r}"
                            )
                    if ok:
                        values.extend(parsed)
                    else:
                        n_dropped += 1
            except StopIteration:  # only the header's next() ends early
                raise DataValidationError(f"{path}: empty file, expected a CSV header")
            # the file is decoded a chunk at a time, and a chunk is read only when
            # the reader has taken every line ending before it
            except UnicodeDecodeError as exc:
                line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
                raise DataValidationError(
                    f"{path}:{line}: invalid UTF-8 (byte 0x{exc.object[exc.start]:02x}: "
                    f"{exc.reason})"
                ) from exc
            except csv.Error as exc:
                raise DataValidationError(f"{path}:{reader.line_num}: {exc}") from exc

        if n_dropped:
            warnings.warn(f"{path}: dropped {n_dropped} row(s) with missing values",
                          stacklevel=2)
        data = np.frombuffer(values, dtype=np.float64)
        ds = cls({name: data[j::len(keep)] for j, name in enumerate(keep)})
        ds.n_dropped = n_dropped
        return ds

    def to_csv(self, path) -> None:
        """Write columns as CSV; floats use repr so values round-trip exactly."""
        write_csv(path, self.names(), list(self.columns.values()))


def write_csv(path, header: list[str], columns: list) -> None:
    """Write columns under the given header; floats use repr, strings pass through."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        n = len(columns[0]) if columns else 0
        for i in range(n):
            writer.writerow(
                [col[i] if isinstance(col[i], str) else repr(float(col[i])) for col in columns]
            )
