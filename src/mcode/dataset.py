"""Dataset container, CSV ingestion, standardization, and outlier injection.

A dataset is N aligned instances of m real-valued inputs and d binary
outputs. Input features get standardized before model fitting; outputs are
kept raw. Outlier injection flips output cells of a random subset of rows
and records exactly what it did so rankings can be evaluated later. Every
file is read and written as UTF-8, whatever the locale.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DomainError

# Identifier of the random generator used for every seeded draw in this
# package. Recorded in perturbation logs so a replay can verify it is
# running the same bit stream.
RNG_ALGORITHM = "pcg64"

# Data rows save_csv formats per write: the file is streamed, never held
# whole as one string.
_CSV_CHUNK_ROWS = 1024


def is_integer(value) -> bool:
    """Whether value is an int or a NumPy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether value is an int or a float, NumPy's too, never a bool."""
    return is_integer(value) or isinstance(value, (float, np.floating))


def _zeros_and_ones(cells) -> bool:
    """Whether every cell equals 0 or 1, as a number or a bool: a string,
    NaN or any other value does not. Ten times faster than np.isin."""
    return bool(((cells == 0) | (cells == 1)).all())


def is_rate(value) -> bool:
    """The rule of every rate, injected or alerted: a number in (0, 1]."""
    return is_number(value) and 0.0 < value <= 1.0


def is_seed(value) -> bool:
    """The rule of every seed, make_rng's: a non-negative integer."""
    return is_integer(value) and value >= 0


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator for all randomized routines (algorithm: pcg64)."""
    if not is_seed(seed):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def json_int(value) -> int:
    """An integer field read from JSON: an int or an integral float, else
    ValueError (a bool, a string, 1.7, nan) or OverflowError (inf, which
    is how json reads 1e400)."""
    if not is_number(value) or int(value) != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def load_json(path):
    """The document in the UTF-8 JSON file at path, a leading byte-order
    mark skipped; a DataError naming the file if it cannot be read or
    decoded."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: undecodable bytes or JSON, or a NUL in the name;
        # RecursionError: arrays or objects nested too deep to decode
        raise DataError(f"{path}: not readable JSON: {exc}") from exc


def save_json(doc, path) -> None:
    """Write doc as indented JSON, keys sorted, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(path, header: str, rows, comments=()) -> None:
    """Write '# ' comment lines, the header line and one line per row, a
    string each, as one write."""
    text = "\n".join([*(f"# {line}" for line in comments), header, *rows])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def round_half_up(x: float) -> int:
    """Nearest integer with halves rounded up.

    Every count derived from a rate (outlier rows, flipped dimensions,
    alert counts) goes through this so replays agree across platforms
    regardless of the host language's default tie rule.
    """
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Dataset:
    """Aligned input matrix X (N x m, float) and output matrix Y (N x d, 0/1).

    Treated as immutable after construction: no routine in this package
    writes to X or Y in place.
    """

    X: np.ndarray
    Y: np.ndarray
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y)
        if X.ndim != 2 or Y.ndim != 2:
            raise DomainError("X and Y must both be 2-dimensional")
        if X.shape[0] != Y.shape[0]:
            raise DomainError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:
            raise DomainError("dataset needs at least one row, input, and output")
        if not np.isfinite(X).all():
            raise DomainError("X contains non-finite values")
        if not _zeros_and_ones(Y):
            raise DomainError("Y cells must all be 0 or 1")
        Y = Y.astype(np.int8)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        names_x = tuple(self.input_names) or tuple(
            f"x{j + 1}" for j in range(X.shape[1]))
        names_y = tuple(self.output_names) or tuple(
            f"y{j + 1}" for j in range(Y.shape[1]))
        if len(names_x) != X.shape[1]:
            raise DomainError(
                f"{len(names_x)} input names for {X.shape[1]} input columns")
        if len(names_y) != Y.shape[1]:
            raise DomainError(
                f"{len(names_y)} output names for {Y.shape[1]} output columns")
        object.__setattr__(self, "input_names", names_x)
        object.__setattr__(self, "output_names", names_y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def d(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class StandardizationStats:
    """Per-input-column mean and standard deviation (population, 1/N).

    Columns that were constant carry std_dev 1.0 so applying the transform
    maps them to exactly zero without dividing by zero.
    """

    means: np.ndarray
    std_devs: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.means.shape[0]:
            raise DomainError(
                f"expected {self.means.shape[0]} input columns, got {X.shape}")
        return (X - self.means) / self.std_devs


@dataclass(frozen=True)
class PerturbationLog:
    """Ground-truth record of one outlier injection run."""

    seed: int
    ratio: float
    dim_fraction: float
    outlier_rows: frozenset
    flipped_cells: tuple
    rng: str = RNG_ALGORITHM

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "ratio": float(self.ratio),
            "dim_fraction": float(self.dim_fraction),
            "outlier_rows": sorted(int(r) for r in self.outlier_rows),
            "flipped_cells": [[int(r), int(c)] for r, c in self.flipped_cells],
            "rng": self.rng,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PerturbationLog":
        """Inverse of to_dict; the seed and rates must obey the rules of
        make_rng and inject_outliers."""
        try:
            seed = json_int(doc["seed"])
            if not is_seed(seed):
                raise ValueError(f"seed must be non-negative, got {seed}")
            for name in ("ratio", "dim_fraction"):
                if not is_rate(doc[name]):
                    raise ValueError(f"{name} must be in (0, 1], got "
                                     f"{doc[name]!r}")
            return cls(
                seed=seed, ratio=float(doc["ratio"]),
                dim_fraction=float(doc["dim_fraction"]),
                outlier_rows=frozenset(
                    json_int(r) for r in doc["outlier_rows"]),
                flipped_cells=tuple(
                    (json_int(r), json_int(c))
                    for r, c in doc["flipped_cells"]),
                rng=str(doc.get("rng", RNG_ALGORITHM)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed perturbation log: {exc}") from exc


def save_log(log: PerturbationLog, path, meta: dict | None = None) -> None:
    doc = log.to_dict()
    if meta:
        doc["_meta"] = meta
    save_json(doc, path)


def load_log(path) -> PerturbationLog:
    doc = load_json(path)
    try:
        return PerturbationLog.from_dict(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _parse_field(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_records(path, comments_anywhere=True):
    """(line number, fields) for each record of the CSV file at path.

    Blank records and records whose first field starts with '#' are
    skipped, except that with comments_anywhere=False a '#' record after
    the first other record is a DataError naming its line. A field over
    csv.field_size_limit() is a DataError naming its line too, and bytes
    that are not UTF-8 text one naming the file. A leading byte-order mark
    is not data.
    """
    started = False
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for record in reader:
                if not "".join(record).strip():
                    continue
                if record[0].lstrip().startswith("#"):
                    if started and not comments_anywhere:
                        raise DataError(f"{path}: line {reader.line_num}: "
                                        f"'#' line after the first row")
                    continue
                started = True
                yield reader.line_num, record
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc


def load_csv(path, n_outputs: int) -> Dataset:
    """Read a CSV of m input columns followed by n_outputs output columns.

    An optional single header row supplies column names; it is recognized
    by containing at least one non-numeric field. Lines starting with '#'
    are skipped (our own writers emit such header comments). Structural
    problems raise DataError naming the line; output values other than
    0/1 raise DomainError.
    """
    if not is_integer(n_outputs) or n_outputs < 1:
        raise ConfigError(f"n_outputs must be a positive integer, got {n_outputs!r}")

    names = None
    rows = []
    for line_num, record in _csv_records(path):
        if names is None and not rows and any(
                _parse_field(f) is None for f in record):
            names = [f.strip() for f in record]
            continue
        rows.append((line_num, record))

    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0][1])
    if names is not None and len(names) != width:
        raise DataError(
            f"{path}: header has {len(names)} fields but data rows have {width}")
    for line_num, record in rows:
        if len(record) != width:
            raise DataError(
                f"{path}: line {line_num}: expected {width} fields, "
                f"got {len(record)}")
    if n_outputs >= width:
        raise ConfigError(
            f"n_outputs={n_outputs} leaves no input columns "
            f"(rows have {width} fields)")

    m = width - n_outputs
    try:
        values = np.fromiter(
            map(float, itertools.chain.from_iterable(
                record for _, record in rows)),
            dtype=np.float64, count=len(rows) * width).reshape(-1, width)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values[:, :m]).all() or \
            not _zeros_and_ones(values[:, m:]):
        _reject_first_bad_field(path, rows, m)
    X = np.ascontiguousarray(values[:, :m])
    Y = values[:, m:].astype(np.int8)
    if names is None:
        return Dataset(X, Y)
    return Dataset(X, Y, tuple(names[:m]), tuple(names[m:]))


def _reject_first_bad_field(path, rows, m):
    """Raise the error of the first field, in file order, that is not a
    number, a finite input value or a 0/1 output value."""
    for line_num, record in rows:
        for j, text in enumerate(record):
            value = _parse_field(text)
            if value is None:
                raise DataError(
                    f"{path}: line {line_num}: non-numeric field {text!r}")
            if j < m and not math.isfinite(value):
                raise DataError(
                    f"{path}: line {line_num}: non-finite input value {text!r}")
            if j >= m and value not in (0.0, 1.0):
                raise DomainError(
                    f"{path}: line {line_num}: output value {text!r} "
                    f"is not 0 or 1")


def save_csv(ds: Dataset, path, comments=()) -> None:
    """Write a dataset in the format load_csv reads.

    Float cells use repr, which round-trips float64 exactly; output cells
    are written as bare 0/1. Only the header goes through csv.writer,
    since names may need quoting: a float's repr and a 0/1 never do. The
    rows are written _CSV_CHUNK_ROWS at a time.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        csv.writer(fh).writerow([*ds.input_names, *ds.output_names])
        for start in range(0, ds.n, _CSV_CHUNK_ROWS):
            chunk = slice(start, start + _CSV_CHUNK_ROWS)
            fh.write("".join([
                f"{','.join(map(repr, x))},{','.join(map(str, y))}\r\n"
                for x, y in zip(ds.X[chunk].tolist(), ds.Y[chunk].tolist())]))


def standardize(ds: Dataset):
    """Return (standardized dataset, stats). Y passes through untouched.

    Uses the population standard deviation (1/N). Constant columns are
    detected by exact equality and mapped to all-zero columns with a
    substituted std of 1.0 recorded in the stats. A column whose mean or
    standard deviation overflows float64 is a DomainError naming it.
    """
    X = ds.X
    constant = (X == X[0, :]).all(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.where(constant, X[0, :], X.mean(axis=0))
        std_devs = np.where(constant, 1.0, X.std(axis=0))
    overflowed = ~(np.isfinite(means) & np.isfinite(std_devs))
    if overflowed.any():
        name = ds.input_names[np.argmax(overflowed)]
        raise DomainError(f"input column {name!r} spreads too far: its mean "
                          f"or standard deviation overflows float64")
    # A column can have std 0 without exact equality only through
    # catastrophic underflow; guard the division anyway.
    std_devs = np.where(std_devs == 0.0, 1.0, std_devs)
    stats = StandardizationStats(means=means, std_devs=std_devs)
    X_std = stats.apply(X)
    return Dataset(X_std, ds.Y, ds.input_names, ds.output_names), stats


def inject_outliers(ds: Dataset, ratio: float, dim_fraction: float, seed: int):
    """Flip output bits of randomly chosen rows; return (new dataset, log).

    Selects max(1, round(ratio*N)) distinct rows uniformly, then flips
    max(1, round(dim_fraction*d)) distinct output dimensions per row via
    y -> |y - 1|. X is shared with the input dataset; Y is a fresh copy.
    """
    for name, value in (("ratio", ratio), ("dim_fraction", dim_fraction)):
        if not is_rate(value):
            raise DomainError(f"{name} must be in (0, 1], got {value!r}")
    rng = make_rng(seed)

    n_rows = max(1, round_half_up(ratio * ds.n))
    n_dims = max(1, round_half_up(dim_fraction * ds.d))
    rows = np.sort(rng.choice(ds.n, size=n_rows, replace=False))

    Y = ds.Y.copy()
    cells = []
    for r in rows:
        dims = np.sort(rng.choice(ds.d, size=n_dims, replace=False))
        for c in dims:
            Y[r, c] = 1 - Y[r, c]
            cells.append((int(r), int(c)))

    log = PerturbationLog(
        seed=int(seed),
        ratio=float(ratio),
        dim_fraction=float(dim_fraction),
        outlier_rows=frozenset(int(r) for r in rows),
        flipped_cells=tuple(cells),
    )
    return Dataset(ds.X, Y, ds.input_names, ds.output_names), log
