"""Schema definitions and household dataset I/O.

Category codes are 1-based in every file format (data CSV, schema config,
rule text) and 0-based everywhere in memory.  Conversion happens only at the
I/O boundary.  The household-size variable is special: its 1-based code equals
the number of members, so a household with size code h has exactly h rows.

A Dataset is a DatasetView plus its schema and household ids.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

HOUSEHOLD = "household"
INDIVIDUAL = "individual"

_ID_COLUMN = "household_id"
_PERSON_COLUMN = "person_index"


class SchemaError(ValueError):
    """Raised for malformed schema documents or schema violations in data."""


@dataclass(frozen=True)
class VariableSpec:
    """One categorical variable: name, level, and number of categories."""

    name: str
    cardinality: int
    level: str
    is_size: bool = False
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.name in (_ID_COLUMN, _PERSON_COLUMN):
            raise SchemaError(f"variable {self.name!r}: the data CSV has a column of that name")
        if self.cardinality < 2:
            raise SchemaError(f"variable {self.name!r}: cardinality must be >= 2")
        if self.level not in (HOUSEHOLD, INDIVIDUAL):
            raise SchemaError(f"variable {self.name!r}: unknown level {self.level!r}")
        if self.is_size and self.level != HOUSEHOLD:
            raise SchemaError(f"variable {self.name!r}: the size variable must be household level")
        if self.labels is not None and len(self.labels) != self.cardinality:
            raise SchemaError(
                f"variable {self.name!r}: {len(self.labels)} labels for "
                f"{self.cardinality} categories"
            )
        if self.labels is not None and len(set(self.labels)) != len(self.labels):
            raise SchemaError(f"variable {self.name!r}: labels must be distinct")

    def code_of(self, token: str) -> int:
        """Resolve a 1-based code or category label to a 0-based code."""
        if self.labels is not None and token in self.labels:
            return self.labels.index(token)
        try:
            code = int(token)
        except ValueError:
            raise SchemaError(f"variable {self.name!r}: unknown category {token!r}") from None
        if not 1 <= code <= self.cardinality:
            raise SchemaError(
                f"variable {self.name!r}: code {code} outside 1..{self.cardinality}"
            )
        return code - 1


@dataclass(frozen=True)
class Schema:
    """Ordered household-level and individual-level variable lists."""

    household_vars: tuple[VariableSpec, ...]
    individual_vars: tuple[VariableSpec, ...]

    def __post_init__(self):
        if not self.household_vars or not self.individual_vars:
            raise SchemaError("schema needs at least one variable at each level")
        names = [v.name for v in self.household_vars + self.individual_vars]
        if len(set(names)) != len(names):
            raise SchemaError("variable names must be unique across both levels")
        sizes = [v for v in self.household_vars if v.is_size]
        if len(sizes) != 1:
            raise SchemaError("exactly one household variable must be marked as the size")

    @cached_property
    def size_index(self) -> int:
        return next(i for i, v in enumerate(self.household_vars) if v.is_size)

    @property
    def size_var(self) -> VariableSpec:
        return self.household_vars[self.size_index]

    @property
    def max_size(self) -> int:
        return self.size_var.cardinality

    def variable(self, name: str) -> VariableSpec:
        for v in self.household_vars + self.individual_vars:
            if v.name == name:
                return v
        raise SchemaError(f"unknown variable {name!r}")

    def index_of(self, name: str) -> tuple[str, int]:
        """Return (level, position within that level's variable list)."""
        for i, v in enumerate(self.household_vars):
            if v.name == name:
                return HOUSEHOLD, i
        for i, v in enumerate(self.individual_vars):
            if v.name == name:
                return INDIVIDUAL, i
        raise SchemaError(f"unknown variable {name!r}")


def parse_schema(text: str) -> Schema:
    """Parse a YAML schema document.

    Expected layout::

        household:
          - {name: ownership, cardinality: 2}
          - {name: hh_size, cardinality: 4, size: true}
        individual:
          - {name: role, cardinality: 2, labels: [head, other]}
          - {name: age_group, cardinality: 5}
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"schema document is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("schema document must be a mapping")
    unknown = set(doc) - {HOUSEHOLD, INDIVIDUAL}
    if unknown:
        raise SchemaError(f"unknown top-level schema keys: {sorted(unknown)}")

    def build(level: str) -> tuple[VariableSpec, ...]:
        entries = doc.get(level)
        if not isinstance(entries, list) or not entries:
            raise SchemaError(f"schema section {level!r} must be a non-empty list")
        specs = []
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry or "cardinality" not in entry:
                raise SchemaError(f"each {level} variable needs 'name' and 'cardinality'")
            extra = set(entry) - {"name", "cardinality", "size", "labels"}
            if extra:
                raise SchemaError(f"variable {entry.get('name')!r}: unknown keys {sorted(extra)}")
            name, labels = entry["name"], entry.get("labels")
            if not isinstance(name, str):
                raise SchemaError(f"{level} variable {name!r}: name must be a string")
            cardinality, is_size = entry["cardinality"], entry.get("size", False)
            if isinstance(cardinality, bool) or not isinstance(cardinality, int):
                raise SchemaError(
                    f"variable {name!r}: cardinality must be an integer, not {cardinality!r}"
                )
            if not isinstance(is_size, bool):
                raise SchemaError(f"variable {name!r}: size must be true or false, not {is_size!r}")
            if labels is not None and not (
                isinstance(labels, list) and all(isinstance(x, str) for x in labels)
            ):
                raise SchemaError(
                    f"variable {name!r}: labels must be a list of strings, not {labels!r}"
                )
            specs.append(
                VariableSpec(
                    name=name,
                    cardinality=cardinality,
                    level=level,
                    is_size=is_size,
                    labels=tuple(labels) if labels is not None else None,
                )
            )
        return tuple(specs)

    return Schema(household_vars=build(HOUSEHOLD), individual_vars=build(INDIVIDUAL))


def load_schema(path: str | Path) -> Schema:
    return parse_schema(Path(path).read_text(encoding="utf8"))


@dataclass(frozen=True)
class HouseholdRecord:
    """One household written out as literals: id, household codes, member codes.

    All codes are 0-based.  members[j] lists the j-th member's individual
    variable codes in schema order.  A Dataset accepts records as input and
    keeps only their arrays.
    """

    household_id: str
    hh_values: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class DatasetView:
    """Flat array form of households, used by the numerical code.

    Member rows are stored contiguously in household order, so per-household
    reductions can use hh_start offsets directly.
    """

    hh_codes: np.ndarray  # (n, q) int64
    mem_codes: np.ndarray  # (N, p) int64
    mem_hh: np.ndarray  # (N,) household row of each member
    hh_start: np.ndarray  # (n,) offset of each household's first member row
    sizes: np.ndarray  # (n,)

    @property
    def n_households(self) -> int:
        return self.hh_codes.shape[0]

    @property
    def n_individuals(self) -> int:
        return self.mem_codes.shape[0]

    @cached_property
    def mem_pattern(self) -> np.ndarray:
        """Each member's row in patterns, (N,); computed on first use."""
        # one mixed-radix integer per member row; where the next radix would
        # pass int64, the codes so far are first renumbered densely (< N)
        code = np.zeros(self.n_individuals, dtype=np.int64)
        radix = 1
        for column in self.mem_codes.T:
            d = int(column.max(initial=0)) + 1
            if radix * d > np.iinfo(np.int64).max:
                distinct, code = np.unique(code, return_inverse=True)
                radix = len(distinct)
            code = code * d + column
            radix *= d
        return np.unique(code, return_inverse=True)[1]

    @cached_property
    def patterns(self) -> np.ndarray:
        """The distinct member rows in ascending order, (P, p), P <= N."""
        out = np.empty((self.mem_pattern.max(initial=-1) + 1, self.mem_codes.shape[1]), np.int64)
        out[self.mem_pattern] = self.mem_codes
        return out

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> DatasetView:
        """The Dataset itself: it is a DatasetView."""
        return dataset

    @classmethod
    def from_arrays(
        cls, hh_codes: np.ndarray, mem_codes: np.ndarray, sizes: np.ndarray
    ) -> DatasetView:
        """Build a view from raw arrays (member rows already household-ordered)."""
        sizes = np.asarray(sizes, dtype=np.int64)
        return cls(
            hh_codes=np.asarray(hh_codes, dtype=np.int64),
            mem_codes=np.asarray(mem_codes, dtype=np.int64),
            mem_hh=np.arange(len(sizes), dtype=np.int64).repeat(sizes),
            hh_start=sizes.cumsum() - sizes,
            sizes=sizes,
        )


class Dataset(DatasetView):
    """A DatasetView plus its schema and household ids; it goes wherever a view does.

    Build one from arrays, ``Dataset(schema, view=..., ids=...)``, or from
    HouseholdRecord literals, ``Dataset(schema, records)``; records become
    arrays once and are not kept.  Without ids, households are named h000001,
    h000002, ... in order.
    """

    def __init__(
        self,
        schema: Schema,
        records: Iterable[HouseholdRecord] = (),
        *,
        view: DatasetView | None = None,
        ids: Sequence[str] | None = None,
    ):
        if view is None:
            records = tuple(records)
            q, p = len(schema.household_vars), len(schema.individual_vars)
            view = DatasetView.from_arrays(
                np.array([r.hh_values for r in records], dtype=np.int64).reshape(len(records), q),
                np.array([m for r in records for m in r.members], dtype=np.int64).reshape(-1, p),
                [r.size for r in records],
            )
            ids = [r.household_id for r in records]
        elif ids is None:
            ids = [f"h{i + 1:06d}" for i in range(view.n_households)]
        for f in fields(DatasetView):  # DatasetView is frozen
            object.__setattr__(self, f.name, getattr(view, f.name))
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "ids", tuple(ids))

    def validate(self) -> None:
        """Check the arrays against the schema; raises SchemaError naming a household."""
        schema, ids = self.schema, self.ids
        seen = set()
        for hid in ids:
            if hid in seen:
                raise SchemaError(f"duplicate household id {hid!r}")
            seen.add(hid)
        q = len(schema.household_vars)
        p = len(schema.individual_vars)
        n_members = int(self.sizes.sum())  # n_individuals counts the rows, not the sizes
        if self.hh_codes.shape != (len(ids), q) or self.mem_codes.shape != (n_members, p):
            raise SchemaError(f"expected {q} household codes and {p} codes per member")
        i = _first(self.sizes < 1)
        if i is not None:
            raise SchemaError(f"household {ids[i]!r}: no members")
        size_codes = self.hh_codes[:, schema.size_index] + 1
        i = _first(size_codes != self.sizes)
        if i is not None:
            raise SchemaError(
                f"household {ids[i]!r}: size code {size_codes[i]} but {self.sizes[i]} members"
            )
        levels = (
            (self.hh_codes, np.arange(len(ids)), schema.household_vars),
            (self.mem_codes, self.mem_hh, schema.individual_vars),
        )
        for codes, household_of_row, variables in levels:
            for k, v in enumerate(variables):
                i = _first((codes[:, k] < 0) | (codes[:, k] >= v.cardinality))
                if i is not None:
                    raise SchemaError(
                        f"household {ids[household_of_row[i]]!r}: {v.name} code out of range"
                    )

    def to_view(self) -> DatasetView:
        return DatasetView.from_dataset(self)


def load_dataset(path: str | Path, schema: Schema) -> Dataset:
    """Read a person-level CSV into a Dataset.

    Expected columns: household_id, person_index, then one column per
    household variable and one per individual variable, in schema order.
    Codes are 1-based integers; any missing or malformed cell is an error.
    Households keep their order of first appearance; members are ordered by
    person_index, which must run 1..n within each household.

    A plain file, such as every file write_dataset writes, is parsed in bulk;
    any other file is read by the csv module, which returns the same Dataset
    or raises the error (see _read_plain).
    """
    path = Path(path)
    dataset = _read_plain(path, schema)
    return dataset if dataset is not None else _read_csv(path, schema)


def _columns(schema: Schema) -> list[str]:
    """The data CSV's columns in the order write_dataset writes them."""
    return [_ID_COLUMN, _PERSON_COLUMN] + [
        v.name for v in schema.household_vars + schema.individual_vars
    ]


# ASCII bytes at which the csv module and the bulk parse may read a file
# differently: the quote; NUL, which some csv versions refuse; vertical tab and
# form feed, where str.splitlines ends a line; and \x1c-\x1f, which np.loadtxt
# reads as spaces where int() refuses them.  loadtxt also reads some non-ASCII
# letters as digits, so a plain file is ASCII as well.
_NOT_PLAIN = b'"\x00\x0b\x0c\x1c\x1d\x1e\x1f'


def _read_plain(path: Path, schema: Schema) -> Dataset | None:
    """The file's Dataset from one np.loadtxt call over its lines, or None where
    the csv reader must decide: a byte that is not ASCII or is in _NOT_PLAIN, a
    header that does not match, a blank, short or long row, an empty id, a cell
    loadtxt refuses, or a failed check."""
    raw = path.read_bytes()
    if not raw.isascii() or any(byte in raw for byte in _NOT_PLAIN):
        return None
    lines = raw.decode("ascii").splitlines()  # \r\n, \r or \n, as csv splits them
    if len(lines) < 2:
        return None
    expected, header, body = _columns(schema), lines[0].split(","), lines[1:]
    if sorted(header) != sorted(expected):
        return None
    if any(line.count(",") != len(header) - 1 for line in body):
        return None
    k = header.index(_ID_COLUMN)
    row_ids = [line.split(",", k + 1)[k] for line in body]
    if not all(map(str.strip, row_ids)):
        return None
    try:
        table = np.loadtxt(
            body,
            delimiter=",",
            usecols=[header.index(name) for name in expected[1:]],  # all but the id
            dtype=np.int64,
            comments=None,
            ndmin=2,
        )
    except (ValueError, OverflowError):  # a cell it cannot read; the csv reader reports it
        return None
    del body  # the lines are not needed past the parse
    codes = table[:, 1:] - 1
    cardinality = [v.cardinality for v in schema.household_vars + schema.individual_vars]
    if ((codes < 0) | (codes >= cardinality)).any():
        return None
    q = len(schema.household_vars)
    try:
        return _households(path, schema, row_ids, table[:, 0], codes[:, :q], codes[:, q:])
    except SchemaError:
        return None


def _read_csv(path: Path, schema: Schema) -> Dataset:
    """The file's Dataset, read cell by cell with the csv module; raises
    SchemaError naming the first fault."""
    expected = _columns(schema)
    with path.open(newline="", encoding="utf8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if sorted(header) != sorted(expected):
            raise SchemaError(
                f"{path}: header {header} does not match expected columns {expected}"
            )
        rows = list(reader)
    if not rows:
        raise SchemaError(f"{path}: no households")
    col = {name: header.index(name) for name in expected}
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: expected {len(header)} cells")
        if not all(map(str.strip, row)):
            raise SchemaError(f"{path}:{lineno}: missing value")

    def integers(name: str, message: str) -> list[int]:
        cells = [row[col[name]] for row in rows]
        try:
            return list(map(int, cells))
        except ValueError:
            for lineno, cell in enumerate(cells, start=2):
                try:
                    int(cell)
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: " + message.format(cell)) from None
            raise

    def codes(v: VariableSpec) -> np.ndarray:
        values = integers(v.name, f"{v.name} code {{!r}} is not an integer")
        if not 1 <= min(values, default=1) <= max(values, default=1) <= v.cardinality:
            lineno, value = next(
                (i, x) for i, x in enumerate(values, start=2) if not 1 <= x <= v.cardinality
            )
            raise SchemaError(
                f"{path}:{lineno}: {v.name} code {value} outside 1..{v.cardinality}"
            )
        return np.array(values, dtype=np.int64) - 1

    person = integers(_PERSON_COLUMN, "person_index must be an integer")
    hh_rows = np.column_stack([codes(v) for v in schema.household_vars])
    mem_rows = np.column_stack([codes(v) for v in schema.individual_vars])
    # an index outside 1..len(rows), which may not fit int64, is clamped to
    # 0 or len(rows) + 1: it fails the same check there
    person = np.array([min(max(x, 0), len(rows) + 1) for x in person], dtype=np.int64)
    row_ids = [row[col[_ID_COLUMN]] for row in rows]
    return _households(path, schema, row_ids, person, hh_rows, mem_rows)


def _households(
    path: Path,
    schema: Schema,
    row_ids: list[str],
    person: np.ndarray,
    hh_rows: np.ndarray,
    mem_rows: np.ndarray,
) -> Dataset:
    """The Dataset of the file's rows, given each row's id, person_index and
    0-based codes; raises SchemaError naming the line or household at fault."""
    # households in order of first appearance
    index: dict[str, int] = {}
    hh_of_row = np.array([index.setdefault(hid, len(index)) for hid in row_ids], dtype=np.int64)
    ids = list(index)
    first_row = np.unique(hh_of_row, return_index=True)[1]
    i = _first((hh_rows != hh_rows[first_row][hh_of_row]).any(axis=1))
    if i is not None:
        raise SchemaError(
            f"{path}:{i + 2}: household {ids[hh_of_row[i]]!r} has inconsistent household codes"
        )
    n_rows = len(row_ids)
    i = _first((person < 1) | (person > n_rows))
    if i is not None:  # no household of n_rows members or fewer can hold this index
        raise SchemaError(f"{path}: household {ids[hh_of_row[i]]!r}: person_index must run 1..n")
    # members grouped by household, each household's in person_index order
    order = np.lexsort((person, hh_of_row))
    hh_sorted, person_sorted = hh_of_row[order], person[order]
    repeated = (hh_sorted[1:] == hh_sorted[:-1]) & (person_sorted[1:] == person_sorted[:-1])
    if repeated.any():
        i = int(order[1:][repeated].min())
        raise SchemaError(
            f"{path}:{i + 2}: duplicate person_index {person[i]} in {ids[hh_of_row[i]]!r}"
        )
    sizes = np.bincount(hh_of_row, minlength=len(ids))
    i = _first(person_sorted != np.arange(n_rows) - (np.cumsum(sizes) - sizes)[hh_sorted] + 1)
    if i is not None:
        raise SchemaError(
            f"{path}: household {ids[hh_sorted[i]]!r}: person_index must run 1..n"
        )
    view = DatasetView.from_arrays(hh_rows[first_row], mem_rows[order], sizes)
    dataset = Dataset(schema, view=view, ids=ids)
    dataset.validate()
    return dataset


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the person-level CSV form (1-based codes, one row per member).

    The bytes are csv.writer's. Each household's id and code row and each
    distinct member row are formatted once, and each member's line joins them.
    """
    # csv.writer never quotes a cell of ASCII letters and digits
    id_cells = [hid if hid.isascii() and hid.isalnum() else _csv_cell(hid) for hid in dataset.ids]
    hh_cells = [",".join(map(str, row)) for row in (dataset.hh_codes + 1).tolist()]
    pattern_cells = [",".join(map(str, row)) for row in (dataset.patterns + 1).tolist()]
    person = np.arange(dataset.n_individuals) - dataset.hh_start[dataset.mem_hh] + 1
    with Path(path).open("w", newline="", encoding="utf8") as fh:
        csv.writer(fh).writerow(_columns(dataset.schema))
        fh.writelines(
            f"{id_cells[i]},{j},{hh_cells[i]},{pattern_cells[k]}\r\n"
            for i, j, k in zip(
                dataset.mem_hh.tolist(), person.tolist(), dataset.mem_pattern.tolist()
            )
        )


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it as one cell of a longer row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue().removesuffix(",\r\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a report table.  A float cell, numpy's included, is the shortest
    decimal that reads back to the same double; None is an empty cell and
    anything else is written as str (csv.writer's own rule for both)."""
    with Path(path).open("w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows
        )


def size_histogram(dataset: Dataset) -> dict[int, int]:
    """Households per size, as {size: count} over observed sizes only."""
    counts = np.bincount(dataset.sizes)
    return {h: c for h, c in enumerate(counts.tolist()) if c}
