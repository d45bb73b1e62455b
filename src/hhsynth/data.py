"""Schema definitions and household dataset I/O.

Category codes are 1-based in every file format (data CSV, schema config,
rule text) and 0-based everywhere in memory.  Conversion happens only at the
I/O boundary.  The household-size variable is special: its 1-based code equals
the number of members, so a household with size code h has exactly h rows.

A Dataset is a DatasetView plus its schema and household ids.
"""

from __future__ import annotations

import csv
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
            labels = entry.get("labels")
            specs.append(
                VariableSpec(
                    name=str(entry["name"]),
                    cardinality=int(entry["cardinality"]),
                    level=level,
                    is_size=bool(entry.get("size", False)),
                    labels=tuple(str(x) for x in labels) if labels is not None else None,
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
    """
    path = Path(path)
    hh_names = [v.name for v in schema.household_vars]
    ind_names = [v.name for v in schema.individual_vars]
    expected = [_ID_COLUMN, _PERSON_COLUMN] + hh_names + ind_names
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

    # households in order of first appearance
    index: dict[str, int] = {}
    hh_of_row = np.array(
        [index.setdefault(row[col[_ID_COLUMN]], len(index)) for row in rows], dtype=np.int64
    )
    ids = list(index)
    first_row = np.unique(hh_of_row, return_index=True)[1]
    i = _first((hh_rows != hh_rows[first_row][hh_of_row]).any(axis=1))
    if i is not None:
        raise SchemaError(
            f"{path}:{i + 2}: household {ids[hh_of_row[i]]!r} has inconsistent household codes"
        )
    i = next((i for i, x in enumerate(person) if not 1 <= x <= len(rows)), None)
    if i is not None:  # no household of len(rows) members or fewer can hold this index
        raise SchemaError(f"{path}: household {ids[hh_of_row[i]]!r}: person_index must run 1..n")
    person = np.array(person, dtype=np.int64)
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
    i = _first(person_sorted != np.arange(len(rows)) - (np.cumsum(sizes) - sizes)[hh_sorted] + 1)
    if i is not None:
        raise SchemaError(
            f"{path}: household {ids[hh_sorted[i]]!r}: person_index must run 1..n"
        )
    view = DatasetView.from_arrays(hh_rows[first_row], mem_rows[order], sizes)
    dataset = Dataset(schema, view=view, ids=ids)
    dataset.validate()
    return dataset


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the person-level CSV form (1-based codes, one row per member)."""
    path = Path(path)
    hh_names = [v.name for v in dataset.schema.household_vars]
    ind_names = [v.name for v in dataset.schema.individual_vars]
    person = np.arange(dataset.n_individuals) - dataset.hh_start[dataset.mem_hh] + 1
    hh_part = (dataset.hh_codes + 1).tolist()
    ids = dataset.ids
    with path.open("w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow([_ID_COLUMN, _PERSON_COLUMN] + hh_names + ind_names)
        writer.writerows(
            [ids[i], j] + hh_part[i] + member
            for i, j, member in zip(
                dataset.mem_hh.tolist(), person.tolist(), (dataset.mem_codes + 1).tolist()
            )
        )


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
