"""Checks on the files one pipeline run leaves in its output directory.

Each check yields a Check.  ``release`` marks checks on what the pipeline
releases (synthetic data and its utility and risk reports) and on the run's
determinism; a failed release check makes the benchmark's verdict incorrect.
Every check, release or not, counts as one attempted operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# columns that hold labels rather than numbers
TEXT_COLUMNS = {"household_id", "query", "target_id"}
# numeric columns that are empty by design when their input is absent:
# the report's population truth when the config names no population
OPTIONAL_COLUMNS = {"truth"}
# outputs that are run by-products rather than part of the release
NOT_RELEASED = {"population.csv", "sample.csv", "checkpoints.jsonl", "diagnostics.csv"}
# what reading a missing, truncated or malformed output file raises
BAD_FILE = (OSError, ValueError, IndexError)


@dataclass
class Check:
    name: str
    ok: bool
    release: bool
    detail: str = ""


def merge(checks: list[Check]) -> list[Check]:
    """One check per name, in first-seen order; it passes only if every instance passed.

    A run repeats the pipeline as often as time allows.  Merging makes each
    check one operation per run, so that ``attempted`` and ``failed`` depend
    on the workload and the program, not on how many pipelines fitted.
    """
    merged: dict[str, Check] = {}
    for c in checks:
        seen = merged.get(c.name)
        if seen is None:
            merged[c.name] = Check(c.name, c.ok, c.release, c.detail)
        elif seen.ok and not c.ok:
            seen.ok, seen.detail = False, c.detail
    return list(merged.values())


def output_files(n_replicates: int) -> list[str]:
    """Every file the five stages write, in stage order."""
    return (
        ["population.csv", "sample.csv", "checkpoints.jsonl", "diagnostics.csv"]
        + [f"synthetic_{l}.csv" for l in range(1, n_replicates + 1)]
        + ["manifest.json", "cells.csv", "household_queries.csv"]
        + ["risk_summary.csv", "rank_histogram.csv"]
    )


def digest(out_dir: Path, names: list[str]) -> str:
    """sha256 over the named files' names and bytes; a missing file counts as empty."""
    h = hashlib.sha256()
    for name in names:
        path = out_dir / name
        data = path.read_bytes() if path.is_file() else b""
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty file")
    return rows[0], rows[1:]


def parse_error(path: Path) -> str | None:
    """Why the file does not parse, or None.

    CSV: every row has the header's width and every cell outside the label
    columns is a finite number; an optional column may also be empty.  JSON: one document.  JSONL: one document per
    line.
    """
    if not path.is_file():
        return "missing"
    try:
        if path.suffix == ".csv":
            header, rows = read_csv(path)
            numeric = [j for j, col in enumerate(header) if col not in TEXT_COLUMNS]
            for i, row in enumerate(rows, start=2):
                if len(row) != len(header):
                    return f"line {i}: {len(row)} cells, header has {len(header)}"
                for j in numeric:
                    if row[j] == "" and header[j] in OPTIONAL_COLUMNS:
                        continue
                    try:
                        ok = math.isfinite(float(row[j]))
                    except ValueError:
                        ok = False
                    if not ok:
                        return f"line {i} column {header[j]}: {row[j]!r} is not a finite number"
        elif path.suffix == ".json":
            json.loads(path.read_text(encoding="utf8"))
        elif path.suffix == ".jsonl":
            with path.open(encoding="utf8") as fh:
                for line in fh:
                    json.loads(line)
        else:
            return f"unknown file type {path.suffix!r}"
    except (ValueError, UnicodeDecodeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def parse_checks(out_dir: Path, names: list[str]) -> list[Check]:
    checks = []
    for name in names:
        error = parse_error(out_dir / name)
        checks.append(Check(f"parse:{name}", error is None, name not in NOT_RELEASED, error or ""))
    return checks


def households(path: Path, schema) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Household codes and member codes per household, 0-based, in file order."""
    header, rows = read_csv(path)
    hh_cols = [header.index(v.name) for v in schema.household_vars]
    ind_cols = [header.index(v.name) for v in schema.individual_vars]
    id_col = header.index("household_id")
    grouped: dict[str, tuple[tuple[int, ...], list]] = {}
    for row in rows:
        hh = tuple(int(row[j]) - 1 for j in hh_cols)
        entry = grouped.setdefault(row[id_col], (hh, []))
        entry[1].append(tuple(int(row[j]) - 1 for j in ind_cols))
    return list(grouped.values())


def size_error(path: Path, schema, sample_sizes: Counter) -> str | None:
    """Why the replicate's household sizes disagree with the sample's, or None."""
    size_idx = schema.size_index
    sizes: Counter = Counter()
    for hh, members in households(path, schema):
        if len(members) != hh[size_idx] + 1:
            return f"household with size code {hh[size_idx] + 1} has {len(members)} members"
        sizes[len(members)] += 1
    if sizes != sample_sizes:
        return f"households per size {dict(sorted(sizes.items()))}, sample has " \
               f"{dict(sorted(sample_sizes.items()))}"
    return None


def infeasible_count(path: Path, schema, rules) -> int:
    """Households in the file that violate a rule, by hhsynth's check_batch."""
    from hhsynth.constraints import check_batch

    by_size: dict[int, list] = {}
    for hh, members in households(path, schema):
        by_size.setdefault(len(members), []).append((hh, members))
    bad = 0
    for h, group in by_size.items():
        hh_codes = np.array([hh for hh, _ in group], dtype=np.int64)
        mem_codes = np.array([m for _, m in group], dtype=np.int64).reshape(len(group), h, -1)
        bad += int((~check_batch(rules, hh_codes, mem_codes)).sum())
    return bad


def replicate_checks(out_dir: Path, schema, rules, n_replicates: int) -> list[Check]:
    """Sizes match the sample's in every replicate; with rules, every household is feasible."""
    checks = []
    sample_sizes, sample_error = None, None
    try:
        sample_sizes = Counter(len(m) for _, m in households(out_dir / "sample.csv", schema))
    except BAD_FILE as exc:
        sample_error = f"sample unreadable: {type(exc).__name__}: {exc}"
    for l in range(1, n_replicates + 1):
        name = f"synthetic_{l}.csv"
        path = out_dir / name
        try:
            error = sample_error if sample_sizes is None else size_error(path, schema, sample_sizes)
        except BAD_FILE as exc:
            error = f"{type(exc).__name__}: {exc}"
        checks.append(Check(f"sizes:{name}", error is None, True, error or ""))
        if rules is not None:
            try:
                bad = infeasible_count(path, schema, rules)
                error = f"{bad} infeasible households" if bad else None
            except BAD_FILE as exc:
                error = f"{type(exc).__name__}: {exc}"
            checks.append(Check(f"feasible:{name}", error is None, True, error or ""))
    return checks


def risk_checks(out_dir: Path) -> list[Check]:
    """0 <= rho_truth <= rho_max <= 1 on every row; the rank histogram covers every row."""
    n_rows = None
    try:
        header, rows = read_csv(out_dir / "risk_summary.csv")
        truth, top = header.index("rho_truth"), header.index("rho_max")
        bad = [r for r in rows if not 0.0 <= float(r[truth]) <= float(r[top]) <= 1.0]
        error = f"{len(bad)} rows outside 0 <= rho_truth <= rho_max <= 1" if bad else None
        n_rows = len(rows)
    except BAD_FILE as exc:
        error = f"{type(exc).__name__}: {exc}"
    checks = [Check("risk:bounds", error is None, True, error or "")]
    try:
        header, rows = read_csv(out_dir / "rank_histogram.csv")
        total = sum(int(r[header.index("n_targets")]) for r in rows)
        if n_rows is None:
            error = "risk_summary.csv unreadable"
        else:
            error = None if total == n_rows else f"histogram sums to {total}, {n_rows} risk rows"
    except BAD_FILE as exc:
        error = f"{type(exc).__name__}: {exc}"
    checks.append(Check("risk:histogram_total", error is None, True, error or ""))
    return checks


def cell_utility(out_dir: Path) -> tuple[float, float]:
    """Mean interval overlap and mean |q_syn - q_orig| over the rows of cells.csv.

    The overlap of one cell is the average share of each 95% interval, the
    original's and the combined synthetic one, that the two intervals share
    (Karr et al. 2006); 1 means identical intervals, 0 or less disjoint ones.
    """
    header, rows = read_csv(out_dir / "cells.csv")
    col = {name: header.index(name) for name in
           ("q_orig", "lo_orig", "hi_orig", "q_syn", "lo_syn", "hi_syn")}
    if not rows:
        raise ValueError("cells.csv has no rows")
    overlaps, errors = [], []
    for row in rows:
        q_o, lo_o, hi_o, q_s, lo_s, hi_s = (float(row[col[k]]) for k in col)
        shared = min(hi_o, hi_s) - max(lo_o, lo_s)
        if hi_o > lo_o and hi_s > lo_s:
            overlaps.append(0.5 * (shared / (hi_o - lo_o) + shared / (hi_s - lo_s)))
        else:  # a degenerate interval: overlap is whether the points agree
            overlaps.append(1.0 if q_o == q_s else 0.0)
        errors.append(abs(q_s - q_o))
    return sum(overlaps) / len(rows), sum(errors) / len(rows)
