"""Proportion estimates, multiple-synthesis combining rules, and reports.

Proportions are binomial: a cell involving any individual-level variable is
estimated over individuals (with household values attached to each member),
a cell of household-level variables over households, and a household query
over households passing its size restriction.  The within estimate variance
is q(1 - q)/denominator throughout.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .data import HOUSEHOLD, Dataset, HouseholdRecord, Schema


@dataclass(frozen=True)
class CellQuery:
    """A low-order marginal cell: variable names with 0-based codes."""

    variables: tuple[str, ...]
    codes: tuple[int, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.codes):
            raise ValueError("one code per variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variables must be distinct")


@dataclass(frozen=True)
class HouseholdQuery:
    """A named household-level predicate, optionally size-restricted."""

    name: str
    predicate: Callable[[HouseholdRecord], bool]
    size: int | None = None


@dataclass(frozen=True)
class CombinedEstimate:
    point: float
    within_var: float
    between_var: float
    total_var: float
    df: float
    lo: float
    hi: float
    n_replicates: int


def estimate_proportion(dataset: Dataset, query: CellQuery | HouseholdQuery) -> tuple[float, float]:
    """Return (proportion, binomial within variance) for one query."""
    if isinstance(query, HouseholdQuery):
        pool = [
            r for r in dataset.records if query.size is None or r.size == query.size
        ]
        if not pool:
            raise ValueError(f"query {query.name!r}: no households after size restriction")
        q = sum(1 for r in pool if query.predicate(r)) / len(pool)
        return q, q * (1.0 - q) / len(pool)

    schema = dataset.schema
    levels = [schema.index_of(name) for name in query.variables]
    household_only = all(level == HOUSEHOLD for level, _ in levels)
    view = dataset.to_view()
    if household_only:
        mask = np.ones(view.n_households, dtype=bool)
        for (level, idx), code in zip(levels, query.codes):
            mask &= view.hh_codes[:, idx] == code
        denom = view.n_households
    else:
        mask = np.ones(view.n_individuals, dtype=bool)
        for (level, idx), code in zip(levels, query.codes):
            if level == HOUSEHOLD:
                mask &= view.hh_codes[view.mem_hh, idx] == code
            else:
                mask &= view.mem_codes[:, idx] == code
        denom = view.n_individuals
    q = float(mask.sum()) / denom
    return q, q * (1.0 - q) / denom


def combine(
    points: list[float], withins: list[float], gamma: float = 0.95
) -> CombinedEstimate:
    """Pool per-replicate estimates into one interval.

    Uses the average of within variances plus between variance over L; the
    t reference has (L-1)(1 + L*ubar/b)^2 degrees of freedom.  When the
    replicate estimates are identical (zero between variance) the interval
    degenerates to a normal one; a zero total variance is an error.
    """
    if len(points) != len(withins) or len(points) < 2:
        raise ValueError("need matching lists of at least two replicate estimates")
    L = len(points)
    points_arr = np.asarray(points, dtype=float)
    qbar = float(points_arr.mean())
    ubar = float(np.mean(withins))
    # identical estimates must give exactly zero, not mean round-off noise
    b = 0.0 if np.ptp(points_arr) == 0.0 else float(points_arr.var(ddof=1))
    if b > 0.0:
        total = ubar + b / L
        df = (L - 1) * (1.0 + L * ubar / b) ** 2
    else:
        total = ubar
        df = float("inf")
    if total <= 0.0:
        raise ValueError("all replicate estimates and within variances are zero")
    half = _critical_value(gamma, df) * float(np.sqrt(total))
    return CombinedEstimate(
        point=qbar,
        within_var=ubar,
        between_var=b,
        total_var=total,
        df=df,
        lo=qbar - half,
        hi=qbar + half,
        n_replicates=L,
    )


def normal_interval(q: float, u: float, gamma: float = 0.95) -> tuple[float, float]:
    """Single-dataset normal interval around a proportion."""
    half = _critical_value(gamma, float("inf")) * float(np.sqrt(max(u, 0.0)))
    return q - half, q + half


def _critical_value(gamma: float, df: float) -> float:
    """Two-sided gamma quantile of Student's t with df degrees of freedom; normal at inf."""
    # imported on first use, so that the commands that pool no intervals start without scipy
    from scipy.special import ndtri, stdtrit

    p = (1.0 + gamma) / 2.0
    return float(ndtri(p) if df == float("inf") else stdtrit(df, p))


# ---------------------------------------------------------------------------
# household predicate vocabulary


def all_members_equal(schema: Schema, variable: str) -> Callable[[HouseholdRecord], bool]:
    _, idx = _individual_index(schema, variable)
    return lambda r: len({m[idx] for m in r.members}) == 1


def exists_member(schema: Schema, **codes: int) -> Callable[[HouseholdRecord], bool]:
    """A member carrying every given variable=code (0-based) at once."""
    idx_codes = [(_individual_index(schema, name)[1], code) for name, code in codes.items()]
    return lambda r: any(all(m[i] == c for i, c in idx_codes) for m in r.members)


def member_count(
    schema: Schema,
    variable: str,
    code: int,
    min_count: int = 0,
    max_count: int | None = None,
) -> Callable[[HouseholdRecord], bool]:
    _, idx = _individual_index(schema, variable)

    def pred(r: HouseholdRecord) -> bool:
        count = sum(1 for m in r.members if m[idx] == code)
        return count >= min_count and (max_count is None or count <= max_count)

    return pred


def household_value(schema: Schema, variable: str, code: int) -> Callable[[HouseholdRecord], bool]:
    level, idx = schema.index_of(variable)
    if level != HOUSEHOLD:
        raise ValueError(f"{variable!r} is not a household variable")
    return lambda r: r.hh_values[idx] == code


def q_all(*preds: Callable) -> Callable[[HouseholdRecord], bool]:
    return lambda r: all(p(r) for p in preds)


def q_any(*preds: Callable) -> Callable[[HouseholdRecord], bool]:
    return lambda r: any(p(r) for p in preds)


def q_not(pred: Callable) -> Callable[[HouseholdRecord], bool]:
    return lambda r: not pred(r)


def _individual_index(schema: Schema, variable: str):
    level, idx = schema.index_of(variable)
    if level == HOUSEHOLD:
        raise ValueError(f"{variable!r} is not an individual variable")
    return level, idx


# ---------------------------------------------------------------------------
# reports


@dataclass
class ReportRow:
    query: str
    truth: float | None
    q_orig: float
    lo_orig: float
    hi_orig: float
    q_syn: float
    lo_syn: float
    hi_syn: float


def _cell_label(schema: Schema, query: CellQuery) -> str:
    # file-facing labels use 1-based codes
    return " & ".join(f"{v}={c + 1}" for v, c in zip(query.variables, query.codes))


def cell_report(
    original: Dataset,
    replicates: list[Dataset],
    max_order: int = 2,
    min_expected: float = 10.0,
    gamma: float = 0.95,
    population: Dataset | None = None,
) -> list[ReportRow]:
    """Marginal cells of order 1..max_order, original versus combined synthetic.

    Cells are kept only when the original's expected count reaches
    min_expected; pass 0 to report everything.
    """
    schema = original.schema
    names = [v.name for v in schema.household_vars + schema.individual_vars]
    cards = {v.name: v.cardinality for v in schema.household_vars + schema.individual_vars}
    rows = []
    for order in range(1, max_order + 1):
        for combo in itertools.combinations(names, order):
            for codes in itertools.product(*(range(cards[v]) for v in combo)):
                query = CellQuery(variables=combo, codes=codes)
                q_orig, u_orig = estimate_proportion(original, query)
                if q_orig * _denominator(original, query) < min_expected:
                    continue
                rows.append(
                    _build_row(
                        _cell_label(schema, query), query, q_orig, u_orig,
                        replicates, gamma, population,
                    )
                )
    return rows


def household_report(
    original: Dataset,
    replicates: list[Dataset],
    queries: list[HouseholdQuery],
    gamma: float = 0.95,
    population: Dataset | None = None,
) -> list[ReportRow]:
    rows = []
    for query in queries:
        q_orig, u_orig = estimate_proportion(original, query)
        rows.append(
            _build_row(query.name, query, q_orig, u_orig, replicates, gamma, population)
        )
    return rows


def _denominator(dataset: Dataset, query: CellQuery) -> int:
    schema = dataset.schema
    if all(schema.index_of(v)[0] == HOUSEHOLD for v in query.variables):
        return dataset.n_households
    return dataset.n_individuals


def _build_row(
    label: str,
    query,
    q_orig: float,
    u_orig: float,
    replicates: list[Dataset],
    gamma: float,
    population: Dataset | None,
) -> ReportRow:
    lo_o, hi_o = normal_interval(q_orig, u_orig, gamma)
    points, withins = [], []
    for rep in replicates:
        q, u = estimate_proportion(rep, query)
        points.append(q)
        withins.append(u)
    try:
        combined = combine(points, withins, gamma)
        q_syn, lo_s, hi_s = combined.point, combined.lo, combined.hi
    except ValueError:
        # degenerate all-zero cell: report the point with an empty interval
        q_syn = float(np.mean(points))
        lo_s = hi_s = q_syn
    truth = None
    if population is not None:
        truth, _ = estimate_proportion(population, query)
    return ReportRow(
        query=label,
        truth=truth,
        q_orig=q_orig,
        lo_orig=lo_o,
        hi_orig=hi_o,
        q_syn=q_syn,
        lo_syn=lo_s,
        hi_syn=hi_s,
    )


def write_report_csv(rows: list[ReportRow], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["query", "truth", "q_orig", "lo_orig", "hi_orig", "q_syn", "lo_syn", "hi_syn"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.query,
                    "" if row.truth is None else repr(float(row.truth)),
                    repr(float(row.q_orig)),
                    repr(float(row.lo_orig)),
                    repr(float(row.hi_orig)),
                    repr(float(row.q_syn)),
                    repr(float(row.lo_syn)),
                    repr(float(row.hi_syn)),
                ]
            )
