"""Proportion estimates, multiple-synthesis combining rules, and reports.

Proportions are binomial: a cell involving any individual-level variable is
estimated over individuals (with household values attached to each member),
a cell of household-level variables over households, and a household query
over households passing its size restriction.  The within estimate variance
is q(1 - q)/denominator throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .data import HOUSEHOLD, Dataset, Schema, write_csv
from .tquantile import t_quantile


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
    """A named household-level predicate, optionally size-restricted.

    The predicate maps a Dataset to an (n_households,) boolean mask.
    """

    name: str
    predicate: Callable[[Dataset], np.ndarray]
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
        sizes = dataset.sizes
        pool = np.ones(len(sizes), dtype=bool) if query.size is None else sizes == query.size
        n_pool = int(np.count_nonzero(pool))
        if not n_pool:
            raise ValueError(f"query {query.name!r}: no households after size restriction")
        return _proportion(np.count_nonzero(query.predicate(dataset) & pool), n_pool)
    counts, denom = _cell_counts(dataset, query.variables)
    return _proportion(counts[query.codes], denom)


def _proportion(count: int, denom: int) -> tuple[float, float]:
    q = float(count) / denom
    return q, q * (1.0 - q) / denom


def _cell_counts(dataset: Dataset, variables: tuple[str, ...]) -> tuple[np.ndarray, int]:
    """Count every cell of the variables' joint table in one pass.

    Returns the counts, shaped by the variables' cardinalities, and the
    denominator: households when every variable is household level,
    otherwise individuals, with household values attached to each member.
    """
    schema = dataset.schema
    view = dataset.to_view()  # is dataset; kept because the benchmark times it as data.to_view
    levels = [schema.index_of(name) for name in variables]
    household_only = all(level == HOUSEHOLD for level, _ in levels)
    columns = []
    for level, idx in levels:
        if level != HOUSEHOLD:
            columns.append(view.mem_codes[:, idx])
        elif household_only:
            columns.append(view.hh_codes[:, idx])
        else:
            columns.append(view.hh_codes[view.mem_hh, idx])
    dims = tuple(schema.variable(name).cardinality for name in variables)
    counts = np.bincount(np.ravel_multi_index(columns, dims), minlength=math.prod(dims))
    return counts.reshape(dims), view.n_households if household_only else view.n_individuals


def combine(
    points: list[float], withins: list[float], gamma: float = 0.95
) -> CombinedEstimate:
    """Pool per-replicate estimates into one interval.

    Uses the average of within variances plus between variance over L; the
    t reference has (L-1)(1 + L*ubar/b)^2 degrees of freedom.  When the
    replicate estimates are identical (zero between variance) the interval
    degenerates to a normal one; a zero total variance is an error.
    """
    qbar, ubar, b, total, df = _pool(points, withins)
    half = float(t_quantile((1.0 + gamma) / 2.0, [df])[0]) * math.sqrt(total)
    return CombinedEstimate(
        point=qbar,
        within_var=ubar,
        between_var=b,
        total_var=total,
        df=df,
        lo=qbar - half,
        hi=qbar + half,
        n_replicates=len(points),
    )


def _pool(points: list[float], withins: list[float]) -> tuple[float, float, float, float, float]:
    """(q-bar, u-bar, b, total variance, df) of combine's rules."""
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
        df = math.inf
    if total <= 0.0:
        raise ValueError("all replicate estimates and within variances are zero")
    return qbar, ubar, b, total, df


# ---------------------------------------------------------------------------
# household predicate vocabulary


def all_members_equal(schema: Schema, variable: str) -> Callable[[Dataset], np.ndarray]:
    idx = _individual_index(schema, variable)

    def pred(dataset: Dataset) -> np.ndarray:
        codes = dataset.mem_codes[:, idx]
        start = dataset.hh_start
        return np.logical_and.reduceat(codes == codes[start][dataset.mem_hh], start)

    return pred


def exists_member(schema: Schema, **codes: int) -> Callable[[Dataset], np.ndarray]:
    """A member carrying every given variable=code (0-based) at once."""
    idx_codes = [(_individual_index(schema, name), code) for name, code in codes.items()]

    def pred(dataset: Dataset) -> np.ndarray:
        match = np.ones(dataset.n_individuals, dtype=bool)
        for idx, code in idx_codes:
            match &= dataset.mem_codes[:, idx] == code
        return np.logical_or.reduceat(match, dataset.hh_start)

    return pred


def member_count(
    schema: Schema,
    variable: str,
    code: int,
    min_count: int = 0,
    max_count: int | None = None,
) -> Callable[[Dataset], np.ndarray]:
    idx = _individual_index(schema, variable)

    def pred(dataset: Dataset) -> np.ndarray:
        count = np.add.reduceat(dataset.mem_codes[:, idx] == code, dataset.hh_start, dtype=np.int64)
        return (count >= min_count) & (max_count is None or count <= max_count)

    return pred


def household_value(schema: Schema, variable: str, code: int) -> Callable[[Dataset], np.ndarray]:
    level, idx = schema.index_of(variable)
    if level != HOUSEHOLD:
        raise ValueError(f"{variable!r} is not a household variable")
    return lambda dataset: dataset.hh_codes[:, idx] == code


def q_all(*preds: Callable) -> Callable[[Dataset], np.ndarray]:
    return lambda dataset: np.logical_and.reduce([p(dataset) for p in preds])


def _individual_index(schema: Schema, variable: str) -> int:
    level, idx = schema.index_of(variable)
    if level == HOUSEHOLD:
        raise ValueError(f"{variable!r} is not an individual variable")
    return idx


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


def cell_report(
    original: Dataset,
    replicates: list[Dataset],
    max_order: int = 2,
    min_expected: float = 10.0,
    population: Dataset | None = None,
) -> list[tuple]:
    """report_rows' estimates of the marginal cells of order 1..max_order.

    Cells are kept only when the original's expected count reaches
    min_expected; pass 0 to report everything.  Each variable combination is
    counted once per dataset; cells follow itertools.product order.  This and
    household_report keep their names because the benchmark's tracer binds them.
    """
    schema = original.schema
    variables = schema.household_vars + schema.individual_vars
    cells = []
    for order in range(1, max_order + 1):
        for combo in itertools.combinations(variables, order):
            names = tuple(v.name for v in combo)
            (counts, denom), *rep_counts = [_cell_counts(d, names) for d in [original, *replicates]]
            pop_counts = None if population is None else _cell_counts(population, names)
            for codes in itertools.product(*(range(v.cardinality) for v in combo)):
                q_orig, u_orig = _proportion(counts[codes], denom)
                if q_orig * denom < min_expected:
                    continue
                truth = None
                if pop_counts is not None:
                    truth = _proportion(pop_counts[0][codes], pop_counts[1])[0]
                synthetic = [_proportion(c[codes], n) for c, n in rep_counts]
                label = " & ".join(f"{v}={c + 1}" for v, c in zip(names, codes))  # 1-based
                cells.append((label, truth, (q_orig, u_orig), synthetic))
    return cells


def household_report(
    original: Dataset,
    replicates: list[Dataset],
    queries: list[HouseholdQuery],
    population: Dataset | None = None,
) -> list[tuple]:
    """report_rows' estimates of the queries; named as cell_report says."""
    estimates = []
    for query in queries:
        truth = None if population is None else estimate_proportion(population, query)[0]
        synthetic = [estimate_proportion(rep, query) for rep in replicates]
        estimates.append((query.name, truth, estimate_proportion(original, query), synthetic))
    return estimates


def report_rows(estimates: list[tuple], gamma: float) -> list[ReportRow]:
    """Report rows from (label, truth, the original's (estimate, variance), each
    replicate's (estimate, variance)): a normal interval for the original, combine's
    for the replicates.  One quantile call, which computes each row on its own,
    serves every interval of evaluate's reports."""
    pooled = []
    for *_, synthetic in estimates:
        try:
            pooled.append(_pool([q for q, _ in synthetic], [u for _, u in synthetic]))
        except ValueError:  # one replicate, or a degenerate all-zero cell
            pooled.append(None)
    z, *t = t_quantile((1.0 + gamma) / 2.0, [math.inf] + [p[4] for p in pooled if p]).tolist()
    t = iter(t)
    rows = []
    for (label, truth, (q_orig, u_orig), synthetic), pool in zip(estimates, pooled):
        half = z * math.sqrt(max(u_orig, 0.0))
        if pool is None:  # the point with an empty interval
            q_syn = lo_s = hi_s = float(np.mean([q for q, _ in synthetic]))
        else:
            q_syn, total = pool[0], pool[3]
            half_syn = next(t) * math.sqrt(total)
            lo_s, hi_s = q_syn - half_syn, q_syn + half_syn
        lo_o, hi_o = q_orig - half, q_orig + half
        rows.append(ReportRow(label, truth, q_orig, lo_o, hi_o, q_syn, lo_s, hi_s))
    return rows


def write_report_csv(rows: list[ReportRow], path: str | Path) -> None:
    write_csv(path, [f.name for f in fields(ReportRow)], (vars(row).values() for row in rows))
