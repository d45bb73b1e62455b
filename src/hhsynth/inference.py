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
        sizes = dataset.to_view().sizes
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
    view = dataset.to_view()
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


def all_members_equal(schema: Schema, variable: str) -> Callable[[Dataset], np.ndarray]:
    idx = _individual_index(schema, variable)

    def pred(dataset: Dataset) -> np.ndarray:
        view = dataset.to_view()
        codes = view.mem_codes[:, idx]
        return np.logical_and.reduceat(codes == codes[view.hh_start][view.mem_hh], view.hh_start)

    return pred


def exists_member(schema: Schema, **codes: int) -> Callable[[Dataset], np.ndarray]:
    """A member carrying every given variable=code (0-based) at once."""
    idx_codes = [(_individual_index(schema, name), code) for name, code in codes.items()]

    def pred(dataset: Dataset) -> np.ndarray:
        view = dataset.to_view()
        match = np.ones(view.n_individuals, dtype=bool)
        for idx, code in idx_codes:
            match &= view.mem_codes[:, idx] == code
        return np.logical_or.reduceat(match, view.hh_start)

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
        view = dataset.to_view()
        count = np.add.reduceat(view.mem_codes[:, idx] == code, view.hh_start, dtype=np.int64)
        return (count >= min_count) & (max_count is None or count <= max_count)

    return pred


def household_value(schema: Schema, variable: str, code: int) -> Callable[[Dataset], np.ndarray]:
    level, idx = schema.index_of(variable)
    if level != HOUSEHOLD:
        raise ValueError(f"{variable!r} is not a household variable")
    return lambda dataset: dataset.to_view().hh_codes[:, idx] == code


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
    gamma: float = 0.95,
    population: Dataset | None = None,
) -> list[ReportRow]:
    """Marginal cells of order 1..max_order, original versus combined synthetic.

    Cells are kept only when the original's expected count reaches
    min_expected; pass 0 to report everything.  Each variable combination is
    counted once per dataset; cells follow itertools.product order.
    """
    schema = original.schema
    variables = schema.household_vars + schema.individual_vars
    rows = []
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
                rows.append(_build_row(label, (q_orig, u_orig), synthetic, truth, gamma))
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
        truth = None if population is None else estimate_proportion(population, query)[0]
        synthetic = [estimate_proportion(rep, query) for rep in replicates]
        row = _build_row(query.name, estimate_proportion(original, query), synthetic, truth, gamma)
        rows.append(row)
    return rows


def _build_row(
    label: str,
    original: tuple[float, float],
    synthetic: list[tuple[float, float]],
    truth: float | None,
    gamma: float,
) -> ReportRow:
    """One report row from the original's and each replicate's (estimate, variance)."""
    q_orig, u_orig = original
    lo_o, hi_o = normal_interval(q_orig, u_orig, gamma)
    points = [q for q, _ in synthetic]
    withins = [u for _, u in synthetic]
    try:
        combined = combine(points, withins, gamma)
        q_syn, lo_s, hi_s = combined.point, combined.lo, combined.hi
    except ValueError:
        # degenerate all-zero cell: report the point with an empty interval
        q_syn = float(np.mean(points))
        lo_s = hi_s = q_syn
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
    write_csv(path, [f.name for f in fields(ReportRow)], (vars(row).values() for row in rows))
