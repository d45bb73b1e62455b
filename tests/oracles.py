"""Record-at-a-time reference forms of code the library runs on arrays.

The tests compare the library against these: a dataset's households as
HouseholdRecord tuples, cell and household-query proportions counted one
household at a time, the household predicates written per record, the
feasibility of one household, and one household's marginal likelihood.
"""

import itertools

import numpy as np

from hhsynth.constraints import check_batch
from hhsynth.data import HOUSEHOLD, DatasetView, HouseholdRecord
from hhsynth.inference import CellQuery, HouseholdQuery, ReportRow, combine, normal_interval
from hhsynth.model import dataset_loglik


def records_of(dataset) -> list[HouseholdRecord]:
    """The dataset's households as records, in order."""
    view = dataset.to_view()
    members = np.split(view.mem_codes, view.hh_start[1:])
    return [
        HouseholdRecord(hid, tuple(hh), tuple(map(tuple, rows.tolist())))
        for hid, hh, rows in zip(dataset.ids, view.hh_codes.tolist(), members)
    ]


# ---------------------------------------------------------------------------
# proportions and reports


def estimate_proportion(dataset, query) -> tuple[float, float]:
    """(proportion, within variance); a HouseholdQuery here takes a record predicate."""
    records = records_of(dataset)
    if isinstance(query, HouseholdQuery):
        pool = [r for r in records if query.size is None or r.size == query.size]
        if not pool:
            raise ValueError(f"query {query.name!r}: no households after size restriction")
        q = sum(1 for r in pool if query.predicate(r)) / len(pool)
        return q, q * (1.0 - q) / len(pool)

    schema = dataset.schema
    levels = [schema.index_of(name) for name in query.variables]

    def matches(hh_values, member=None) -> bool:
        return all(
            (hh_values if level == HOUSEHOLD else member)[idx] == code
            for (level, idx), code in zip(levels, query.codes)
        )

    if all(level == HOUSEHOLD for level, _ in levels):
        count = sum(1 for r in records if matches(r.hh_values))
        denom = len(records)
    else:
        count = sum(1 for r in records for m in r.members if matches(r.hh_values, m))
        denom = sum(r.size for r in records)
    q = float(count) / denom
    return q, q * (1.0 - q) / denom


def report_row(label, query, original, replicates, gamma=0.95, population=None) -> ReportRow:
    q_orig, u_orig = estimate_proportion(original, query)
    lo_o, hi_o = normal_interval(q_orig, u_orig, gamma)
    points, withins = zip(*(estimate_proportion(rep, query) for rep in replicates))
    try:
        combined = combine(list(points), list(withins), gamma)
        q_syn, lo_s, hi_s = combined.point, combined.lo, combined.hi
    except ValueError:
        q_syn = float(np.mean(points))
        lo_s = hi_s = q_syn
    truth = None if population is None else estimate_proportion(population, query)[0]
    return ReportRow(label, truth, q_orig, lo_o, hi_o, q_syn, lo_s, hi_s)


def cell_report(original, replicates, max_order=2, min_expected=10.0, gamma=0.95,
                population=None) -> list[ReportRow]:
    """One query per cell, in combinations-then-product order."""
    schema = original.schema
    variables = schema.household_vars + schema.individual_vars
    rows = []
    for order in range(1, max_order + 1):
        for combo in itertools.combinations(variables, order):
            for codes in itertools.product(*(range(v.cardinality) for v in combo)):
                query = CellQuery(tuple(v.name for v in combo), codes)
                q_orig, _ = estimate_proportion(original, query)
                if all(v.level == HOUSEHOLD for v in combo):
                    denom = original.n_households
                else:
                    denom = original.n_individuals
                if q_orig * denom < min_expected:
                    continue
                label = " & ".join(f"{v.name}={c + 1}" for v, c in zip(combo, codes))
                rows.append(report_row(label, query, original, replicates, gamma, population))
    return rows


# ---------------------------------------------------------------------------
# household predicates on one record


def all_members_equal(schema, variable):
    _, idx = schema.index_of(variable)
    return lambda r: len({m[idx] for m in r.members}) == 1


def exists_member(schema, **codes):
    idx_codes = [(schema.index_of(name)[1], code) for name, code in codes.items()]
    return lambda r: any(all(m[i] == c for i, c in idx_codes) for m in r.members)


def member_count(schema, variable, code, min_count=0, max_count=None):
    _, idx = schema.index_of(variable)

    def pred(r):
        count = sum(1 for m in r.members if m[idx] == code)
        return count >= min_count and (max_count is None or count <= max_count)

    return pred


def household_value(schema, variable, code):
    _, idx = schema.index_of(variable)
    return lambda r: r.hh_values[idx] == code


def q_all(*preds):
    return lambda r: all(p(r) for p in preds)


def q_any(*preds):
    return lambda r: any(p(r) for p in preds)


def q_not(pred):
    return lambda r: not pred(r)


def record_query(schema, spec: dict, top: bool = True):
    """The record form of a config household query (same keys as the CLI's)."""
    kind = spec["kind"]
    if kind == "all_equal":
        pred = all_members_equal(schema, spec["variable"])
    elif kind == "exists":
        pred = exists_member(schema, **{k: int(v) - 1 for k, v in spec["literals"].items()})
    elif kind == "count":
        pred = member_count(
            schema, spec["variable"], int(spec["code"]) - 1,
            min_count=int(spec.get("min", 0)),
            max_count=int(spec["max"]) if "max" in spec else None,
        )
    elif kind == "hh_value":
        pred = household_value(schema, spec["variable"], int(spec["code"]) - 1)
    else:
        pred = q_all(*(record_query(schema, sub, top=False) for sub in spec["of"]))
    if not top:
        return pred
    return HouseholdQuery(spec.get("name", kind), pred, spec.get("size"))


# ---------------------------------------------------------------------------
# one household at a time


def check_household(rules, record: HouseholdRecord) -> bool:
    """Feasibility of a single household record."""
    hh = np.asarray(record.hh_values, dtype=np.int64)[None, :]
    mem = np.asarray(record.members, dtype=np.int64)[None, :, :]
    return bool(check_batch(rules, hh, mem)[0])


def household_likelihood(record: HouseholdRecord, params) -> float:
    """Marginal log probability of one household (all kernels, both class levels)."""
    view = DatasetView.from_arrays(
        hh_codes=np.asarray(record.hh_values, dtype=np.int64)[None, :],
        mem_codes=np.asarray(record.members, dtype=np.int64),
        sizes=np.asarray([record.size]),
    )
    return dataset_loglik(params, view)


def value_probability(params, var_index: int, code: int) -> float:
    """Marginal probability of one individual-level code under the mixture."""
    kernel = params.mem_kernels[var_index]
    per_class = (kernel[:, :, code] * params.mem_weights).sum(axis=1)
    return float((params.hh_weights * per_class).sum())
