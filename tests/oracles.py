"""Reference forms of code the library runs on arrays or shares.

The tests compare the library against these: a dataset's households as
HouseholdRecord tuples, cell and household-query proportions counted one
household at a time, the normal interval of one row, 200-bit t and normal
quantiles (tests/data/t_quantile_ref.json, written by
tests/make_t_quantile_ref.py) with exact ulp errors, the household
predicates written per record, the feasibility of one household (by the
library and by trying every injective assignment of a forbid rule's groups
to members), one household's marginal likelihood, the
infeasible mass of a household size over the whole composition space and by
simulation, the class logits and candidate likelihoods each caller once built for itself, the
class draws made one household or member at a time, and the draws of
households and parameters made one variable or one kernel per random call.  build_support_household is the one-household form of the
library's batched support builder, which the risk tests call: its candidate
arrays as a TargetSupport, which the library builds for one-person targets
only.  one_variable_posterior is the exact candidate posterior of one person
in a one-class, one-variable model, a product of Dirichlet-multinomials.
record_to_jsonable is a checkpoint record as nested lists: json.dumps of it
is the line the checkpoint writer writes.
"""

import itertools
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

from hhsynth.checkpoints import params_to_jsonable, select_records
from hhsynth.constraints import (
    ExactlyOneOfRole,
    MinValueForRole,
    PairwiseOrderByRole,
    check_batch,
)
from hhsynth.data import HOUSEHOLD, DatasetView, HouseholdRecord
from hhsynth.inference import CellQuery, HouseholdQuery, ReportRow, combine
from hhsynth.model import (
    LOG_FLOOR,
    Params,
    dataset_loglik,
    logsumexp,
    size_class_probs,
    stick_break,
)
from hhsynth.risk import TargetSupport, _supports
from hhsynth.tquantile import t_quantile
from hhsynth.truncated import AugmentedBatch, CapExceededError


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


def normal_interval(q, u, gamma=0.95) -> tuple[float, float]:
    """Single-dataset normal interval around a proportion, one row at a time."""
    half = float(t_quantile((1.0 + gamma) / 2.0, [math.inf])[0]) * math.sqrt(max(u, 0.0))
    return q - half, q + half


T_QUANTILES = json.loads((Path(__file__).parent / "data" / "t_quantile_ref.json").read_text())


def reference_t(df: float, gamma: float) -> str:
    """The reference t quantile at p = (1 + gamma) / 2, as a decimal string."""
    return next(t for rows in (T_QUANTILES["grid"], T_QUANTILES["tails"])
                for d, g, t in rows if (d, g) == (df, gamma))


def reference_normal(gamma: float) -> str:
    return next(z for g, z in T_QUANTILES["normal"] if g == gamma)


def ulp_error(x: float, reference: str) -> float:
    """|x - reference| in units in the last place of the double nearest the
    reference, computed exactly."""
    exact = Fraction(Decimal(reference))
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact))))


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


def feasible_by_brute_force(rules, record: HouseholdRecord) -> bool:
    """Feasibility of one household record, one rule at a time: a forbid
    rule's groups are tried on every injective assignment to members."""
    members = record.members
    for rule in rules.rules:
        if isinstance(rule, ExactlyOneOfRole):
            if sum(1 for m in members if m[rule.var_index] == rule.code) != 1:
                return False
        elif isinstance(rule, MinValueForRole):
            if any(m[rule.role_index] == rule.role_code and m[rule.value_index] < rule.min_code
                   for m in members):
                return False
        elif isinstance(rule, PairwiseOrderByRole):
            lows = [m[rule.order_index] for m in members if m[rule.role_index] == rule.low_code]
            highs = [m[rule.order_index] for m in members if m[rule.role_index] == rule.high_code]
            if any(lo + rule.min_gap > hi for lo in lows for hi in highs):
                return False
        else:  # ForbiddenCombination: some member per group, no member twice
            hh_holds = all(record.hh_values[k] == code for k, code in rule.hh_literals)
            witnessed = any(
                all(members[j][k] == code for j, pattern in zip(chosen, rule.member_patterns)
                    for k, code in pattern)
                for chosen in itertools.permutations(range(len(members)), len(rule.member_patterns))
            )
            if hh_holds and witnessed:
                return False
    return True


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


# ---------------------------------------------------------------------------
# the infeasible mass of one household size


def infeasible_mass_full(params, schema, rules, h):
    """pi0_h over the whole size-h composition space: every household variable
    but the size (pinned to h) and every variable of every member, each cell's
    probability from the household-class logits."""
    q, p = len(schema.household_vars), len(schema.individual_vars)
    dims = [v.cardinality for v in schema.household_vars]
    dims[schema.size_index] = 1
    dims += [v.cardinality for v in schema.individual_vars] * h
    cells = np.array(list(itertools.product(*map(range, dims))), dtype=np.int64)
    hh = cells[:, :q] + np.eye(q, dtype=np.int64)[schema.size_index] * (h - 1)
    mem = cells[:, q:].reshape(len(cells), h, p)
    view = DatasetView.from_arrays(hh, mem.reshape(-1, p), np.full(len(cells), h))
    probs = np.exp(household_class_logits(params, view)).sum(axis=0)
    return float(probs[~check_batch(rules, hh, mem)].sum()) / float(probs.sum())


def infeasible_mass_monte_carlo(params, schema, rules, h, n_draws, rng):
    """(pi0_h, its binomial standard error) from n_draws households generated at size h."""
    classes = rng.choice(params.n_hh_classes, size=n_draws, p=size_class_probs(params, schema, h))
    hh, mem, _, _ = draw_households(params, schema, classes, rng, sizes=np.full(n_draws, h))
    frac = 1.0 - check_batch(rules, hh, mem.reshape(n_draws, h, -1)).mean()
    return float(frac), float(np.sqrt(max(frac * (1.0 - frac), LOG_FLOOR) / n_draws))


# ---------------------------------------------------------------------------
# class logits and candidate likelihoods, each built by its own caller


def _log(x):
    return np.log(np.maximum(x, LOG_FLOOR))


def member_kernel_table(params, mem_codes):
    """log p(member values | g, m), member weights left out: (F, S, N)."""
    out = np.zeros((params.n_hh_classes, params.n_mem_classes, mem_codes.shape[0]))
    for k, kernel in enumerate(params.mem_kernels):
        out += _log(kernel)[:, :, mem_codes[:, k]]
    return out


def household_class_logits(params, view):
    """The household-class draw's logits, as the class update built them: (F, n)."""
    ml = member_kernel_table(params, view.mem_codes)
    mixed = logsumexp(ml + _log(params.mem_weights)[:, :, None], axis=1)
    logw = np.zeros((params.n_hh_classes, view.n_households))
    for k, kernel in enumerate(params.hh_kernels):
        logw += _log(kernel)[:, view.hh_codes[:, k]]
    logw += np.add.reduceat(mixed, view.hh_start, axis=1)
    logw += _log(params.hh_weights)[:, None]
    return logw


def member_class_logits(params, view, hh_class):
    """The member-class draw's logits given household classes: (N, S)."""
    ml = member_kernel_table(params, view.mem_codes)
    g = hh_class[view.mem_hh]
    return ml[g, :, np.arange(view.n_individuals)] + _log(params.mem_weights)[g]


def categorical_from_logits(logits, rng):
    """One draw per row of (B, K) log weights, one uniform per row, each row
    on its own: the count of its cumulative max-shifted weights below
    (1 - u) times their total."""
    out = np.empty(logits.shape[0], dtype=np.int64)
    for r, u in enumerate(rng.random(logits.shape[0])):
        cum = np.cumsum(np.exp(logits[r] - logits[r].max()))
        out[r] = np.count_nonzero(cum < (1.0 - u) * cum[-1])
    return out


def sample_household_classes(params, view, rng):
    return categorical_from_logits(household_class_logits(params, view).T, rng)


def sample_member_classes(params, view, hh_class, rng):
    return categorical_from_logits(member_class_logits(params, view, hh_class), rng)


def candidate_logliks(support, params):
    """log likelihood of every candidate under one draw, one view per call: (C,)."""
    C, h, _ = support.mem_values.shape
    sizes = np.full(C, h, dtype=np.int64)
    mem = support.mem_values.reshape(C * h, -1)
    view = DatasetView.from_arrays(support.hh_values, mem, sizes)
    return logsumexp(household_class_logits(params, view), axis=0)


def importance_weights(support, params_draws):
    """Self-normalized weights, scoring one (target, draw) pair at a time: (R, C)."""
    cand = np.stack([candidate_logliks(support, params) for params in params_draws])
    log_ratio = cand - cand[:, [support.truth_index]]
    peak = np.maximum(log_ratio.max(axis=0, keepdims=True), 0.0)
    ratios = np.exp(log_ratio - peak)
    return ratios / ratios.sum(axis=0, keepdims=True)


def build_support_household(schema, hh_values, members, held_fixed=(), rules=None):
    """One household's candidate support, from the library's batched builder."""
    hh_values = np.asarray(hh_values, dtype=np.int64)[None]
    members = np.asarray(members, dtype=np.int64)[None]
    fixed = (*held_fixed, schema.size_var.name)
    return TargetSupport(*_supports(schema, hh_values, members, fixed, rules)[:2])


def posterior(support, weights, log_p):
    """(rank of truth, truth probability, top probability) of one target from
    its (R, C) weights, with 1-D sums over its candidates."""
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    per_rep = logsumexp(log_p[:, :, None] + log_weights[:, None, :], axis=0)  # (L, C)
    scores = per_rep.sum(axis=0)
    rho = np.exp(scores - logsumexp(scores))
    rho = rho / rho.sum()
    order = np.argsort(-rho, kind="stable")
    rank = int(np.flatnonzero(order == support.truth_index)[0]) + 1
    return rank, float(rho[support.truth_index]), float(rho[order[0]])


def one_variable_posterior(others, candidates, replicates, K):
    """The exact candidate posterior of one person's value when every household
    has one member, each level one class, and the one individual variable of K
    categories a uniform prior, with the size held fixed.

    others holds the other persons' codes, candidates the codes the target may
    take and replicates each replicate's codes.  The persons' codes are then
    draws from one Dirichlet-distributed categorical, and each replicate comes
    from its own posterior draw, so rho(y) is proportional to the product over
    replicates of DirMult(z_l | 1 + counts(others) + e_y).
    """
    prior = 1.0 + np.bincount(others, minlength=K)
    logs = []
    for y in candidates:
        alpha = prior.copy()
        alpha[y] += 1.0
        log_rho = 0.0
        for z in replicates:
            counts = np.bincount(z, minlength=K)
            log_rho += math.lgamma(alpha.sum()) - math.lgamma(alpha.sum() + counts.sum())
            log_rho += sum(math.lgamma(a + c) - math.lgamma(a) for a, c in zip(alpha, counts))
        logs.append(log_rho)
    rho = np.exp(np.array(logs) - max(logs))
    return rho / rho.sum()

# ---------------------------------------------------------------------------
# one random call per variable, kernel or stick set


def rows_categorical(probs, rng):
    """One categorical draw per row of a (B, d) array, from its own cumsum."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0]) * cdf[:, -1]
    return np.minimum((u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1).astype(np.int64)


def draw_households(params, schema, hh_class, rng, sizes=None):
    """Household generation with one rows_categorical call per variable."""
    B = hh_class.shape[0]
    q = len(schema.household_vars)
    hh_codes = np.zeros((B, q), dtype=np.int64)
    for k in range(q):
        if sizes is not None and k == schema.size_index:
            hh_codes[:, k] = np.asarray(sizes) - 1
        else:
            hh_codes[:, k] = rows_categorical(params.hh_kernels[k][hh_class], rng)
    out_sizes = hh_codes[:, schema.size_index] + 1
    mem_hh = np.repeat(np.arange(B), out_sizes)
    mem_class = rows_categorical(params.mem_weights[hh_class][mem_hh], rng)
    p = len(schema.individual_vars)
    mem_codes = np.zeros((mem_hh.shape[0], p), dtype=np.int64)
    for k in range(p):
        mem_codes[:, k] = rows_categorical(
            params.mem_kernels[k][hh_class[mem_hh], mem_class], rng
        )
    return hh_codes, mem_codes, out_sizes.astype(np.int64), mem_class


def generate_augmented(params, schema, rules, histogram, rng, cap):
    """Rejection generation keeping every batch and selecting with masks."""
    p = len(schema.individual_vars)
    feasible, infeasible = [], []  # per size: (hh codes, member codes, sizes)
    hh_class, mem_class = [], []
    drawn_total = 0
    for h in sorted(histogram):
        target = histogram[h]
        try:
            class_probs = size_class_probs(params, schema, h)
        except ValueError as exc:
            raise CapExceededError(f"{exc}; candidate generation cannot terminate") from None
        cdf = np.cumsum(class_probs)
        hh_parts, mem_parts, class_parts, mem_class_parts, mask_parts = [], [], [], [], []
        n_feasible = 0
        n_drawn_h = 0
        while n_feasible < target:
            accept = (n_feasible + 1.0) / (n_drawn_h + 2.0)
            batch = int(np.clip(np.ceil(1.5 * (target - n_feasible) / accept), 64, 1 << 22))
            drawn_total += batch
            if drawn_total > cap:
                raise CapExceededError(
                    f"generated more than {cap} candidate households in one sweep"
                )
            classes = np.searchsorted(cdf, rng.random(batch) * cdf[-1]).astype(np.int64)
            classes = np.minimum(classes, len(cdf) - 1)
            hh, mem, _, mem_class_b = draw_households(
                params, schema, classes, rng, sizes=np.full(batch, h)
            )
            mask = check_batch(rules, hh, mem.reshape(batch, h, p))
            hh_parts.append(hh)
            mem_parts.append(mem)
            class_parts.append(classes)
            mem_class_parts.append(mem_class_b)
            mask_parts.append(mask)
            n_feasible += int(mask.sum())
            n_drawn_h += batch
        hh_all = np.concatenate(hh_parts, axis=0)
        mem_all = np.concatenate(mem_parts, axis=0).reshape(-1, h, p)
        class_all = np.concatenate(class_parts)
        mem_class_all = np.concatenate(mem_class_parts).reshape(-1, h)
        mask_all = np.concatenate(mask_parts)
        cut = int(np.searchsorted(np.cumsum(mask_all), target))
        keep = slice(0, cut + 1)
        mask_kept = mask_all[keep]
        for out, rows in ((feasible, mask_kept), (infeasible, ~mask_kept)):
            out.append((
                hh_all[keep][rows],
                mem_all[keep][rows].reshape(-1, p),
                np.full(int(rows.sum()), h, dtype=np.int64),
            ))
        hh_class.append(class_all[keep][~mask_kept])
        mem_class.append(mem_class_all[keep][~mask_kept].reshape(-1))

    def view(parts):
        return DatasetView.from_arrays(*(np.concatenate(a) for a in zip(*parts)))

    return AugmentedBatch(
        feasible=view(feasible),
        infeasible=view(infeasible),
        infeasible_hh_class=np.concatenate(hh_class),
        infeasible_mem_class=np.concatenate(mem_class),
    )


def record_to_jsonable(record) -> dict:
    """A CheckpointRecord as the dict of lists whose json.dumps is its line."""
    doc = {
        "iteration": record.iteration,
        "params": params_to_jsonable(record.params),
        "hh_class": record.hh_class.tolist(),
        "mem_class": record.mem_class.tolist(),
    }
    if record.feasible is not None:
        doc["feasible"] = {
            "hh_codes": record.feasible.hh_codes.tolist(),
            "mem_codes": record.feasible.mem_codes.tolist(),
            "sizes": record.feasible.sizes.tolist(),
        }
    return doc


def synthesize_untruncated(dataset, records, n_replicates, seed):
    """The replicates' arrays, one rows_categorical call per variable."""
    from hhsynth.rng import substream

    schema = dataset.schema
    view = dataset.to_view()
    out = []
    for l, record in enumerate(select_records(records, n_replicates)):
        rng = substream(seed, "synthesize", l)
        g = record.hh_class
        hh_codes = np.zeros_like(view.hh_codes)
        for k in range(len(schema.household_vars)):
            if k == schema.size_index:
                hh_codes[:, k] = view.hh_codes[:, k]
            else:
                hh_codes[:, k] = rows_categorical(record.params.hh_kernels[k][g], rng)
        mem_codes = np.zeros_like(view.mem_codes)
        for k in range(len(schema.individual_vars)):
            mem_codes[:, k] = rows_categorical(
                record.params.mem_kernels[k][g[view.mem_hh], record.mem_class], rng
            )
        out.append((hh_codes, mem_codes))
    return out


def dirichlet_rows(weights, rng):
    draws = rng.gamma(shape=weights)
    draws = np.maximum(draws, LOG_FLOOR)
    return draws / draws.sum(axis=-1, keepdims=True)


def prior_draw(hyper, rng):
    """The prior draw with one gamma call per kernel."""
    F, S = hyper.n_hh_classes, hyper.n_mem_classes
    hh_conc = rng.gamma(hyper.hh_conc_shape, 1.0 / hyper.hh_conc_rate)
    mem_conc = float(rng.gamma(hyper.mem_conc_shape, 1.0 / hyper.mem_conc_rate))
    hh_sticks = np.ones(F)
    if F > 1:
        hh_sticks[:-1] = rng.beta(1.0, hh_conc, size=F - 1)
    mem_sticks = np.ones((F, S))
    if S > 1:
        mem_sticks[:, :-1] = rng.beta(1.0, mem_conc, size=(F, S - 1))
    hh_kernels = [
        dirichlet_rows(np.broadcast_to(w, (F, len(w))), rng) for w in hyper.hh_kernel_prior
    ]
    mem_kernels = [
        dirichlet_rows(np.broadcast_to(w, (F, S, len(w))), rng) for w in hyper.mem_kernel_prior
    ]
    return Params(
        hh_sticks=hh_sticks,
        hh_weights=stick_break(hh_sticks),
        mem_sticks=mem_sticks,
        mem_weights=stick_break(mem_sticks),
        hh_kernels=hh_kernels,
        mem_kernels=mem_kernels,
        hh_conc=float(hh_conc),
        mem_conc=mem_conc,
    )


def gamma_log_draws(shape, rng):
    shape = np.asarray(shape, dtype=float)
    boost = rng.gamma(shape + 1.0)
    u = 1.0 - rng.random(size=shape.shape)
    return np.log(boost) + np.log(u) / shape


def _sticks(counts, conc, rng):
    """Stick draws along the last axis of counts: a gamma call for the kept
    shapes, then one for the boosted rest, then the uniforms."""
    greater = np.flip(np.flip(counts, -1).cumsum(axis=-1), -1) - counts
    log_kept = np.log(rng.gamma(1.0 + counts[..., :-1]))
    log_rest = gamma_log_draws(conc + greater[..., :-1], rng)
    log_total = np.logaddexp(log_kept, log_rest)
    sticks = np.ones(counts.shape)
    sticks[..., :-1] = np.exp(log_kept - log_total)
    return sticks, log_rest - log_total


def resample_parameters(params, hyper, rng, hh_class, hh_codes, mem_hh_class, mem_class,
                        mem_codes):
    """The parameter update with separate stick gamma calls and one gamma call per kernel."""
    F, S = hyper.n_hh_classes, hyper.n_mem_classes
    hh_counts = np.bincount(hh_class, minlength=F)
    pair_counts = np.bincount(mem_hh_class * S + mem_class, minlength=F * S).reshape(F, S)
    if F > 1:
        hh_sticks, hh_log1m = _sticks(hh_counts, params.hh_conc, rng)
    else:
        hh_sticks, hh_log1m = np.ones(F), np.zeros(0)
    if S > 1:
        mem_sticks, mem_log1m = _sticks(pair_counts, params.mem_conc, rng)
    else:
        mem_sticks, mem_log1m = np.ones((F, S)), np.zeros((F, 0))
    hh_dims = [w.shape[0] for w in hyper.hh_kernel_prior]
    mem_dims = [w.shape[0] for w in hyper.mem_kernel_prior]
    hh_counts_k = [np.zeros((F, d)) for d in hh_dims]
    for k, counts in enumerate(hh_counts_k):
        np.add.at(counts, (hh_class, hh_codes[:, k]), 1)
    mem_counts_k = [np.zeros((F, S, d)) for d in mem_dims]
    for k, counts in enumerate(mem_counts_k):
        np.add.at(counts, (mem_hh_class, mem_class, mem_codes[:, k]), 1)
    hh_kernels = [dirichlet_rows(w + c, rng) for w, c in zip(hyper.hh_kernel_prior, hh_counts_k)]
    mem_kernels = [
        dirichlet_rows(w + c, rng) for w, c in zip(hyper.mem_kernel_prior, mem_counts_k)
    ]
    # each concentration: gamma(shape + free sticks, rate - sum of log(1 - stick))
    hh_rate = hyper.hh_conc_rate - float(hh_log1m.sum())
    hh_conc = float(rng.gamma(hyper.hh_conc_shape + hh_log1m.size, 1.0 / hh_rate))
    mem_rate = hyper.mem_conc_rate - float(mem_log1m.sum())
    mem_conc = float(rng.gamma(hyper.mem_conc_shape + mem_log1m.size, 1.0 / mem_rate))
    return Params(
        hh_sticks=hh_sticks,
        hh_weights=stick_break(hh_sticks),
        mem_sticks=mem_sticks,
        mem_weights=stick_break(mem_sticks),
        hh_kernels=hh_kernels,
        mem_kernels=mem_kernels,
        hh_conc=hh_conc,
        mem_conc=mem_conc,
    )
