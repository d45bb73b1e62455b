"""Importance-sampling disclosure-risk assessment.

For each target (an individual's full attribute combination, or a whole
household), a candidate support is built around the truth by single-variable
perturbations.  Candidate posteriors are estimated from fitted parameter
draws: self-normalized importance weights move the draws from the posterior
given the released data to the posterior given the data with the target
swapped for each candidate, and each synthetic replicate's likelihood is
averaged under those weights.  For a truncated fit the replicate likelihood
is the truncated one: each size-h household's term is over 1 - pi0_h, the
feasible share of size h under the draw.

Targets are scored in runs of consecutive targets that hold at most RUN_CELLS
cells of working arrays, so the memory a sweep needs does not grow with the
number of targets.  A target's floats do not depend on the other targets of
its run, so every row is the one it would be if scored alone.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import RiskConfig
from .constraints import check_batch
from .data import Dataset, DatasetView, Schema, write_csv
from .model import (
    Params,
    class_posterior_logweights,
    dataset_loglik,
    infeasible_mass,
    logsumexp,
    member_logliks,
)

# A run's budget of cells.  A target of C candidates of h members holds
# C * max(F * h, R * L) of them: its class pass is (F, C * h) for F household
# classes, and its posterior block (R, L, C) for R draws and L replicates.
# Each run also scores its distinct member rows once per draw, so a smaller
# budget costs time where the runs share many rows: with 1,296 possible member
# rows and F = 20, 2**17 cells made a sweep 1.7 times as slow as one run.
RUN_CELLS = 2**18


@dataclass
class TargetSupport:
    """Candidate guesses for one target; the truth sits at truth_index.

    Individual targets: mem_values is (C, p) and each candidate pairs one
    member's values with guessed household values (hh_values, (C, q)).
    Household targets: mem_values is (C, h, p).  The prior over the
    candidates is uniform.
    """

    kind: str
    hh_values: np.ndarray
    mem_values: np.ndarray
    truth_index: int = 0

    @property
    def size(self) -> int:
        """Members of each candidate household."""
        return 1 if self.kind == "individual" else self.mem_values.shape[1]


@dataclass
class RiskResult:
    posterior: np.ndarray  # (C,)
    rank_of_truth: int
    top_probability: float
    truth_probability: float


@dataclass
class RiskRow:
    target_id: str
    n_candidates: int
    rank_of_truth: int
    rho_truth: float
    rho_max: float


@dataclass
class RiskSummary:
    rows: list[RiskRow]

    @property
    def rank_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(r.rank_of_truth for r in self.rows).items()))

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, [f.name for f in fields(RiskRow)], (vars(r).values() for r in self.rows))

    def histogram_to_csv(self, path: str | Path) -> None:
        write_csv(path, ["rank_of_truth", "n_targets"], self.rank_histogram.items())


def _changes(values: np.ndarray, variables, fixed) -> np.ndarray:
    """For each row of values (T, k), copies with one code changed, for each
    variable not named in fixed: variables in order, codes ascending; (T, A, k)."""
    out = [np.empty((len(values), 0, values.shape[1]), dtype=np.int64)]
    for k, var in enumerate(variables):
        if var.name not in fixed:
            out.append(np.repeat(values[:, None], var.cardinality - 1, axis=1))
            alt = np.arange(var.cardinality - 1)
            out[-1][:, :, k] = alt + (alt >= values[:, k, None])
    return np.concatenate(out, axis=1)


def _individual_supports(
    schema: Schema, hh_values: np.ndarray, mem_values: np.ndarray, held_fixed
) -> list[TargetSupport]:
    """build_support_individual for each row of hh_values (T, q) and mem_values (T, p)."""
    hh_alt = _changes(hh_values, schema.household_vars, held_fixed)
    mem_alt = _changes(mem_values, schema.individual_vars, held_fixed)
    hh = np.concatenate(
        [hh_values[:, None], hh_alt, np.repeat(hh_values[:, None], mem_alt.shape[1], axis=1)],
        axis=1,
    )
    mem = np.concatenate(
        [np.repeat(mem_values[:, None], 1 + hh_alt.shape[1], axis=1), mem_alt], axis=1
    )
    return [TargetSupport("individual", h, m) for h, m in zip(hh, mem)]


def _household_supports(
    schema: Schema, hh_values: np.ndarray, members: np.ndarray, held_fixed, rules
) -> list[TargetSupport]:
    """Truth plus single-variable alternatives of each household in hh_values
    (T, q) and members (T, h, p).

    Household variables are perturbed once, individual variables per member,
    and the size variable never (it fixes the member count).  Rule-infeasible
    candidates are dropped; the observed truth is always kept.  Candidate
    order: truth, household variables, then each member's in turn,
    alternative codes ascending.
    """
    T, h, p = members.shape
    hh_alt = _changes(hh_values, schema.household_vars, (*held_fixed, schema.size_var.name))
    mem = [np.repeat(members[:, None], 1 + hh_alt.shape[1], axis=1)]
    for j in range(h):
        rows = _changes(members[:, j], schema.individual_vars, held_fixed)
        mem.append(np.repeat(members[:, None], rows.shape[1], axis=1))
        mem[-1][:, :, j] = rows
    mem = np.concatenate(mem, axis=1)
    C = mem.shape[1]
    n_same = C - 1 - hh_alt.shape[1]  # member changes keep the true household values
    hh = np.concatenate(
        [hh_values[:, None], hh_alt, np.repeat(hh_values[:, None], n_same, axis=1)], axis=1
    )
    if not rules:
        return [TargetSupport("household", a, b) for a, b in zip(hh, mem)]
    keep = check_batch(rules, hh.reshape(T * C, -1), mem.reshape(T * C, h, p)).reshape(T, C)
    keep[:, 0] = True  # observed truth stays regardless
    bounds = np.cumsum(keep.sum(axis=1))[:-1]
    hh = np.split(hh[keep], bounds)
    mem = np.split(mem[keep], bounds)
    return [TargetSupport("household", a, b) for a, b in zip(hh, mem)]


def build_support_individual(
    schema: Schema,
    hh_values: np.ndarray,
    mem_values: np.ndarray,
    held_fixed: tuple[str, ...] = (),
) -> TargetSupport:
    """Truth plus every single-variable alternative of one person's combination.

    The guessed combination spans the household-level values too (size
    included: the size code is an attribute of the guess and changing it does
    not alter any member count here).  held_fixed names are not perturbed.
    Candidate order: truth, then household variables in schema order, then
    individual variables, alternative codes ascending.
    """
    hh_values = np.asarray(hh_values, dtype=np.int64)[None]
    mem_values = np.asarray(mem_values, dtype=np.int64)[None]
    return _individual_supports(schema, hh_values, mem_values, held_fixed)[0]


def replicate_likelihood(params: Params, replicate: DatasetView) -> float:
    """log P(replicate | params), classes marginalized out."""
    return dataset_loglik(params, replicate)


def candidate_logliks(supports: list[TargetSupport], params_draws: list[Params]) -> list:
    """log p(candidate | draw r) of every target's candidates, one (R, C_t) array each.

    The candidates of all targets, of any sizes, form one view; each draw
    scores them with one member table and one class log-weight pass.
    """
    if not supports:
        return []
    counts = [s.hh_values.shape[0] for s in supports]
    sizes = [s.size for s in supports]
    view = DatasetView.from_arrays(
        np.concatenate([s.hh_values for s in supports]),
        np.concatenate([s.mem_values.reshape(-1, s.mem_values.shape[-1]) for s in supports]),
        np.repeat(sizes, counts),
    )
    cand = np.empty((len(params_draws), sum(counts)))
    for r, params in enumerate(params_draws):
        table = member_logliks(params, view.patterns)
        cand[r] = logsumexp(class_posterior_logweights(params, view, table), axis=0)
    return np.split(cand, np.cumsum(counts)[:-1], axis=1)


def _self_normalize(cand: np.ndarray, truth_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights (..., R, C) from candidate log-likelihoods (..., R, C), and the
    mask (..., C) of candidates whose ratios all underflowed to zero."""
    log_ratio = cand - cand[..., [truth_index]]
    peak = np.maximum(log_ratio.max(axis=-2, keepdims=True), 0.0)
    ratios = np.exp(log_ratio - peak)
    totals = ratios.sum(axis=-2, keepdims=True)
    with np.errstate(invalid="ignore"):
        return ratios / totals, totals[..., 0, :] == 0.0


def _underflow(candidate: int) -> ValueError:
    return ValueError(f"importance weights underflowed for candidate {candidate}")


def importance_weights(support: TargetSupport, params_draws: list[Params]) -> np.ndarray:
    """Self-normalized likelihood-ratio weights, (R, C), columns summing to one.

    Column c reweights the R parameter draws toward the posterior with the
    target replaced by candidate c.  The truth column is exactly 1/R since
    every ratio there is one.  Ratios above one are rescaled before
    exponentiating; a candidate whose ratios all underflow to zero is
    structurally impossible under every draw and raises.
    """
    weights, dead = _self_normalize(
        candidate_logliks([support], params_draws)[0], support.truth_index
    )
    if dead.any():
        raise _underflow(int(np.flatnonzero(dead)[0]))
    return weights


def importance_posterior(
    support: TargetSupport,
    replicates: list[DatasetView],
    params_draws: list[Params],
    log_p: np.ndarray | None = None,
) -> RiskResult:
    """Candidate posterior probabilities for one target.

    log_p may carry precomputed replicate log likelihoods, shape (R, L);
    they do not depend on the target.  Rank ties go to the earlier candidate.
    """
    if log_p is None:
        log_p = np.array(
            [[replicate_likelihood(params, z) for z in replicates] for params in params_draws]
        )
    weights = importance_weights(support, params_draws)[None]
    rho, rank = _posteriors(weights, log_p, support.truth_index)
    return RiskResult(
        posterior=rho[0],
        rank_of_truth=int(rank[0]),
        top_probability=float(rho[0].max()),
        truth_probability=float(rho[0, support.truth_index]),
    )


def _posteriors(
    weights: np.ndarray, log_p: np.ndarray, truth_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors (T, C) and ranks of the truth (T,) of T targets of C candidates each.

    weights is (T, R, C).  Every reduction runs along the axis the one-target
    form reduces, and each target's sums over its candidates run along the
    last axis of a (T, C) array, so each target gets the floats it would get
    alone.
    """
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    # per target, replicate and candidate: log sum_r exp(log_p + log_weight)
    per_rep = logsumexp(log_p[None, :, :, None] + log_weights[:, :, None, :], axis=1)
    scores = per_rep.sum(axis=1)  # (T, C)
    rho = np.exp(scores - logsumexp(scores, axis=1)[:, None])
    rho = rho / rho.sum(axis=1, keepdims=True)
    order = np.argsort(-rho, axis=1, kind="stable")
    return rho, np.argmax(order == truth_index, axis=1) + 1


def _target_id(variables, codes) -> str:
    return ";".join(f"{v.name}={code + 1}" for v, code in zip(variables, codes))


def risk_sweep(
    original: Dataset,
    replicates: list[Dataset],
    params_draws: list[Params],
    config: RiskConfig,
) -> RiskSummary:
    """Assess every distinct target in the data; duplicates share one result."""
    schema = original.schema
    log_p = np.array(
        [[replicate_likelihood(params, z) for z in replicates] for params in params_draws]
    )
    if config.rules and replicates:
        # a truncated fit's likelihood of a size-h household is over 1 - pi0_h
        counts = np.array([np.bincount(z.sizes, minlength=schema.max_size + 1) for z in replicates])
        sizes = np.flatnonzero(counts.any(axis=0))
        pi0 = np.array([
            [infeasible_mass(params, schema, config.rules, h)[0] for h in sizes]
            for params in params_draws
        ])
        log_p -= np.log1p(-pi0) @ counts[:, sizes].T

    if config.kind == "individual":
        q = original.hh_codes.shape[1]
        combined = np.concatenate([original.hh_codes[original.mem_hh], original.mem_codes], axis=1)
        targets = np.unique(combined, axis=0)
        ids = [_target_id(schema.household_vars + schema.individual_vars, row) for row in targets]
        supports = _individual_supports(schema, targets[:, :q], targets[:, q:], config.held_fixed)
    else:
        # distinct (household values, sorted member rows), in order of first appearance
        members_of = np.split(original.mem_codes, original.hh_start[1:])
        keys = list(dict.fromkeys(
            (tuple(hh_row), tuple(sorted(map(tuple, rows.tolist()))))
            for hh_row, rows in zip(original.hh_codes.tolist(), members_of)
            if config.sizes is None or len(rows) in config.sizes
        ))
        ids = [
            _target_id(schema.household_vars, hh_values) + "|"
            + "".join(f"[{_target_id(schema.individual_vars, m)}]" for m in members)
            for hh_values, members in keys
        ]
        # the supports of each household size are built as one array
        supports = [None] * len(keys)
        sizes = np.array([len(members) for _, members in keys])
        for h in np.unique(sizes):
            group = np.flatnonzero(sizes == h)
            hh = np.array([keys[i][0] for i in group], dtype=np.int64)
            members = np.array([keys[i][1] for i in group], dtype=np.int64)
            built = _household_supports(schema, hh, members, config.held_fixed, config.rules)
            for i, support in zip(group, built):
                supports[i] = support

    rows = []
    for run in _runs(supports, params_draws[0].n_hh_classes, log_p.size):
        rows += _score(supports[run], ids[run], params_draws, log_p)
    return RiskSummary(rows=rows)


def _runs(supports: list[TargetSupport], F: int, draw_replicates: int) -> Iterator[slice]:
    """Consecutive runs of the targets, each holding at most RUN_CELLS cells;
    a target over the budget forms a run of its own."""
    start, held = 0, 0
    for t, support in enumerate(supports):
        cells = support.hh_values.shape[0] * max(F * support.size, draw_replicates)
        if held + cells > RUN_CELLS and t > start:
            yield slice(start, t)
            start, held = t, 0
        held += cells
    if supports:
        yield slice(start, len(supports))


def _score(
    supports: list[TargetSupport], ids: list[str], params_draws: list[Params], log_p: np.ndarray
) -> list[RiskRow]:
    """The rows of one run of targets; targets with equal candidate counts are
    scored as one (T, R, C) block."""
    blocks = candidate_logliks(supports, params_draws)
    counts = np.array([cand.shape[1] for cand in blocks])
    rho_truth, rho_max, ranks = (np.empty(len(blocks)) for _ in range(3))
    dead = []  # (target, candidate) pairs whose weights underflowed
    for C in np.unique(counts):
        group = np.flatnonzero(counts == C)
        weights, gone = _self_normalize(np.stack([blocks[t] for t in group]), 0)
        dead += [(group[t], c) for t, c in np.argwhere(gone)]
        rho, rank = _posteriors(weights, log_p, 0)
        rho_truth[group], rho_max[group], ranks[group] = rho[:, 0], rho.max(axis=1), rank
    if dead:
        raise _underflow(int(min(dead)[1]))
    return [
        RiskRow(target_id, int(C), int(rank), float(truth), float(top))
        for target_id, C, rank, truth, top in zip(ids, counts, ranks, rho_truth, rho_max)
    ]
