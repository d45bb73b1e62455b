"""Importance-sampling disclosure-risk assessment.

Every target is a household: a whole household, or an individual's full
attribute combination as a one-member household.  Its candidate support is the
truth, always first, plus its single-variable perturbations, built for every
kind by one builder.  Candidate posteriors are estimated from fitted parameter
draws: self-normalized importance weights move the draws from the posterior
given the released data to the posterior given the data with the target
swapped for each candidate, and each synthetic replicate's likelihood is
averaged under those weights.  For a truncated fit the replicate likelihood
is the truncated one: each size-h household's term is over 1 - pi0_h, the
feasible share of size h under the draw.

Targets are scored one household size at a time, in runs of consecutive
targets of that size that hold at most RUN_CELLS cells of working arrays,
counted before the rules drop any candidate.  A run's candidates are built and
rule-checked only when it is scored, and go to the scores as one block of
households plus each target's count, so the working arrays a sweep holds do not
grow with the number of targets.  A target's floats do not depend on the other
targets of its run, so every row is the one it would be if scored alone.
"""

from __future__ import annotations

from collections import Counter
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

# A run's budget of cells.  A target of C candidates of h members, counted
# before the rules drop any, holds at most C * max(F * h, R * L) of them: its
# class pass is (F, C * h) for F household classes, and its posterior block
# (R, L, C) for R draws and L replicates.
# Each run also scores its distinct member rows once per draw, so a smaller
# budget costs time where the runs share many rows: with 1,296 possible member
# rows and F = 20, 2**17 cells made a sweep 1.7 times as slow as one run.
RUN_CELLS = 2**18


@dataclass
class TargetSupport:
    """Candidate households for one target: household values hh_values (C, q)
    and members mem_values (C, h, p), with h = 1 for an individual target.
    The truth is candidate 0, and the prior over the candidates is uniform."""

    hh_values: np.ndarray
    mem_values: np.ndarray
    truth_index = 0  # not a field: every support puts the truth first


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


def _supports(
    schema: Schema, hh_values: np.ndarray, members: np.ndarray, fixed, rules=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truth plus single-variable alternatives of each household in hh_values
    (T, q) and members (T, h, p); variables named in fixed are not perturbed.

    Returns the kept candidates of all T targets, target after target: their
    household values (M, q), their members (M, h, p), and each target's count
    (T,).  Household variables are perturbed once and individual variables per
    member.  Rule-infeasible candidates are dropped; the observed truth is
    always kept.  Candidate order: truth, household variables, then each
    member's in turn, alternative codes ascending.
    """
    T, h, p = members.shape
    hh_alt = _changes(hh_values, schema.household_vars, fixed)
    mem = [np.repeat(members[:, None], 1 + hh_alt.shape[1], axis=1)]
    for j in range(h):
        rows = _changes(members[:, j], schema.individual_vars, fixed)
        mem.append(np.repeat(members[:, None], rows.shape[1], axis=1))
        mem[-1][:, :, j] = rows
    mem = np.concatenate(mem, axis=1)
    C = mem.shape[1]
    n_same = C - 1 - hh_alt.shape[1]  # member changes keep the true household values
    hh = np.concatenate(
        [hh_values[:, None], hh_alt, np.repeat(hh_values[:, None], n_same, axis=1)], axis=1
    )
    hh, mem = hh.reshape(T * C, -1), mem.reshape(T * C, h, p)
    if not rules:
        return hh, mem, np.full(T, C)
    keep = check_batch(rules, hh, mem)
    keep[::C] = True  # observed truth stays regardless
    return hh[keep], mem[keep], keep.reshape(T, C).sum(axis=1)


def build_support_individual(
    schema: Schema, hh_values: np.ndarray, mem_values: np.ndarray, held_fixed: tuple[str, ...] = ()
) -> TargetSupport:
    """Truth plus every single-variable alternative of one person's combination,
    as a one-member household.

    The guessed combination spans the household-level values too (size
    included: the size code is an attribute of the guess and changing it does
    not alter any member count here).  held_fixed names are not perturbed.
    Candidate order: truth, then household variables in schema order, then
    individual variables, alternative codes ascending.
    """
    hh_values = np.asarray(hh_values, dtype=np.int64)[None]
    mem_values = np.asarray(mem_values, dtype=np.int64)[None, None]
    return TargetSupport(*_supports(schema, hh_values, mem_values, held_fixed)[:2])


def replicate_likelihood(params: Params, replicate: DatasetView) -> float:
    """log P(replicate | params), classes marginalized out."""
    return dataset_loglik(params, replicate)


def _replicate_logliks(replicates: list[DatasetView], params_draws: list[Params]) -> np.ndarray:
    """log P(replicate l | draw r), (R, L)."""
    return np.array(
        [[replicate_likelihood(params, z) for z in replicates] for params in params_draws]
    )


def candidate_logliks(
    hh_values: np.ndarray, mem_values: np.ndarray, params_draws: list[Params]
) -> np.ndarray:
    """log p(candidate | draw r), (R, M), of M households of one size: hh_values
    (M, q), mem_values (M, h, p).  They form one view, which each draw scores
    with one member table and one class log-weight pass."""
    M, h, p = mem_values.shape
    view = DatasetView.from_arrays(hh_values, mem_values.reshape(M * h, p), np.full(M, h))
    cand = np.empty((len(params_draws), M))
    for r, params in enumerate(params_draws):
        table = member_logliks(params, view.patterns)
        cand[r] = logsumexp(class_posterior_logweights(params, view, table), axis=0)
    return cand


def _self_normalize(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (..., R, C) from candidate log-likelihoods (..., R, C), and the
    mask (..., C) of candidates whose ratios all underflowed to zero."""
    log_ratio = cand - cand[..., [0]]
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
    cand = candidate_logliks(support.hh_values, support.mem_values, params_draws)
    weights, dead = _self_normalize(cand)
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
        log_p = _replicate_logliks(replicates, params_draws)
    weights = importance_weights(support, params_draws)[None]
    rho, rank = _posteriors(weights, log_p)
    return RiskResult(
        posterior=rho[0],
        rank_of_truth=int(rank[0]),
        top_probability=float(rho[0].max()),
        truth_probability=float(rho[0, 0]),
    )


def _posteriors(weights: np.ndarray, log_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return rho, np.argmax(order == 0, axis=1) + 1


def _target_id(variables, codes) -> str:
    return ";".join(f"{v.name}={code + 1}" for v, code in zip(variables, codes))


def risk_sweep(
    original: Dataset, replicates: list[Dataset], params_draws: list[Params], config: RiskConfig
) -> RiskSummary:
    """Assess every distinct target in the data; duplicates share one result."""
    schema = original.schema
    log_p = _replicate_logliks(replicates, params_draws)
    if config.rules and replicates:
        # a truncated fit's likelihood of a size-h household is over 1 - pi0_h
        counts = np.array([np.bincount(z.sizes, minlength=schema.max_size + 1) for z in replicates])
        sizes = np.flatnonzero(counts.any(axis=0))
        pi0 = np.array([
            [infeasible_mass(params, schema, config.rules, h)[0] for h in sizes]
            for params in params_draws
        ])
        log_p -= np.log1p(-pi0) @ counts[:, sizes].T

    # (target indices, household values (T, q), members (T, h, p)) of each
    # household size's targets
    if config.kind == "individual":
        # each person's (household, member) row as a one-member household; the
        # targets are the distinct such rows, in ascending order
        hh, q = original.hh_codes[original.mem_hh], original.hh_codes.shape[1]
        combined = np.concatenate([hh, original.mem_codes], axis=1)
        targets = DatasetView.from_arrays(hh, combined, np.ones(len(hh))).patterns
        ids = [_target_id(schema.household_vars + schema.individual_vars, row) for row in targets]
        groups = [(np.arange(len(targets)), targets[:, :q], targets[:, None, q:])]
        fixed, rules = config.held_fixed, None  # individual candidates meet no rules
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
        sizes = np.array([len(members) for _, members in keys], dtype=np.int64)
        groups = []
        for h in np.flatnonzero(np.bincount(sizes)):
            group = np.flatnonzero(sizes == h)
            hh, members = zip(*(keys[i] for i in group))
            groups.append((group, np.array(hh, dtype=np.int64), np.array(members, dtype=np.int64)))
        # the size variable fixes the member count, so it is never perturbed
        fixed, rules = (*config.held_fixed, schema.size_var.name), config.rules
    F, draw_replicates = params_draws[0].n_hh_classes, log_p.size
    rows = [None] * len(ids)
    for group, hh, members in groups:
        # every target of a group has the same candidate count before the rules
        C = _supports(schema, hh[:1], members[:1], fixed)[2][0]
        per_run = max(1, RUN_CELLS // (C * max(F * members.shape[1], draw_replicates)))
        for start in range(0, len(group), per_run):
            run = slice(start, start + per_run)
            candidates = _supports(schema, hh[run], members[run], fixed, rules)
            run_rows = _score(*candidates, [ids[i] for i in group[run]], params_draws, log_p)
            for i, row in zip(group[run], run_rows):
                rows[i] = row
    return RiskSummary(rows=rows)


def _score(
    hh_values: np.ndarray, mem_values: np.ndarray, counts: np.ndarray, ids: list[str],
    params_draws: list[Params], log_p: np.ndarray,
) -> list[RiskRow]:
    """The rows of one run of targets from _supports' arrays.  Targets with
    equal candidate counts are scored as one C-contiguous (T, R, C) block of the
    run's (R, M) candidate log-likelihoods, so each sums its draws as alone."""
    cand = candidate_logliks(hh_values, mem_values, params_draws)
    starts = np.cumsum(counts) - counts
    rho_truth, rho_max, ranks = (np.empty(len(counts)) for _ in range(3))
    dead = []  # (target, candidate) pairs whose weights underflowed
    for C in np.flatnonzero(np.bincount(counts)):
        group = np.flatnonzero(counts == C)
        block = cand[:, starts[group, None] + np.arange(C)].transpose(1, 0, 2).copy()
        weights, gone = _self_normalize(block)
        dead += [(group[t], c) for t, c in np.argwhere(gone)]
        rho, rank = _posteriors(weights, log_p)
        rho_truth[group], rho_max[group], ranks[group] = rho[:, 0], rho.max(axis=1), rank
    if dead:
        raise _underflow(int(min(dead)[1]))
    return [
        RiskRow(target_id, int(C), int(rank), float(truth), float(top))
        for target_id, C, rank, truth, top in zip(ids, counts, ranks, rho_truth, rho_max)
    ]
