"""Importance-sampling disclosure-risk assessment.

For each target (an individual's full attribute combination, or a whole
household), a candidate support is built around the truth by single-variable
perturbations.  Candidate posteriors are estimated from fitted parameter
draws: self-normalized importance weights move the draws from the posterior
given the released data to the posterior given the data with the target
swapped for each candidate, and each synthetic replicate's likelihood is
averaged under those weights.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import RuleSet, check_batch
from .data import Dataset, DatasetView, Schema
from .model import (
    Params,
    class_posterior_logweights,
    dataset_loglik,
    logsumexp,
    member_logliks,
)


@dataclass
class TargetSupport:
    """Candidate guesses for one target; the truth sits at truth_index.

    Individual targets: mem_values is (C, p) and each candidate pairs one
    member's values with guessed household values (hh_values, (C, q)).
    Household targets: mem_values is (C, h, p).  log_prior defaults to
    uniform over candidates.
    """

    kind: str
    hh_values: np.ndarray
    mem_values: np.ndarray
    truth_index: int = 0
    log_prior: np.ndarray | None = None


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
    rank_histogram: dict[int, int] = field(default_factory=dict)

    def finalize(self) -> None:
        self.rank_histogram = dict(sorted(Counter(r.rank_of_truth for r in self.rows).items()))

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["target_id", "n_candidates", "rank_of_truth", "rho_truth", "rho_max"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        row.target_id,
                        row.n_candidates,
                        row.rank_of_truth,
                        repr(float(row.rho_truth)),
                        repr(float(row.rho_max)),
                    ]
                )

    def histogram_to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank_of_truth", "n_targets"])
            for rank, count in self.rank_histogram.items():
                writer.writerow([rank, count])


@dataclass
class RiskConfig:
    kind: str  # "individual" or "household"
    held_fixed: tuple[str, ...] = ()
    sizes: tuple[int, ...] | None = None  # household targets only
    rules: RuleSet | None = None

    def __post_init__(self):
        if self.kind not in ("individual", "household"):
            raise ValueError(f"unknown target kind {self.kind!r}")


def _changes(values: np.ndarray, variables, fixed) -> np.ndarray:
    """Copies of values with one code changed, for each variable not named in
    fixed: variables in order, codes ascending."""
    out = [np.empty((0, len(values)), dtype=np.int64)]
    for k, var in enumerate(variables):
        if var.name not in fixed:
            out.append(np.repeat(values[None], var.cardinality - 1, axis=0))
            out[-1][:, k] = np.delete(np.arange(var.cardinality), values[k])
    return np.concatenate(out)


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
    hh_values = np.asarray(hh_values, dtype=np.int64)
    mem_values = np.asarray(mem_values, dtype=np.int64)
    hh_alt = _changes(hh_values, schema.household_vars, held_fixed)
    mem_alt = _changes(mem_values, schema.individual_vars, held_fixed)
    return TargetSupport(
        kind="individual",
        hh_values=np.concatenate([hh_values[None], hh_alt, np.tile(hh_values, (len(mem_alt), 1))]),
        mem_values=np.concatenate([np.tile(mem_values, (1 + len(hh_alt), 1)), mem_alt]),
    )


def build_support_household(
    schema: Schema,
    hh_values: np.ndarray,
    members: np.ndarray,
    held_fixed: tuple[str, ...] = (),
    rules: RuleSet | None = None,
) -> TargetSupport:
    """Truth plus single-variable alternatives of a whole household.

    Household variables are perturbed once for the whole household; individual
    variables per member.  The size variable is never perturbed (its
    alternatives would change the member count).  Rule-infeasible candidates
    are dropped; the truth, being observed data, is always kept.  Candidate
    order: truth, household variables, then member 1's variables, member 2's,
    and so on, alternative codes ascending.
    """
    hh_values = np.asarray(hh_values, dtype=np.int64)
    members = np.asarray(members, dtype=np.int64)
    hh_alt = _changes(hh_values, schema.household_vars, (*held_fixed, schema.size_var.name))
    mem_alt = [np.tile(members, (1 + len(hh_alt), 1, 1))]
    for j, member in enumerate(members):
        rows = _changes(member, schema.individual_vars, held_fixed)
        mem_alt.append(np.tile(members, (len(rows), 1, 1)))
        mem_alt[-1][:, j] = rows
    mem_arr = np.concatenate(mem_alt)
    n_same = len(mem_arr) - 1 - len(hh_alt)  # member changes keep the true household values
    hh_arr = np.concatenate([hh_values[None], hh_alt, np.tile(hh_values, (n_same, 1))])
    if rules is not None and rules:
        keep = check_batch(rules, hh_arr, mem_arr)
        keep[0] = True  # observed truth stays regardless
        hh_arr = hh_arr[keep]
        mem_arr = mem_arr[keep]
    return TargetSupport(kind="household", hh_values=hh_arr, mem_values=mem_arr)


def replicate_likelihood(params: Params, replicate: Dataset | DatasetView) -> float:
    """log P(replicate | params), classes marginalized out."""
    view = replicate.to_view() if isinstance(replicate, Dataset) else replicate
    return dataset_loglik(params, view)


def candidate_logliks(supports: list[TargetSupport], params_draws: list[Params]) -> list:
    """log p(candidate | draw r) of every target's candidates, one (R, C_t) array each.

    The candidates of all targets, of any sizes, form one view; each draw
    scores them with one member table and one class log-weight pass.
    """
    if not supports:
        return []
    counts = [s.hh_values.shape[0] for s in supports]
    sizes = [1 if s.kind == "individual" else s.mem_values.shape[1] for s in supports]
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


def _self_normalize(cand: np.ndarray, truth_index: int) -> np.ndarray:
    log_ratio = cand - cand[:, [truth_index]]
    peak = np.maximum(log_ratio.max(axis=0, keepdims=True), 0.0)
    ratios = np.exp(log_ratio - peak)
    totals = ratios.sum(axis=0, keepdims=True)
    dead = totals[0] == 0.0
    if dead.any():
        raise ValueError(
            f"importance weights underflowed for candidate {int(np.flatnonzero(dead)[0])}"
        )
    return ratios / totals


def importance_weights(support: TargetSupport, params_draws: list[Params]) -> np.ndarray:
    """Self-normalized likelihood-ratio weights, (R, C), columns summing to one.

    Column c reweights the R parameter draws toward the posterior with the
    target replaced by candidate c.  The truth column is exactly 1/R since
    every ratio there is one.  Ratios above one are rescaled before
    exponentiating; a candidate whose ratios all underflow to zero is
    structurally impossible under every draw and raises.
    """
    return _self_normalize(candidate_logliks([support], params_draws)[0], support.truth_index)


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
    return _posterior(support, importance_weights(support, params_draws), log_p)


def _posterior(support: TargetSupport, weights: np.ndarray, log_p: np.ndarray) -> RiskResult:
    """importance_posterior given the target's (R, C) weights."""
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)  # (R, C)
    # per replicate and candidate: log sum_r exp(log_p + log_weight)
    per_rep = logsumexp(log_p[:, :, None] + log_weights[:, None, :], axis=0)  # (L, C)
    scores = per_rep.sum(axis=0)
    if support.log_prior is not None:
        scores = scores + support.log_prior
    rho = np.exp(scores - logsumexp(scores))
    rho = rho / rho.sum()
    order = np.argsort(-rho, kind="stable")
    rank = int(np.flatnonzero(order == support.truth_index)[0]) + 1
    return RiskResult(
        posterior=rho,
        rank_of_truth=rank,
        top_probability=float(rho[order[0]]),
        truth_probability=float(rho[support.truth_index]),
    )


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
    rep_views = [r.to_view() for r in replicates]
    log_p = np.array(
        [[replicate_likelihood(params, v) for v in rep_views] for params in params_draws]
    )

    tasks = []  # (target_id, support)
    view = original.to_view()
    if config.kind == "individual":
        q = view.hh_codes.shape[1]
        combined = np.concatenate([view.hh_codes[view.mem_hh], view.mem_codes], axis=1)
        for row in np.unique(combined, axis=0):
            tasks.append(
                (
                    _target_id(schema.household_vars + schema.individual_vars, row),
                    build_support_individual(schema, row[:q], row[q:], config.held_fixed),
                )
            )
    else:
        seen = set()
        members_of = np.split(view.mem_codes, view.hh_start[1:])
        for hh_row, member_rows in zip(view.hh_codes.tolist(), members_of):
            if config.sizes is not None and len(member_rows) not in config.sizes:
                continue
            key = (tuple(hh_row), tuple(sorted(map(tuple, member_rows.tolist()))))
            if key in seen:
                continue
            seen.add(key)
            hh_values = np.asarray(key[0], dtype=np.int64)
            members = np.asarray(key[1], dtype=np.int64)
            mem_ids = "".join(f"[{_target_id(schema.individual_vars, m)}]" for m in members)
            tasks.append(
                (
                    _target_id(schema.household_vars, hh_values) + "|" + mem_ids,
                    build_support_household(
                        schema, hh_values, members, config.held_fixed, config.rules
                    ),
                )
            )

    blocks = candidate_logliks([support for _, support in tasks], params_draws)
    rows = []
    for (target_id, support), cand in zip(tasks, blocks):
        result = _posterior(support, _self_normalize(cand, support.truth_index), log_p)
        rows.append(
            RiskRow(target_id, cand.shape[1], result.rank_of_truth, result.truth_probability,
                    result.top_probability)
        )
    summary = RiskSummary(rows=rows)
    summary.finalize()
    return summary
