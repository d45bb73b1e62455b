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
    cand_hh = [hh_values]
    cand_mem = [mem_values]
    for k, var in enumerate(schema.household_vars):
        if var.name in held_fixed:
            continue
        for code in range(var.cardinality):
            if code == hh_values[k]:
                continue
            alt = hh_values.copy()
            alt[k] = code
            cand_hh.append(alt)
            cand_mem.append(mem_values)
    for k, var in enumerate(schema.individual_vars):
        if var.name in held_fixed:
            continue
        for code in range(var.cardinality):
            if code == mem_values[k]:
                continue
            alt = mem_values.copy()
            alt[k] = code
            cand_hh.append(hh_values)
            cand_mem.append(alt)
    return TargetSupport(
        kind="individual",
        hh_values=np.stack(cand_hh),
        mem_values=np.stack(cand_mem),
        truth_index=0,
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
    h = members.shape[0]
    cand_hh = [hh_values]
    cand_mem = [members]
    for k, var in enumerate(schema.household_vars):
        if var.is_size or var.name in held_fixed:
            continue
        for code in range(var.cardinality):
            if code == hh_values[k]:
                continue
            alt = hh_values.copy()
            alt[k] = code
            cand_hh.append(alt)
            cand_mem.append(members)
    for j in range(h):
        for k, var in enumerate(schema.individual_vars):
            if var.name in held_fixed:
                continue
            for code in range(var.cardinality):
                if code == members[j, k]:
                    continue
                alt = members.copy()
                alt[j, k] = code
                cand_hh.append(hh_values)
                cand_mem.append(alt)
    hh_arr = np.stack(cand_hh)
    mem_arr = np.stack(cand_mem)
    if rules is not None and rules:
        keep = check_batch(rules, hh_arr, mem_arr)
        keep[0] = True  # observed truth stays regardless
        hh_arr = hh_arr[keep]
        mem_arr = mem_arr[keep]
    return TargetSupport(
        kind="household", hh_values=hh_arr, mem_values=mem_arr, truth_index=0
    )


def replicate_likelihood(params: Params, replicate: Dataset | DatasetView) -> float:
    """log P(replicate | params), classes marginalized out."""
    view = replicate.to_view() if isinstance(replicate, Dataset) else replicate
    return dataset_loglik(params, view)


def importance_weights(support: TargetSupport, params_draws: list[Params]) -> np.ndarray:
    """Self-normalized likelihood-ratio weights, (R, C), columns summing to one.

    Column c reweights the R parameter draws toward the posterior with the
    target replaced by candidate c.  The truth column is exactly 1/R since
    every ratio there is one.  Ratios above one are rescaled before
    exponentiating; a candidate whose ratios all underflow to zero is
    structurally impossible under every draw and raises.
    """
    C = support.hh_values.shape[0]
    h = 1 if support.kind == "individual" else support.mem_values.shape[1]
    view = DatasetView.from_arrays(
        support.hh_values, support.mem_values.reshape(C * h, -1), np.full(C, h)
    )
    cand = np.empty((len(params_draws), C))
    for r, params in enumerate(params_draws):
        table = member_logliks(params, view.mem_codes)
        cand[r] = logsumexp(class_posterior_logweights(params, view, table), axis=0)
    log_ratio = cand - cand[:, [support.truth_index]]
    peak = np.maximum(log_ratio.max(axis=0, keepdims=True), 0.0)
    ratios = np.exp(log_ratio - peak)
    totals = ratios.sum(axis=0, keepdims=True)
    dead = totals[0] == 0.0
    if dead.any():
        raise ValueError(
            f"importance weights underflowed for candidate {int(np.flatnonzero(dead)[0])}"
        )
    return ratios / totals


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
    with np.errstate(divide="ignore"):
        log_weights = np.log(importance_weights(support, params_draws))  # (R, C)
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


def _individual_target_id(schema: Schema, hh_values: np.ndarray, mem_values: np.ndarray) -> str:
    parts = [
        f"{v.name}={hh_values[k] + 1}" for k, v in enumerate(schema.household_vars)
    ] + [f"{v.name}={mem_values[k] + 1}" for k, v in enumerate(schema.individual_vars)]
    return ";".join(parts)


def _household_target_id(schema: Schema, hh_values: np.ndarray, members: np.ndarray) -> str:
    hh_part = ";".join(
        f"{v.name}={hh_values[k] + 1}" for k, v in enumerate(schema.household_vars)
    )
    mem_part = "".join(
        "[" + ";".join(f"{v.name}={m[k] + 1}" for k, v in enumerate(schema.individual_vars)) + "]"
        for m in members
    )
    return hh_part + "|" + mem_part


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
        combined = np.concatenate(
            [view.hh_codes[view.mem_hh], view.mem_codes], axis=1
        )
        q = view.hh_codes.shape[1]
        for row in np.unique(combined, axis=0):
            hh_values, mem_values = row[:q], row[q:]
            tasks.append(
                (
                    _individual_target_id(schema, hh_values, mem_values),
                    build_support_individual(schema, hh_values, mem_values, config.held_fixed),
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
            tasks.append(
                (
                    _household_target_id(schema, hh_values, members),
                    build_support_household(
                        schema, hh_values, members, config.held_fixed, config.rules
                    ),
                )
            )

    def assess(task):
        target_id, support = task
        result = importance_posterior(support, rep_views, params_draws, log_p=log_p)
        return RiskRow(
            target_id=target_id,
            n_candidates=support.hh_values.shape[0],
            rank_of_truth=result.rank_of_truth,
            rho_truth=result.truth_probability,
            rho_max=result.top_probability,
        )

    summary = RiskSummary(rows=[assess(t) for t in tasks])
    summary.finalize()
    return summary
