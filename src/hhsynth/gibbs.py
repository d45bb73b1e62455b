"""Gibbs sampler for the nested latent-class model.

Sweep order is fixed: in truncated mode the augmented records first (drawn
by run_chain from the current parameters, see truncated.py), then household
classes, member classes, household sticks, member sticks, household kernels,
member kernels, and the two concentration parameters.  The class draws are
collapsed over member classes (households first, member classes refreshed
given the household class), which is an exact blocked update; each class is
drawn by inverse CDF from one uniform.  Augmented records keep the classes
they were generated with, and the parameter draws count them with the
observed households.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .checkpoints import CheckpointRecord, CheckpointWriter, hyper_meta
from .config import ChainConfig
from .data import Dataset, DatasetView, size_histogram, write_csv
from .model import (
    Hyperparams,
    Params,
    class_posterior_logweights,
    dirichlet_rows,
    member_logliks,
    prior_draw,
    stick_break,
)
from .rng import substream

if TYPE_CHECKING:
    from .truncated import AugmentedBatch


@dataclass
class ChainState:
    params: Params
    hh_class: np.ndarray  # (n,)
    mem_class: np.ndarray  # (N,)
    iteration: int = 0
    augmented: "AugmentedBatch | None" = None


class Diagnostics:
    """Per-sweep chain summaries, one row per sweep in arrays sized once for
    the chain's n_iterations sweeps, plus saturation flags."""

    def __init__(self, n_iterations: int, n_hh_classes: int, strata: list[int] | None = None):
        self.strata = strata  # household sizes, truncated mode
        self.occupied_hh = np.zeros(n_iterations, dtype=np.int64)
        self.occupied_mem = np.zeros(n_iterations, dtype=np.int64)
        self.hh_conc = np.zeros(n_iterations)
        self.mem_conc = np.zeros(n_iterations)
        self.hh_weights = np.zeros((n_iterations, n_hh_classes))
        # infeasible records per size stratum, truncated mode
        self.n_infeasible = None if strata is None else np.zeros((n_iterations, len(strata)), np.int64)
        self.cap_exceeded = 0
        self.saturated_hh = self.saturated_mem = False

    def record(self, state: ChainState) -> None:
        """Fill the row of the sweep that state.iteration counts."""
        i = state.iteration - 1
        # not np.unique, which imports numpy.ma and so adds to fit's peak
        self.occupied_hh[i] = np.count_nonzero(np.bincount(state.hh_class))
        self.occupied_mem[i] = np.count_nonzero(np.bincount(state.mem_class))
        self.hh_conc[i], self.mem_conc[i] = state.params.hh_conc, state.params.mem_conc
        self.hh_weights[i] = state.params.hh_weights
        if self.strata is not None:  # run_chain draws a batch before each truncated sweep
            counts = np.bincount(state.augmented.infeasible.sizes, minlength=self.strata[-1] + 1)
            self.n_infeasible[i] = counts[self.strata]

    def to_csv(self, path: str | Path) -> None:
        header = [
            "iteration",
            "occupied_household_classes",
            "occupied_individual_classes",
            "hh_concentration",
            "mem_concentration",
        ] + [f"pi_{g + 1}" for g in range(self.hh_weights.shape[1])]
        # rows are streamed: a list of every sweep's row can set a fit's peak memory
        sweeps = zip(self.occupied_hh, self.occupied_mem, self.hh_conc, self.mem_conc)
        rows = ([i, *sweep, *w] for i, (sweep, w) in enumerate(zip(sweeps, self.hh_weights), 1))
        if self.strata is not None:
            header += [f"n_infeasible_size{h}" for h in self.strata] + ["n_infeasible_total"]
            rows = ([*row, *counts, counts.sum()] for row, counts in zip(rows, self.n_infeasible))
        write_csv(path, header, rows)


@dataclass
class ChainResult:
    diagnostics: Diagnostics
    checkpoints: list[CheckpointRecord] | None
    final_state: ChainState
    n_checkpoints: int


def _count_below(sums, x: np.ndarray) -> np.ndarray:
    """Codes by inverse CDF: per draw, the count of its cumulative class
    weights below x, (1 - u) times their total.  sums yields the n draws' sums
    of each class but the last.  x lies in (0, total], so a class of zero
    weight, whose sum equals the one before it, is never drawn."""
    count = np.zeros(len(x), dtype=np.int64)
    for cum in sums:
        count += cum < x
    return count


def sample_household_classes(
    params: Params, view: DatasetView, table: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw each household's class with member classes summed out of table,
    from one uniform per household."""
    cum = class_posterior_logweights(params, view, table)  # (F, n)
    cum -= cum.max(axis=0)
    np.cumsum(np.exp(cum, out=cum), axis=0, out=cum)
    return _count_below(cum[:-1], (1.0 - rng.random(view.n_households)) * cum[-1])


def sample_member_classes(
    params: Params,
    view: DatasetView,
    table: np.ndarray,
    hh_class: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw each member's class given its household's class, from one uniform
    per member.  The table's weights are cumulated over member classes once."""
    _, S, P = table.shape
    cum = table - table.max(axis=1, keepdims=True)
    flat = np.cumsum(np.exp(cum, out=cum), axis=1, out=cum).ravel()
    first = hh_class[view.mem_hh] * (S * P) + view.mem_pattern  # each member's (g, 0, pattern)
    x = (1.0 - rng.random(view.n_individuals)) * flat.take(first + (S - 1) * P)
    return _count_below((flat.take(first + m * P) for m in range(S - 1)), x)


def sample_classes(state: ChainState, view: DatasetView, rng: np.random.Generator) -> None:
    """Household classes, then member classes, from one member table."""
    table = member_logliks(state.params, view.patterns)
    state.hh_class = sample_household_classes(state.params, view, table, rng)
    state.mem_class = sample_member_classes(state.params, view, table, state.hh_class, rng)


def stick_gamma_logs(
    kept: np.ndarray, rest: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Logs of Gamma(kept, 1) and Gamma(rest, 1) draws, the rest finite even
    where a draw underflows.

    kept shapes are >= 1, so their draws never underflow.  Gamma(a) equals
    Gamma(a + 1) times U^(1/a) in distribution; taking the log first keeps
    draws representable for the tiny shapes a small concentration produces,
    where a linear draw flushes to zero.  One gamma call draws the kept and
    the boosted rest draws, then one block draws the uniforms.
    """
    draws = rng.gamma(np.concatenate((kept, rest + 1.0), axis=None))
    u = 1.0 - rng.random(size=rest.shape)  # in (0, 1], so the log is finite
    log_kept = np.log(draws[: kept.size].reshape(kept.shape))
    return log_kept, np.log(draws[kept.size :].reshape(rest.shape)) + np.log(u) / rest


def sample_sticks(
    counts: np.ndarray, conc: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Beta draws for the sticks of each row of (F, S) counts.

    Returns (sticks, weights, log1m) with log1m holding log(1 - stick) for
    the free sticks, (F, S - 1).  Each Beta draw comes from a gamma pair so
    log1m stays exact when a stick rounds up to 1.0 in float; feeding such
    rounded sticks into the concentration update would pin the concentration
    near zero and freeze a collapsed state in place.  The household sticks
    are the one-row case: household counts as (1, F), one concentration.
    """
    greater = counts[:, ::-1].cumsum(axis=1)[:, ::-1] - counts
    log_kept, log_rest = stick_gamma_logs(1.0 + counts[:, :-1], conc + greater[:, :-1], rng)
    log_total = np.logaddexp(log_kept, log_rest)
    sticks = np.ones(counts.shape)
    sticks[:, :-1] = np.exp(log_kept - log_total)
    return sticks, stick_break(sticks), log_rest - log_total


def kernel_counts(
    codes: np.ndarray, cell: np.ndarray, shape: tuple[int, ...], dims: list[int]
) -> list[np.ndarray]:
    """Per variable k, the (*shape, dims[k]) counts of codes[:, k] by flat class
    cell: households by class (F,), members by class pair g * S + m (F, S)."""
    n_cells = int(np.prod(shape))
    return [
        np.bincount(cell * d + codes[:, k], minlength=n_cells * d).reshape(*shape, d)
        for k, d in enumerate(dims)
    ]


def sample_concentration(
    log1m: np.ndarray, shape: float, rate: float, rng: np.random.Generator
) -> float:
    """Gamma draw of a stick concentration from its free sticks' log(1 - stick):
    the household level's (1, F - 1), the member level's (F, S - 1)."""
    return float(rng.gamma(shape + log1m.size, 1.0 / (rate - log1m.sum())))


def resample_parameters(
    params: Params,
    hyper: Hyperparams,
    rng: np.random.Generator,
    hh_class: np.ndarray,
    hh_codes: np.ndarray,
    mem_hh_class: np.ndarray,
    mem_class: np.ndarray,
    mem_codes: np.ndarray,
) -> Params:
    """Draw sticks, kernels, and concentrations from their full conditionals.

    The count arrays may cover just the observed data or the union with
    augmented records; the conditionals are identical either way.
    """
    F, S = hyper.n_hh_classes, hyper.n_mem_classes
    pair = mem_hh_class * S + mem_class
    hh_counts = np.bincount(hh_class, minlength=F)
    pair_counts = np.bincount(pair, minlength=F * S).reshape(F, S)
    hh_sticks, hh_weights, hh_log1m = sample_sticks(hh_counts[None], params.hh_conc, rng)
    mem_sticks, mem_weights, mem_log1m = sample_sticks(pair_counts, params.mem_conc, rng)
    hh_dims = [w.shape[0] for w in hyper.hh_kernel_prior]
    mem_dims = [w.shape[0] for w in hyper.mem_kernel_prior]
    counts = kernel_counts(hh_codes, hh_class, (F,), hh_dims) + kernel_counts(
        mem_codes, pair, (F, S), mem_dims
    )
    prior = [*hyper.hh_kernel_prior, *hyper.mem_kernel_prior]
    kernels = dirichlet_rows([w + c for w, c in zip(prior, counts)], rng)
    hh_kernels, mem_kernels = kernels[: len(hh_dims)], kernels[len(hh_dims) :]
    hh_conc = sample_concentration(hh_log1m, hyper.hh_conc_shape, hyper.hh_conc_rate, rng)
    mem_conc = sample_concentration(mem_log1m, hyper.mem_conc_shape, hyper.mem_conc_rate, rng)
    return Params(
        hh_sticks=hh_sticks[0],
        hh_weights=hh_weights[0],
        mem_sticks=mem_sticks,
        mem_weights=mem_weights,
        hh_kernels=hh_kernels,
        mem_kernels=mem_kernels,
        hh_conc=hh_conc,
        mem_conc=mem_conc,
    )


def counted_arrays(state: ChainState, view: DatasetView) -> list[np.ndarray]:
    """resample_parameters' count arrays: household classes and codes, then
    member household classes, classes and codes.

    When state.augmented holds a batch, its infeasible records follow the
    observed households, with the classes they were generated with.
    """
    g = state.hh_class
    counted = [g, view.hh_codes, g[view.mem_hh], state.mem_class, view.mem_codes]
    batch = state.augmented
    if batch is not None:
        aug, g0 = batch.infeasible, batch.infeasible_hh_class
        extra = [g0, aug.hh_codes, g0[aug.mem_hh], batch.infeasible_mem_class, aug.mem_codes]
        counted = [np.concatenate(both) for both in zip(counted, extra)]
    return counted


def gibbs_sweep(
    state: ChainState, view: DatasetView, hyper: Hyperparams, rng: np.random.Generator
) -> None:
    """One full update of the chain state in place: fresh classes for the
    observed households, then parameters given them and any augmented records."""
    sample_classes(state, view, rng)
    state.params = resample_parameters(state.params, hyper, rng, *counted_arrays(state, view))
    state.iteration += 1


def init_state(
    view: DatasetView, hyper: Hyperparams, rng: np.random.Generator
) -> ChainState:
    """Uniformly random latent classes, parameters refreshed given them.

    Starting the sweep from a prior parameter draw is hazardous: a small
    concentration draw concentrates the weights on one class, the first class
    update then piles every record there, and the chain opens inside a
    near-absorbing single-class state.  Conditioning the parameters on a
    balanced random partition first avoids that.
    """
    params = prior_draw(hyper, rng)
    hh_class = rng.integers(hyper.n_hh_classes, size=view.n_households)
    mem_class = rng.integers(hyper.n_mem_classes, size=view.n_individuals)
    state = ChainState(params=params, hh_class=hh_class, mem_class=mem_class)
    state.params = resample_parameters(params, hyper, rng, *counted_arrays(state, view))
    return state


def mcse_batch_means(x: np.ndarray, n_batches: int = 50) -> float:
    """Batch-means Monte Carlo standard error of a chain's mean."""
    x = np.asarray(x, dtype=float)
    usable = (len(x) // n_batches) * n_batches
    if usable < n_batches:
        raise ValueError("chain too short for the requested batch count")
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def run_chain(
    dataset: Dataset,
    hyper: Hyperparams,
    config: ChainConfig,
    rules=None,
    checkpoint_path: str | Path | None = None,
) -> ChainResult:
    """Run the sampler, recording diagnostics and post-burn-in checkpoints.

    With a non-empty rule set each sweep first draws a fresh augmented batch
    from the current parameters, and each checkpoint carries the batch's
    feasible by-product households.  When generation passes the candidate
    cap, the previous batch is reused and diagnostics.cap_exceeded counts the
    event; without a previous batch the error propagates.  Checkpoints stream
    to checkpoint_path when given, otherwise they are kept in memory.
    """
    schema = dataset.schema
    rng = substream(config.seed, "chain")
    truncated = bool(rules)
    histogram = size_histogram(dataset) if truncated else None
    cap = config.candidate_cap if config.candidate_cap else 1000 * max(dataset.n_households, 1)

    state = init_state(dataset, hyper, rng)
    diag = Diagnostics(
        config.n_iterations, hyper.n_hh_classes, sorted(histogram) if truncated else None
    )
    writer = None
    kept: list[CheckpointRecord] | None = None
    if checkpoint_path is not None:
        meta = {
            "mode": "truncated" if truncated else "untruncated",
            "seed": config.seed,
            "n_iterations": config.n_iterations,
            "burn_in": config.burn_in,
            "thin": config.thin,
            "hyper": hyper_meta(hyper),
        }
        writer = CheckpointWriter(checkpoint_path, meta)
    else:
        kept = []

    if truncated:
        from .truncated import CapExceededError, generate_augmented
    with writer or nullcontext():  # closed, and so flushed, when the chain raises too
        for it in range(1, config.n_iterations + 1):
            if truncated:
                try:
                    state.augmented = generate_augmented(
                        state.params, schema, rules, histogram, rng, cap
                    )
                except CapExceededError:
                    if state.augmented is None:
                        raise
                    diag.cap_exceeded += 1
            gibbs_sweep(state, dataset, hyper, rng)
            diag.record(state)
            if it > config.burn_in and (it - config.burn_in - 1) % config.thin == 0:
                record = CheckpointRecord(
                    iteration=it,
                    params=state.params.copy(),
                    hh_class=state.hh_class.copy(),
                    mem_class=state.mem_class.copy(),
                    feasible=state.augmented.feasible if truncated else None,
                )
                if writer is not None:
                    writer.write(record)
                else:
                    kept.append(record)

    # the balanced random start occupies every class by construction, so only
    # post-burn-in occupancy says anything about the truncation binding; one
    # class is always occupied, so a level of 1 never binds
    F, S = hyper.n_hh_classes, hyper.n_mem_classes
    diag.saturated_hh = F > 1 and bool((diag.occupied_hh[config.burn_in :] >= F).any())
    diag.saturated_mem = S > 1 and bool((diag.occupied_mem[config.burn_in :] >= S).any())
    if diag.saturated_hh:
        warnings.warn(
            "household classes reached the truncation level; consider raising it",
            stacklevel=2,
        )
    if diag.saturated_mem:
        warnings.warn(
            "individual classes reached the truncation level; consider raising it",
            stacklevel=2,
        )
    return ChainResult(
        diagnostics=diag,
        checkpoints=kept,
        final_state=state,
        n_checkpoints=writer.count if writer is not None else len(kept),
    )
