"""Candidate generation for models with structural zeros.

Per observed household size h, candidate households are drawn from the
current parameters conditioned on size h, keeping exactly n_h feasible draws
(the synthesis by-product) and every infeasible draw made before the n_h-th
feasible one (the augmented records).  Both sets come back as DatasetViews
over all sizes in ascending order.  run_chain draws one batch before each
truncated-mode sweep, and the sweep counts the augmented records with the
observed households.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import RuleSet, check_batch
from .data import DatasetView, Schema
from .model import DrawTables, Params, draw_households, size_class_probs


class CapExceededError(RuntimeError):
    """Candidate generation hit the per-iteration budget."""


@dataclass
class AugmentedBatch:
    """One sweep's kept candidates, household sizes in ascending order.

    feasible holds each size's n_h feasible draws, the synthesis by-product;
    infeasible holds the augmented records, with the household and member
    classes they were generated with.  n_candidates and n_infeasible count
    each size's kept draws, so n_candidates = n_h + n_infeasible.
    """

    feasible: DatasetView
    infeasible: DatasetView
    infeasible_hh_class: np.ndarray  # (n0,)
    infeasible_mem_class: np.ndarray  # (N0,)
    n_candidates: np.ndarray  # (number of sizes,)
    n_infeasible: np.ndarray  # (number of sizes,)

    @property
    def total_infeasible(self) -> int:
        return int(self.n_infeasible.sum())

    @property
    def total_candidates(self) -> int:
        return int(self.n_candidates.sum())


def generate_augmented(
    params: Params,
    schema: Schema,
    rules: RuleSet,
    histogram: dict[int, int],
    rng: np.random.Generator,
    cap: int,
) -> AugmentedBatch:
    """Rejection-generate candidates per stratum until n_h feasible each.

    Candidates are drawn in deterministic batches and truncated at the n_h-th
    feasible draw in stream order, so infeasible draws after that point are
    discarded.  Each stratum's kept draws are selected by index and joined
    once, over all strata, into one AugmentedBatch.  Raises CapExceededError
    once the total candidate count over all strata passes cap.
    """
    p = len(schema.individual_vars)
    tables = DrawTables(params, schema)
    sizes, targets = np.array(sorted(histogram.items()), dtype=np.int64).T
    kept = []  # per size: feasible and infeasible hh and member codes, infeasible classes
    n_candidates = []
    drawn_total = 0
    for h, target in zip(sizes.tolist(), targets.tolist()):
        try:
            class_probs = size_class_probs(params, schema, h)
        except ValueError as exc:
            raise CapExceededError(f"{exc}; candidate generation cannot terminate") from None
        cdf = np.cumsum(class_probs)
        batches = []  # (classes, hh codes, member codes, member classes, feasible) per batch
        n_feasible = 0
        n_drawn_h = 0
        while n_feasible < target:
            # deterministic schedule: scale the guess by the acceptance so far
            accept = (n_feasible + 1.0) / (n_drawn_h + 2.0)
            batch = int(np.clip(np.ceil(1.5 * (target - n_feasible) / accept), 64, 1 << 22))
            drawn_total += batch
            if drawn_total > cap:
                raise CapExceededError(
                    f"generated more than {cap} candidate households in one sweep"
                )
            classes = np.searchsorted(cdf, rng.random(batch) * cdf[-1]).astype(np.int64)
            classes = np.minimum(classes, len(cdf) - 1)
            hh, mem, _, mem_class = draw_households(
                params, schema, classes, rng, sizes=np.full(batch, h), tables=tables
            )
            mask = check_batch(rules, hh, mem.reshape(batch, h, p))
            batches.append((classes, hh, mem, mem_class, mask))
            n_feasible += int(mask.sum())
            n_drawn_h += batch
        if len(batches) == 1:
            classes, hh, mem, mem_class, mask = batches[0]
        else:
            classes, hh, mem, mem_class, mask = (np.concatenate(a) for a in zip(*batches))
        # keep everything up to and including the target-th feasible candidate
        cut = int(np.searchsorted(np.cumsum(mask), target))
        feasible = np.flatnonzero(mask[: cut + 1])
        infeasible = np.flatnonzero(~mask[: cut + 1])
        mem = mem.reshape(-1, h, p)
        kept.append((
            hh[feasible],
            mem[feasible].reshape(-1, p),
            hh[infeasible],
            mem[infeasible].reshape(-1, p),
            classes[infeasible],
            mem_class.reshape(-1, h)[infeasible].reshape(-1),
        ))
        n_candidates.append(cut + 1)
    f_hh, f_mem, i_hh, i_mem, i_class, i_mem_class = (np.concatenate(a) for a in zip(*kept))
    n_candidates = np.array(n_candidates, dtype=np.int64)
    n_infeasible = n_candidates - targets
    return AugmentedBatch(
        feasible=DatasetView.from_arrays(f_hh, f_mem, sizes.repeat(targets)),
        infeasible=DatasetView.from_arrays(i_hh, i_mem, sizes.repeat(n_infeasible)),
        infeasible_hh_class=i_class,
        infeasible_mem_class=i_mem_class,
        n_candidates=n_candidates,
        n_infeasible=n_infeasible,
    )

