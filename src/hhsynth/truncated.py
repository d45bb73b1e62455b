"""Candidate generation for models with structural zeros.

Per observed household size h, candidate households are drawn from the
current parameters conditioned on size h, keeping exactly n_h feasible draws
(the synthesis by-product) and every infeasible draw made before the n_h-th
feasible one (the augmented records).  A batch is those two DatasetViews,
sizes ascending, and per-size counts are read from their sizes.  run_chain
draws one batch before each truncated-mode sweep, and the sweep counts the
augmented records with the observed households.
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
    classes they were generated with.  Per-size counts are read from the
    views' sizes.
    """

    feasible: DatasetView
    infeasible: DatasetView
    infeasible_hh_class: np.ndarray  # (n0,)
    infeasible_mem_class: np.ndarray  # (N0,)

    @property
    def total_infeasible(self) -> int:
        return self.infeasible.n_households

    @property
    def total_candidates(self) -> int:
        return self.feasible.n_households + self.infeasible.n_households


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
    feasible draw in stream order; later infeasible draws are discarded.  Each
    batch's kept draws are slices of it, joined once over all strata and split
    by index on the feasibility mask into the two views.  Raises
    CapExceededError once the total candidate count over all strata passes cap.
    """
    tables = DrawTables(params, schema)
    kept = []  # per batch: its draws up to its size's n_h-th feasible one, and their sizes
    drawn_total = 0
    for h, target in sorted(histogram.items()):
        try:
            cdf = np.cumsum(size_class_probs(params, schema, h))
        except ValueError as exc:
            raise CapExceededError(f"{exc}; candidate generation cannot terminate") from None
        n_feasible = n_drawn_h = 0
        while n_feasible < target:
            # deterministic schedule: scale the guess by the acceptance so far
            accept = (n_feasible + 1.0) / (n_drawn_h + 2.0)
            batch = int(np.clip(np.ceil(1.5 * (target - n_feasible) / accept), 64, 1 << 22))
            drawn_total += batch
            if drawn_total > cap:
                raise CapExceededError(
                    f"generated more than {cap} candidate households in one sweep"
                )
            classes = np.minimum(np.searchsorted(cdf, rng.random(batch) * cdf[-1]), len(cdf) - 1)
            hh, mem, _, mem_class = draw_households(
                params, schema, classes, rng, sizes=np.full(batch, h), tables=tables
            )
            mask = check_batch(rules, hh, mem.reshape(batch, h, -1))
            # slices up to and including the target-th feasible draw; all of an earlier batch
            n = min(int(np.searchsorted(np.cumsum(mask), target - n_feasible)) + 1, batch)
            m = n * h
            kept.append((classes[:n], hh[:n], mem[:m], mem_class[:m], mask[:n], np.full(n, h)))
            n_feasible += int(mask.sum())
            n_drawn_h += batch
    classes, hh, mem, mem_class, mask, sizes = (np.concatenate(a) for a in zip(*kept))
    del kept  # frees the batches the slices keep alive before the split copies them
    mem_mask = mask.repeat(sizes)
    f, mem_f = np.flatnonzero(mask), np.flatnonzero(mem_mask)
    # inverted in place: new masks of a new length each call would pile up in numpy's cache
    i, mem_i = (np.flatnonzero(np.invert(a, out=a)) for a in (mask, mem_mask))
    return AugmentedBatch(
        feasible=DatasetView.from_arrays(hh[f], mem[mem_f], sizes[f]),
        infeasible=DatasetView.from_arrays(hh[i], mem[mem_i], sizes[i]),
        infeasible_hh_class=classes[i],
        infeasible_mem_class=mem_class[mem_i],
    )
