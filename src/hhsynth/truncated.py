"""Sampler steps for models with structural zeros.

Each iteration regenerates, per observed household size h, candidate
households from the current parameters conditioned on size h, keeping exactly
n_h feasible draws (the synthesis by-product) and every infeasible draw made
before the n_h-th feasible one (the augmented records).  Parameter updates
then treat observed plus augmented records as one dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoints import FeasibleDraws
from .constraints import RuleSet, check_batch
from .data import DatasetView, Schema
from .gibbs import ChainState, resample_parameters, sample_classes
from .model import DrawTables, Hyperparams, Params, draw_households, size_class_probs


class CapExceededError(RuntimeError):
    """Candidate generation hit the per-iteration budget."""


@dataclass
class StratumDraws:
    """Kept candidates for one household size."""

    size: int
    feasible_hh: np.ndarray  # (n_h, q)
    feasible_mem: np.ndarray  # (n_h * h, p)
    infeasible_hh: np.ndarray  # (n0_h, q)
    infeasible_mem: np.ndarray  # (n0_h * h, p)
    infeasible_hh_class: np.ndarray  # (n0_h,)
    infeasible_mem_class: np.ndarray  # (n0_h * h,)
    n_candidates: int

    @property
    def n_infeasible(self) -> int:
        return self.infeasible_hh.shape[0]


@dataclass
class AugmentedBatch:
    strata: dict[int, StratumDraws]

    @property
    def total_infeasible(self) -> int:
        return sum(s.n_infeasible for s in self.strata.values())

    @property
    def total_candidates(self) -> int:
        return sum(s.n_candidates for s in self.strata.values())

    def feasible_draws(self) -> FeasibleDraws:
        """Feasible by-product households, strata in ascending size order."""
        sizes = []
        hh = []
        mem = []
        for h in sorted(self.strata):
            s = self.strata[h]
            hh.append(s.feasible_hh)
            mem.append(s.feasible_mem)
            sizes.append(np.full(s.feasible_hh.shape[0], h, dtype=np.int64))
        return FeasibleDraws(
            hh_codes=np.concatenate(hh, axis=0),
            mem_codes=np.concatenate(mem, axis=0),
            sizes=np.concatenate(sizes),
        )

    def infeasible_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated augmented records: hh codes, hh classes, member codes,
        member classes, and per-member household-class assignments."""
        hh_codes, hh_class, mem_codes, mem_class, mem_hh_class = [], [], [], [], []
        for h in sorted(self.strata):
            s = self.strata[h]
            hh_codes.append(s.infeasible_hh)
            hh_class.append(s.infeasible_hh_class)
            mem_codes.append(s.infeasible_mem)
            mem_class.append(s.infeasible_mem_class)
            mem_hh_class.append(np.repeat(s.infeasible_hh_class, h))
        return (
            np.concatenate(hh_codes, axis=0),
            np.concatenate(hh_class),
            np.concatenate(mem_codes, axis=0),
            np.concatenate(mem_class),
            np.concatenate(mem_hh_class),
        )


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
    discarded.  Raises CapExceededError once the total candidate count over
    all strata passes cap.
    """
    p = len(schema.individual_vars)
    tables = DrawTables(params, schema)
    strata: dict[int, StratumDraws] = {}
    drawn_total = 0
    for h in sorted(histogram):
        target = histogram[h]
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
        strata[h] = StratumDraws(
            size=h,
            feasible_hh=hh[feasible],
            feasible_mem=mem[feasible].reshape(-1, p),
            infeasible_hh=hh[infeasible],
            infeasible_mem=mem[infeasible].reshape(-1, p),
            infeasible_hh_class=classes[infeasible],
            infeasible_mem_class=mem_class.reshape(-1, h)[infeasible].reshape(-1),
            n_candidates=cut + 1,
        )
    return AugmentedBatch(strata=strata)


def truncated_sweep(
    state: ChainState,
    view: DatasetView,
    schema: Schema,
    hyper: Hyperparams,
    rules: RuleSet,
    histogram: dict[int, int],
    rng: np.random.Generator,
    cap: int,
) -> None:
    """One sweep with augmentation; updates the state in place.

    Observed households get fresh class draws; augmented records keep the
    classes they were generated with.  Stick, kernel, and concentration
    updates count observed and augmented records together.  If generation
    exceeds the cap the previous batch is reused and the event counted.
    """
    try:
        state.augmented = generate_augmented(state.params, schema, rules, histogram, rng, cap)
    except CapExceededError:
        if state.augmented is None:
            raise
        state.cap_exceeded += 1
    batch = state.augmented

    sample_classes(state, view, rng)

    aug_hh, aug_class, aug_mem, aug_mem_class, aug_mem_hh_class = batch.infeasible_arrays()
    state.params = resample_parameters(
        state.params,
        hyper,
        rng,
        hh_class=np.concatenate([state.hh_class, aug_class]),
        hh_codes=np.concatenate([view.hh_codes, aug_hh], axis=0),
        mem_hh_class=np.concatenate([state.hh_class[view.mem_hh], aug_mem_hh_class]),
        mem_class=np.concatenate([state.mem_class, aug_mem_class]),
        mem_codes=np.concatenate([view.mem_codes, aug_mem], axis=0),
    )
    state.iteration += 1
