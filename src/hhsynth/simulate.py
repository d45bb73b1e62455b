"""Toy household population generator for smoke tests and worked examples.

The generator plants a controllable amount of within-household structure:
each household flips one coin with probability ``copy_prob``; on success every
member copies the head's value of the designated variable, otherwise all
members draw independently from the marginal.  Everything else is independent
draws, so closed-form check values exist for within-household statistics.
"""

from __future__ import annotations

import numpy as np

from .config import ToyConfig
from .data import Dataset, DatasetView, Schema, SchemaError


def marginal(config: ToyConfig, schema: Schema, name: str) -> np.ndarray:
    """The category probabilities of one variable; SchemaError if config's are malformed."""
    var = schema.variable(name)
    probs = config.marginals.get(name)
    if probs is None:
        return np.full(var.cardinality, 1.0 / var.cardinality)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (var.cardinality,) or np.any(probs < 0):
        raise SchemaError(f"marginal for {name!r} must be {var.cardinality} nonnegative weights")
    return probs / probs.sum()


def simulate_toy_population(
    schema: Schema, config: ToyConfig, rng: np.random.Generator
) -> Dataset:
    """Draw a toy population; a SchemaError names the ToyConfig field the schema cannot hold."""
    individual = {v.name: v for v in schema.individual_vars}
    for key in ("copy_variable", "role_variable"):
        name = getattr(config, key)
        if name is not None and name not in individual:
            raise SchemaError(f"{key} {name!r} is not an individual variable")
    if config.role_variable is not None:
        d = individual[config.role_variable].cardinality
        if not (0 <= config.head_code < d and 0 <= config.other_code < d):
            raise SchemaError(f"head_code and other_code must lie within 1..{d}")
    sizes_avail = sorted(config.size_probs)
    if not sizes_avail or sizes_avail[0] < 1 or sizes_avail[-1] > schema.max_size:
        raise SchemaError(f"size_probs must cover sizes within 1..{schema.max_size}")
    weights = np.array([config.size_probs[h] for h in sizes_avail], dtype=float)
    weights = weights / weights.sum()

    n = config.n_households
    sizes = rng.choice(np.asarray(sizes_avail), size=n, p=weights)
    total = int(sizes.sum())
    mem_hh = np.repeat(np.arange(n), sizes)
    hh_start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    position = np.arange(total) - hh_start[mem_hh]  # 0 marks the head

    hh_codes = np.zeros((n, len(schema.household_vars)), dtype=np.int64)
    for k, var in enumerate(schema.household_vars):
        if var.is_size:
            hh_codes[:, k] = sizes - 1
        else:
            hh_codes[:, k] = rng.choice(var.cardinality, size=n, p=marginal(config, schema, var.name))

    mem_codes = np.zeros((total, len(schema.individual_vars)), dtype=np.int64)
    copies = rng.random(n) < config.copy_prob
    for k, var in enumerate(schema.individual_vars):
        if config.role_variable is not None and var.name == config.role_variable:
            mem_codes[:, k] = np.where(position == 0, config.head_code, config.other_code)
            continue
        marg = marginal(config, schema, var.name)
        draws = rng.choice(var.cardinality, size=total, p=marg)
        if var.name == config.copy_variable:
            head_values = draws[hh_start]
            copy_members = copies[mem_hh] & (position > 0)
            draws = np.where(copy_members, head_values[mem_hh], draws)
        mem_codes[:, k] = draws

    return Dataset(
        schema,
        view=DatasetView.from_arrays(hh_codes, mem_codes, sizes),
        ids=[f"h{i + 1:07d}" for i in range(n)],
    )


def sample_households(
    dataset: Dataset, n: int, rng: np.random.Generator
) -> Dataset:
    """Simple random sample of n households, original order preserved."""
    if n > dataset.n_households:
        raise ValueError(f"cannot sample {n} of {dataset.n_households} households")
    picks = np.sort(rng.choice(dataset.n_households, size=n, replace=False))
    keep = np.zeros(dataset.n_households, dtype=bool)
    keep[picks] = True
    sample = DatasetView.from_arrays(
        dataset.hh_codes[keep], dataset.mem_codes[keep[dataset.mem_hh]], dataset.sizes[keep]
    )
    return Dataset(dataset.schema, view=sample, ids=[dataset.ids[i] for i in picks.tolist()])


def all_equal_probability(marginal: np.ndarray, copy_prob: float, size: int) -> float:
    """Closed-form Pr(all members share the copied value | household size).

    With one copy coin per household: copy_prob + (1 - copy_prob) * sum_c m_c^size,
    since in the no-copy branch all members draw the value independently.
    """
    marginal = np.asarray(marginal, dtype=float)
    marginal = marginal / marginal.sum()
    return float(copy_prob + (1.0 - copy_prob) * np.sum(marginal**size))
