"""Rejection augmentation: kept-draw semantics and stopping-rule statistics.

Candidates are generated until the n_h-th feasible household per stratum, so
the infeasible count per iteration is negative binomial; its exact mean and
variance give sharp statistical checks against the enumerated infeasible
probability computed by a separate code path.
"""

import numpy as np
import pytest

from hhsynth.constraints import RuleSet, check_batch, compile_rules
from hhsynth.gibbs import init_state
from hhsynth.model import Hyperparams, infeasible_mass, prior_draw
from hhsynth.rng import substream
from hhsynth.truncated import (
    CapExceededError,
    generate_augmented,
    truncated_sweep,
)


@pytest.fixture
def head_rules(toy_schema):
    return compile_rules("exactly_one role = 1", toy_schema)


def test_generate_augmented_counts_and_validity(toy_schema, toy_params, head_rules):
    histogram = {1: 3, 2: 4, 3: 2}
    batch = generate_augmented(
        toy_params, toy_schema, head_rules, histogram, substream(70, "gen"), cap=10**6
    )
    feasible, infeasible = batch.feasible, batch.infeasible
    np.testing.assert_array_equal(np.bincount(feasible.sizes, minlength=4)[1:], [3, 4, 2])
    np.testing.assert_array_equal(
        np.bincount(infeasible.sizes, minlength=4)[1:], batch.n_infeasible
    )
    np.testing.assert_array_equal(batch.n_candidates, [3, 4, 2] + batch.n_infeasible)
    assert batch.total_candidates == 9 + batch.total_infeasible
    assert feasible.mem_codes.shape == (3 * 1 + 4 * 2 + 2 * 3, 2)
    for view, ok in ((feasible, True), (infeasible, False)):
        # sizes are forced to the stratum, and the arrays agree with them
        np.testing.assert_array_equal(view.hh_codes[:, 1], view.sizes - 1)
        assert view.mem_codes.shape[0] == view.sizes.sum()
        for h in histogram:
            rows = view.sizes == h
            codes = view.mem_codes[rows[view.mem_hh]].reshape(-1, h, 2)
            assert (check_batch(head_rules, view.hh_codes[rows], codes) == ok).all()
    assert batch.infeasible_hh_class.shape == (infeasible.n_households,)
    assert batch.infeasible_mem_class.shape == (infeasible.n_individuals,)


def test_feasible_view_concatenation(toy_schema, toy_params, head_rules):
    histogram = {2: 5, 1: 2}
    batch = generate_augmented(
        toy_params, toy_schema, head_rules, histogram, substream(70, "cat"), cap=10**6
    )
    view = batch.feasible
    counts = dict(zip(*np.unique(view.sizes, return_counts=True)))
    assert {int(k): int(v) for k, v in counts.items()} == histogram
    assert view.mem_codes.shape[0] == view.sizes.sum()
    # ascending stratum order
    assert (np.diff(view.sizes) >= 0).all()
    np.testing.assert_array_equal(view.hh_start, np.cumsum(view.sizes) - view.sizes)


def test_infeasible_view_shapes(toy_schema, toy_params, head_rules):
    histogram = {2: 30, 3: 20}
    batch = generate_augmented(
        toy_params, toy_schema, head_rules, histogram, substream(70, "aug"), cap=10**6
    )
    view = batch.infeasible
    n0 = batch.total_infeasible
    assert view.n_households == batch.infeasible_hh_class.shape[0] == n0
    assert (np.diff(view.sizes) >= 0).all()
    want_members = int((batch.n_infeasible * np.array([2, 3])).sum())
    assert view.n_individuals == batch.infeasible_mem_class.shape[0] == want_members
    # per-member class labels repeat the household's label size-h times
    per_size = np.split(batch.infeasible_hh_class, np.cumsum(batch.n_infeasible)[:-1])
    np.testing.assert_array_equal(
        batch.infeasible_hh_class[view.mem_hh],
        np.concatenate([np.repeat(c, h) for c, h in zip(per_size, [2, 3])]),
    )


def test_infeasible_count_matches_negative_binomial_mean(toy_schema, toy_params, head_rules):
    # stopping at the r-th feasible draw makes E[n0] = r * pi0 / (1 - pi0)
    pi0, _ = infeasible_mass(toy_params, toy_schema, head_rules, 2)
    r, M = 100, 300
    rng = substream(71, "negbin")
    counts = np.array(
        [
            generate_augmented(toy_params, toy_schema, head_rules, {2: r}, rng, 10**7)
            .total_infeasible
            for _ in range(M)
        ],
        dtype=float,
    )
    want_mean = r * pi0 / (1 - pi0)
    want_var = r * pi0 / (1 - pi0) ** 2
    assert abs(counts.mean() - want_mean) < 4 * np.sqrt(want_var / M)


def test_all_feasible_when_rules_never_fire(toy_schema, toy_params):
    rules = compile_rules("forbid own = 1, color = 1 & color = 1", toy_schema)
    # a size-1 household cannot host two distinct members, so nothing dies
    batch = generate_augmented(
        toy_params, toy_schema, rules, {1: 10}, substream(72, "none"), cap=10**6
    )
    assert batch.total_infeasible == 0
    np.testing.assert_array_equal(batch.n_candidates, [10])
    assert batch.infeasible.n_households == 0


def test_zero_mass_stratum_raises(toy_schema, toy_params, head_rules):
    params = toy_params.copy()
    params.hh_kernels[1][:, 1] = 0.0
    with pytest.raises(CapExceededError, match="zero probability"):
        generate_augmented(
            params, toy_schema, head_rules, {2: 5}, substream(73, "zero"), cap=10**6
        )


def test_impossible_rules_hit_the_cap(toy_schema, toy_params):
    everything = compile_rules("forbid role = 1\nforbid role = 2", toy_schema)
    with pytest.raises(CapExceededError, match="candidate households"):
        generate_augmented(
            toy_params, toy_schema, everything, {1: 5}, substream(73, "cap"), cap=5000
        )


def test_generate_augmented_is_deterministic(toy_schema, toy_params, head_rules):
    a = generate_augmented(
        toy_params, toy_schema, head_rules, {2: 20}, substream(74, "det"), cap=10**6
    )
    b = generate_augmented(
        toy_params, toy_schema, head_rules, {2: 20}, substream(74, "det"), cap=10**6
    )
    np.testing.assert_array_equal(a.feasible.hh_codes, b.feasible.hh_codes)
    np.testing.assert_array_equal(a.infeasible.mem_codes, b.infeasible.mem_codes)
    np.testing.assert_array_equal(a.n_candidates, b.n_candidates)


def test_sweep_updates_state(toy_schema, toy_dataset, head_rules):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    view = toy_dataset.to_view()
    rng = substream(75, "sweep")
    state = init_state(view, hyper, rng)
    histogram = {1: 2, 2: 2, 3: 1}
    truncated_sweep(state, view, toy_schema, hyper, head_rules, histogram, rng, cap=10**6)
    assert state.iteration == 1
    assert state.augmented is not None
    assert state.hh_class.shape == (5,)
    assert state.mem_class.shape == (9,)
    state.params.validate()
    sizes = state.augmented.feasible.sizes
    np.testing.assert_array_equal(np.bincount(sizes, minlength=4)[1:], [2, 2, 1])


def test_sweep_reuses_previous_batch_on_cap(toy_schema, toy_dataset, head_rules):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    view = toy_dataset.to_view()
    rng = substream(76, "reuse")
    state = init_state(view, hyper, rng)
    histogram = {1: 2, 2: 2, 3: 1}
    truncated_sweep(state, view, toy_schema, hyper, head_rules, histogram, rng, cap=10**6)
    previous = state.augmented
    # a cap too small for even one batch forces reuse
    truncated_sweep(state, view, toy_schema, hyper, head_rules, histogram, rng, cap=1)
    assert state.cap_exceeded == 1
    assert state.augmented is previous
    assert state.iteration == 2


def test_sweep_without_previous_batch_propagates(toy_schema, toy_dataset, head_rules):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    view = toy_dataset.to_view()
    rng = substream(77, "nofallback")
    state = init_state(view, hyper, rng)
    with pytest.raises(CapExceededError):
        truncated_sweep(
            state, view, toy_schema, hyper, head_rules, {1: 2, 2: 2, 3: 1}, rng, cap=1
        )
