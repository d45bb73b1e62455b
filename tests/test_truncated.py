"""Rejection augmentation: kept-draw semantics and stopping-rule statistics.

Candidates are generated until the n_h-th feasible household per stratum, so
the infeasible count per iteration is negative binomial; its exact mean and
variance give sharp statistical checks against the enumerated infeasible
probability computed by a separate code path.
"""

import json

import numpy as np
import pytest

from hhsynth import truncated
from hhsynth.constraints import RuleSet, check_batch, compile_rules
from hhsynth.gibbs import ChainConfig, counted_arrays, gibbs_sweep, init_state, run_chain
from hhsynth.model import Hyperparams, infeasible_mass, prior_draw
from hhsynth.rng import substream
from hhsynth.truncated import CapExceededError, generate_augmented


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
    n_infeasible = np.bincount(view.sizes, minlength=4)[[2, 3]]
    want_members = int((n_infeasible * np.array([2, 3])).sum())
    assert view.n_individuals == batch.infeasible_mem_class.shape[0] == want_members
    # per-member class labels repeat the household's label size-h times
    per_size = np.split(batch.infeasible_hh_class, np.cumsum(n_infeasible)[:-1])
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
    assert batch.total_candidates == 10
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
    np.testing.assert_array_equal(a.infeasible.sizes, b.infeasible.sizes)


def test_sweep_updates_state(toy_schema, toy_dataset, head_rules):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    view = toy_dataset.to_view()
    rng = substream(75, "sweep")
    state = init_state(view, hyper, rng)
    histogram = {1: 2, 2: 2, 3: 1}
    state.augmented = generate_augmented(
        state.params, toy_schema, head_rules, histogram, rng, cap=10**6
    )
    gibbs_sweep(state, view, hyper, rng)
    assert state.iteration == 1
    assert state.hh_class.shape == (5,)
    assert state.mem_class.shape == (9,)
    state.params.validate()
    sizes = state.augmented.feasible.sizes
    np.testing.assert_array_equal(np.bincount(sizes, minlength=4)[1:], [2, 2, 1])
    # the parameter draws count the augmented records after the observed ones
    batch = state.augmented
    assert batch.total_infeasible > 0
    hh_class, hh_codes, mem_hh_class, mem_class, mem_codes = counted_arrays(state, view)
    np.testing.assert_array_equal(hh_class[:5], state.hh_class)
    np.testing.assert_array_equal(hh_class[5:], batch.infeasible_hh_class)
    np.testing.assert_array_equal(hh_codes[5:], batch.infeasible.hh_codes)
    np.testing.assert_array_equal(
        mem_hh_class[9:], batch.infeasible_hh_class[batch.infeasible.mem_hh]
    )
    np.testing.assert_array_equal(mem_class[9:], batch.infeasible_mem_class)
    np.testing.assert_array_equal(mem_codes[9:], batch.infeasible.mem_codes)


def test_other_columns_follow_the_kernels_given_the_classes(toy_schema, toy_params, head_rules):
    # no rule reads own or color: given its classes, an augmented record's own
    # and color codes are kernel draws, whatever the rule made of its roles
    rng = substream(71, "rest")
    own, color = np.zeros((3, 2)), np.zeros((3, 2, 4))
    for _ in range(300):
        batch = generate_augmented(toy_params, toy_schema, head_rules, {2: 20, 3: 10}, rng, 10**6)
        view, g = batch.infeasible, batch.infeasible_hh_class
        np.add.at(own, (g, view.hh_codes[:, 0]), 1)
        np.add.at(color, (g[view.mem_hh], batch.infeasible_mem_class, view.mem_codes[:, 1]), 1)
    tested = 0
    for counts, kernel in ((own, toy_params.hh_kernels[0]), (color, toy_params.mem_kernels[1])):
        n = counts.sum(axis=-1, keepdims=True)
        cells = np.broadcast_to(n >= 500, counts.shape)
        tested += int(cells[..., 0].sum())
        freq = counts[cells] / np.broadcast_to(n, counts.shape)[cells]
        se = np.sqrt(kernel[cells] * (1 - kernel[cells]) / np.broadcast_to(n, counts.shape)[cells])
        np.testing.assert_array_less(np.abs(freq - kernel[cells]), 4 * se + 1e-12)
    assert tested >= 5


@pytest.mark.filterwarnings("ignore:.*truncation level.*")
def test_sweep_reuses_previous_batch_on_cap(monkeypatch, toy_schema, toy_dataset, head_rules):
    batches = []

    def first_call_only(*args):
        if batches:
            raise CapExceededError("over the cap")
        batches.append(generate_augmented(*args))
        return batches[0]

    monkeypatch.setattr(truncated, "generate_augmented", first_call_only)
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    config = ChainConfig(6, 3, seed=76)
    result = run_chain(toy_dataset, hyper, config, rules=head_rules)
    assert result.final_state.iteration == config.n_iterations
    assert result.diagnostics.cap_exceeded == config.n_iterations - 1
    assert result.n_checkpoints == 3
    assert all(record.feasible is batches[0].feasible for record in result.checkpoints)


def test_sweep_without_previous_batch_propagates(toy_schema, toy_dataset, head_rules):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    with pytest.raises(CapExceededError):
        run_chain(
            toy_dataset, hyper, ChainConfig(6, 3, seed=77, candidate_cap=1), rules=head_rules
        )


def test_checkpoint_file_is_closed_when_the_chain_raises(
    tmp_path, toy_schema, toy_dataset, head_rules
):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    path = tmp_path / "checkpoints.jsonl"
    config = ChainConfig(6, 3, seed=77, candidate_cap=1)
    with pytest.raises(CapExceededError) as info:
        run_chain(toy_dataset, hyper, config, rules=head_rules, checkpoint_path=path)
    # info keeps the traceback, and with it run_chain's frame and its writer, alive;
    # the file must be closed, so its meta line is on disk, all the same
    assert info.type is CapExceededError
    meta = json.loads(path.read_text(encoding="utf8").splitlines()[0])
    assert (meta["mode"], meta["seed"]) == ("truncated", 77)
