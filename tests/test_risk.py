"""Disclosure-risk machinery: candidate supports, weights, and posteriors.

Support sizes are checked against hand counts of single-variable alternatives
(sum of cardinality minus one over perturbable variables).  Weight identities
(truth column exactly uniform, columns summing to one) follow from the
self-normalized ratio construction and are asserted at float precision.
"""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from hhsynth import risk
from hhsynth.constraints import compile_rules
from hhsynth.data import Dataset, DatasetView, HouseholdRecord
from hhsynth.gibbs import ChainConfig, run_chain
from hhsynth.model import Hyperparams, draw_households, infeasible_mass, prior_draw
from hhsynth.rng import substream
from hhsynth.risk import (
    RiskConfig,
    RiskRow,
    TargetSupport,
    build_support_individual,
    effective_draws,
    importance_posterior,
    importance_weights,
    replicate_likelihood,
    risk_sweep,
)
from hhsynth.synthesis import synthesize_truncated, synthesize_untruncated

import oracles
from conftest import build_dataset, build_schema

pytestmark = pytest.mark.filterwarnings("ignore:.*truncation level.*")


def census_like_schema():
    """Cardinalities shaped like a survey extract without impossible cells."""
    return build_schema(
        household=[("own", 2), ("acreage", 2), ("income", 5), ("hh_size*", 9)],
        individual=[
            ("age", 3),
            ("gender", 2),
            ("race", 6),
            ("english", 2),
            ("hispanic", 2),
            ("insurance", 2),
            ("education", 5),
            ("employment", 3),
            ("migration", 4),
            ("marital", 6),
        ],
    )


def constrained_schema():
    """Cardinalities shaped like an extract with household structure rules."""
    return build_schema(
        household=[("own", 2), ("hh_size*", 3)],
        individual=[
            ("gender", 2),
            ("race", 9),
            ("hispanic", 5),
            ("age", 9),
            ("relationship", 12),
        ],
    )


def test_individual_support_size_census_like():
    schema = census_like_schema()
    support = build_support_individual(
        schema, np.zeros(4, dtype=int), np.zeros(10, dtype=int)
    )
    # household alternatives 1+1+4+8, individual 2+1+5+1+1+1+4+2+3+5
    assert support.hh_values.shape[0] == 1 + 14 + 25
    assert support.mem_values.shape == (1 + 14 + 25, 1, 10)  # one-member households
    assert support.truth_index == 0


@pytest.mark.parametrize("h,want", [(2, 56), (3, 81), (4, 106), (6, 156), (7, 181)])
def test_household_support_size_census_like(h, want):
    schema = census_like_schema()
    support = oracles.build_support_household(
        schema, np.array([0, 0, 0, h - 1]), np.zeros((h, 10), dtype=int)
    )
    # 6 household alternatives (size never perturbed) plus 25 per member
    assert support.hh_values.shape[0] == 1 + want
    assert want == 6 + h * 25


def test_individual_support_with_held_fixed():
    schema = constrained_schema()
    support = build_support_individual(
        schema,
        np.array([0, 1]),
        np.array([0, 0, 0, 0, 5]),
        held_fixed=("relationship",),
    )
    # own 1 + size 2 + gender 1 + race 8 + hispanic 4 + age 8, relationship pinned
    assert support.hh_values.shape[0] == 1 + 24
    assert (support.mem_values[:, 0, 4] == 5).all()


def test_individual_support_order_and_contents(minimal_schema):
    support = build_support_individual(
        minimal_schema, np.array([0]), np.array([1])
    )
    np.testing.assert_array_equal(support.hh_values, [[0], [1], [0]])
    np.testing.assert_array_equal(support.mem_values, [[[1]], [[1]], [[0]]])


def test_household_support_excludes_size_variable(toy_schema):
    support = oracles.build_support_household(
        toy_schema, np.array([0, 1]), np.array([[0, 0], [1, 3]])
    )
    # own 1 alternative, then 1 + 3 per member for role and color
    assert support.hh_values.shape[0] == 1 + 1 + 2 * 4
    assert (support.hh_values[:, 1] == 1).all()


def test_household_support_rules_drop_infeasible(toy_schema):
    rules = compile_rules("exactly_one role = 1", toy_schema)
    truth_members = np.array([[0, 0], [1, 3]])  # one head: feasible
    plain = oracles.build_support_household(toy_schema, np.array([0, 1]), truth_members)
    pruned = oracles.build_support_household(
        toy_schema, np.array([0, 1]), truth_members, rules=rules
    )
    # both role flips break the one-head rule and are dropped
    assert pruned.hh_values.shape[0] == plain.hh_values.shape[0] - 2
    np.testing.assert_array_equal(pruned.hh_values[0], plain.hh_values[0])
    np.testing.assert_array_equal(pruned.mem_values[0], truth_members)


def test_household_support_keeps_infeasible_truth(toy_schema):
    rules = compile_rules("exactly_one role = 1", toy_schema)
    two_heads = np.array([[0, 0], [0, 3]])
    support = oracles.build_support_household(
        toy_schema, np.array([0, 1]), two_heads, rules=rules
    )
    np.testing.assert_array_equal(support.mem_values[0], two_heads)


@pytest.fixture
def fitted_draws(toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    result = run_chain(toy_dataset, hyper, ChainConfig(14, 6, seed=41))
    draws = [r.params for r in result.checkpoints]
    reps = synthesize_untruncated(toy_dataset, result.checkpoints, 3, seed=42)
    views = [r.to_view() for r in reps.replicates]
    return draws, views


def test_weights_truth_column_exactly_uniform(toy_schema, fitted_draws):
    draws, _ = fitted_draws
    support = build_support_individual(toy_schema, np.array([0, 0]), np.array([0, 1]))
    weights = importance_weights(support, draws)
    R, C = len(draws), support.hh_values.shape[0]
    assert weights.shape == (R, C)
    assert (weights[:, 0] == 1.0 / R).all()
    np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-12)
    assert (weights >= 0).all()


def _prior_draws_and_data(schema, F, S, n):
    hyper = Hyperparams.uniform(schema, F, S)
    draws = [prior_draw(hyper, substream(83, S, r)) for r in range(4)]
    rng = substream(83, S, "data")
    hh, mem, sizes, _ = draw_households(draws[0], schema, rng.integers(F, size=n), rng)
    return draws, Dataset(schema, view=DatasetView.from_arrays(hh, mem, sizes))


def test_weights_bitwise_match_per_pair_oracle(toy_schema, wide_schema, toy_dataset, fitted_draws):
    # one view over all targets scores every draw as one view per (target, draw) did
    _check_weights_against_oracle(toy_schema, fitted_draws[0], toy_dataset)
    _check_weights_against_oracle(toy_schema, *_prior_draws_and_data(toy_schema, 3, 12, 8))
    _check_weights_against_oracle(wide_schema, *_prior_draws_and_data(wide_schema, 3, 9, 8))


def _check_weights_against_oracle(schema, draws, data):
    rules = compile_rules("exactly_one role = 1", schema)
    view = data.to_view()
    supports = [
        build_support_individual(schema, view.hh_codes[view.mem_hh[j]], view.mem_codes[j])
        for j in range(view.n_individuals)
    ]
    for i, members in enumerate(np.split(view.mem_codes, view.hh_start[1:])):
        for r in (None, rules):
            support = oracles.build_support_household(schema, view.hh_codes[i], members, rules=r)
            supports.append(support)
    for support in supports:
        got = importance_weights(support, draws)
        want = oracles.importance_weights(support, draws)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_weights_single_draw_degenerate(toy_schema, fitted_draws):
    draws, _ = fitted_draws
    support = build_support_individual(toy_schema, np.array([0, 0]), np.array([0, 1]))
    weights = importance_weights(support, draws[:1])
    np.testing.assert_array_equal(weights, np.ones((1, weights.shape[1])))


def test_weights_underflow_raises(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 2, 2)
    params = prior_draw(hyper, substream(80, "under"))
    # two structurally impossible attributes drive the ratio below the
    # smallest positive double
    params.hh_kernels[0][:, 1] = 0.0
    params.mem_kernels[1][..., 3] = 0.0
    support = TargetSupport(
        hh_values=np.array([[0, 0], [1, 0]]),
        mem_values=np.array([[[0, 0]], [[0, 3]]]),
    )
    with pytest.raises(ValueError, match="candidate 1"):
        importance_weights(support, [params, params])


def test_posterior_uniform_when_candidates_indistinguishable(toy_schema, toy_dataset, fitted_draws):
    _, views = fitted_draws
    hyper = Hyperparams.uniform(toy_schema, 2, 2)
    params = prior_draw(hyper, substream(81, "flat"))
    for kernel in params.hh_kernels + params.mem_kernels:
        kernel[:] = 1.0 / kernel.shape[-1]
    support = build_support_individual(toy_schema, np.array([0, 0]), np.array([0, 1]))
    result = importance_posterior(support, views, [params])
    C = support.hh_values.shape[0]
    np.testing.assert_allclose(result.posterior, 1.0 / C, atol=1e-12)
    assert result.posterior.sum() == pytest.approx(1.0, abs=1e-12)
    # all tied: the stable order puts the truth first
    assert result.rank_of_truth == 1
    assert result.top_probability == pytest.approx(result.truth_probability)


def test_posterior_matches_two_draw_hand_computation(minimal_schema):
    # two parameter draws, two candidates: every weight and score is a short
    # pencil exercise, giving an exact oracle for the whole scoring path
    hyper = Hyperparams.uniform(minimal_schema, 1, 1)
    draw_a = prior_draw(hyper, substream(82, "a"))
    draw_a.hh_kernels[0][:] = [0.5, 0.5]
    draw_a.mem_kernels[0][:] = [0.9, 0.1]
    draw_b = draw_a.copy()
    draw_b.mem_kernels[0][:] = [0.1, 0.9]
    replicate = build_dataset(minimal_schema, [((0,), [(0,)])] * 6)
    support = build_support_individual(
        minimal_schema, np.array([0]), np.array([0]), held_fixed=("hh_size",)
    )
    assert support.hh_values.shape[0] == 2

    result = importance_posterior(support, [replicate.to_view()], [draw_a, draw_b])
    # candidate ratios to truth: 1/9 under draw a, 9 under draw b
    w_alt = np.array([1 / 9, 9.0])
    w_alt /= w_alt.sum()
    p_a, p_b = (0.5 * 0.9) ** 6, (0.5 * 0.1) ** 6
    score_truth = 0.5 * p_a + 0.5 * p_b
    score_alt = w_alt[0] * p_a + w_alt[1] * p_b
    want = np.array([score_truth, score_alt])
    want /= want.sum()
    np.testing.assert_allclose(result.posterior, want, rtol=1e-9)
    assert result.rank_of_truth == 1
    assert result.truth_probability > 0.9


def test_replicate_likelihood_doubles(toy_schema, toy_params):
    once = build_dataset(toy_schema, [((0, 1), [(0, 1), (1, 2)])])
    twice = build_dataset(
        toy_schema, [((0, 1), [(0, 1), (1, 2)]), ((0, 1), [(0, 1), (1, 2)])]
    )
    a = replicate_likelihood(toy_params, once)
    b = replicate_likelihood(toy_params, twice)
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_risk_config_validation():
    with pytest.raises(ValueError, match="unknown target kind"):
        RiskConfig(kind="person")


def test_risk_sweep_deduplicates_individuals(toy_schema, fitted_draws):
    draws, views = fitted_draws
    # the first two households hold identical people; the third adds two more
    data = build_dataset(
        toy_schema,
        [
            ((0, 0), [(0, 1)]),
            ((0, 0), [(0, 1)]),  # identical person in an identical household
            ((1, 1), [(0, 1), (1, 2)]),
        ],
    )
    summary = risk_sweep(data, [], draws, RiskConfig(kind="individual"))
    # replicates list is empty: scores reduce to the prior, still well defined
    assert len(summary.rows) == 3
    ids = [row.target_id for row in summary.rows]
    assert len(set(ids)) == 3
    assert all(";" in t for t in ids)


def test_risk_sweep_household_kind_with_sizes(toy_schema, fitted_draws):
    draws, views = fitted_draws
    data = build_dataset(
        toy_schema,
        [
            ((0, 1), [(0, 1), (1, 2)]),
            ((1, 1), [(1, 2), (0, 1)]),  # same multiset, different own code
            ((0, 0), [(0, 1)]),
        ],
    )
    summary = risk_sweep(
        data, [d for d in []], draws, RiskConfig(kind="household", sizes=(2,))
    )
    assert len(summary.rows) == 2
    for row in summary.rows:
        assert "|" in row.target_id
        assert row.n_candidates == 1 + 1 + 2 * 4


def test_risk_sweep_member_order_is_canonical(toy_schema, fitted_draws):
    draws, _ = fitted_draws
    a = build_dataset(toy_schema, [((0, 1), [(0, 1), (1, 2)])])
    b = build_dataset(toy_schema, [((0, 1), [(1, 2), (0, 1)])])
    rows_a = risk_sweep(a, [], draws, RiskConfig(kind="household")).rows
    rows_b = risk_sweep(b, [], draws, RiskConfig(kind="household")).rows
    assert rows_a[0].target_id == rows_b[0].target_id
    assert rows_a[0].rho_truth == rows_b[0].rho_truth


def _replicate_log_p(schema, rules, draws, views):
    """Replicate log likelihoods (R, L) as risk_sweep forms them: with rules,
    less n_h * log(1 - pi0_h) for each household size h of each replicate."""
    log_p = np.array([[risk.dataset_loglik(d, v) for v in views] for d in draws])
    if rules:
        counts = np.array([np.bincount(v.sizes, minlength=schema.max_size + 1) for v in views])
        sizes = np.flatnonzero(counts.any(axis=0))
        pi0 = np.array([[infeasible_mass(d, schema, rules, h)[0] for h in sizes] for d in draws])
        log_p -= np.log1p(-pi0) @ counts[:, sizes].T
    return log_p


@pytest.mark.parametrize(
    "kind, with_rules", [("individual", False), ("household", False), ("household", True)]
)
@pytest.mark.parametrize("schema_name, S", [("toy_schema", None), ("wide_schema", 9)])
def test_risk_sweep_matches_per_target_oracle(
    monkeypatch, request, toy_dataset, fitted_draws, schema_name, S, kind, with_rules
):
    # every target scored in one pass gives the rows a per-target loop gives
    schema = request.getfixturevalue(schema_name)
    if S is None:
        (draws, views), data = fitted_draws, toy_dataset
    else:
        draws, data = _prior_draws_and_data(schema, 3, S, 8)
        views = [_prior_draws_and_data(schema, 3, S, 10)[1].to_view()]
    replicates = [Dataset(schema, view=v) for v in views]
    rules = compile_rules("exactly_one role = 1", schema) if with_rules else None
    scored = []  # (target id, support) in scoring order
    score = risk._score

    def spy(hh_values, mem_values, counts, ids, params_draws, log_p):
        scored.extend(zip(ids, _split(hh_values, mem_values, counts)))
        return score(hh_values, mem_values, counts, ids, params_draws, log_p)

    monkeypatch.setattr(risk, "_score", spy)
    rows = risk_sweep(data, replicates, draws, RiskConfig(kind, rules=rules)).rows
    monkeypatch.setattr(risk, "importance_weights", oracles.importance_weights)
    supports = dict(scored)
    assert len(rows) == len(scored) == len(supports) > 1
    if with_rules:  # the rules drop some target's candidates
        assert any(
            oracles.build_support_household(schema, s.hh_values[0], s.mem_values[0])
            .hh_values.shape[0]
            > s.hh_values.shape[0]
            for s in supports.values()
        )
    log_p = _replicate_log_p(schema, rules, draws, views)
    for row in rows:
        support = supports[row.target_id]
        result = importance_posterior(support, views, draws, log_p)
        want = RiskRow(row.target_id, support.hh_values.shape[0], result.rank_of_truth,
                       result.truth_probability, result.top_probability)
        assert repr(row) == repr(want)


@pytest.mark.parametrize(
    "kind, with_rules", [("individual", False), ("individual", True), ("household", True)]
)
def test_risk_sweep_matches_one_target_posterior_oracle(wide_schema, kind, with_rules):
    # twelve draws and up to 40 candidates: sums over draws and over candidates
    # run past numpy's eight-term pairwise blocks, so a changed order shows
    hyper = Hyperparams.uniform(wide_schema, 3, 9)
    draws = [prior_draw(hyper, substream(84, r)) for r in range(12)]
    rng = substream(84, "data")
    hh, mem, sizes, _ = draw_households(draws[0], wide_schema, rng.integers(3, size=12), rng)
    data = Dataset(wide_schema, view=DatasetView.from_arrays(hh, mem, sizes))
    views = [data.to_view()] * 2 + [_prior_draws_and_data(wide_schema, 3, 9, 10)[1].to_view()]
    rules = compile_rules("exactly_one role = 1", wide_schema) if with_rules else None
    config = RiskConfig(kind, held_fixed=("relate",), rules=rules)
    rows = risk_sweep(data, [Dataset(wide_schema, view=v) for v in views], draws, config).rows
    log_p = _replicate_log_p(wide_schema, rules, draws, views)
    fixed = ("relate",)
    if kind == "individual":
        q = len(wide_schema.household_vars)
        combined = np.concatenate([hh[np.repeat(np.arange(12), sizes)], mem], axis=1)
        supports = [
            build_support_individual(wide_schema, t[:q], t[q:], fixed)
            for t in np.unique(combined, axis=0)
        ]
    else:
        supports = []
        for i, members in enumerate(np.split(mem, np.cumsum(sizes)[:-1])):
            members = np.array(sorted(map(tuple, members.tolist())), dtype=np.int64)
            supports.append(
                oracles.build_support_household(wide_schema, hh[i], members, fixed, rules)
            )
    assert len({s.hh_values.shape[0] for s in supports}) > 1 or kind == "individual"
    assert len(rows) == len(supports)
    for row, support in zip(rows, supports):
        want = oracles.posterior(support, oracles.importance_weights(support, draws), log_p)
        assert (row.n_candidates, row.rank_of_truth, row.rho_truth, row.rho_max) == (
            support.hh_values.shape[0], *want
        )
        assert repr(row.rho_truth) == repr(want[1]) and repr(row.rho_max) == repr(want[2])


def _budget_case(schema, kind, with_rules, n=12):
    """Draws, data, replicates and config for the run-budget tests."""
    draws, data = _prior_draws_and_data(schema, 3, 9, n)
    replicates = [data, _prior_draws_and_data(schema, 3, 9, 10)[1]]
    rules = compile_rules("exactly_one role = 1", schema) if with_rules else None
    return draws, data, replicates, RiskConfig(kind, rules=rules)


def _split(hh_values, mem_values, counts) -> list[TargetSupport]:
    """The supports of one run's targets, from the candidate arrays _score takes."""
    bounds = np.cumsum(counts)[:-1]
    return [
        TargetSupport(hh, mem)
        for hh, mem in zip(np.split(hh_values, bounds), np.split(mem_values, bounds))
    ]


def _size(support) -> int:
    """Members of each candidate household."""
    return support.mem_values.shape[1]


def _cells(supports, draws, replicates, count=lambda s: s.hh_values.shape[0]) -> int:
    """The cells the targets hold: C * max(F * h, R * L) each, for C = count(support)."""
    F, RL = draws[0].n_hh_classes, len(draws) * len(replicates)
    return sum(count(s) * max(F * _size(s), RL) for s in supports)


BUDGET_KINDS = [("individual", False), ("individual", True), ("household", False),
                ("household", True)]


@pytest.mark.parametrize("kind, with_rules", BUDGET_KINDS)
def test_risk_sweep_rows_do_not_depend_on_the_run_budget(
    monkeypatch, wide_schema, kind, with_rules
):
    draws, data, replicates, config = _budget_case(wide_schema, kind, with_rules)
    calls = []
    score = risk._score

    def spy(hh_values, mem_values, counts, *args):
        calls.append(len(counts))
        return score(hh_values, mem_values, counts, *args)

    monkeypatch.setattr(risk, "_score", spy)
    n_sizes = 1 if kind == "individual" else np.count_nonzero(np.bincount(data.sizes))
    assert kind == "individual" or n_sizes > 1
    rows = {}
    for budget in (1, 3_000, risk.RUN_CELLS, 2**62):
        monkeypatch.setattr(risk, "RUN_CELLS", budget)
        calls.clear()
        rows[budget] = repr(risk_sweep(data, replicates, draws, config).rows)
        if budget == 1:  # one target per run
            assert set(calls) == {1} and len(calls) > 1
        elif budget == 3_000:  # runs of several targets, and more than one run
            assert len(calls) > 1 and max(calls) > 1
        else:  # one run per target size
            assert len(calls) == n_sizes
    assert len(set(rows.values())) == 1


@pytest.mark.parametrize("budget", [1, 500, 3_000, 20_000])
@pytest.mark.parametrize("kind, with_rules", BUDGET_KINDS)
def test_no_run_holds_more_cells_than_the_budget(
    monkeypatch, wide_schema, kind, with_rules, budget
):
    draws, data, replicates, config = _budget_case(wide_schema, kind, with_rules, n=30)
    runs = []
    score = risk._score

    def spy(hh_values, mem_values, counts, *args):
        runs.append(_split(hh_values, mem_values, counts))
        return score(hh_values, mem_values, counts, *args)

    monkeypatch.setattr(risk, "_score", spy)
    monkeypatch.setattr(risk, "RUN_CELLS", budget)
    rows = risk_sweep(data, replicates, draws, config).rows
    assert sum(map(len, runs)) == len(rows)
    for run in runs:
        assert len(run) == 1 or _cells(run, draws, replicates) <= budget
        assert len({_size(s) for s in run}) == 1  # no run mixes household sizes
    # each size's runs are consecutive
    sizes = [_size(run[0]) for run in runs]
    assert len(set(sizes)) == len([h for h, _ in itertools.groupby(sizes)])

    def before_rules(support):  # the candidate count before the rules drop any
        if kind == "individual":  # individual candidates meet no rules
            return support.hh_values.shape[0]
        return oracles.build_support_household(
            wide_schema, support.hh_values[0], support.mem_values[0]
        ).hh_values.shape[0]

    # a run ends where its size group ends, or where the next target of its
    # group would not fit, counted before the rules
    for run, after in zip(runs, runs[1:]):
        assert (_size(after[0]) != _size(run[0])
                or _cells(run + after[:1], draws, replicates, before_rules) > budget)


def test_risk_sweep_memory_does_not_grow_with_the_targets(monkeypatch, wide_schema):
    # quadrupling the household targets less than doubles the traced peak
    hyper = Hyperparams.uniform(wide_schema, 20, 9)
    draws = [prior_draw(hyper, substream(85, r)) for r in range(6)]

    def households(n, *stream):
        rng = substream(85, *stream)
        hh, mem, sizes, _ = draw_households(draws[0], wide_schema, rng.integers(20, size=n), rng)
        return hh, mem, sizes

    def peaks(households, ns, replicates, config):
        hh, mem, sizes = households
        out = []
        for n in ns:
            subset = Dataset(wide_schema, view=DatasetView.from_arrays(
                hh[:n], mem[:sizes[:n].sum()], sizes[:n]
            ))
            gc.collect()  # empties the free lists, which earlier tests fill to any level
            tracemalloc.start()
            try:
                rows = risk_sweep(subset, replicates, draws, config).rows
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(rows) > 0.9 * n  # nearly every household is its own target
        return out

    data = households(480, "data")
    replicates = [Dataset(wide_schema, view=DatasetView.from_arrays(*data))] * 3
    small, large = peaks(data, (120, 480), replicates, RiskConfig("household"))
    assert large < 2 * small, (small, large)
    # a small budget: the runs, not every target's candidates, set the peak
    monkeypatch.setattr(risk, "RUN_CELLS", 2**12)
    data = households(600, "targets")
    replicates = [
        Dataset(wide_schema, view=DatasetView.from_arrays(*households(50, "replicate", i)))
        for i in range(3)
    ]
    for rules in (None, compile_rules("exactly_one role = 1", wide_schema)):
        small, large = peaks(data, (150, 600), replicates, RiskConfig("household", rules=rules))
        assert large < 2 * small, (rules, small, large)


def test_risk_summary_csv(tmp_path, toy_schema, toy_dataset, fitted_draws):
    draws, views = fitted_draws
    summary = risk_sweep(toy_dataset, [], draws, RiskConfig(kind="individual"))
    assert sum(summary.rank_histogram.values()) == len(summary.rows)
    path = tmp_path / "risk.csv"
    summary.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "target_id,n_candidates,rank_of_truth,rho_truth,rho_max"
    assert len(lines) == len(summary.rows) + 1
    hist_path = tmp_path / "hist.csv"
    summary.histogram_to_csv(hist_path)
    assert hist_path.read_text().splitlines()[0] == "rank_of_truth,n_targets"


def test_truncated_candidate_posterior_matches_grid_integration():
    # criterion 5's fixture: 40 size-2 households, 12 with one x=2, no household
    # with two, which the rule forbids.  With one class per level and a uniform
    # prior the truncated model has one parameter psi = Pr(x=2), and a size-2
    # household with k members at x=2 has likelihood psi^k (1-psi)^(2-k) / (1-psi^2)
    schema = build_schema(household=[("hh_size*", 2)], individual=[("x", 2)])
    rules = compile_rules("forbid x = 2 & x = 2", schema)
    records = [
        HouseholdRecord(f"h{i + 1:03d}", (1,), ((1,), (0,)) if i < 12 else ((0,), (0,)))
        for i in range(40)
    ]
    data = Dataset(schema=schema, records=tuple(records))
    result = run_chain(
        data, Hyperparams.uniform(schema, 1, 1), ChainConfig(3000, 500, thin=10, seed=1),
        rules=rules,
    )
    reps = synthesize_truncated(schema, result.checkpoints, 3).replicates
    draws = [rec.params for rec in result.checkpoints]
    rows = risk_sweep(data, reps, draws, RiskConfig("household", rules=rules)).rows

    # (1 - psi^2)^40 = (1 - psi)^40 (1 + psi)^40 cancels into the numerators;
    # every replicate holds 40 size-2 households, K of its 80 members at x=2
    grid = np.linspace(0.0, 1.0, 2001)

    def truncated(K):
        return grid**K * (1.0 - grid) ** (40 - K) / (1.0 + grid) ** 40

    rep_K = [int(z.to_view().mem_codes.sum()) for z in reps]
    targets = [((1,), ((0,), (1,))), ((1,), ((0,), (0,)))]
    assert len(rows) == len(targets)
    for row, (hh, members) in zip(rows, targets):
        support = oracles.build_support_household(
            schema, np.array(hh), np.array(members), rules=rules
        )
        assert row.n_candidates == support.hh_values.shape[0]
        # the data with the target swapped for each candidate: K_c members at x=2
        K = 12 - int(np.sum(members)) + support.mem_values.sum(axis=(1, 2))
        dens = np.stack([truncated(k) for k in K])
        dens /= dens.sum(axis=1, keepdims=True)
        scores = np.prod([(dens * truncated(k)).sum(axis=1) for k in rep_K], axis=0)
        rho_grid = scores / scores.sum()
        assert abs(row.rho_truth - rho_grid[0]) <= 0.03, (row, rho_grid)


def _one_variable_error(K, seed, n=3000):
    """max |rho - exact| / max exact rho for person 0 of n one-member households
    with one individual variable of K categories, drawn from a Dirichlet(2)
    draw, fitted with one class per level and a uniform prior: 25 draws (burn-in
    50, thin 4), 3 replicates, the size held fixed."""
    schema = build_schema(household=[("hh_size*", 2)], individual=[("x", K)])
    rng = substream(98, "one variable", K, seed)
    x = rng.choice(K, size=n, p=rng.dirichlet(np.full(K, 2.0)))
    view = DatasetView.from_arrays(np.zeros((n, 1), dtype=np.int64), x[:, None], np.ones(n))
    data = Dataset(schema, view=view)
    hyper = Hyperparams.uniform(schema, 1, 1)
    result = run_chain(data, hyper, ChainConfig(150, 50, thin=4, seed=seed))
    draws = [record.params for record in result.checkpoints]
    assert len(draws) == 25
    reps = synthesize_untruncated(data, result.checkpoints, 3, seed=seed).replicates
    support = build_support_individual(schema, [0], x[:1], held_fixed=("hh_size",))
    got = importance_posterior(support, reps, draws).posterior
    want = oracles.one_variable_posterior(
        x[1:], support.mem_values[:, 0, 0], [z.mem_codes[:, 0] for z in reps], K
    )
    return float(np.abs(got - want).max() / want.max())


def test_candidate_posterior_matches_the_exact_one_variable_oracle():
    errors = [_one_variable_error(4, seed) for seed in range(7)]
    assert max(errors) <= 0.10, errors


@pytest.mark.xfail(
    strict=True,
    reason="with 64 categories every replicate's draw weights have an effective sample "
    "size of 1.0: one draw carries each replicate's likelihood average",
)
def test_candidate_posterior_matches_the_exact_oracle_at_64_categories():
    errors = [_one_variable_error(64, seed) for seed in range(7)]
    assert max(errors) <= 0.10, errors


def test_effective_draws_of_hand_weights():
    np.testing.assert_allclose(effective_draws(np.full((5, 2), -3.0)), [5.0, 5.0])
    log_p = np.array([[0.0, -1.0], [-800.0, -900.0], [-900.0, -1000.0]])
    np.testing.assert_array_equal(effective_draws(log_p), [1.0, 1.0])
