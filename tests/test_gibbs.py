"""Gibbs conditionals against their closed forms, and chain bookkeeping.

Every conjugate update has a known posterior; the tests draw repeatedly and
compare Monte Carlo means to hand-substituted Beta, Dirichlet, and Gamma
moments.  Class draws are checked against exact enumerated posteriors by
replicating one record many times within a single call.
"""

import itertools

import numpy as np
import pytest
from scipy.special import digamma, logsumexp, polygamma

import oracles
from hhsynth import gibbs
from hhsynth.constraints import compile_rules
from hhsynth.data import DatasetView, size_histogram
from hhsynth.gibbs import (
    ChainConfig,
    Diagnostics,
    gibbs_sweep,
    init_state,
    kernel_counts,
    mcse_batch_means,
    run_chain,
    sample_concentration,
    sample_household_classes,
    sample_member_classes,
    sample_sticks,
    stick_gamma_logs,
)
from hhsynth.model import (
    Hyperparams,
    class_posterior_logweights,
    dirichlet_rows,
    draw_households,
    member_logliks,
    prior_draw,
)
from hhsynth.rng import substream
from hhsynth.truncated import generate_augmented

# the five-household fixture routinely occupies every class, which is the
# point of the saturation warning but noise here
pytestmark = pytest.mark.filterwarnings("ignore:.*truncation level.*")


def test_gamma_log_draws_moments():
    # E[log G] = digamma(a) and Var[log G] = trigamma(a) for G ~ Gamma(a, 1);
    # the tiny shape is the regime where a linear draw would flush to zero
    rng = substream(59, "loggamma")
    n = 200_000
    for a in (0.01, 0.8, 3.0):
        # the kept shapes (>= 1) come from the same gamma call, before the rest
        kept, draws = stick_gamma_logs(np.full(n, 1.0 + a), np.full(n, a), rng)
        for shape, logs in ((a, draws), (1.0 + a, kept)):
            assert np.isfinite(logs).all()
            se_mean = np.sqrt(polygamma(1, shape) / n)
            assert abs(logs.mean() - digamma(shape)) < 4 * se_mean
            assert logs.var() == pytest.approx(polygamma(1, shape), rel=0.05)


def test_stick_log_complement_survives_rounding():
    # concentrated counts with a tiny concentration produce sticks that round
    # to exactly 1.0; the returned log complement must stay finite and match
    # E[log(1 - u)] = digamma(b) - digamma(a + b) for u ~ Beta(a, b)
    counts = np.array([30, 0, 0])
    conc = 0.003
    rng = substream(59, "saturated")
    n = 20_000
    sticks = np.empty((n, 3))
    log1m = np.empty((n, 2))
    for i in range(n):
        # household counts are the one-row case of the shared routine
        sticks[i], _, log1m[i] = (a[0] for a in sample_sticks(counts[None], conc, rng))
    assert (sticks[:, :-1] == 1.0).any(), "fixture no longer exercises rounding"
    assert np.isfinite(log1m).all()
    a, b = 1.0 + counts[0], conc
    want = digamma(b) - digamma(a + b)
    se = np.sqrt(polygamma(1, b) / n)
    assert abs(log1m[:, 0].mean() - want) < 4 * se


def test_household_stick_conjugacy():
    counts = np.array([5, 3, 2])
    conc = 2.0
    rng = substream(60, "hhsticks")
    draws = np.stack([sample_sticks(counts[None], conc, rng)[0][0] for _ in range(20000)])
    assert (draws[:, -1] == 1.0).all()
    # u_g ~ Beta(1 + n_g, conc + count in later classes)
    want = np.array([6 / (6 + 7), 4 / (4 + 4)])
    sd = np.sqrt(want * (1 - want) / np.array([6 + 7 + 1, 4 + 4 + 1]))
    np.testing.assert_array_less(
        np.abs(draws[:, :2].mean(axis=0) - want), 4 * sd / np.sqrt(20000)
    )


def test_household_stick_weights_consistent():
    rng = substream(60, "weights")
    sticks, weights, log1m = (a[0] for a in sample_sticks(np.array([[1, 0, 4, 2]]), 0.7, rng))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(weights[0], sticks[0])
    # the log complement must agree with the stored stick when no rounding bites
    np.testing.assert_allclose(log1m, np.log1p(-sticks[:-1]), atol=1e-10)


def test_member_stick_conjugacy_common_concentration():
    counts = np.array([[4, 1, 0], [0, 2, 5]])
    conc = 1.5
    rng = substream(61, "memsticks")
    draws = np.stack([sample_sticks(counts, conc, rng)[0] for _ in range(20000)])
    assert (draws[:, :, -1] == 1.0).all()
    greater = np.array([[1, 0], [7, 5]])
    a = 1.0 + counts[:, :2]
    b = conc + greater
    want = a / (a + b)
    sd = np.sqrt(want * (1 - want) / (a + b + 1))
    np.testing.assert_array_less(
        np.abs(draws[:, :, :2].mean(axis=0) - want), 4 * sd / np.sqrt(20000)
    )


def test_kernel_conjugacy():
    prior = [np.array([0.5, 1.0, 1.5])]
    counts = [np.array([[2.0, 0.0, 1.0]])]
    rng = substream(62, "kernels")
    weights = [w + c for w, c in zip(prior, counts)]
    draws = np.stack([dirichlet_rows(weights, rng)[0][0] for _ in range(20000)])
    post = np.array([2.5, 1.0, 2.5])
    want = post / post.sum()
    sd = np.sqrt(want * (1 - want) / (post.sum() + 1))
    np.testing.assert_array_less(np.abs(draws.mean(axis=0) - want), 4 * sd / np.sqrt(20000))
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_hh_concentration_conjugacy():
    # free sticks 0.2 and 0.5, passed as their log complements
    log1m = np.log(np.array([0.8, 0.5]))
    shape, rate = 0.25, 0.25
    post_shape = shape + 2
    post_rate = rate - (np.log(0.8) + np.log(0.5))
    rng = substream(63, "hhconc")
    draws = np.array(
        [sample_concentration(log1m[None], shape, rate, rng) for _ in range(20000)]
    )
    want = post_shape / post_rate
    se = np.sqrt(post_shape) / post_rate / np.sqrt(20000)
    assert abs(draws.mean() - want) < 4 * se


def test_mem_concentration_common_mode():
    sticks = np.array([[0.3, 0.4, 1.0], [0.1, 0.6, 1.0]])
    logs = np.log(1.0 - sticks[:, :2])
    shape, rate = 0.25, 0.25
    post_shape = shape + 2 * 2
    post_rate = rate - logs.sum()
    rng = substream(64, "memconc")
    draws = np.array(
        [sample_concentration(logs, shape, rate, rng) for _ in range(20000)]
    )
    want = post_shape / post_rate
    se = np.sqrt(post_shape) / post_rate / np.sqrt(20000)
    assert abs(draws.mean() - want) < 4 * se


def test_count_helpers_match_loops():
    rng = substream(65, "counts")
    F, S = 3, 2
    dims_hh = [2, 4]
    dims_mem = [3, 2]
    n, N = 50, 120
    hh_codes = np.stack([rng.integers(d, size=n) for d in dims_hh], axis=1)
    hh_class = rng.integers(F, size=n)
    mem_codes = np.stack([rng.integers(d, size=N) for d in dims_mem], axis=1)
    mem_hh_class = rng.integers(F, size=N)
    mem_class = rng.integers(S, size=N)

    got_hh = kernel_counts(hh_codes, hh_class, (F,), dims_hh)
    for k, d in enumerate(dims_hh):
        want = np.zeros((F, d))
        for i in range(n):
            want[hh_class[i], hh_codes[i, k]] += 1
        np.testing.assert_array_equal(got_hh[k], want)

    got_mem = kernel_counts(mem_codes, mem_hh_class * S + mem_class, (F, S), dims_mem)
    for k, d in enumerate(dims_mem):
        want = np.zeros((F, S, d))
        for j in range(N):
            want[mem_hh_class[j], mem_class[j], mem_codes[j, k]] += 1
        np.testing.assert_array_equal(got_mem[k], want)


def replicated_view(hh, members, copies):
    hh_codes = np.tile(np.asarray(hh), (copies, 1))
    mem_codes = np.tile(np.asarray(members), (copies, 1))
    sizes = np.full(copies, len(members))
    return DatasetView.from_arrays(hh_codes, mem_codes, sizes)


def test_household_class_draw_matches_exact_posterior(toy_params):
    hh = (1, 1)
    members = [(0, 2), (1, 0)]
    B = 20000
    view = replicated_view(hh, members, B)
    table = member_logliks(toy_params, view.patterns)
    draws = sample_household_classes(toy_params, view, table, substream(66, "gdraw"))
    one = replicated_view(hh, members, 1)
    logw = class_posterior_logweights(toy_params, one, member_logliks(toy_params, one.patterns))
    logw = logw[:, 0]
    post = np.exp(logw - logsumexp(logw))
    freq = np.bincount(draws, minlength=3) / B
    se = np.sqrt(post * (1 - post) / B)
    np.testing.assert_array_less(np.abs(freq - post), 4 * np.maximum(se, 1e-4))


def test_member_class_draw_matches_exact_posterior(toy_params):
    # one member per household, all households pinned to class 2
    B = 20000
    view = replicated_view((0, 0), [(1, 3)], B)
    hh_class = np.full(B, 2)
    table = member_logliks(toy_params, view.patterns)
    draws = sample_member_classes(toy_params, view, table, hh_class, substream(66, "mdraw"))
    with np.errstate(divide="ignore"):  # a zero weight is part of the fixture
        logw = np.log(toy_params.mem_weights[2]).copy()
        for k, code in enumerate((1, 3)):
            logw += np.log(toy_params.mem_kernels[k][2, :, code])
    post = np.exp(logw - logsumexp(logw))
    freq = np.bincount(draws, minlength=2) / B
    se = np.sqrt(post * (1 - post) / B)
    np.testing.assert_array_less(np.abs(freq - post), 4 * np.maximum(se, 1e-4))


def test_class_draw_dominance(toy_schema):
    # kernels that make class 1 impossible for the observed code
    hyper = Hyperparams.uniform(toy_schema, 2, 1)
    params = prior_draw(hyper, substream(67, "dom"))
    params.hh_weights[:] = [0.5, 0.5]
    params.hh_kernels[0][0] = [1.0, 0.0]
    params.hh_kernels[0][1] = [0.0, 1.0]
    view = replicated_view((1, 0), [(0, 0)], 500)
    table = member_logliks(params, view.patterns)
    draws = sample_household_classes(params, view, table, substream(67, "domdraw"))
    assert (draws == 1).all()


def test_class_draws_bitwise_match_oracle(toy_schema, wide_schema):
    # the logits and draws of the class updates that each built their own
    # (F, S, N) table; S > 8 is where numpy's summation order could differ
    for schema, F, S, n in [
        (toy_schema, 3, 2, 400),
        (toy_schema, 4, 12, 400),
        (wide_schema, 3, 9, 60),
        (wide_schema, 6, 16, 400),
    ]:
        _check_class_draws_against_oracle(schema, F, S, n, wide=schema is wide_schema)


def _check_class_draws_against_oracle(schema, F, S, n, wide):
    hyper = Hyperparams.uniform(schema, F, S)
    base = prior_draw(hyper, substream(402, "fixture"))  # the toy_params fixture at (3, 2)
    rng = substream(69, "oracle-data")
    hh, mem, sizes, _ = draw_households(base, schema, rng.integers(F, size=n), rng)
    drawn = DatasetView.from_arrays(hh, mem, sizes)
    if wide:  # more possible member rows than members
        assert np.prod([v.cardinality for v in schema.individual_vars]) > drawn.n_individuals
    # views whose members are all alike: one-column tables
    alike = [
        DatasetView.from_arrays(np.tile(hh[:1], (2, 1)), np.tile(row, (4, 1)), [2, 2])
        for row in drawn.patterns[:40]
    ]
    assert all(len(view.patterns) == 1 for view in alike)
    sparse = base.copy()
    sparse.mem_weights[1] = np.eye(S)[0]  # zeros take the log floor
    sparse.mem_kernels[0][2, 1] = np.eye(2)[0]
    other = prior_draw(hyper, substream(69, "prior"))
    for view, params in itertools.product([drawn, *alike], (base, sparse, other)):
        table = member_logliks(params, view.patterns)
        got = class_posterior_logweights(params, view, table)
        want = oracles.household_class_logits(params, view)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        hh_class = sample_household_classes(params, view, table, substream(69, "g"))
        want_class = oracles.sample_household_classes(params, view, substream(69, "g"))
        assert np.array_equal(hh_class.view(np.uint64), want_class.view(np.uint64))
        mem_class = sample_member_classes(params, view, table, hh_class, substream(69, "m"))
        want_mem = oracles.sample_member_classes(params, view, hh_class, substream(69, "m"))
        assert np.array_equal(mem_class.view(np.uint64), want_mem.view(np.uint64))


def test_a_table_of_member_rows_is_refused(toy_params, toy_dataset):
    view = toy_dataset.to_view()
    with pytest.raises(ValueError, match="8 patterns"):
        sample_household_classes(
            toy_params, view, member_logliks(toy_params, view.mem_codes), substream(71, "g")
        )


def test_one_member_table_per_sweep(monkeypatch, toy_schema, toy_dataset):
    calls = []

    def counted(params, patterns):
        calls.append(patterns.shape[0])
        return member_logliks(params, patterns)

    monkeypatch.setattr(gibbs, "member_logliks", counted)
    view = toy_dataset.to_view()
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    state = init_state(view, hyper, substream(70, "init"))
    gibbs_sweep(state, view, hyper, substream(70, "sweep"))
    assert len(view.patterns) < view.n_individuals
    assert calls == [len(view.patterns)]
    calls.clear()
    rules = compile_rules("exactly_one role = 1", toy_schema)
    histogram = size_histogram(toy_dataset)
    rng = substream(70, "t")
    state.augmented = generate_augmented(state.params, toy_schema, rules, histogram, rng, 10**6)
    assert state.augmented.total_infeasible > 0
    gibbs_sweep(state, view, hyper, rng)
    assert calls == [len(view.patterns)]


def test_mcse_batch_means_iid_scale():
    rng = substream(68, "mcse")
    x = rng.standard_normal(5000)
    got = mcse_batch_means(x)
    want = x.std(ddof=1) / np.sqrt(5000)
    assert 0.5 * want < got < 2.5 * want


def test_mcse_batch_means_detects_autocorrelation():
    rng = substream(68, "walk")
    steps = rng.standard_normal(5000)
    walk = np.cumsum(steps)
    assert mcse_batch_means(walk) > 10 * mcse_batch_means(steps)


def test_mcse_constant_series_is_zero():
    assert mcse_batch_means(np.ones(400)) == pytest.approx(0.0, abs=1e-14)


def test_chain_config_validation():
    with pytest.raises(ValueError, match="n_iterations"):
        ChainConfig(n_iterations=0, burn_in=0)
    with pytest.raises(ValueError, match="burn_in"):
        ChainConfig(n_iterations=5, burn_in=5)
    with pytest.raises(ValueError, match="thin"):
        ChainConfig(n_iterations=5, burn_in=0, thin=0)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="candidate_cap must be >= 1"):
            ChainConfig(n_iterations=5, burn_in=0, candidate_cap=cap)
    assert ChainConfig(n_iterations=5, burn_in=0, candidate_cap=None).candidate_cap is None


def test_init_state_is_valid(toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 4, 3)
    view = toy_dataset.to_view()
    state = init_state(view, hyper, substream(69, "init"))
    state.params.validate()
    assert state.hh_class.shape == (5,)
    assert state.mem_class.shape == (9,)
    assert state.hh_class.max() < 4 and state.hh_class.min() >= 0
    assert state.mem_class.max() < 3


def test_run_chain_checkpoint_arithmetic(toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    result = run_chain(toy_dataset, hyper, ChainConfig(10, 5, thin=1, seed=3))
    assert result.n_checkpoints == 5
    assert [r.iteration for r in result.checkpoints] == [6, 7, 8, 9, 10]
    assert len(result.diagnostics.occupied_hh) == 10

    result = run_chain(toy_dataset, hyper, ChainConfig(10, 5, thin=2, seed=3))
    assert [r.iteration for r in result.checkpoints] == [6, 8, 10]


def test_run_chain_same_seed_is_bitwise_identical(tmp_path, toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    results = []
    for run in range(2):
        csv_path = tmp_path / f"diag{run}.csv"
        result = run_chain(toy_dataset, hyper, ChainConfig(8, 4, seed=11))
        result.diagnostics.to_csv(csv_path)
        results.append((result, csv_path.read_bytes()))
    a, b = results
    assert a[1] == b[1]
    np.testing.assert_array_equal(
        a[0].final_state.params.hh_weights, b[0].final_state.params.hh_weights
    )
    np.testing.assert_array_equal(a[0].final_state.hh_class, b[0].final_state.hh_class)
    for ra, rb in zip(a[0].checkpoints, b[0].checkpoints):
        np.testing.assert_array_equal(ra.params.hh_sticks, rb.params.hh_sticks)


def test_run_chain_different_seeds_differ(toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    a = run_chain(toy_dataset, hyper, ChainConfig(8, 4, seed=11))
    b = run_chain(toy_dataset, hyper, ChainConfig(8, 4, seed=12))
    assert not np.array_equal(
        a.final_state.params.hh_sticks, b.final_state.params.hh_sticks
    )


def test_run_chain_streaming_matches_memory(tmp_path, toy_schema, toy_dataset):
    from hhsynth.checkpoints import read_checkpoints

    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    path = tmp_path / "chain.jsonl"
    streamed = run_chain(
        toy_dataset, hyper, ChainConfig(8, 4, seed=5), checkpoint_path=path
    )
    assert streamed.checkpoints is None
    meta, records = read_checkpoints(path)
    assert meta["mode"] == "untruncated"
    assert meta["burn_in"] == 4
    in_memory = run_chain(toy_dataset, hyper, ChainConfig(8, 4, seed=5))
    assert len(records) == streamed.n_checkpoints == in_memory.n_checkpoints
    for ra, rb in zip(records, in_memory.checkpoints):
        np.testing.assert_array_equal(ra.params.hh_sticks, rb.params.hh_sticks)
        np.testing.assert_array_equal(ra.hh_class, rb.hh_class)


def test_run_chain_truncated_mode(toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    rules = compile_rules("exactly_one role = 1", toy_schema)
    result = run_chain(toy_dataset, hyper, ChainConfig(6, 3, seed=7), rules=rules)
    assert result.diagnostics.strata == [1, 2, 3]
    assert len(result.diagnostics.n_infeasible) == 6
    for record in result.checkpoints:
        assert record.feasible is not None
        # the by-product matches the observed size histogram
        got = np.bincount(record.feasible.sizes, minlength=4)[1:]
        np.testing.assert_array_equal(got, [2, 2, 1])


def test_diagnostics_count_each_sweeps_infeasible_records_by_size(
    monkeypatch, toy_schema, toy_dataset
):
    from hhsynth import truncated

    batches = []
    generate = truncated.generate_augmented

    def spy(*args):
        batches.append(generate(*args))
        return batches[-1]

    monkeypatch.setattr(truncated, "generate_augmented", spy)
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    rules = compile_rules("exactly_one role = 1", toy_schema)
    result = run_chain(toy_dataset, hyper, ChainConfig(6, 3, seed=7), rules=rules)
    assert len(batches) == len(result.diagnostics.n_infeasible) == 6
    assert sum(batch.total_infeasible for batch in batches) > 0
    for batch, counts in zip(batches, result.diagnostics.n_infeasible):
        np.testing.assert_array_equal(counts, np.bincount(batch.infeasible.sizes, minlength=4)[1:])


def test_run_chain_empty_rules_take_untruncated_path(toy_schema, toy_dataset):
    from hhsynth.constraints import RuleSet

    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    plain = run_chain(toy_dataset, hyper, ChainConfig(6, 3, seed=7))
    empty = run_chain(toy_dataset, hyper, ChainConfig(6, 3, seed=7), rules=RuleSet(rules=()))
    np.testing.assert_array_equal(
        plain.final_state.params.hh_sticks, empty.final_state.params.hh_sticks
    )
    assert empty.checkpoints[0].feasible is None


def test_diagnostics_csv_columns(tmp_path, toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    result = run_chain(toy_dataset, hyper, ChainConfig(4, 2, seed=1))
    path = tmp_path / "diag.csv"
    result.diagnostics.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == [
        "iteration",
        "occupied_household_classes",
        "occupied_individual_classes",
        "hh_concentration",
        "mem_concentration",
        "pi_1",
        "pi_2",
        "pi_3",
    ]

    rules = compile_rules("exactly_one role = 1", toy_schema)
    trunc = run_chain(toy_dataset, hyper, ChainConfig(4, 2, seed=1), rules=rules)
    trunc.diagnostics.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[-4:] == [
        "n_infeasible_size1",
        "n_infeasible_size2",
        "n_infeasible_size3",
        "n_infeasible_total",
    ]


def test_saturation_warning(toy_schema, toy_dataset):
    # with a single class the occupancy always equals the truncation level
    hyper = Hyperparams.uniform(toy_schema, 1, 1)
    with pytest.warns(UserWarning, match="truncation level"):
        result = run_chain(toy_dataset, hyper, ChainConfig(3, 1, seed=2))
    assert result.diagnostics.saturated_hh
