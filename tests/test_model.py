"""Probability computations against enumeration and Monte Carlo oracles.

The likelihood oracle used throughout is a naive triple loop over household
class, member classes, and categories; it evaluates the mixture directly from
the definition and is deliberately free of the log-space machinery under test.
"""

import itertools

import numpy as np
import pytest

from hhsynth.constraints import RuleSet, compile_rules
from hhsynth.data import DatasetView, HouseholdRecord
from hhsynth import model
from hhsynth.model import (
    CDFTable,
    Hyperparams,
    Params,
    class_posterior_logweights,
    dataset_loglik,
    draw_households,
    infeasible_mass,
    logsumexp,
    member_logliks,
    pair_probability,
    prior_draw,
    rows_categorical,
    size_class_probs,
    stick_break,
)
from hhsynth.rng import substream

import oracles
from conftest import build_schema
from oracles import household_likelihood, records_of, value_probability


def naive_household_prob(params, schema, hh, members):
    """Mixture probability from the definition, plain floats."""
    total = 0.0
    for g in range(params.n_hh_classes):
        term = params.hh_weights[g]
        for k, code in enumerate(hh):
            term *= params.hh_kernels[k][g, code]
        for member in members:
            inner = 0.0
            for m in range(params.n_mem_classes):
                w = params.mem_weights[g, m]
                for k, code in enumerate(member):
                    w *= params.mem_kernels[k][g, m, code]
                inner += w
            term *= inner
        total += term
    return total


def view_of(schema, households):
    hh = np.array([h for h, _ in households])
    mem = np.array([m for _, ms in households for m in ms])
    sizes = np.array([len(ms) for _, ms in households])
    return DatasetView.from_arrays(hh, mem.reshape(len(mem), -1), sizes)


def test_stick_break_frozen_values():
    np.testing.assert_allclose(stick_break(np.array([1.0])), [1.0])
    np.testing.assert_allclose(stick_break(np.array([0.5, 0.5, 1.0])), [0.5, 0.25, 0.25])
    np.testing.assert_allclose(
        stick_break(np.array([0.3, 0.6, 1.0])), [0.3, 0.42, 0.28], atol=1e-15
    )


def test_stick_break_batch_and_simplex():
    rng = substream(31, "sticks")
    sticks = rng.random((40, 6))
    sticks[:, -1] = 1.0
    out = stick_break(sticks)
    assert out.shape == (40, 6)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out >= 0).all()


def test_empirical_prior_weights(toy_schema, toy_dataset):
    hyper = Hyperparams.empirical(toy_schema, toy_dataset.to_view(), 4, 3)
    # color counts over 9 individuals: codes (1,2,2,0,0,3,3,1,1) -> (2,3,2,2)/9, mass 4
    np.testing.assert_allclose(
        hyper.mem_kernel_prior[1], 4.0 * np.array([2, 3, 2, 2]) / 9.0
    )
    # own over 5 households: (3,2)/5 scaled to mass 2
    np.testing.assert_allclose(hyper.hh_kernel_prior[0], 2.0 * np.array([3, 2]) / 5.0)


def test_empirical_prior_floor():
    schema = build_schema(household=[("hh_size*", 2)], individual=[("x", 3)])
    view = view_of(schema, [((0,), [(0,)]), ((0,), [(0,)])])
    hyper = Hyperparams.empirical(schema, view, 2, 2)
    # unseen categories get the floor, not zero
    assert hyper.mem_kernel_prior[0][0] == pytest.approx(3.0)
    assert hyper.mem_kernel_prior[0][1] == pytest.approx(1e-3)
    assert hyper.mem_kernel_prior[0][2] == pytest.approx(1e-3)


def test_prior_draw_invariants(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 5, 4)
    for i in range(50):
        params = prior_draw(hyper, substream(32, "prior", i))
        params.validate()
    one_class = Hyperparams.uniform(toy_schema, 1, 3)
    params = prior_draw(one_class, substream(32, "single"))
    np.testing.assert_allclose(params.hh_weights, [1.0])


def test_prior_draw_symmetric_dirichlet_mean(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 2, 2)
    rows = np.stack(
        [prior_draw(hyper, substream(33, "dir", i)).mem_kernels[1][0, 0] for i in range(4000)]
    )
    np.testing.assert_allclose(rows.mean(axis=0), 0.25, atol=0.01)


def test_prior_concentration_mean(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 3, 3)
    draws = np.array(
        [prior_draw(hyper, substream(34, "conc", i)).hh_conc for i in range(20000)]
    )
    # Gamma(0.25, 0.25): mean 1, variance 4
    assert abs(draws.mean() - 1.0) < 4 * 2.0 / np.sqrt(20000)


def test_household_likelihood_matches_enumeration(toy_schema, toy_params):
    cases = [
        ((0, 0), [(0, 1)]),
        ((1, 1), [(0, 2), (1, 2)]),
        ((0, 2), [(0, 0), (1, 0), (1, 3)]),
    ]
    for hh, members in cases:
        rec = HouseholdRecord(household_id="x", hh_values=hh, members=tuple(members))
        got = household_likelihood(rec, toy_params)
        want = naive_household_prob(toy_params, toy_schema, hh, members)
        assert got == pytest.approx(np.log(want), rel=1e-10)


def test_household_likelihood_single_class_collapse():
    schema = build_schema(household=[("hh_size*", 2)], individual=[("x", 2)])
    hyper = Hyperparams.uniform(schema, 1, 1)
    params = prior_draw(hyper, substream(35, "one"))
    rec = HouseholdRecord(household_id="x", hh_values=(1,), members=((0,), (1,)))
    want = (
        np.log(params.hh_kernels[0][0, 1])
        + np.log(params.mem_kernels[0][0, 0, 0])
        + np.log(params.mem_kernels[0][0, 0, 1])
    )
    assert household_likelihood(rec, params) == pytest.approx(want, rel=1e-12)


def test_household_likelihood_degenerate_certainty():
    schema = build_schema(household=[("hh_size*", 2)], individual=[("x", 2)])
    hyper = Hyperparams.uniform(schema, 1, 1)
    params = prior_draw(hyper, substream(36, "degenerate"))
    params.hh_kernels[0][:] = [0.0, 1.0]
    params.mem_kernels[0][:] = [1.0, 0.0]
    rec = HouseholdRecord(household_id="x", hh_values=(1,), members=((0,), (0,)))
    assert household_likelihood(rec, params) == pytest.approx(0.0, abs=1e-12)


def test_dataset_loglik_is_sum_of_households(toy_params, toy_dataset):
    from scipy.special import logsumexp

    view = toy_dataset.to_view()
    table = member_logliks(toy_params, view.patterns)
    assert table.shape == (toy_params.n_hh_classes, toy_params.n_mem_classes, len(view.patterns))
    logw = class_posterior_logweights(toy_params, view, table)
    assert logw.shape == (toy_params.n_hh_classes, view.n_households)
    per = logsumexp(logw, axis=0)
    assert dataset_loglik(toy_params, view) == pytest.approx(per.sum(), rel=1e-12)
    single = [
        household_likelihood(r, toy_params) for r in records_of(toy_dataset)
    ]
    np.testing.assert_allclose(per, single, rtol=1e-10)


def _logsumexp_cases():
    """Arrays of 1 to 3 dimensions: plain, with ties, with -inf entries, and
    with all -inf rows, plus a transposed (non-contiguous) one."""
    rng = substream(7, "logsumexp-oracle")
    cases = []
    for shape in [(5,), (1,), (4, 6), (1, 3), (3, 4, 5), (12, 6, 20)]:
        plain = rng.normal(scale=30.0, size=shape)
        ties = np.round(rng.normal(scale=2.0, size=shape))
        holes = plain.copy()
        holes[rng.random(shape) < 0.3] = -np.inf
        dead = holes.copy()
        dead[(0,) * (len(shape) - 1)] = -np.inf  # one all -inf line along the last axis
        cases += [plain, ties, holes, dead, np.full(shape, -np.inf)]
    cases.append(rng.normal(size=(6, 4, 3)).transpose(2, 0, 1))
    return cases


@pytest.mark.parametrize("a", _logsumexp_cases(), ids=lambda a: "x".join(map(str, a.shape)))
def test_logsumexp_bitwise_matches_scipy(a):
    from scipy.special import logsumexp as scipy_logsumexp

    axes = [None, *range(a.ndim), *range(-a.ndim, 0)]
    if a.ndim == 3:
        axes += [(0, 2), (1, 2)]
    for axis in axes:
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.asarray(scipy_logsumexp(a, axis=axis))
        got = np.asarray(logsumexp(a, axis=axis))
        assert got.shape == expected.shape, axis
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), axis


def test_logsumexp_scalar_result_and_special_rows():
    assert isinstance(logsumexp(np.array([1.0, 2.0])), np.float64)
    assert logsumexp(3.0) == 3.0
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp(np.array([0.0, np.inf])) == np.inf
    assert np.isnan(logsumexp(np.array([0.0, np.nan])))
    # equal maxima are counted, not summed through exp: log(3) + 5 exactly
    assert logsumexp(np.array([5.0, 5.0, 5.0])) == np.log1p(0.0) + np.log(3.0) + 5.0


def test_total_probability_over_composition_space(toy_schema, toy_params):
    # conditioned on size h, household probabilities over all cells sum to 1
    size_kernel = toy_params.hh_kernels[toy_schema.size_index]
    member_cells = list(itertools.product(range(2), range(4)))  # role x color
    for h in (1, 2):
        total = 0.0
        for own in range(2):
            for members in itertools.product(member_cells, repeat=h):
                total += naive_household_prob(toy_params, toy_schema, (own, h - 1), members)
        assert total == pytest.approx(toy_params.hh_weights @ size_kernel[:, h - 1], rel=1e-9)


def test_pair_probability_matches_enumeration(toy_params):
    d = 4
    for a, b in [(0, 0), (1, 3), (2, 2)]:
        want = 0.0
        for g in range(toy_params.n_hh_classes):
            for m1 in range(toy_params.n_mem_classes):
                for m2 in range(toy_params.n_mem_classes):
                    want += (
                        toy_params.hh_weights[g]
                        * toy_params.mem_weights[g, m1]
                        * toy_params.mem_weights[g, m2]
                        * toy_params.mem_kernels[1][g, m1, a]
                        * toy_params.mem_kernels[1][g, m2, b]
                    )
        assert pair_probability(toy_params, 1, a, b) == pytest.approx(want, rel=1e-12)


def test_pair_probability_symmetry_and_total(toy_params):
    d = 4
    table = np.array(
        [[pair_probability(toy_params, 1, a, b) for b in range(d)] for a in range(d)]
    )
    np.testing.assert_allclose(table, table.T, rtol=1e-12)
    assert table.sum() == pytest.approx(1.0, abs=1e-10)


def test_pair_probability_factorizes_with_one_class():
    schema = build_schema(household=[("hh_size*", 2)], individual=[("x", 3)])
    params = prior_draw(Hyperparams.uniform(schema, 1, 2), substream(37, "f1"))
    for a in range(3):
        for b in range(3):
            want = value_probability(params, 0, a) * value_probability(params, 0, b)
            assert pair_probability(params, 0, a, b) == pytest.approx(want, rel=1e-12)


def test_pair_probability_disjoint_classes_concentrate():
    # two classes with disjoint member supports: all mass on the diagonal
    schema = build_schema(household=[("hh_size*", 2)], individual=[("x", 2)])
    params = prior_draw(Hyperparams.uniform(schema, 2, 1), substream(38, "disjoint"))
    params.hh_sticks[:] = [0.5, 1.0]
    params.hh_weights[:] = [0.5, 0.5]
    params.mem_kernels[0][0, :, :] = [1.0, 0.0]
    params.mem_kernels[0][1, :, :] = [0.0, 1.0]
    assert pair_probability(params, 0, 0, 0) + pair_probability(params, 0, 1, 1) == pytest.approx(1.0)
    assert pair_probability(params, 0, 0, 1) == pytest.approx(0.0, abs=1e-15)
    # and the dependence witness: joint differs from product of marginals
    gap = abs(pair_probability(params, 0, 0, 0) - value_probability(params, 0, 0) ** 2)
    assert gap >= 0.05


def test_pair_probability_against_generative_draws(toy_schema, toy_params):
    # moderate-size generative check; the full-size one lives in acceptance
    n = 200_000
    rng = substream(39, "pairmc")
    classes = rows_categorical(np.tile(toy_params.hh_weights, (n, 1)), rng)
    _, mem, _, _ = draw_households(
        toy_params, toy_schema, classes, rng, sizes=np.full(n, 2)
    )
    colors = mem[:, 1].reshape(n, 2)
    want = pair_probability(toy_params, 1, 0, 1)
    got = np.mean((colors[:, 0] == 0) & (colors[:, 1] == 1))
    se = np.sqrt(want * (1 - want) / n)
    assert abs(got - want) < 4 * se


def test_draw_households_respects_forced_sizes(toy_schema, toy_params):
    rng = substream(40, "draw")
    sizes = np.array([1, 3, 2, 2])
    hh, mem, out_sizes, mem_class = draw_households(
        toy_params, toy_schema, np.zeros(4, dtype=int), rng, sizes=sizes
    )
    np.testing.assert_array_equal(out_sizes, sizes)
    np.testing.assert_array_equal(hh[:, 1], sizes - 1)
    assert mem.shape == (sizes.sum(), 2)
    assert mem_class.shape == (sizes.sum(),)


@pytest.mark.parametrize("widths", [(), (1,), (3,), (2, 5, 4)])
@pytest.mark.parametrize("cells", [1, 7, 16, 1 << 14])
def test_blocked_cdf_draw_matches_one_gather(monkeypatch, widths, cells):
    # blocks of at most `cells` gathered cells end inside and at row edges,
    # and a table of no columns draws (n, 0) codes in any block size
    rng = substream(43, "blocks", widths)
    probs = [rng.dirichlet(np.ones(d), size=6) for d in widths]
    for p in probs:
        p[::3, 0] = 0.0  # plateaus
    table = CDFTable.of(probs, 6)
    rows = rng.integers(6, size=101)
    u = rng.random(101 * len(widths))
    k, width = table.cdf.shape[1:]
    x = u.reshape(k, 101).T * table.last[rows]
    want = (x[..., None] <= table.cdf[rows]).argmax(axis=-1)
    monkeypatch.setattr(model, "DRAW_CELLS", cells)
    got = table.draw(rows, u)
    assert got.dtype == np.int64 and got.shape == (101, len(widths))
    np.testing.assert_array_equal(got, want)


def test_size_class_probs(toy_schema, toy_params):
    for h in (1, 2, 3):
        probs = size_class_probs(toy_params, toy_schema, h)
        want = toy_params.hh_weights * toy_params.hh_kernels[1][:, h - 1]
        np.testing.assert_allclose(probs, want / want.sum(), rtol=1e-12)


def test_rows_categorical_frequencies():
    rng = substream(41, "rowscat")
    probs = np.tile(np.array([0.2, 0.5, 0.3]), (100_000, 1))
    draws = rows_categorical(probs, rng)
    freq = np.bincount(draws, minlength=3) / len(draws)
    np.testing.assert_allclose(freq, [0.2, 0.5, 0.3], atol=0.006)


def test_infeasible_mass_exact_half():
    # exactly-one-head with uniform kernels: half of size-2 role patterns die
    schema = build_schema(household=[("hh_size*", 2)], individual=[("role", 2)])
    hyper = Hyperparams.uniform(schema, 1, 1)
    params = prior_draw(hyper, substream(42, "half"))
    params.mem_kernels[0][:] = 0.5
    rules = compile_rules("exactly_one role = 1", schema)
    mass, se = infeasible_mass(params, schema, rules, 2)
    assert mass == pytest.approx(0.5, abs=1e-12)
    assert se == 0.0


def test_infeasible_mass_exact_vs_monte_carlo(toy_schema, toy_params):
    rules = compile_rules("exactly_one role = 1", toy_schema)
    exact, _ = infeasible_mass(toy_params, toy_schema, rules, 3)
    mc, se = oracles.infeasible_mass_monte_carlo(
        toy_params, toy_schema, rules, 3, n_draws=40000, rng=substream(43, "mcmass")
    )
    assert abs(mc - exact) < 4 * max(se, 1e-4)


# own(2), size(4); role(2): 1=head; age(5) ordered by code; rel(3): 1=head 2=spouse 3=child
PROJECTION = build_schema(
    household=[("own", 2), ("hh_size*", 4)], individual=[("role", 2), ("age", 5), ("rel", 3)]
)
PROJECTION_RULES = {
    "exactly_one": "exactly_one role = 1",
    "min_value": "min_value age >= 3 when role = 1",
    "order_gap": "order age : rel = 3 < rel = 1 gap 2",
    "forbid_household_literal": "forbid own = 2, rel = 2",
    "forbid_two_groups": "forbid rel = 2 & rel = 2",
    "forbid_size": "forbid hh_size = 2 & rel = 3",
    "mixed": "exactly_one role = 1\nmin_value age >= 3 when role = 1\n"
    "order age : rel = 3 < rel = 1 gap 1\nforbid own = 2 & rel = 2, age = 1",
    "empty": "",
}


@pytest.mark.parametrize("name", PROJECTION_RULES)
def test_infeasible_mass_matches_full_space_oracle(name):
    # the route enumerates only the columns the rules read; the oracle every cell
    rules = compile_rules(PROJECTION_RULES[name], PROJECTION)
    hyper = Hyperparams.uniform(PROJECTION, 3, 2)
    masses = []
    for r in range(3):
        params = prior_draw(hyper, substream(44, name, r))
        for h in (1, 2, 3):
            mass, se = infeasible_mass(params, PROJECTION, rules, h)
            assert abs(mass - oracles.infeasible_mass_full(params, PROJECTION, rules, h)) <= 1e-12
            assert se == 0.0
            masses.append(mass)
    assert (max(masses) > 0.0) == bool(rules)


def test_infeasible_mass_extremes(toy_schema, toy_params):
    assert infeasible_mass(toy_params, toy_schema, RuleSet(rules=()), 2)[0] == 0.0
    everything = compile_rules("forbid role = 1\nforbid role = 2", toy_schema)
    assert infeasible_mass(toy_params, toy_schema, everything, 2)[0] == pytest.approx(1.0)


def test_infeasible_mass_zero_size_mass(toy_schema, toy_params):
    params = toy_params.copy()
    params.hh_kernels[1][:, 2] = 0.0
    rules = compile_rules("exactly_one role = 1", toy_schema)
    with pytest.raises(ValueError, match="zero probability"):
        infeasible_mass(params, toy_schema, rules, 3)


def test_params_validate_catches_broken_weights(toy_params):
    broken = toy_params.copy()
    broken.hh_weights[0] += 0.1
    with pytest.raises(AssertionError):
        broken.validate()


@pytest.mark.parametrize("name", ["hh_conc_shape", "hh_conc_rate", "mem_conc_shape", "mem_conc_rate"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
def test_gamma_prior_shapes_and_rates_must_be_positive_and_finite(toy_schema, name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        Hyperparams.uniform(toy_schema, 3, 2, **{name: value})
    Hyperparams.uniform(toy_schema, 3, 2, **{name: 1e-3})
