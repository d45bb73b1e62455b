"""Toy population generator against its closed-form mixing arithmetic.

The generator's contract: with probability copy_prob every member takes the
head's value on the designated variable, otherwise members draw independently
from the marginal.  Pr(all members equal | size) then has the closed form
copy_prob + (1 - copy_prob) * sum_c marginal(c)^size, which doubles as the
Monte Carlo oracle for these tests.
"""

import numpy as np
import pytest

from hhsynth.data import size_histogram
from hhsynth.rng import substream
from hhsynth.simulate import (
    ToyConfig,
    all_equal_probability,
    sample_households,
    simulate_toy_population,
)

from conftest import build_schema
from oracles import records_of


def binary_schema():
    return build_schema(household=[("hh_size*", 3)], individual=[("x", 2)])


def fraction_all_equal(dataset, size, var_index):
    hits = total = 0
    for r in records_of(dataset):
        if r.size != size:
            continue
        total += 1
        vals = {m[var_index] for m in r.members}
        hits += len(vals) == 1
    return hits / total


def test_all_equal_probability_closed_form():
    m = np.array([0.5, 0.5])
    assert all_equal_probability(m, 0.0, 2) == pytest.approx(0.5)
    assert all_equal_probability(m, 1.0, 2) == pytest.approx(1.0)
    assert all_equal_probability(m, 0.9, 2) == pytest.approx(0.9 + 0.1 * 0.5)
    skew = np.array([0.4, 0.3, 0.2, 0.1])
    assert all_equal_probability(skew, 0.9, 3) == pytest.approx(
        0.9 + 0.1 * (0.4**3 + 0.3**3 + 0.2**3 + 0.1**3)
    )


def test_generator_matches_closed_form_large_sample():
    # 10^6 size-2 draws against the mixing formula, binary uniform, knob 0.9
    schema = binary_schema()
    config = ToyConfig(
        n_households=10**6,
        size_probs={2: 1.0},
        copy_variable="x",
        copy_prob=0.9,
        marginals={"x": np.array([0.5, 0.5])},
    )
    pop = simulate_toy_population(schema, config, substream(11, "mc"))
    frac = fraction_all_equal(pop, 2, 0)
    expected = all_equal_probability(np.array([0.5, 0.5]), 0.9, 2)
    se = np.sqrt(expected * (1 - expected) / 10**6)
    assert abs(frac - expected) < 4 * se


def test_knob_extremes():
    schema = binary_schema()
    for knob, target in [(1.0, 1.0), (0.0, 0.5)]:
        config = ToyConfig(
            n_households=20000,
            size_probs={2: 1.0},
            copy_variable="x",
            copy_prob=knob,
            marginals={"x": np.array([0.5, 0.5])},
        )
        pop = simulate_toy_population(schema, config, substream(12, "knob", str(knob)))
        frac = fraction_all_equal(pop, 2, 0)
        if knob == 1.0:
            assert frac == 1.0
        else:
            assert abs(frac - target) < 0.02


def test_size_distribution_and_marginal():
    schema = build_schema(
        household=[("own", 2), ("hh_size*", 3)], individual=[("color", 4)]
    )
    config = ToyConfig(
        n_households=50000,
        size_probs={1: 0.3, 2: 0.5, 3: 0.2},
        copy_variable="color",
        copy_prob=0.9,
        marginals={"color": np.array([0.4, 0.3, 0.2, 0.1]), "own": np.array([0.7, 0.3])},
    )
    pop = simulate_toy_population(schema, config, substream(13, "dist"))
    pop.validate()
    hist = size_histogram(pop)
    for h, p in config.size_probs.items():
        assert abs(hist[h] / 50000 - p) < 0.01
    # copying leaves the per-member marginal untouched
    codes = np.concatenate([[m[0] for m in r.members] for r in records_of(pop)])
    freq = np.bincount(codes, minlength=4) / codes.size
    np.testing.assert_allclose(freq, [0.4, 0.3, 0.2, 0.1], atol=0.01)
    own = np.array([r.hh_values[0] for r in records_of(pop)])
    assert abs((own == 0).mean() - 0.7) < 0.01


def test_role_variable_marks_exactly_one_head():
    schema = build_schema(
        household=[("hh_size*", 3)], individual=[("role", 2), ("color", 4)]
    )
    config = ToyConfig(
        n_households=5000,
        size_probs={1: 0.3, 2: 0.4, 3: 0.3},
        copy_variable="color",
        copy_prob=0.5,
        marginals={"color": np.full(4, 0.25)},
        role_variable="role",
        head_code=0,
        other_code=1,
    )
    pop = simulate_toy_population(schema, config, substream(14, "role"))
    for r in records_of(pop):
        roles = [m[0] for m in r.members]
        assert roles.count(0) == 1
        assert roles[0] == 0  # head listed first


def test_reproducible_for_fixed_seed():
    schema = binary_schema()
    config = ToyConfig(
        n_households=500,
        size_probs={1: 0.5, 2: 0.5},
        copy_variable="x",
        copy_prob=0.3,
        marginals={"x": np.array([0.6, 0.4])},
    )
    a = simulate_toy_population(schema, config, substream(9, "rep"))
    b = simulate_toy_population(schema, config, substream(9, "rep"))
    assert records_of(a) == records_of(b)


def test_invalid_probabilities_rejected():
    schema = binary_schema()
    with pytest.raises(ValueError):
        ToyConfig(
            n_households=10,
            size_probs={1: 0.5, 2: 0.6},
            copy_variable="x",
            copy_prob=0.5,
        )
    with pytest.raises(ValueError):
        ToyConfig(
            n_households=10,
            size_probs={1: 1.0},
            copy_variable="x",
            copy_prob=1.5,
        )


def test_sample_households_is_sorted_subset_without_replacement():
    schema = binary_schema()
    config = ToyConfig(
        n_households=400,
        size_probs={1: 0.5, 2: 0.5},
        copy_variable="x",
        copy_prob=0.0,
    )
    pop = simulate_toy_population(schema, config, substream(15, "pop"))
    sample = sample_households(pop, 50, substream(15, "sub"))
    assert sample.n_households == 50
    ids = [r.household_id for r in records_of(sample)]
    assert len(set(ids)) == 50
    pop_ids = [r.household_id for r in records_of(pop)]
    positions = [pop_ids.index(i) for i in ids]
    assert positions == sorted(positions)
    with pytest.raises(ValueError):
        sample_households(pop, 401, substream(15, "big"))
