"""Rule compilation and feasibility checks against brute-force oracles.

The vectorized batch checker is validated two ways: hand-picked truth-table
cases per rule family, and a sweep of random households compared against a
deliberately naive per-record reimplementation of the rule semantics
(oracles.feasible_by_brute_force).
"""

import itertools

import numpy as np
import pytest

from hhsynth.constraints import (
    RuleError,
    RuleSet,
    check_batch,
    CHUNK,
    MAX_CELLS,
    compile_rules,
    enumerate_feasible,
    iter_cells,
)
from hhsynth.data import HouseholdRecord
from hhsynth.rng import substream

from conftest import build_schema
from oracles import check_household, feasible_by_brute_force, records_of

# role(2): 1=head 2=other; age(5) ordered by code; relation(3): 1=head 2=spouse 3=child
FAMILY = build_schema(
    household=[("own", 2), ("hh_size*", 4)],
    individual=[("role", 2), ("age", 5), ("rel", 3)],
)

RULES_TEXT = """
# household composition rules
exactly_one role = 1
min_value age >= 3 when role = 1
order age : rel = 3 < rel = 1 gap 1
forbid own = 2 & rel = 2, age = 1
"""


def record(hh, members):
    return HouseholdRecord(household_id="t", hh_values=tuple(hh), members=tuple(members))


def test_compile_rule_kinds():
    rules = compile_rules(RULES_TEXT, FAMILY)
    kinds = [type(r).__name__ for r in rules.rules]
    assert kinds == [
        "ExactlyOneOfRole",
        "MinValueForRole",
        "PairwiseOrderByRole",
        "ForbiddenCombination",
    ]
    assert bool(rules)
    assert not bool(RuleSet(rules=()))


@pytest.mark.parametrize(
    "line",
    [
        "exactly_one nosuch = 1",
        "exactly_one role = 9",
        "min_value age >= 0 when role = 1",
        "min_value own >= 1 when role = 1",  # household var on the value side
        "order age : rel = 3 < rel = 1 gap x",
        "forbid role = 1 &",
        "what is this",
    ],
)
def test_compile_rejects(line):
    with pytest.raises(RuleError):
        compile_rules(line, FAMILY)


def test_exactly_one_truth_table():
    rules = compile_rules("exactly_one role = 1", FAMILY)
    assert check_household(rules, record((0, 1), [(0, 4, 0), (1, 0, 1)]))
    assert not check_household(rules, record((0, 1), [(0, 4, 0), (0, 4, 1)]))  # two heads
    assert not check_household(rules, record((0, 1), [(1, 4, 0), (1, 0, 1)]))  # no head


def test_min_value_truth_table():
    rules = compile_rules("min_value age >= 3 when role = 1", FAMILY)
    # head needs age code >= 3 (1-based), i.e. 0-based >= 2
    assert check_household(rules, record((0, 0), [(0, 2, 0)]))
    assert not check_household(rules, record((0, 0), [(0, 1, 0)]))
    # rule silent about non-heads
    assert check_household(rules, record((0, 1), [(0, 2, 0), (1, 0, 2)]))


def test_order_truth_table():
    rules = compile_rules("order age : rel = 3 < rel = 1 gap 1", FAMILY)
    # child age must be strictly below head age
    assert check_household(rules, record((0, 1), [(0, 4, 0), (1, 1, 2)]))
    assert not check_household(rules, record((0, 1), [(0, 1, 0), (1, 1, 2)]))
    assert not check_household(rules, record((0, 1), [(0, 1, 0), (1, 3, 2)]))
    # no child present: vacuous
    assert check_household(rules, record((0, 1), [(0, 0, 0), (1, 0, 1)]))
    # wider gap
    gap2 = compile_rules("order age : rel = 3 < rel = 1 gap 2", FAMILY)
    assert not check_household(gap2, record((0, 1), [(0, 2, 0), (1, 1, 2)]))
    assert check_household(gap2, record((0, 1), [(0, 3, 0), (1, 1, 2)]))


def test_forbidden_distinct_member_semantics():
    # two &-groups need two distinct members; comma literals bind to one member
    rules = compile_rules("forbid role = 2, age = 1 & role = 2, age = 1", FAMILY)
    both = record((0, 1), [(1, 0, 0), (1, 0, 1)])
    one = record((0, 1), [(1, 0, 0), (0, 4, 1)])
    assert not check_household(rules, both)
    assert check_household(rules, one)  # a single matching member is not a pair

    single = compile_rules("forbid role = 2, age = 1", FAMILY)
    assert not check_household(single, one)


def test_forbidden_household_literal_gates():
    rules = compile_rules("forbid own = 2 & age = 1", FAMILY)
    assert not check_household(rules, record((1, 0), [(0, 0, 0)]))
    assert check_household(rules, record((0, 0), [(0, 0, 0)]))  # own=1 lets it pass


def test_batch_agrees_with_naive_oracle():
    rules = compile_rules(RULES_TEXT, FAMILY)
    rng = substream(77, "batch-oracle")
    for h in (1, 2, 3, 4):
        B = 400
        hh = np.stack(
            [rng.integers(0, 2, size=B), np.full(B, h - 1)], axis=1
        )
        mem = np.stack(
            [
                rng.integers(0, 2, size=(B, h)),
                rng.integers(0, 5, size=(B, h)),
                rng.integers(0, 3, size=(B, h)),
            ],
            axis=2,
        )
        got = check_batch(rules, hh, mem)
        want = [feasible_by_brute_force(rules, record(a, b)) for a, b in zip(hh, mem.tolist())]
        np.testing.assert_array_equal(got, want)


# few codes per variable, so a forbid rule's groups often match the same members
WITNESS = build_schema(household=[("own", 2), ("hh_size*", 6)], individual=[("a", 2), ("b", 3)])


def random_forbid_rule(rng, n_groups: int) -> str:
    """A forbid rule of n_groups '&' groups of one or two member literals; a
    group may repeat an earlier one, and may carry a household literal."""
    groups = []
    for _ in range(n_groups):
        if groups and rng.random() < 0.3:
            groups.append(groups[int(rng.integers(len(groups)))])
            continue
        names = ["a", "b"] if rng.random() < 0.4 else [["a", "b"][int(rng.integers(2))]]
        literals = [f"{n} = {int(rng.integers(1, WITNESS.variable(n).cardinality + 1))}"
                    for n in names]
        if rng.random() < 0.15:
            literals.append(f"own = {int(rng.integers(1, 3))}")
        groups.append(", ".join(literals))
    return "forbid " + " & ".join(groups)


@pytest.mark.parametrize("h", range(1, 7))
def test_distinct_witnesses_equal_brute_force(h):
    # includes more groups than members (h < 4), where no rule can fire
    rng = substream(79, "witness", h)
    B = 150
    for n_groups in range(1, 5):
        hh = np.stack([rng.integers(0, 2, size=B), np.full(B, h - 1)], axis=1)
        mem = np.stack([rng.integers(0, 2, size=(B, h)), rng.integers(0, 3, size=(B, h))], axis=2)
        records = [record(a, b) for a, b in zip(hh.tolist(), mem.tolist())]
        outcomes = set()
        for _ in range(8):
            rules = compile_rules(random_forbid_rule(rng, n_groups), WITNESS)
            want = [feasible_by_brute_force(rules, r) for r in records]
            np.testing.assert_array_equal(check_batch(rules, hh, mem), want)
            outcomes |= set(want)
        assert outcomes == ({True, False} if n_groups <= h else {True})


def test_member_permutation_invariance():
    rules = compile_rules(RULES_TEXT, FAMILY)
    rng = substream(78, "perm")
    for _ in range(200):
        h = int(rng.integers(2, 5))
        hh = (int(rng.integers(0, 2)), h - 1)
        members = [
            (int(rng.integers(0, 2)), int(rng.integers(0, 5)), int(rng.integers(0, 3)))
            for _ in range(h)
        ]
        base = check_household(rules, record(hh, members))
        perm = list(members)
        rng.shuffle(perm)
        assert check_household(rules, record(hh, perm)) == base


def test_enumerate_feasible_counts():
    # binary role with exactly-one rule, one other binary variable, h=2:
    # role patterns 2 of 4, free axes multiply through
    schema = build_schema(
        household=[("hh_size*", 2)], individual=[("role", 2), ("flag", 2)]
    )
    rules = compile_rules("exactly_one role = 1", schema)
    total = 2 * (2 * 2) ** 2  # size axis x per-member cells
    assert enumerate_feasible(schema, RuleSet(rules=()), 2) == total
    count = enumerate_feasible(schema, rules, 2)
    assert count == total // 2

    # brute-force cross-check of the same count
    brute = 0
    for size_code in range(2):
        for m1 in itertools.product(range(2), range(2)):
            for m2 in itertools.product(range(2), range(2)):
                heads = (m1[0] == 0) + (m2[0] == 0)
                brute += heads == 1
    assert count == brute


def test_iter_cells_is_the_product_in_row_major_order():
    for dims in ([2, 3, 1, 4], [5, 3, 1500]):
        want = np.array(list(itertools.product(*map(range, dims))))
        chunks = list(iter_cells(dims))
        assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(want) // CHUNK)
        got = np.concatenate(chunks)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    # no dimensions: one empty combination
    assert [c.shape for c in iter_cells([])] == [(1, 0)]


def test_iter_cells_matches_the_scalar_checker():
    rules = compile_rules(RULES_TEXT, FAMILY)
    for cells in iter_cells([2, 1] + [2, 5, 3] * 2):
        hh, mem = cells[:, :2] + [0, 1], cells[:, 2:].reshape(-1, 2, 3)
        flags = [check_household(rules, record(a, b)) for a, b in zip(hh, mem)]
        np.testing.assert_array_equal(check_batch(rules, hh, mem), flags)


def test_enumerate_feasible_empty_and_cap():
    schema = build_schema(household=[("hh_size*", 2)], individual=[("role", 2)])
    nothing = compile_rules("forbid role = 1\nforbid role = 2", schema)
    assert enumerate_feasible(schema, nothing, 1) == 0
    # 2 * 4,000^2 cells at size 2, above the 10^7 cap; size 1 has 8,000
    wide = build_schema(household=[("hh_size*", 2)], individual=[("a", 40), ("b", 100)])
    assert enumerate_feasible(wide, RuleSet(rules=()), 1) == 8000
    with pytest.raises(ValueError, match="above cap 10000000"):
        enumerate_feasible(wide, RuleSet(rules=()), 2)
    with pytest.raises(ValueError, match="cap"):
        next(iter_cells([MAX_CELLS + 1]))
    assert len(next(iter_cells([MAX_CELLS]))) == CHUNK


@pytest.mark.parametrize(
    "text, household, individual",
    [
        ("exactly_one rel = 2", (), (2,)),
        ("min_value age >= 3 when role = 1", (), (0, 1)),
        ("order age : rel = 3 < rel = 1 gap 2", (), (1, 2)),
        ("forbid own = 2, rel = 2", (0,), (2,)),
        ("forbid rel = 2 & age = 1, role = 2", (), (0, 1, 2)),
        ("forbid hh_size = 2 & rel = 3", (1,), (2,)),
        ("forbid own = 1", (0,), ()),
        (RULES_TEXT, (0,), (0, 1, 2)),
        ("", (), ()),
    ],
)
def test_rule_set_columns(text, household, individual):
    assert compile_rules(text, FAMILY).columns == (household, individual)


def test_observed_data_feasible(toy_schema, toy_dataset):
    rules = compile_rules("exactly_one role = 1\nforbid color = 3", toy_schema)
    flags = [check_household(rules, r) for r in records_of(toy_dataset)]
    assert flags == [True, False, True, True, True]
