"""Rule compilation and feasibility checks against brute-force oracles.

The vectorized batch checker is validated two ways: hand-picked truth-table
cases per rule family, and a sweep of random households compared against a
deliberately naive per-record reimplementation of the rule semantics.
"""

import itertools

import numpy as np
import pytest

from hhsynth.constraints import (
    ExactlyOneOfRole,
    ForbiddenCombination,
    MinValueForRole,
    PairwiseOrderByRole,
    RuleError,
    RuleSet,
    check_batch,
    compile_rules,
    enumerate_feasible,
)
from hhsynth.data import HouseholdRecord
from hhsynth.rng import substream

from conftest import build_schema
from oracles import check_household, records_of

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


def naive_check(rules, hh, members):
    """Slow reference semantics, one rule at a time."""
    for rule in rules.rules:
        if isinstance(rule, ExactlyOneOfRole):
            if sum(1 for m in members if m[rule.var_index] == rule.code) != 1:
                return False
        elif isinstance(rule, MinValueForRole):
            for m in members:
                if m[rule.role_index] == rule.role_code and m[rule.value_index] < rule.min_code:
                    return False
        elif isinstance(rule, PairwiseOrderByRole):
            lows = [m[rule.order_index] for m in members if m[rule.role_index] == rule.low_code]
            highs = [m[rule.order_index] for m in members if m[rule.role_index] == rule.high_code]
            for lo in lows:
                for hi in highs:
                    if lo + rule.min_gap > hi:
                        return False
        elif isinstance(rule, ForbiddenCombination):
            if any(hh[k] != code for k, code in rule.hh_literals):
                continue
            # witness: distinct members matching the patterns, any assignment
            idx = range(len(members))
            matched = False
            for combo in itertools.permutations(idx, len(rule.member_patterns)):
                if all(
                    all(members[j][k] == code for k, code in pattern)
                    for j, pattern in zip(combo, rule.member_patterns)
                ):
                    matched = True
                    break
            if matched:
                return False
    return True


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
        want = np.array(
            [naive_check(rules, hh[b], [tuple(m) for m in mem[b]]) for b in range(B)]
        )
        np.testing.assert_array_equal(got, want)


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
    count, cells = enumerate_feasible(schema, rules, 2, return_cells=True)
    assert count == total // 2
    assert len(cells) == count

    # brute-force cross-check of the same count
    brute = 0
    for size_code in range(2):
        for m1 in itertools.product(range(2), range(2)):
            for m2 in itertools.product(range(2), range(2)):
                heads = (m1[0] == 0) + (m2[0] == 0)
                brute += heads == 1
    assert count == brute

    # every enumerated cell is feasible under the scalar checker
    for hh, members in cells[:50]:
        assert check_household(rules, record(hh, members))


def test_enumerate_feasible_empty_and_cap():
    schema = build_schema(household=[("hh_size*", 2)], individual=[("role", 2)])
    nothing = compile_rules("forbid role = 1\nforbid role = 2", schema)
    assert enumerate_feasible(schema, nothing, 1) == 0
    with pytest.raises(ValueError, match="cap"):
        enumerate_feasible(schema, nothing, 2, cap=4)


def test_observed_data_feasible(toy_schema, toy_dataset):
    rules = compile_rules("exactly_one role = 1\nforbid color = 3", toy_schema)
    flags = [check_household(rules, r) for r in records_of(toy_dataset)]
    assert flags == [True, False, True, True, True]
