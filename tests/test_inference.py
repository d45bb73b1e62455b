"""Estimates, pooling across replicates, and utility reports.

The pooling fixture with points (1, 2, 3) and unit within variances has every
pooled quantity computable by hand: mean 2, within 1, between 1, total 4/3,
and 2 * (1 + 3)^2 = 32 degrees of freedom.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

import oracles
from hhsynth.commands import _build_query

from hhsynth.data import Dataset
from hhsynth.tquantile import t_quantile
from hhsynth.inference import (
    CellQuery,
    HouseholdQuery,
    all_members_equal,
    cell_report,
    combine,
    estimate_proportion,
    exists_member,
    household_report,
    household_value,
    member_count,
    q_all,
    write_report_csv,
)

from conftest import build_dataset, build_schema


def test_combine_hand_fixture():
    est = combine([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert est.point == pytest.approx(2.0)
    assert est.within_var == pytest.approx(1.0)
    assert est.between_var == pytest.approx(1.0)
    assert est.total_var == pytest.approx(4.0 / 3.0)
    assert est.df == pytest.approx(32.0)
    crit = stats.t.ppf(0.975, 32.0)
    assert est.lo == pytest.approx(2.0 - crit * np.sqrt(4.0 / 3.0))
    assert est.hi == pytest.approx(2.0 + crit * np.sqrt(4.0 / 3.0))
    assert est.n_replicates == 3


def test_combine_zero_between_uses_normal():
    est = combine([0.5, 0.5], [0.01, 0.03])
    assert est.between_var == 0.0
    assert est.df == float("inf")
    assert est.total_var == pytest.approx(0.02)
    half = stats.norm.ppf(0.975) * np.sqrt(0.02)
    assert est.lo == pytest.approx(0.5 - half)
    assert est.hi == pytest.approx(0.5 + half)


# The two tests below keep the names they had when scipy computed the quantiles;
# tests/test_tquantile.py checks the quantile against a 200-bit reference.
@pytest.mark.parametrize("gamma", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("target_df", [1.3, 2.0, 7.5, 1e3, 1e8])
def test_combine_t_quantile_bitwise_matches_stats(target_df, gamma):
    """combine's half-width is the t quantile at its df times the total sd, bit for
    bit, and that quantile lies within 21 ulps of the reference at target_df."""
    # two replicates at -d, d: b = 2d^2, and df = (1 + 2 ubar / b)^2 hits target_df
    b = 0.5
    ubar = b * (np.sqrt(target_df) - 1.0) / 2.0
    est = combine([-0.5, 0.5], [ubar, ubar], gamma=gamma)
    assert est.point == 0.0
    assert est.df == pytest.approx(target_df, rel=1e-9)
    crit = float(t_quantile((1.0 + gamma) / 2.0, [est.df])[0])
    half = crit * float(np.sqrt(est.total_var))
    assert (est.lo, est.hi) == (-half, half)
    want = oracles.reference_t(target_df, gamma)
    assert oracles.ulp_error(float(t_quantile((1.0 + gamma) / 2.0, [target_df])[0]), want) <= 21


@pytest.mark.parametrize("gamma", [0.9, 0.95, 0.99])
def test_normal_quantiles_bitwise_match_stats(gamma):
    """Zero between variance pools to the normal quantile, which lies within 1.5
    ulps of the reference; the oracle's normal interval uses the same value."""
    crit = float(t_quantile((1.0 + gamma) / 2.0, [np.inf])[0])
    assert oracles.ulp_error(crit, oracles.reference_normal(gamma)) <= 1.5
    # zero between variance with unit total variance: the interval is (-crit, crit)
    est = combine([0.0, 0.0], [1.0, 1.0], gamma=gamma)
    assert est.df == float("inf")
    assert (est.lo, est.hi) == (-crit, crit)
    assert oracles.normal_interval(0.0, 1.0, gamma=gamma) == (-crit, crit)


def test_combine_errors():
    with pytest.raises(ValueError, match="at least two"):
        combine([0.5], [0.01])
    with pytest.raises(ValueError, match="at least two"):
        combine([0.5, 0.5], [0.01])
    with pytest.raises(ValueError, match="zero"):
        combine([0.2, 0.2, 0.2], [0.0, 0.0, 0.0])


def test_combine_properties():
    rng = np.random.default_rng(8)
    for _ in range(50):
        L = int(rng.integers(2, 8))
        points = rng.random(L).tolist()
        withins = (rng.random(L) * 0.01 + 1e-4).tolist()
        est = combine(points, withins)
        assert est.total_var >= est.within_var
        assert est.lo <= est.point <= est.hi
        # order of replicates is irrelevant
        perm = rng.permutation(L)
        alt = combine([points[i] for i in perm], [withins[i] for i in perm])
        assert alt.point == pytest.approx(est.point)
        assert alt.total_var == pytest.approx(est.total_var)
        assert alt.df == pytest.approx(est.df)


def test_combine_df_grows_as_between_shrinks():
    wide = combine([0.4, 0.5, 0.6], [0.01] * 3)
    tight = combine([0.49, 0.50, 0.51], [0.01] * 3)
    assert tight.df > wide.df


def test_cell_proportions_household_level(toy_dataset):
    q, u = estimate_proportion(toy_dataset, CellQuery(("own",), (0,)))
    assert q == pytest.approx(0.6)
    assert u == pytest.approx(0.6 * 0.4 / 5)


def test_cell_proportions_individual_level(toy_dataset):
    q, u = estimate_proportion(toy_dataset, CellQuery(("color",), (1,)))
    assert q == pytest.approx(3 / 9)
    assert u == pytest.approx((3 / 9) * (6 / 9) / 9)


def test_cell_proportions_mixed_levels(toy_dataset):
    # household value broadcast to members: 3 of 9 individuals match
    q, _ = estimate_proportion(toy_dataset, CellQuery(("own", "color"), (0, 1)))
    assert q == pytest.approx(3 / 9)
    q, _ = estimate_proportion(toy_dataset, CellQuery(("role", "color"), (1, 2)))
    assert q == pytest.approx(1 / 9)


def test_cell_query_validation():
    with pytest.raises(ValueError, match="one code per variable"):
        CellQuery(("a", "b"), (0,))
    with pytest.raises(ValueError, match="distinct"):
        CellQuery(("a", "a"), (0, 0))


def test_household_queries(toy_schema, toy_dataset):
    same = HouseholdQuery("same_color", all_members_equal(toy_schema, "color"))
    assert estimate_proportion(toy_dataset, same)[0] == pytest.approx(4 / 5)
    pair_same = HouseholdQuery(
        "pair_same_color", all_members_equal(toy_schema, "color"), size=2
    )
    q, u = estimate_proportion(toy_dataset, pair_same)
    assert q == pytest.approx(1.0)
    assert u == 0.0
    has3 = HouseholdQuery("has_color_4", exists_member(toy_schema, color=3))
    assert estimate_proportion(toy_dataset, has3)[0] == pytest.approx(2 / 5)
    two1 = HouseholdQuery(
        "two_color_2", member_count(toy_schema, "color", 1, min_count=2)
    )
    assert estimate_proportion(toy_dataset, two1)[0] == pytest.approx(1 / 5)
    renter3 = HouseholdQuery(
        "renter_with_color_4",
        q_all(household_value(toy_schema, "own", 1), exists_member(toy_schema, color=3)),
    )
    assert estimate_proportion(toy_dataset, renter3)[0] == pytest.approx(1 / 5)
    same_color = all_members_equal(toy_schema, "color")
    negated = HouseholdQuery("not_same", lambda dataset: ~same_color(dataset))
    assert estimate_proportion(toy_dataset, negated)[0] == pytest.approx(1 / 5)


def test_household_query_empty_pool_raises(toy_schema, toy_dataset):
    query = HouseholdQuery(
        "impossible", all_members_equal(toy_schema, "color"), size=9
    )
    with pytest.raises(ValueError, match="no households"):
        estimate_proportion(toy_dataset, query)


def test_predicate_level_checks(toy_schema):
    with pytest.raises(ValueError, match="not an individual variable"):
        all_members_equal(toy_schema, "own")
    with pytest.raises(ValueError, match="not a household variable"):
        household_value(toy_schema, "color", 0)


def test_cell_report_order_one_covers_every_code(toy_dataset):
    rows = cell_report(toy_dataset, [toy_dataset, toy_dataset], max_order=1, min_expected=0)
    assert len(rows) == 2 + 3 + 2 + 4
    # per-variable cells partition the data, so each variable sums to 1
    for prefix, card in [("own=", 2), ("hh_size=", 3), ("role=", 2), ("color=", 4)]:
        block = [r for r in rows if r.query.startswith(prefix)]
        assert len(block) == card
        assert sum(r.q_orig for r in block) == pytest.approx(1.0, abs=1e-10)
        assert sum(r.q_syn for r in block) == pytest.approx(1.0, abs=1e-10)


def test_cell_report_identical_synthetic_reproduces_original(toy_dataset):
    rows = cell_report(toy_dataset, [toy_dataset, toy_dataset], max_order=2, min_expected=0)
    assert len(rows) == 11 + 44
    for row in rows:
        assert row.q_syn == pytest.approx(row.q_orig, abs=1e-12)
        assert row.truth is None


def test_cell_report_expected_count_filter(toy_dataset):
    rows = cell_report(toy_dataset, [toy_dataset, toy_dataset], max_order=1, min_expected=2)
    labels = {r.query for r in rows}
    # hh_size=3 appears in one household of five: expected count 1, dropped
    assert "hh_size=3" not in labels
    assert len(rows) == 10


def test_cell_report_truth_column(toy_schema, toy_dataset):
    population = build_dataset(
        toy_schema,
        [((0, 0), [(0, 0)]), ((0, 0), [(0, 0)]), ((1, 0), [(0, 1)]), ((1, 0), [(0, 1)])],
    )
    rows = cell_report(
        toy_dataset, [toy_dataset], max_order=1, min_expected=0, population=population
    )
    by_label = {r.query: r for r in rows}
    assert by_label["own=1"].truth == pytest.approx(0.5)
    assert by_label["color=1"].truth == pytest.approx(0.5)


def test_household_report_and_csv(tmp_path, toy_schema, toy_dataset):
    queries = [
        HouseholdQuery("same_color", all_members_equal(toy_schema, "color")),
        HouseholdQuery("has_color_4", exists_member(toy_schema, color=3)),
    ]
    rows = household_report(toy_dataset, [toy_dataset, toy_dataset], queries)
    assert [r.query for r in rows] == ["same_color", "has_color_4"]
    assert rows[0].q_orig == pytest.approx(4 / 5)

    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "query,truth,q_orig,lo_orig,hi_orig,q_syn,lo_syn,hi_syn"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "same_color"
    assert first[1] == ""  # no population given
    assert float(first[2]) == pytest.approx(0.8)
    # repr round trip: parsing the written value recovers the float exactly
    assert float(first[4]) == rows[0].hi_orig


def test_normal_interval_matches_oracle():
    lo, hi = oracles.normal_interval(0.4, 0.0004)
    half = stats.norm.ppf(0.975) * 0.02
    assert lo == pytest.approx(0.4 - half)
    assert hi == pytest.approx(0.4 + half)


# ---------------------------------------------------------------------------
# the array-native reports against the record-at-a-time oracle

ORACLE_SCHEMA = build_schema(
    household=[("own", 2), ("hh_size*", 4), ("region", 3)],
    individual=[("role", 2), ("color", 5), ("age", 3)],
)

QUERY_SPECS = [
    {"name": "same_color", "kind": "all_equal", "variable": "color"},
    {"name": "pair_same_color", "kind": "all_equal", "variable": "color", "size": 2},
    {"name": "head_color_2", "kind": "exists", "literals": {"role": 1, "color": 2}},
    {"name": "two_age_1", "kind": "count", "variable": "age", "code": 1, "min": 2},
    {"name": "one_color_3", "kind": "count", "variable": "color", "code": 3, "max": 1, "size": 3},
    {"name": "region_2", "kind": "hh_value", "variable": "region", "code": 2},
    {
        "name": "owner_with_age_3",
        "kind": "and",
        "of": [
            {"kind": "hh_value", "variable": "own", "code": 1},
            {"kind": "exists", "literals": {"age": 3}},
        ],
        "size": 3,
    },
]


def random_dataset(seed, n, sizes=(1, 2, 3, 4)):
    rng = np.random.default_rng(seed)
    households = []
    for _ in range(n):
        h = int(rng.choice(sizes))
        hh = (int(rng.integers(2)), h - 1, int(rng.integers(3)))
        members = [tuple(int(rng.integers(c)) for c in (2, 5, 3)) for _ in range(h)]
        households.append((hh, members))
    return build_dataset(ORACLE_SCHEMA, households)


def bits(rows):
    """Every field of every row, floats by repr: equal only when bitwise equal."""
    return [tuple(map(repr, dataclasses.astuple(row))) for row in rows]


@pytest.mark.parametrize("min_expected", [0, 2.5, 10])
@pytest.mark.parametrize("with_population", [False, True])
def test_cell_report_bitwise_matches_record_oracle(min_expected, with_population):
    original = random_dataset(1, 30)
    # no replicate has a size-4 household: those cells are zero in every replicate
    replicates = [random_dataset(seed, 24 + seed, sizes=(1, 2, 3)) for seed in (2, 3, 4)]
    population = random_dataset(5, 80) if with_population else None
    got = cell_report(original, replicates, 3, min_expected, population=population)
    want = oracles.cell_report(original, replicates, 3, min_expected, population=population)
    assert bits(got) == bits(want)
    assert all((row.truth is None) != with_population for row in got)
    if min_expected == 0:
        assert any(row.q_orig == 0.0 for row in got)  # zero-count cells are reported
        assert any(row.q_syn == 0.0 and row.lo_syn == row.hi_syn for row in got)
    else:
        assert len(got) < len(cell_report(original, replicates, 3, 0))


@pytest.mark.parametrize("with_population", [False, True])
def test_household_report_bitwise_matches_record_oracle(with_population):
    original = random_dataset(11, 40)
    replicates = [random_dataset(seed, 30 + seed) for seed in (12, 13)]
    population = random_dataset(14, 90) if with_population else None
    got = household_report(
        original,
        replicates,
        [_build_query(ORACLE_SCHEMA, spec) for spec in QUERY_SPECS],
        population=population,
    )
    want = [
        oracles.report_row(query.name, query, original, replicates, population=population)
        for query in (oracles.record_query(ORACLE_SCHEMA, spec) for spec in QUERY_SPECS)
    ]
    assert bits(got) == bits(want)


@pytest.mark.parametrize("seed", range(6))
def test_household_query_estimates_bitwise_match_record_oracle(seed):
    dataset = random_dataset(100 + seed, 5 + 7 * seed)
    for spec in QUERY_SPECS:
        query = _build_query(ORACLE_SCHEMA, spec)
        oracle = oracles.record_query(ORACLE_SCHEMA, spec)
        try:
            want = repr(oracles.estimate_proportion(dataset, oracle))
        except ValueError:  # a small dataset may hold no household of the size
            with pytest.raises(ValueError, match="no households"):
                estimate_proportion(dataset, query)
            continue
        assert repr(estimate_proportion(dataset, query)) == want, spec["name"]


def test_empty_pool_raises_like_the_oracle():
    dataset = random_dataset(21, 20, sizes=(1, 2, 3))
    spec = {"name": "four_same_color", "kind": "all_equal", "variable": "color", "size": 4}
    with pytest.raises(ValueError, match="no households"):
        oracles.estimate_proportion(dataset, oracles.record_query(ORACLE_SCHEMA, spec))
    with pytest.raises(ValueError, match="no households"):
        estimate_proportion(dataset, _build_query(ORACLE_SCHEMA, spec))
    with pytest.raises(ValueError, match="no households"):
        household_report(dataset, [dataset, dataset], [_build_query(ORACLE_SCHEMA, spec)])
