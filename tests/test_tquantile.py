"""The numpy t quantile against 200-bit references.

tests/data/t_quantile_ref.json holds the quantiles at p = (1 + gamma) / 2:
789 grid points (129 df from 1 to 10^6 at six gamma, plus df 1.3, 2, 7.5,
10^3 and 10^8 at gamma 0.9, 0.95 and 0.99), 52 points at the extreme gamma
0.001 and 0.999999, and the normal quantile at the grid's six gamma.  Errors
are in units in the last place of the reference's nearest double.
"""

import math
from itertools import groupby

import numpy as np
import pytest

from oracles import T_QUANTILES, ulp_error
from hhsynth.tquantile import t_quantile


def errors(rows):
    """The ulp error of each [df, gamma, t] row, one t_quantile call per gamma."""
    out = []
    for gamma, group in groupby(sorted(rows, key=lambda row: row[1]), key=lambda row: row[1]):
        group = list(group)
        got = t_quantile((1 + gamma) / 2, [df for df, _, _ in group])
        out += [ulp_error(float(x), t) for x, (_, _, t) in zip(got, group)]
    return np.array(out)


def test_grid_median_within_1_ulp_and_max_within_21():
    err = errors(T_QUANTILES["grid"])
    assert len(err) == 789
    # scipy 1.17.1's stdtrit: median 0.68, max 21.47
    assert np.median(err) <= 1.0
    assert err.max() <= 21.0


def test_extreme_gammas_within_4_ulps():
    err = errors(T_QUANTILES["tails"])
    assert len(err) == 52
    # scipy 1.17.1's stdtrit: 642 ulps at df = 3162, gamma = 0.001
    assert err.max() <= 4.0


@pytest.mark.parametrize("gamma, z", T_QUANTILES["normal"], ids=lambda v: str(v)[:6])
def test_normal_within_1_5_ulps(gamma, z):
    assert ulp_error(float(t_quantile((1 + gamma) / 2, [math.inf])[0]), z) <= 1.5


def test_one_call_equals_per_row_calls():
    rows = T_QUANTILES["grid"] + T_QUANTILES["tails"]
    for gamma in sorted({g for _, g, _ in rows}):
        p = (1 + gamma) / 2
        dfs = [df for df, g, _ in rows if g == gamma] + [math.inf]
        together = t_quantile(p, dfs)
        alone = [t_quantile(p, [df])[0] for df in dfs]
        assert together.tobytes() == np.array(alone).tobytes(), gamma
        # any subset, in any order, keeps each row's bits
        order = np.random.default_rng(len(dfs)).permutation(len(dfs))[: len(dfs) // 3]
        assert t_quantile(p, np.array(dfs)[order]).tobytes() == together[order].tobytes()


@pytest.mark.parametrize("df", [0.999, 0.5, 0.0, -2.0, math.nan])
def test_df_below_1_or_nan_is_rejected(df):
    with pytest.raises(ValueError, match="degrees of freedom"):
        t_quantile(0.975, [5.0, df])


@pytest.mark.parametrize("p", [0.4999, 1.0, math.nan])
def test_p_outside_half_to_1_is_rejected(p):
    with pytest.raises(ValueError, match="p must lie"):
        t_quantile(p, [5.0])


def test_p_one_half_is_zero():
    assert t_quantile(0.5, [1.0, 7.5, 1e4, math.inf]).tolist() == [0.0] * 4
