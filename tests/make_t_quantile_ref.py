#!/usr/bin/env python3
"""Write tests/data/t_quantile_ref.json: Student t and normal quantiles to 50 digits.

Each t value is the positive root t of F_df(t) = p at the double
p = (1 + gamma) / 2, that is of I_y(1/2, df/2) = 2p - 1 with
y = t^2 / (df + t^2) and I the regularized incomplete beta, found with
mpmath at 200 bits: bisection on log t, then Newton steps until one moves t
by less than 2^-150 of itself.  Each normal value is the root of Phi(z) = p.
mpmath is needed only to regenerate the file, not to run the tests.  Run from
the repository root:

    python3 tests/make_t_quantile_ref.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

OUT = Path(__file__).parent / "data" / "t_quantile_ref.json"
GRID_GAMMAS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
EXTRA_DFS, EXTRA_GAMMAS = (1.3, 2.0, 7.5, 1e3, 1e8), (0.9, 0.95, 0.99)
TAIL_DFS, TAIL_GAMMAS = (*np.geomspace(1, 1e6, 25).tolist(), 1e8), (0.001, 0.999999)


def t_quantile(df: float, p: float) -> mpmath.mpf:
    a, c = mpmath.mpf(df) / 2, 2 * mpmath.mpf(p) - 1

    def excess(t):
        t2 = t * t
        return mpmath.betainc(0.5, a, 0, t2 / (df + t2), regularized=True) - c

    # bisection on log t at 64 bits, then Newton steps at full precision; above
    # df = 100 the bracket is [z, z e^((z^2 + 1) / df)], z the normal quantile
    # (t / z - 1 is about (z^2 + 1) / (4 df)), since mpmath's betainc fails
    # far out in the tail when df is large
    with mpmath.workprec(64):
        lo, hi = mpmath.mpf(-30), mpmath.mpf(30)
        if df > 100:
            z = normal_quantile(p)
            lo, hi = mpmath.log(z), mpmath.log(z) + (z * z + 1) / df
        assert excess(mpmath.exp(lo)) < 0 < excess(mpmath.exp(hi))
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mpmath.exp(mid)) < 0 else (lo, mid)
    t = mpmath.exp((lo + hi) / 2)
    # d/dt I_y(1/2, a) is twice the t density
    scale = 2 * mpmath.exp(mpmath.loggamma(a + 0.5) - mpmath.loggamma(a))
    scale /= mpmath.sqrt(df * mpmath.pi)
    for _ in range(30):
        step = excess(t) / (scale * (1 + t * t / df) ** -(a + 0.5))
        t -= step
        if abs(step) < t * mpmath.mpf(2) ** -150:
            return t
    raise RuntimeError(f"no convergence at df={df}, p={p}")


def normal_quantile(p: float) -> mpmath.mpf:
    return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


def main() -> None:
    mpmath.mp.prec = 200
    points = [(df, g) for df in np.geomspace(1, 1e6, 129).tolist() for g in GRID_GAMMAS]
    points += [(df, g) for df in EXTRA_DFS for g in EXTRA_GAMMAS]
    tails = [(df, g) for df in TAIL_DFS for g in TAIL_GAMMAS]

    def row(df, gamma):
        return [df, gamma, mpmath.nstr(t_quantile(df, (1 + gamma) / 2), 50)]

    tables = {
        "grid": [row(df, g) for df, g in points],
        "tails": [row(df, g) for df, g in tails],
        "normal": [[g, mpmath.nstr(normal_quantile((1 + g) / 2), 50)] for g in GRID_GAMMAS],
    }
    note = (
        "[df, gamma, t]: t solves F_df(t) = p, p = (1 + gamma) / 2 as a double; "
        "[gamma, z]: z solves Phi(z) = p; made by tests/make_t_quantile_ref.py with "
        f"mpmath {mpmath.__version__} at 200 bits"
    )
    # one row a line
    body = ",\n".join(
        f' "{name}": [\n' + ",\n".join(f"  {json.dumps(r)}" for r in rows) + "\n ]"
        for name, rows in tables.items()
    )
    OUT.write_text(f'{{\n "note": {json.dumps(note)},\n{body}\n}}\n')


if __name__ == "__main__":
    main()
