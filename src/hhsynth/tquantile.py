"""Quantiles of Student's t and of the normal, in numpy and the standard library.

``t_quantile(p, df)`` is the p quantile of Student's t for each df of an
array: real df >= 1, or inf for the normal.  Each df takes one of three
routes, all elementwise, so a row's value does not depend on the other rows:

- df = inf: ``statistics.NormalDist().inv_cdf(p)``, then one Newton step on
  ``math.erf`` (p < 3/4) or ``math.erfc``.
- df >= 3000: the Cornish-Fisher expansion about that normal quantile, the
  four terms of Abramowitz & Stegun 26.7.5 and the fifth of Fisher & Cornish
  (1960).
- otherwise: Hill's (1970, CACM Algorithm 396) start, then Newton steps on
  the t distribution function until they settle, and one last step with the
  distribution function in double-double arithmetic (Dekker 1971, without a
  fused multiply-add).  The function comes from the continued fraction of the
  incomplete beta function I_x(df/2, 1/2), x = df / (df + t^2), or of its
  complement I_(1-x)(1/2, df/2) where that converges faster (Numerical
  Recipes, section 6.4), times the prefactor
  sqrt(a (1-x)) x^a e^r(a) / sqrt(pi), a = df/2, whose
  r(a) = log(Gamma(a + 1/2) / (Gamma(a) sqrt(a))) is a Stirling series,
  within 0.9 ulp of e^r(a) for a from 1/2 to 1500 (math.lgamma differences
  are off by up to 16,000 ulps there).

Against 200-bit references (tests/data/t_quantile_ref.json) the error is at
most 8.8 ulps, with a median of 0.50, on 789 points from df = 1 to 10^8 at
gamma = 2p - 1 from 0.5 to 0.999, and at most 2.3 ulps at gamma = 0.001 and
0.999999; the normal quantile is within 1 ulp.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

CORNISH_FISHER_DF = 3000.0
SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)
# r(a) = log(Gamma(a + 1/2) / (Gamma(a) sqrt(a))) = sum_k STIRLING[k] / a^(2k + 1)
# for a >= 10, where the next term is below 4e-18
STIRLING = (
    -1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224, -5461 / 425984,
    929569 / 15728640,
)
STIRLING_FROM = 10.0
NEWTON_SETTLED = 2.0**-44  # relative step below which the float64 steps stop
# relative change of K that ends a row of the float64 and the double-double fraction
CF_SETTLED, CF_SETTLED_DD = 2.0**-52, 2.0**-64


def t_quantile(p: float, df) -> np.ndarray:
    """The p quantile of Student's t, 1/2 <= p < 1, for each df (>= 1, or inf)."""
    if not 0.5 <= p < 1.0:
        raise ValueError(f"p must lie in [1/2, 1), not {p!r}")
    df = np.asarray(df, dtype=float)
    if not np.all(df >= 1.0):
        bad = df[~(df >= 1.0)].tolist()
        raise ValueError(f"degrees of freedom must be >= 1 (inf for the normal), not {bad}")
    if p == 0.5:
        return np.zeros(df.shape)
    z = _normal_quantile(p)
    t = np.full(df.shape, z)
    wide = df < CORNISH_FISHER_DF
    large = ~wide & np.isfinite(df)
    t[large] = _cornish_fisher(z, df[large])
    if wide.any():
        t[wide] = _newton(p, df[wide], z)
    return t


def _normal_quantile(p: float) -> float:
    z = NormalDist().inv_cdf(p)
    if p < 0.75:  # match the smaller of the two masses, so that no digit cancels
        excess = (p - 0.5) - 0.5 * math.erf(z / SQRT2)
    else:
        excess = 0.5 * math.erfc(z / SQRT2) - (1.0 - p)
    return z + excess * SQRT_2PI / math.exp(-0.5 * z * z)


def _cornish_fisher(z: float, df: np.ndarray) -> np.ndarray:
    z2 = z * z
    g1 = (z2 + 1) * z / 4
    g2 = ((5 * z2 + 16) * z2 + 3) * z / 96
    g3 = (((3 * z2 + 19) * z2 + 17) * z2 - 15) * z / 384
    g4 = ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) * z / 92160
    g5 = (((((27 * z2 + 339) * z2 + 930) * z2 - 1782) * z2 - 765) * z2 + 17955) * z / 368640
    return z + (g1 + (g2 + (g3 + (g4 + g5 / df) / df) / df) / df) / df


def _hill(p: float, df: np.ndarray, z: float) -> np.ndarray:
    """Hill's approximation to the quantile (Algorithm 396, as R's qt has it)."""
    two_tailed = 2.0 * (1.0 - p)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * np.sqrt(a * math.pi / 2.0) * df
    y = (d * two_tailed) ** (2.0 / df)
    near = ((df < 2.1) & (two_tailed > 0.5)) | (y > 0.05 + a)
    # near the normal: an expansion about the lower-tail normal quantile x = -z
    x, x2, v, bn = -z, z * z, df[near], b[near]
    cn = c[near] + np.where(v < 5.0, 0.3 * (v - 4.5) * (x + 0.6), 0.0)
    cn = (((0.05 * d[near] * x - 5.0) * x - 7.0) * x - 2.0) * x + bn + cn
    yn = (((((0.4 * x2 + 6.3) * x2 + 36.0) * x2 + 94.5) / cn - x2 - 3.0) / bn + 1.0) * x
    y[near] = np.expm1(a[near] * yn * yn)
    # farther out
    far = ~near
    v, yf = df[far], y[far]
    inner = ((v + 6.0) / (v * yf) - 0.089 * d[far] - 0.822) * (v + 2.0) * 3.0
    y[far] = ((1.0 / inner + 0.5 / (v + 4.0)) * yf - 1.0) * (v + 1.0) / (v + 2.0) + 1.0 / yf
    return np.sqrt(df * y)


def _newton(p: float, df: np.ndarray, z: float) -> np.ndarray:
    """Newton steps on the t distribution function from Hill's start; each row
    stops once its step settles, then takes one step in double-double."""
    a = 0.5 * df
    r = _log_gamma_ratio(a)
    t = _hill(p, df, z)
    live = np.arange(len(df))
    for _ in range(100):
        tl = t[live]
        # a step may not send t below half or above twice itself
        step = np.clip(_step(p, tl, df[live], a[live], r[live], exact=False), -0.5 * tl, tl)
        t[live] = tl = tl + step
        live = live[np.abs(step) > NEWTON_SETTLED * tl]
        if not len(live):
            return t + _step(p, t, df, a, r, exact=True)
    raise ArithmeticError("t quantile: Newton steps did not settle")


def _step(p, t, df, a, r, exact):
    """The Newton step (p - F(t)) / f(t), with F from the float64 continued
    fraction, or from the double-double one if exact."""
    t2 = _two_prod(t, t)
    total = _dd_add(t2, (df, 0.0))
    x, y = _dd_div((df, 0.0), total), _dd_div(t2, total)
    e = np.exp(r - a * np.log1p(t2[0] / df))  # x^a e^r(a)
    prefactor = np.sqrt(a * y[0]) * e / SQRT_PI
    density = e * np.sqrt(x[0]) / SQRT_2PI
    # the upper mass 1 - F(t) is prefactor K / (2a), K the fraction of I_x(a, 1/2);
    # the central F(t) - 1/2 is prefactor K, K that of I_(1-x)(1/2, a)
    upper = x[0] < (a + 1.0) / (a + 2.5)
    alpha, beta = np.where(upper, a, 0.5), np.where(upper, 0.5, a)
    w = _where(upper, x, y)
    scale = np.where(upper, 2.0 * a, 1.0)
    if exact:
        mass = _dd_div(_dd_mul(_fraction_dd(alpha, beta, w), (prefactor, 0.0)), (scale, 0.0))
        upper_excess = _dd_add(mass, (p - 1.0, 0.0))[0]
        central_excess = _dd_add((p - 0.5, 0.0), _neg(mass))[0]
    else:
        mass = prefactor * _fraction(alpha, beta, w[0]) / scale
        upper_excess, central_excess = mass - (1.0 - p), (p - 0.5) - mass
    return np.where(upper, upper_excess, central_excess) / density


def _log_gamma_ratio(a: np.ndarray) -> np.ndarray:
    """r(a) = log(Gamma(a + 1/2) / (Gamma(a) sqrt(a))), from the Stirling series
    at a shifted up to >= 10 by r(a) = r(a + 1) - log1p(1/2a) + log1p(1/a)/2."""
    shift = np.zeros_like(a)
    for _ in range(math.ceil(STIRLING_FROM - 0.5)):
        low = a < STIRLING_FROM
        shift = np.where(low, shift + (np.log1p(0.5 / a) - 0.5 * np.log1p(1.0 / a)), shift)
        a = np.where(low, a + 1.0, a)
    inv2 = 1.0 / (a * a)
    series = np.zeros_like(a)
    for coef in reversed(STIRLING):
        series = series * inv2 + coef
    return series / a - shift


def _fraction(alpha, beta, w):
    """The continued fraction K of I_w(alpha, beta) (modified Lentz); each row
    stops changing once a step changes K by less than CF_SETTLED."""
    d = 1.0 / (1.0 - (alpha + beta) * w / (alpha + 1.0))
    c, k = np.ones_like(w), d
    live = np.ones(w.shape, dtype=bool)
    m = 0
    while live.any():
        m += 1
        for coef in _coefficients(alpha, beta, m):
            coef = coef * w
            d, c = np.where(live, 1.0 / (1.0 + coef * d), d), np.where(live, 1.0 + coef / c, c)
            delta = d * c
            k = np.where(live, k * delta, k)
        live &= np.abs(delta - 1.0) > CF_SETTLED
    return k


def _fraction_dd(alpha, beta, w):
    """_fraction in double-double, to CF_SETTLED_DD: w, the first term and the
    recurrences are double-double; the later coefficients over w are doubles,
    whose rounding moves the result far less than the first term's would."""
    one = (np.ones_like(alpha), 0.0)
    first = _dd_div(_dd_mul(_two_sum(alpha, beta), w), _two_sum(alpha, 1.0))
    d = _dd_div(one, _dd_add(one, _neg(first)))
    c, k = one, d
    live = np.ones(alpha.shape, dtype=bool)
    m = 0
    while live.any():
        m += 1
        for coef in _coefficients(alpha, beta, m):
            coef = _dd_mul((coef, 0.0), w)
            d_new = _dd_div(one, _dd_add(one, _dd_mul(coef, d)))
            c_new = _dd_add(one, _dd_div(coef, c))
            delta = _dd_mul(d_new, c_new)
            d, c, k = _where(live, d_new, d), _where(live, c_new, c), _where(live, _dd_mul(k, delta), k)
        live &= np.abs((delta[0] - 1.0) + delta[1]) > CF_SETTLED_DD
    return k


def _coefficients(alpha, beta, m):
    """The fraction's two coefficients of step m, over w."""
    return (
        m * (beta - m) / ((alpha + (2 * m - 1)) * (alpha + 2 * m)),
        -(alpha + m) * (alpha + beta + m) / ((alpha + 2 * m) * (alpha + (2 * m + 1))),
    )


# ---------------------------------------------------------------------------
# double-double arithmetic (Dekker 1971): a value is an unevaluated sum hi + lo


def _where(live, new, old):
    """new where live, else old."""
    return np.where(live, new[0], old[0]), np.where(live, new[1], old[1])


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _renormalize(s, e):
    hi = s + e
    return hi, e - (hi - s)


def _neg(x):
    return -x[0], -x[1]


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _renormalize(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _renormalize(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_div(x, y):
    q = x[0] / y[0]
    p, e = _two_prod(q, y[0])
    return _renormalize(q, (((x[0] - p) - e) + x[1] - q * y[1]) / y[0])
