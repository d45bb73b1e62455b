"""Model parameters, likelihood machinery, and prior draws.

The generative process: household i picks a household class with weights
hh_weights; household-level variables (size included) come from that class's
kernels; each member picks a member class with class-specific weights
mem_weights[g]; individual variables come from the (class, member-class)
kernels.  Both weight vectors are stick-breaking constructions with Gamma
priors on their concentrations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .constraints import RuleSet, check_batch, iter_cells
from .data import DatasetView, Schema

# Floor applied inside logs so empty categories never produce -inf/NaN chains.
LOG_FLOOR = 1e-300
# Least Dirichlet weight of an empirical prior, kept by unobserved categories.
PRIOR_FLOOR = 1e-3


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, LOG_FLOOR))


def logsumexp(a: np.ndarray, axis: int | tuple[int, ...] | None = None) -> np.ndarray:
    """log(sum(exp(a))) over axis, bit for bit what scipy.special.logsumexp gives.

    The maxima are shifted out and counted (m of them), the rest summed as
    s = sum(exp(a - max)) / m, and the result is log1p(s) + log(m) + max.  A
    result that is not finite (rows holding inf or nan, or all -inf) falls
    back to log(sum(exp(a))), computed only on those rows.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a_max = np.max(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            exp_a = np.exp(a, where=np.broadcast_to(bad, a.shape), out=np.zeros_like(a))
            out[bad] = np.log(np.sum(exp_a, axis=axis, keepdims=True))[bad]
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def stick_break(sticks: np.ndarray) -> np.ndarray:
    """Stick-breaking weights along the last axis.

    Callers pass the final stick as 1 so the weights sum to one; the result is
    sticks[k] * prod_{j<k}(1 - sticks[j]).
    """
    sticks = np.asarray(sticks, dtype=float)
    remaining = np.cumprod(1.0 - sticks, axis=-1)
    shifted = np.concatenate(
        [np.ones(sticks.shape[:-1] + (1,)), remaining[..., :-1]], axis=-1
    )
    return sticks * shifted


@dataclass
class Hyperparams:
    """Prior settings: truncation levels, Gamma priors, kernel weights."""

    n_hh_classes: int
    n_mem_classes: int
    hh_kernel_prior: list[np.ndarray]
    mem_kernel_prior: list[np.ndarray]
    hh_conc_shape: float = 0.25
    hh_conc_rate: float = 0.25
    mem_conc_shape: float = 0.25
    mem_conc_rate: float = 0.25

    def __post_init__(self):
        if self.n_hh_classes < 1 or self.n_mem_classes < 1:
            raise ValueError("class truncation levels must be >= 1")
        for weights in list(self.hh_kernel_prior) + list(self.mem_kernel_prior):
            if np.any(np.asarray(weights) <= 0):
                raise ValueError("kernel prior weights must be positive")

    @classmethod
    def uniform(cls, schema: Schema, n_hh_classes: int, n_mem_classes: int, **kw) -> Hyperparams:
        """All-ones Dirichlet weights for every variable."""
        return cls(
            n_hh_classes=n_hh_classes,
            n_mem_classes=n_mem_classes,
            hh_kernel_prior=[np.ones(v.cardinality) for v in schema.household_vars],
            mem_kernel_prior=[np.ones(v.cardinality) for v in schema.individual_vars],
            **kw,
        )

    @classmethod
    def empirical(
        cls,
        schema: Schema,
        view: DatasetView,
        n_hh_classes: int,
        n_mem_classes: int,
        **kw,
    ) -> Hyperparams:
        """Dirichlet weights proportional to observed marginals, total mass d_k.

        Unobserved categories keep the weight PRIOR_FLOOR so the prior stays
        proper while contributing negligible mass.
        """
        hh_prior = []
        for k, v in enumerate(schema.household_vars):
            freq = np.bincount(view.hh_codes[:, k], minlength=v.cardinality).astype(float)
            hh_prior.append(np.maximum(v.cardinality * freq / freq.sum(), PRIOR_FLOOR))
        mem_prior = []
        for k, v in enumerate(schema.individual_vars):
            freq = np.bincount(view.mem_codes[:, k], minlength=v.cardinality).astype(float)
            mem_prior.append(np.maximum(v.cardinality * freq / freq.sum(), PRIOR_FLOOR))
        return cls(
            n_hh_classes=n_hh_classes,
            n_mem_classes=n_mem_classes,
            hh_kernel_prior=hh_prior,
            mem_kernel_prior=mem_prior,
            **kw,
        )


@dataclass
class Params:
    """One draw of every model parameter."""

    hh_sticks: np.ndarray  # (F,), last entry 1
    hh_weights: np.ndarray  # (F,)
    mem_sticks: np.ndarray  # (F, S), last column 1
    mem_weights: np.ndarray  # (F, S)
    hh_kernels: list[np.ndarray]  # per household variable, (F, d_k)
    mem_kernels: list[np.ndarray]  # per individual variable, (F, S, d_k)
    hh_conc: float
    mem_conc: float

    @property
    def n_hh_classes(self) -> int:
        return self.hh_weights.shape[0]

    @property
    def n_mem_classes(self) -> int:
        return self.mem_weights.shape[1]

    def copy(self) -> Params:
        return replace(
            self,
            hh_sticks=self.hh_sticks.copy(),
            hh_weights=self.hh_weights.copy(),
            mem_sticks=self.mem_sticks.copy(),
            mem_weights=self.mem_weights.copy(),
            hh_kernels=[k.copy() for k in self.hh_kernels],
            mem_kernels=[k.copy() for k in self.mem_kernels],
        )

    def validate(self, atol: float = 1e-12) -> None:
        """Assert every simplex constraint; raises AssertionError on breakage."""
        assert self.hh_sticks[-1] == 1.0
        assert np.all((self.hh_sticks >= 0) & (self.hh_sticks <= 1))
        assert abs(self.hh_weights.sum() - 1.0) <= atol
        np.testing.assert_allclose(self.hh_weights, stick_break(self.hh_sticks), atol=atol)
        assert np.all(self.mem_sticks[:, -1] == 1.0)
        assert np.all((self.mem_sticks >= 0) & (self.mem_sticks <= 1))
        assert np.max(np.abs(self.mem_weights.sum(axis=1) - 1.0)) <= atol
        for kernel in self.hh_kernels:
            assert np.all(kernel >= 0)
            assert np.max(np.abs(kernel.sum(axis=-1) - 1.0)) <= atol
        for kernel in self.mem_kernels:
            assert np.all(kernel >= 0)
            assert np.max(np.abs(kernel.sum(axis=-1) - 1.0)) <= atol
        assert self.hh_conc > 0
        assert self.mem_conc > 0


def dirichlet_rows(weights: list[np.ndarray], rng: np.random.Generator) -> list[np.ndarray]:
    """Dirichlet draws along the last axis of each positive shape array.

    One gamma call draws every array's entries in turn, as consecutive calls
    would, and leaves the stream where they would.
    """
    draws = rng.gamma(shape=np.concatenate([np.ravel(w) for w in weights]))
    draws = np.maximum(draws, LOG_FLOOR)  # guard against all-zero underflow
    out = []
    for piece, w in zip(np.split(draws, np.cumsum([np.size(w) for w in weights])[:-1]), weights):
        piece = piece.reshape(np.shape(w))
        out.append(piece / piece.sum(axis=-1, keepdims=True))
    return out


def prior_draw(hyper: Hyperparams, rng: np.random.Generator) -> Params:
    """Sample every parameter from the prior."""
    F, S = hyper.n_hh_classes, hyper.n_mem_classes
    hh_conc = rng.gamma(hyper.hh_conc_shape, 1.0 / hyper.hh_conc_rate)
    mem_conc = float(rng.gamma(hyper.mem_conc_shape, 1.0 / hyper.mem_conc_rate))
    hh_sticks, mem_sticks = np.ones(F), np.ones((F, S))
    hh_sticks[:-1] = rng.beta(1.0, hh_conc, size=F - 1)
    mem_sticks[:, :-1] = rng.beta(1.0, mem_conc, size=(F, S - 1))
    q = len(hyper.hh_kernel_prior)
    kernels = dirichlet_rows(
        [np.broadcast_to(w, (F, len(w))) for w in hyper.hh_kernel_prior]
        + [np.broadcast_to(w, (F, S, len(w))) for w in hyper.mem_kernel_prior],
        rng,
    )
    return Params(
        hh_sticks=hh_sticks,
        hh_weights=stick_break(hh_sticks),
        mem_sticks=mem_sticks,
        mem_weights=stick_break(mem_sticks),
        hh_kernels=kernels[:q],
        mem_kernels=kernels[q:],
        hh_conc=float(hh_conc),
        mem_conc=mem_conc,
    )


def member_logliks(params: Params, patterns: np.ndarray) -> np.ndarray:
    """log p(member values, member class m | household class g) as (F, S, P).

    patterns holds member rows, usually a view's distinct ones.  log
    mem_weights is added after the kernels, so each entry is the float a
    caller adding the weight to the kernel sum would get.
    """
    F, S = params.n_hh_classes, params.n_mem_classes
    out = np.zeros((F, S, patterns.shape[0]))
    for k, kernel in enumerate(params.mem_kernels):
        out += _log(kernel)[:, :, patterns[:, k]]
    out += _log(params.mem_weights)[:, :, None]
    return out


def class_posterior_logweights(
    params: Params, view: DatasetView, table: np.ndarray
) -> np.ndarray:
    """Unnormalized log Pr(class g | household i) as (F, n).

    table is member_logliks of view.patterns.  Household kernels first, then
    each household's members with member classes summed out, then log
    hh_weights.
    """
    if table.shape[2] != len(view.patterns):
        raise ValueError(f"member table of {table.shape[2]}, view of {len(view.patterns)} patterns")
    out = np.zeros((params.n_hh_classes, view.n_households))
    for k, kernel in enumerate(params.hh_kernels):
        out += _log(kernel)[:, view.hh_codes[:, k]]
    # numpy sums a one-column table's S axis pairwise, any other in S order
    mixed = logsumexp(np.repeat(table, 2, axis=2) if table.shape[2] == 1 else table, axis=1)
    out += np.add.reduceat(mixed[:, view.mem_pattern], view.hh_start, axis=1)
    out += _log(params.hh_weights)[:, None]
    return out


def dataset_loglik(params: Params, view: DatasetView) -> float:
    """Total log likelihood with classes marginalized out."""
    table = member_logliks(params, view.patterns)
    return float(logsumexp(class_posterior_logweights(params, view, table), axis=0).sum())


def pair_probability(params: Params, var_index: int, code_a: int, code_b: int) -> float:
    """Joint probability that two members of one household carry the two codes.

    Computed from the class mixture with household-class weights hh_weights;
    no size conditioning is applied, so this matches data generated by drawing
    the class from hh_weights and then two members.
    """
    kernel = params.mem_kernels[var_index]
    marg_a = (kernel[:, :, code_a] * params.mem_weights).sum(axis=1)
    marg_b = (kernel[:, :, code_b] * params.mem_weights).sum(axis=1)
    return float((params.hh_weights * marg_a * marg_b).sum())


def size_class_probs(params: Params, schema: Schema, h: int) -> np.ndarray:
    """Pr(class g | size h) from the products hh_weights * size kernel.

    Raises ValueError when the model gives size h zero probability.
    """
    weights = params.hh_weights * params.hh_kernels[schema.size_index][:, h - 1]
    total = weights.sum()
    if total <= 0.0:
        raise ValueError(f"model assigns zero probability to household size {h}")
    return weights / total


class CDFTable(NamedTuple):
    """Cumulative category probabilities of k categorical variables, (R, k, D).

    Each row is np.cumsum of one variable's probabilities in one of R
    settings, so a gathered row is the cumsum of the gathered probabilities,
    bit for bit.  Columns past a variable's last category hold +inf.  last
    holds each row's final sum, (R, k).
    """

    cdf: np.ndarray
    last: np.ndarray

    @classmethod
    def of(cls, probs: list[np.ndarray], n_rows: int) -> CDFTable:
        """The table of probability arrays, each reshaped to (n_rows, d_k)."""
        width = max((p.shape[-1] for p in probs), default=1)
        cdf = np.empty((n_rows, len(probs), width))
        last = np.empty((n_rows, len(probs)))
        for k, p in enumerate(probs):
            d = p.shape[-1]
            np.cumsum(p.reshape(n_rows, d), axis=-1, out=cdf[:, k, :d])
            if d < width:
                cdf[:, k, d:] = np.inf
            last[:, k] = cdf[:, k, d - 1]
        return cls(cdf, last)

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF codes (n, k) of the n table rows named by rows, from
        n * k uniforms in stream order: all n of the first variable, then the next.

        A code is the number of cumulative sums below u * last.  The sums
        rise along a row and u < 1, so that is the first column at or above
        u * last, which is never past the last category.
        """
        last = self.last.take(rows, axis=0)
        x = u.reshape(last.shape[::-1]).T * last
        return (x[..., None] <= self.cdf.take(rows, axis=0)).argmax(axis=-1)


class DrawTables:
    """The CDF tables of one parameter draw that household generation reads."""

    def __init__(self, params: Params, schema: Schema):
        self.F, self.S = params.n_hh_classes, params.n_mem_classes
        self.mem_class = CDFTable.of([params.mem_weights], self.F)  # row g: household class g
        self.mem = CDFTable.of(params.mem_kernels, self.F * self.S)  # row g * S + m
        self._hh_kernels = params.hh_kernels
        self._size_index = schema.size_index
        self._hh: dict[bool, CDFTable] = {}

    def hh(self, with_size: bool) -> CDFTable:
        """The household variables, the size included or not; built on first use."""
        if with_size not in self._hh:
            kernels = list(self._hh_kernels)
            if not with_size:
                del kernels[self._size_index]
            self._hh[with_size] = CDFTable.of(kernels, self.F)
        return self._hh[with_size]

    def members(self, mem_g: np.ndarray, mem_class: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Individual-variable codes (M, p) of members of the given classes."""
        return self.mem.draw(mem_g * self.S + mem_class, u)


def draw_households(
    params: Params,
    schema: Schema,
    hh_class: np.ndarray,
    rng: np.random.Generator,
    sizes: np.ndarray | None = None,
    tables: DrawTables | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate households given their classes.

    Draws household variables (size included unless sizes is passed, in which
    case the size code is forced), then member classes and member variables,
    each variable over all rows in turn.  The uniforms come in one block, or
    in two when the sizes are drawn.  tables, if given, are
    DrawTables(params, schema).  Returns (hh_codes, mem_codes, sizes,
    mem_class) with member rows grouped by household in order.
    """
    tables = DrawTables(params, schema) if tables is None else tables
    B, p = hh_class.shape[0], len(params.mem_kernels)
    s = schema.size_index
    if sizes is None:
        hh_codes = tables.hh(with_size=True).draw(hh_class, rng.random(B * len(params.hh_kernels)))
        sizes = hh_codes[:, s] + 1
        u = rng.random(int(sizes.sum()) * (1 + p))
    else:
        sizes = np.full(B, sizes, dtype=np.int64)
        n_free = B * (len(params.hh_kernels) - 1)
        u = rng.random(n_free + int(sizes.sum()) * (1 + p))
        free = tables.hh(with_size=False).draw(hh_class, u[:n_free])
        hh_codes = with_size_column(free, s, sizes - 1)
        u = u[n_free:]
    mem_g = hh_class[np.repeat(np.arange(B), sizes)]
    M = mem_g.shape[0]
    mem_class = tables.mem_class.draw(mem_g, u[:M])[:, 0]
    return hh_codes, tables.members(mem_g, mem_class, u[M:]), sizes, mem_class


def with_size_column(free: np.ndarray, size_index: int, size_codes: np.ndarray) -> np.ndarray:
    """Household codes (n, q) from the other variables' codes (n, q - 1) and the size codes."""
    out = np.empty((free.shape[0], free.shape[1] + 1), dtype=np.int64)
    out[:, :size_index] = free[:, :size_index]
    out[:, size_index] = size_codes
    out[:, size_index + 1 :] = free[:, size_index:]
    return out


def rows_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a (B, d) probability array."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0]) * cdf[:, -1]
    return np.minimum((u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1).astype(np.int64)


def infeasible_mass(params: Params, schema: Schema, rules: RuleSet, h: int) -> tuple[float, float]:
    """Probability that a size-h household violates the rules, given size h.

    This is pi0_h, the mass the truncated model removes from size h: its
    likelihood of a size-h household is the untruncated one over 1 - pi0_h.
    Given its class a household's members are iid, and every column no rule
    reads sums out, so only the columns in rules.columns are enumerated: the
    named household codes with the size pinned to h, and each member's named
    codes, with member classes summed out.  The infeasible cells' joint
    probability is divided by that of all cells.  Returns (mass, 0.0).
    """
    class_probs = size_class_probs(params, schema, h)  # raises for a zero-mass size
    hh_cols, mem_cols = rules.columns
    free = [k for k in hh_cols if k != schema.size_index]
    mem_dims = [schema.individual_vars[k].cardinality for k in mem_cols]
    # each named member row's probability given the household class, (F, P)
    rows = np.concatenate(list(iter_cells(mem_dims)))
    member = params.mem_weights[:, :, None]
    for j, k in enumerate(mem_cols):
        member = member * params.mem_kernels[k][:, :, rows[:, j]]
    member = member.sum(axis=1)
    q, p = len(schema.household_vars), len(schema.individual_vars)
    mass = total = 0.0
    for cells in iter_cells([schema.household_vars[k].cardinality for k in free] + [len(rows)] * h):
        hh = np.zeros((len(cells), q), dtype=np.int64)
        hh[:, free] = cells[:, : len(free)]
        hh[:, schema.size_index] = h - 1
        picks = cells[:, len(free) :]
        mem = np.zeros((len(cells), h, p), dtype=np.int64)
        mem[:, :, list(mem_cols)] = rows[picks]
        probs = class_probs[:, None] * np.prod(member[:, picks], axis=2)
        for k in free:
            probs = probs * params.hh_kernels[k][:, hh[:, k]]
        probs = probs.sum(axis=0)
        mass += float(probs[~check_batch(rules, hh, mem)].sum())
        total += float(probs.sum())
    return mass / total, 0.0
