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

import numpy as np

from .constraints import RuleSet, check_batch, iter_cell_chunks
from .data import DatasetView, Schema

# Floor applied inside logs so empty categories never produce -inf/NaN chains.
LOG_FLOOR = 1e-300


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
    per_class_mem_conc: bool = False

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
        floor: float = 1e-3,
        **kw,
    ) -> Hyperparams:
        """Dirichlet weights proportional to observed marginals, total mass d_k.

        Unobserved categories keep a small positive floor so the prior stays
        proper while contributing negligible mass.
        """
        hh_prior = []
        for k, v in enumerate(schema.household_vars):
            freq = np.bincount(view.hh_codes[:, k], minlength=v.cardinality).astype(float)
            hh_prior.append(np.maximum(v.cardinality * freq / freq.sum(), floor))
        mem_prior = []
        for k, v in enumerate(schema.individual_vars):
            freq = np.bincount(view.mem_codes[:, k], minlength=v.cardinality).astype(float)
            mem_prior.append(np.maximum(v.cardinality * freq / freq.sum(), floor))
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
    mem_conc: float | np.ndarray  # scalar, or (F,) in per-class mode

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
            mem_conc=(
                self.mem_conc.copy()
                if isinstance(self.mem_conc, np.ndarray)
                else self.mem_conc
            ),
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
        assert np.all(np.asarray(self.mem_conc) > 0)


def dirichlet_rows(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet draws along the last axis of a positive shape array."""
    draws = rng.gamma(shape=weights)
    draws = np.maximum(draws, LOG_FLOOR)  # guard against all-zero underflow
    return draws / draws.sum(axis=-1, keepdims=True)


def prior_draw(hyper: Hyperparams, rng: np.random.Generator) -> Params:
    """Sample every parameter from the prior."""
    F, S = hyper.n_hh_classes, hyper.n_mem_classes
    hh_conc = rng.gamma(hyper.hh_conc_shape, 1.0 / hyper.hh_conc_rate)
    if hyper.per_class_mem_conc:
        mem_conc = rng.gamma(hyper.mem_conc_shape, 1.0 / hyper.mem_conc_rate, size=F)
    else:
        mem_conc = float(rng.gamma(hyper.mem_conc_shape, 1.0 / hyper.mem_conc_rate))
    hh_sticks = np.ones(F)
    if F > 1:
        hh_sticks[:-1] = rng.beta(1.0, hh_conc, size=F - 1)
    mem_sticks = np.ones((F, S))
    if S > 1:
        rates = np.broadcast_to(np.asarray(mem_conc, dtype=float), (F,))
        mem_sticks[:, :-1] = rng.beta(1.0, rates[:, None], size=(F, S - 1))
    hh_kernels = [
        dirichlet_rows(np.broadcast_to(w, (F, len(w))), rng) for w in hyper.hh_kernel_prior
    ]
    mem_kernels = [
        dirichlet_rows(np.broadcast_to(w, (F, S, len(w))), rng)
        for w in hyper.mem_kernel_prior
    ]
    return Params(
        hh_sticks=hh_sticks,
        hh_weights=stick_break(hh_sticks),
        mem_sticks=mem_sticks,
        mem_weights=stick_break(mem_sticks),
        hh_kernels=hh_kernels,
        mem_kernels=mem_kernels,
        hh_conc=float(hh_conc),
        mem_conc=mem_conc,
    )


def member_logliks(params: Params, mem_codes: np.ndarray) -> np.ndarray:
    """log p(member values | household class g, member class m) as (F, S, N)."""
    F, S = params.n_hh_classes, params.n_mem_classes
    out = np.zeros((F, S, mem_codes.shape[0]))
    for k, kernel in enumerate(params.mem_kernels):
        out += _log(kernel)[:, :, mem_codes[:, k]]
    return out


def member_mixture_logliks(params: Params, mem_codes: np.ndarray) -> np.ndarray:
    """log p(member values | household class), member classes summed out: (F, N)."""
    per_class = member_logliks(params, mem_codes)
    return logsumexp(per_class + _log(params.mem_weights)[:, :, None], axis=1)


def household_kernel_logliks(params: Params, hh_codes: np.ndarray) -> np.ndarray:
    """log p(household-level values | class g), member part excluded: (F, n)."""
    out = np.zeros((params.n_hh_classes, hh_codes.shape[0]))
    for k, kernel in enumerate(params.hh_kernels):
        out += _log(kernel)[:, hh_codes[:, k]]
    return out


def household_logliks(params: Params, view: DatasetView) -> np.ndarray:
    """log p(household | class g) for every household, as (F, n)."""
    out = household_kernel_logliks(params, view.hh_codes)
    mixed = member_mixture_logliks(params, view.mem_codes)
    out += np.add.reduceat(mixed, view.hh_start, axis=1)
    return out


def class_posterior_logweights(params: Params, view: DatasetView) -> np.ndarray:
    """Unnormalized log Pr(class g | household i): (F, n)."""
    return _log(params.hh_weights)[:, None] + household_logliks(params, view)


def dataset_loglik(params: Params, view: DatasetView) -> float:
    """Total log likelihood with classes marginalized out."""
    return float(logsumexp(class_posterior_logweights(params, view), axis=0).sum())


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


def size_class_logweights(params: Params, schema: Schema, h: int) -> np.ndarray:
    """Unnormalized log Pr(class g, size h): size kernel times class weights."""
    size_kernel = params.hh_kernels[schema.size_index]
    return _log(params.hh_weights) + _log(size_kernel[:, h - 1])


def draw_households(
    params: Params,
    schema: Schema,
    hh_class: np.ndarray,
    rng: np.random.Generator,
    sizes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate households given their classes.

    Draws household variables (size included unless sizes is passed, in which
    case the size code is forced), then member classes and member variables.
    Returns (hh_codes, mem_codes, sizes, mem_class) with member rows grouped
    by household in order.
    """
    B = hh_class.shape[0]
    q = len(schema.household_vars)
    hh_codes = np.zeros((B, q), dtype=np.int64)
    for k in range(q):
        if sizes is not None and k == schema.size_index:
            hh_codes[:, k] = np.asarray(sizes) - 1
        else:
            hh_codes[:, k] = rows_categorical(params.hh_kernels[k][hh_class], rng)
    out_sizes = hh_codes[:, schema.size_index] + 1
    mem_hh = np.repeat(np.arange(B), out_sizes)
    mem_class = rows_categorical(params.mem_weights[hh_class][mem_hh], rng)
    p = len(schema.individual_vars)
    mem_codes = np.zeros((mem_hh.shape[0], p), dtype=np.int64)
    for k in range(p):
        mem_codes[:, k] = rows_categorical(
            params.mem_kernels[k][hh_class[mem_hh], mem_class], rng
        )
    return hh_codes, mem_codes, out_sizes.astype(np.int64), mem_class


def rows_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a (B, d) probability array."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0]) * cdf[:, -1]
    return np.minimum((u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1).astype(np.int64)


def infeasible_mass(
    params: Params,
    schema: Schema,
    rules: RuleSet,
    h: int,
    method: str = "exact",
    n_draws: int = 10000,
    rng: np.random.Generator | None = None,
    cap: int = 10**7,
) -> tuple[float, float]:
    """Probability that a size-h household violates the rules, given size h.

    The exact route enumerates the size-h composition space (size code pinned
    to h) and sums the conditional probability of every infeasible cell; the
    monte_carlo route generates households conditioned on size and reports the
    infeasible fraction with its binomial standard error.  Returns
    (mass, standard_error); the exact route's error is 0.
    """
    size_kernel = params.hh_kernels[schema.size_index]
    if float(params.hh_weights @ size_kernel[:, h - 1]) <= 0.0:
        raise ValueError(f"model assigns zero probability to household size {h}")
    logw = size_class_logweights(params, schema, h)
    class_probs = np.exp(logw - logsumexp(logw))

    if method == "exact":
        dims = [v.cardinality for k, v in enumerate(schema.household_vars) if k != schema.size_index]
        n_cells = int(np.prod([np.int64(d) for d in dims], dtype=np.int64)) * int(
            np.prod([np.int64(v.cardinality) for v in schema.individual_vars], dtype=np.int64)
        ) ** h
        if n_cells > cap:
            raise ValueError(f"size-{h} composition space has {n_cells} cells, above cap {cap}")
        mass = 0.0
        for hh, mem in iter_cell_chunks(schema, h, fix_size_code=h - 1):
            feasible = check_batch(rules, hh, mem)
            if feasible.all():
                continue
            probs = _conditional_cell_probs(params, schema, class_probs, hh, mem)
            mass += float(probs[~feasible].sum())
        return mass, 0.0
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo route needs an rng")
        classes = rng.choice(params.n_hh_classes, size=n_draws, p=class_probs)
        hh_codes, mem_codes, sizes, _ = draw_households(
            params, schema, classes, rng, sizes=np.full(n_draws, h)
        )
        feasible = check_batch(rules, hh_codes, mem_codes.reshape(n_draws, h, -1))
        frac = 1.0 - feasible.mean()
        se = float(np.sqrt(max(frac * (1.0 - frac), LOG_FLOOR) / n_draws))
        return float(frac), se
    raise ValueError(f"unknown method {method!r}")


def _conditional_cell_probs(
    params: Params,
    schema: Schema,
    class_probs: np.ndarray,
    hh_codes: np.ndarray,
    mem_codes: np.ndarray,
) -> np.ndarray:
    """Pr(cell | size) for a chunk of size-h cells: (B,)."""
    B, h, _ = mem_codes.shape
    cell = np.repeat(class_probs[:, None], B, axis=1)  # (F, B)
    for k in range(len(schema.household_vars)):
        if k == schema.size_index:
            continue  # class_probs already condition on the size factor
        cell *= params.hh_kernels[k][:, hh_codes[:, k]]
    for j in range(h):
        flat = member_logliks(params, mem_codes[:, j, :])  # (F, S, B)
        cell *= np.exp(logsumexp(flat + _log(params.mem_weights)[:, :, None], axis=1))
    return cell.sum(axis=0)
