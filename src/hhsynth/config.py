"""The settings objects of the chain, the toy generator and risk.

This module needs only the standard library.  The command layer builds and
checks every config section before it imports a numerical library module
(it imports numpy itself, at module level).
``hhsynth.gibbs``, ``hhsynth.simulate`` and ``hhsynth.risk`` import these
classes from here, so each is also found there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .constraints import RuleSet


@dataclass
class ChainConfig:
    n_iterations: int
    burn_in: int
    thin: int = 1
    seed: int = 0
    candidate_cap: int | None = None  # truncated mode; None means 1000 * n

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not 0 <= self.burn_in < self.n_iterations:
            raise ValueError("burn_in must lie in [0, n_iterations)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.candidate_cap is not None and self.candidate_cap < 1:
            raise ValueError("candidate_cap must be >= 1")


@dataclass
class ToyConfig:
    """Generator settings.  Codes are 0-based, like everything in memory.

    size_probs maps household size to probability.  marginals optionally fixes
    per-variable category marginals (defaults to uniform).  If role_variable
    is set, member 1 receives head_code and everyone else other_code, which
    makes the output satisfy an exactly-one-head rule by construction.
    """

    n_households: int
    size_probs: dict[int, float]
    copy_variable: str
    copy_prob: float
    marginals: dict[str, np.ndarray] = field(default_factory=dict)
    role_variable: str | None = None
    head_code: int = 0
    other_code: int = 1

    def __post_init__(self):
        if self.n_households < 1:
            raise ValueError("n_households must be >= 1")
        if not 0.0 <= self.copy_prob <= 1.0:
            raise ValueError("copy_prob must lie in [0, 1]")
        probs = list(self.size_probs.values())
        # NaN fails p >= 0
        if not probs or not all(p >= 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("size_probs must be nonnegative and sum to 1")


@dataclass
class RiskConfig:
    """What risk assesses.  rules, set when the fit ran in truncated mode,
    drops rule-infeasible household-kind candidates and, for both kinds,
    divides each replicate household's likelihood by 1 - pi0_h."""

    kind: str  # "individual" or "household"
    held_fixed: tuple[str, ...] = ()
    sizes: tuple[int, ...] | None = None  # household targets only
    rules: RuleSet | None = None

    def __post_init__(self):
        if self.kind not in ("individual", "household"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.sizes and self.kind != "household":
            raise ValueError("sizes restrict household targets only")
