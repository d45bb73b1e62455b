"""Structural-zero rules: parsing, feasibility checks, and enumeration.

A household is feasible when it violates no rule.  Four rule families are
supported, written one per line ('#' starts a comment):

    exactly_one ROLEVAR = VALUE
        exactly one member carries VALUE on ROLEVAR.
    min_value VAR >= VALUE when ROLEVAR = ROLEVALUE
        members with the given role must have VAR at or above VALUE.
    order ORDERVAR : ROLEVAR = LOW < ROLEVAR = HIGH [gap N]
        every LOW-role member must sit at least N codes (default 1) below
        every HIGH-role member on ORDERVAR.
    forbid LIT [, LIT ...] [& LIT [, LIT ...] ...]
        a forbidden combination.  Comma-joined literals must hold on one
        member (or are household-level conditions); '&'-separated groups
        must be witnessed by distinct members.  The household is infeasible
        when all groups match simultaneously.  check_batch decides distinct
        witnesses by Hall's condition, with 2^T - 1 whole-array checks for T
        groups and no Python loop over households.

VALUE tokens are 1-based category codes or labels from the schema.

A RuleSet names the household and individual columns its rules read
(RuleSet.columns); model.infeasible_mass enumerates only those, with
iter_cells, the one enumerator of code combinations here.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .data import HOUSEHOLD, Schema, SchemaError


# the most code combinations iter_cells enumerates, and how many it makes at a time
MAX_CELLS = 10**7
CHUNK = 1 << 14


class RuleError(ValueError):
    """Raised for unparseable or schema-inconsistent rule text."""


@dataclass(frozen=True)
class ExactlyOneOfRole:
    var_index: int
    code: int


@dataclass(frozen=True)
class MinValueForRole:
    value_index: int
    min_code: int
    role_index: int
    role_code: int


@dataclass(frozen=True)
class PairwiseOrderByRole:
    order_index: int
    role_index: int
    low_code: int
    high_code: int
    min_gap: int = 1


@dataclass(frozen=True)
class ForbiddenCombination:
    # (household var index, code) conditions, all required
    hh_literals: tuple[tuple[int, int], ...]
    # per matched member: ((individual var index, code), ...) conjunctions;
    # groups must be witnessed by pairwise distinct members
    member_patterns: tuple[tuple[tuple[int, int], ...], ...]


Rule = ExactlyOneOfRole | MinValueForRole | PairwiseOrderByRole | ForbiddenCombination


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]

    def __bool__(self) -> bool:
        return bool(self.rules)

    @property
    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The household and the individual variable indices the rules read, ascending."""
        hh, mem = set(), set()
        for rule in self.rules:
            if isinstance(rule, ExactlyOneOfRole):
                mem.add(rule.var_index)
            elif isinstance(rule, MinValueForRole):
                mem |= {rule.value_index, rule.role_index}
            elif isinstance(rule, PairwiseOrderByRole):
                mem |= {rule.order_index, rule.role_index}
            else:
                hh |= {idx for idx, _ in rule.hh_literals}
                mem |= {idx for pattern in rule.member_patterns for idx, _ in pattern}
        return tuple(sorted(hh)), tuple(sorted(mem))


_LITERAL = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*(\S+)\s*$")


def _parse_literal(token: str, schema: Schema, level: str | None = None):
    m = _LITERAL.match(token)
    if m is None:
        raise RuleError(f"expected VAR = VALUE, got {token!r}")
    name, value = m.groups()
    var = schema.variable(name)
    if level is not None and var.level != level:
        raise RuleError(f"variable {name!r} must be {level} level here")
    return var, schema.index_of(name)[1], var.code_of(value)


def compile_rules(text: str, schema: Schema) -> RuleSet:
    """Parse rule text against a schema into a RuleSet."""
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(_parse_rule(line, schema))
        except (RuleError, SchemaError) as exc:
            raise RuleError(f"rule line {lineno}: {exc}") from exc
    return RuleSet(rules=tuple(rules))


def _parse_rule(line: str, schema: Schema) -> Rule:
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head == "exactly_one":
        _, idx, code = _parse_literal(rest, schema, level="individual")
        return ExactlyOneOfRole(var_index=idx, code=code)
    if head == "min_value":
        m = re.match(r"^(.+?)>=(.+?)\s+when\s+(.+)$", rest)
        if m is None:
            raise RuleError("expected: min_value VAR >= VALUE when ROLEVAR = ROLEVALUE")
        var_part, value_part, role_part = m.groups()
        var = schema.variable(var_part.strip())
        if var.level != "individual":
            raise RuleError(f"variable {var.name!r} must be individual level here")
        _, role_idx, role_code = _parse_literal(role_part, schema, level="individual")
        return MinValueForRole(
            value_index=schema.index_of(var.name)[1],
            min_code=var.code_of(value_part.strip()),
            role_index=role_idx,
            role_code=role_code,
        )
    if head == "order":
        m = re.match(r"^(\w+)\s*:\s*(.+?)<(.+?)(?:\s+gap\s+(\d+))?$", rest)
        if m is None:
            raise RuleError("expected: order ORDERVAR : ROLEVAR = LOW < ROLEVAR = HIGH [gap N]")
        order_name, low_part, high_part, gap = m.groups()
        order_var = schema.variable(order_name)
        if order_var.level != "individual":
            raise RuleError(f"variable {order_name!r} must be individual level here")
        low_var, low_idx, low_code = _parse_literal(low_part, schema, level="individual")
        high_var, high_idx, high_code = _parse_literal(high_part, schema, level="individual")
        if low_idx != high_idx:
            raise RuleError("both sides of an order rule must use the same role variable")
        return PairwiseOrderByRole(
            order_index=schema.index_of(order_name)[1],
            role_index=low_idx,
            low_code=low_code,
            high_code=high_code,
            min_gap=int(gap) if gap else 1,
        )
    if head == "forbid":
        hh_literals: list[tuple[int, int]] = []
        member_patterns: list[tuple[tuple[int, int], ...]] = []
        for group in rest.split("&"):
            pattern: list[tuple[int, int]] = []
            for token in group.split(","):
                var, idx, code = _parse_literal(token, schema)
                if var.level == HOUSEHOLD:
                    hh_literals.append((idx, code))
                else:
                    pattern.append((idx, code))
            if pattern:
                member_patterns.append(tuple(pattern))
        if not hh_literals and not member_patterns:
            raise RuleError("forbid rule needs at least one literal")
        return ForbiddenCombination(
            hh_literals=tuple(hh_literals), member_patterns=tuple(member_patterns)
        )
    raise RuleError(f"unknown rule kind {head!r}")


def check_batch(rules: RuleSet, hh_codes: np.ndarray, mem_codes: np.ndarray) -> np.ndarray:
    """Vectorized feasibility for B same-size households.

    hh_codes is (B, q) and mem_codes is (B, h, p); returns a (B,) bool mask,
    True where the household violates no rule.
    """
    B = hh_codes.shape[0]
    ok = np.ones(B, dtype=bool)
    for rule in rules.rules:
        if isinstance(rule, ExactlyOneOfRole):
            count = (mem_codes[:, :, rule.var_index] == rule.code).sum(axis=1)
            ok &= count == 1
        elif isinstance(rule, MinValueForRole):
            bad = (
                (mem_codes[:, :, rule.role_index] == rule.role_code)
                & (mem_codes[:, :, rule.value_index] < rule.min_code)
            ).any(axis=1)
            ok &= ~bad
        elif isinstance(rule, PairwiseOrderByRole):
            roles = mem_codes[:, :, rule.role_index]
            values = mem_codes[:, :, rule.order_index]
            low = roles == rule.low_code
            high = roles == rule.high_code
            low_max = np.where(low, values, -1).max(axis=1)
            high_min = np.where(high, values, np.iinfo(np.int64).max).min(axis=1)
            ok &= ~low.any(axis=1) | ~high.any(axis=1) | (low_max + rule.min_gap <= high_min)
        elif isinstance(rule, ForbiddenCombination):
            fired = np.ones(B, dtype=bool)
            for idx, code in rule.hh_literals:
                fired &= hh_codes[:, idx] == code
            matches = [  # (B, h): the members matching each pattern
                np.logical_and.reduce([mem_codes[:, :, idx] == code for idx, code in pattern])
                for pattern in rule.member_patterns
            ]
            # Hall's condition: distinct members witness all T patterns exactly
            # when every k of them are matched together by at least k members
            for k in range(1, len(matches) + 1):
                for group in itertools.combinations(matches, k):
                    fired &= np.logical_or.reduce(group).sum(axis=1) >= k
            ok &= ~fired
        else:  # pragma: no cover
            raise TypeError(f"unknown rule type {type(rule).__name__}")
    return ok


def iter_cells(dims: list[int]):
    """Yield every code combination of the given cardinalities, CHUNK at a time.

    Each chunk is an (n, len(dims)) array, combinations in row-major order
    (the last dimension varies fastest).  A space of more than MAX_CELLS
    combinations raises ValueError before any is made.
    """
    total = math.prod(dims)
    if total > MAX_CELLS:
        raise ValueError(f"{total} cells to enumerate, above cap {MAX_CELLS}")
    for start in range(0, total, CHUNK):
        linear = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        digits = np.unravel_index(linear, dims) if dims else ()
        yield np.array(digits, dtype=np.int64).reshape(len(dims), len(linear)).T


def enumerate_feasible(schema: Schema, rules: RuleSet, h: int) -> int:
    """Count the feasible size-h compositions.

    The composition space is the product of every household variable's codes
    with every member's individual codes.
    """
    if not 1 <= h <= schema.max_size:
        raise ValueError(f"size {h} outside 1..{schema.max_size}")
    q, p = len(schema.household_vars), len(schema.individual_vars)
    dims = [v.cardinality for v in schema.household_vars]
    dims += [v.cardinality for v in schema.individual_vars] * h
    return sum(
        int(check_batch(rules, cells[:, :q], cells[:, q:].reshape(-1, h, p)).sum())
        for cells in iter_cells(dims)
    )
