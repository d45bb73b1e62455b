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
        when all groups match simultaneously.

VALUE tokens are 1-based category codes or labels from the schema.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .data import HOUSEHOLD, Schema, SchemaError


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


def _injective_match(candidates: list[np.ndarray]) -> np.ndarray:
    """Rows where distinct members can witness every pattern.

    candidates[t] is a (B, h) bool matrix of members matching pattern t.
    Small pattern counts only; backtracking over patterns ordered by
    match count keeps this cheap.
    """
    n_pat = len(candidates)
    B = candidates[0].shape[0]
    if n_pat == 1:
        return candidates[0].any(axis=1)
    stacked = np.stack(candidates)  # (T, B, h)
    out = np.zeros(B, dtype=bool)
    # quick necessary condition: every pattern matched and enough distinct members
    feasible_rows = np.flatnonzero(
        stacked.any(axis=2).all(axis=0) & (stacked.any(axis=0).sum(axis=1) >= n_pat)
    )
    for b in feasible_rows:
        rows = [np.flatnonzero(stacked[t, b]) for t in range(n_pat)]
        order = sorted(range(n_pat), key=lambda t: len(rows[t]))

        def extend(t: int, used: set) -> bool:
            if t == n_pat:
                return True
            for j in rows[order[t]]:
                if j not in used:
                    used.add(j)
                    if extend(t + 1, used):
                        return True
                    used.discard(j)
            return False

        out[b] = extend(0, set())
    return out


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
            if rule.member_patterns and fired.any():
                matches = []
                for pattern in rule.member_patterns:
                    m = np.ones(mem_codes.shape[:2], dtype=bool)
                    for idx, code in pattern:
                        m &= mem_codes[:, :, idx] == code
                    matches.append(m)
                fired &= _injective_match(matches)
            ok &= ~fired
        else:  # pragma: no cover
            raise TypeError(f"unknown rule type {type(rule).__name__}")
    return ok


def _cell_dims(schema: Schema, h: int, fix_size: bool) -> list[int]:
    dims = [
        v.cardinality
        for v in schema.household_vars
        if not (fix_size and v.is_size)
    ]
    dims += [v.cardinality for v in schema.individual_vars] * h
    return dims


def _decode_cells(
    linear: np.ndarray, schema: Schema, h: int, fix_size: bool, size_code: int
) -> tuple[np.ndarray, np.ndarray]:
    """Map linear cell indices to (B, q) household and (B, h, p) member codes."""
    dims = _cell_dims(schema, h, fix_size)
    digits = np.zeros((len(linear), len(dims)), dtype=np.int64)
    rem = linear.astype(np.int64)
    for j in range(len(dims) - 1, -1, -1):
        digits[:, j] = rem % dims[j]
        rem //= dims[j]
    q = len(schema.household_vars)
    p = len(schema.individual_vars)
    if fix_size:
        hh = np.zeros((len(linear), q), dtype=np.int64)
        cols = [k for k in range(q) if k != schema.size_index]
        hh[:, cols] = digits[:, : q - 1]
        hh[:, schema.size_index] = size_code
        mem = digits[:, q - 1 :].reshape(len(linear), h, p)
    else:
        hh = digits[:, :q]
        mem = digits[:, q:].reshape(len(linear), h, p)
    return hh, mem


def iter_cell_chunks(
    schema: Schema,
    h: int,
    chunk: int = 1 << 14,
    fix_size_code: int | None = None,
):
    """Yield (hh_codes, mem_codes) chunks covering the size-h composition space.

    With fix_size_code the size axis is pinned to that code and excluded from
    the enumeration; otherwise every household variable axis is free.
    """
    fix = fix_size_code is not None
    dims = _cell_dims(schema, h, fix)
    total = int(np.prod([np.int64(d) for d in dims]))
    for start in range(0, total, chunk):
        linear = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield _decode_cells(linear, schema, h, fix, fix_size_code if fix else 0)


def enumerate_feasible(
    schema: Schema,
    rules: RuleSet,
    h: int,
    cap: int = 10**7,
    return_cells: bool = False,
):
    """Count (optionally collect) feasible size-h compositions.

    The composition space is the product of every household variable's codes
    with every member's individual codes; its size is checked against cap
    before any work happens.  Returns the count, or (count, cells) where each
    cell is (household codes tuple, member code tuples).
    """
    if not 1 <= h <= schema.max_size:
        raise ValueError(f"size {h} outside 1..{schema.max_size}")
    dims = _cell_dims(schema, h, fix_size=False)
    total = int(np.prod([np.int64(d) for d in dims], dtype=np.int64))
    if total > cap:
        raise ValueError(f"composition space has {total} cells, above cap {cap}")
    count = 0
    cells = [] if return_cells else None
    for hh, mem in iter_cell_chunks(schema, h):
        mask = check_batch(rules, hh, mem)
        count += int(mask.sum())
        if return_cells:
            for b in np.flatnonzero(mask):
                cells.append(
                    (
                        tuple(int(c) for c in hh[b]),
                        tuple(tuple(int(c) for c in row) for row in mem[b]),
                    )
                )
    if return_cells:
        return count, cells
    return count
