"""Shared fixtures: small schemas, hand-built datasets, parameter draws."""

import numpy as np
import pytest

from hhsynth.data import Dataset, HouseholdRecord, Schema, VariableSpec
from hhsynth.model import Hyperparams, prior_draw
from hhsynth.rng import substream


def build_schema(household, individual):
    """Schemas from (name, cardinality) pairs; a trailing * marks the size var."""
    hh_specs = []
    for name, card in household:
        is_size = name.endswith("*")
        hh_specs.append(VariableSpec(name=name.rstrip("*"), cardinality=card,
                                     level="household", is_size=is_size))
    ind_specs = [
        VariableSpec(name=name, cardinality=card, level="individual")
        for name, card in individual
    ]
    return Schema(household_vars=tuple(hh_specs), individual_vars=tuple(ind_specs))


def build_dataset(schema, households):
    """Dataset from a list of (hh_codes tuple, [member tuples]); 0-based codes."""
    records = []
    for i, (hh, members) in enumerate(households):
        records.append(
            HouseholdRecord(
                household_id=f"h{i + 1:04d}",
                hh_values=tuple(hh),
                members=tuple(tuple(m) for m in members),
            )
        )
    ds = Dataset(schema=schema, records=tuple(records))
    ds.validate()
    return ds


@pytest.fixture
def toy_schema():
    """Ownership flag, size up to 3, member role and a 4-way color."""
    return build_schema(
        household=[("own", 2), ("hh_size*", 3)],
        individual=[("role", 2), ("color", 4)],
    )


@pytest.fixture
def wide_schema():
    """More possible member rows (2 * 9 * 12 * 6 = 1,296) than the tests' data have members."""
    return build_schema(
        household=[("own", 2), ("hh_size*", 3)],
        individual=[("role", 2), ("age", 9), ("relate", 12), ("race", 6)],
    )


@pytest.fixture
def minimal_schema():
    """Smallest legal shape: the size variable plus one binary member variable."""
    return build_schema(household=[("hh_size*", 2)], individual=[("x", 2)])


@pytest.fixture
def toy_params(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    params = prior_draw(hyper, substream(402, "fixture"))
    params.validate()
    return params


@pytest.fixture
def toy_dataset(toy_schema):
    # sizes 1..3 with a mix of codes across both levels
    return build_dataset(
        toy_schema,
        [
            ((0, 0), [(0, 1)]),
            ((1, 1), [(0, 2), (1, 2)]),
            ((0, 2), [(0, 0), (1, 0), (1, 3)]),
            ((1, 0), [(0, 3)]),
            ((0, 1), [(0, 1), (1, 1)]),
        ],
    )
