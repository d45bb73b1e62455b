"""The random stream: each drawing routine gives the floats and codes, and
leaves the generator in the state, of the same draws made one variable, one
kernel or one stick set per random call (tests/oracles.py)."""

import copy
import dataclasses

import numpy as np
import pytest

import oracles
from conftest import build_schema
from hhsynth.constraints import compile_rules
from hhsynth.data import Dataset, DatasetView
from hhsynth.gibbs import ChainConfig, resample_parameters, run_chain
from hhsynth.model import Hyperparams, draw_households, prior_draw
from hhsynth.rng import substream
from hhsynth.synthesis import synthesize_untruncated
from hhsynth.truncated import AugmentedBatch, generate_augmented

pytestmark = pytest.mark.filterwarnings("ignore:.*truncation level.*")


def same_bits(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def same_params(got, want):
    for name in ("hh_sticks", "hh_weights", "mem_sticks", "mem_weights", "hh_conc", "mem_conc"):
        same_bits(getattr(got, name), getattr(want, name))
    assert type(got.mem_conc) is type(want.mem_conc)
    assert len(got.hh_kernels) == len(want.hh_kernels)
    assert len(got.mem_kernels) == len(want.mem_kernels)
    for a, b in zip(got.hh_kernels + got.mem_kernels, want.hh_kernels + want.mem_kernels):
        same_bits(a, b)


def twin_streams(*key):
    """Two generators in the same state: one for the library, one for the oracle."""
    rng = substream(97, *key)
    return rng, copy.deepcopy(rng)


def same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


def params_for(schema, F, S, key, zeros=False):
    params = prior_draw(Hyperparams.uniform(schema, F, S), substream(96, F, S, key))
    if zeros:  # plateaus in every CDF: categories and classes of probability 0
        params.hh_kernels[0][:, 0] = 0.0
        params.mem_kernels[-1][..., 1] = 0.0
        params.mem_weights[:, 0] = 0.0
    return params


@pytest.fixture
def four_level_schema():
    """A size variable between two household variables, four individual ones."""
    return build_schema(
        household=[("own", 2), ("hh_size*", 4), ("tenure", 5)],
        individual=[("role", 2), ("sex", 2), ("age", 8), ("color", 4)],
    )


SCHEMAS = ["toy_schema", "wide_schema", "minimal_schema", "four_level_schema"]


@pytest.mark.parametrize("schema_name", SCHEMAS)
@pytest.mark.parametrize("B", [1, 7, 5000])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("zeros", [False, True])
def test_draw_households_matches_per_variable_oracle(request, schema_name, B, forced, zeros):
    schema = request.getfixturevalue(schema_name)
    params = params_for(schema, 5, 4, "draw", zeros)
    rng, ref = twin_streams("draw", schema_name, B, forced, zeros)
    classes = rng.integers(5, size=B)
    ref.integers(5, size=B)
    sizes = rng.integers(1, schema.max_size + 1, size=B) if forced else None
    if forced:
        ref.integers(1, schema.max_size + 1, size=B)
    for _ in range(3):  # the state after each call feeds the next
        got = draw_households(params, schema, classes, rng, sizes=sizes)
        want = oracles.draw_households(params, schema, classes, ref, sizes=sizes)
        for a, b in zip(got, want):
            same_bits(a, b)
        same_state(rng, ref)


@pytest.mark.parametrize("schema_name", ["toy_schema", "wide_schema", "four_level_schema"])
@pytest.mark.parametrize("target", [1, 40, 3000])
@pytest.mark.parametrize("zeros", [False, True])
def test_generate_augmented_matches_oracle(request, schema_name, target, zeros):
    schema = request.getfixturevalue(schema_name)
    rules = compile_rules("exactly_one role = 1", schema)
    histogram = {h: max(target // h, 1) for h in range(1, schema.max_size + 1)}
    several_batches = False
    for key in range(4):
        params = params_for(schema, 6, 3, ("aug", key), zeros)
        rng, ref = twin_streams("aug", schema_name, target, zeros, key)
        got = generate_augmented(params, schema, rules, histogram, rng, cap=10**8)
        want = oracles.generate_augmented(params, schema, rules, histogram, ref, cap=10**8)
        same_state(rng, ref)
        for field in dataclasses.fields(AugmentedBatch):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(a, DatasetView):
                for array in dataclasses.fields(DatasetView):
                    same_bits(getattr(a, array.name), getattr(b, array.name))
            else:
                same_bits(a, b)
        # the first batch is max(64, ceil(3 * n_h)) candidates
        first = [max(64, int(np.ceil(3 * histogram[h]))) for h in sorted(histogram)]
        kept = np.bincount(
            np.concatenate([got.feasible.sizes, got.infeasible.sizes]), minlength=schema.max_size + 1
        )
        several_batches |= bool((kept[sorted(histogram)] > first).any())
    if target == 3000:
        assert several_batches


def _class_arrays(schema, F, S, n, key):
    rng = substream(95, key)
    hh_class = rng.integers(F, size=n)
    sizes = rng.integers(1, schema.max_size + 1, size=n)
    mem_class = rng.integers(S, size=int(sizes.sum()))
    params = params_for(schema, F, S, key)
    hh, mem, _, _ = draw_households(params, schema, hh_class, rng, sizes=sizes)
    return hh_class, hh, np.repeat(hh_class, sizes), mem_class, mem


def shared_ids(cases):
    """Ids of (F, S) cases as they read when a per-class concentration axis
    ran beside them: these shared-concentration cases keep their names."""
    return [f"False-{F}-{S}" for F, S in cases]


RESAMPLE_CASES = [(1, 1), (1, 3), (4, 1), (12, 6), (20, 9)]
PRIOR_CASES = [(1, 1), (3, 1), (1, 4), (12, 6), (20, 9)]


@pytest.mark.parametrize("schema_name", ["toy_schema", "wide_schema", "minimal_schema"])
@pytest.mark.parametrize("F, S", RESAMPLE_CASES, ids=shared_ids(RESAMPLE_CASES))
def test_resample_parameters_matches_per_kernel_oracle(request, schema_name, F, S):
    schema = request.getfixturevalue(schema_name)
    hyper = Hyperparams.uniform(schema, F, S, mem_conc_shape=0.5, hh_conc_shape=0.5)
    arrays = _class_arrays(schema, F, S, 60, (schema_name, F, S))
    params = prior_draw(hyper, substream(94, F, S))
    rng, ref = twin_streams("resample", schema_name, F, S)
    for _ in range(3):
        got = resample_parameters(params, hyper, rng, *arrays)
        want = oracles.resample_parameters(params, hyper, ref, *arrays)
        same_params(got, want)
        same_state(rng, ref)
        params = got


@pytest.mark.parametrize("schema_name", ["toy_schema", "wide_schema", "minimal_schema"])
@pytest.mark.parametrize("F, S", PRIOR_CASES, ids=shared_ids(PRIOR_CASES))
def test_prior_draw_matches_per_kernel_oracle(request, schema_name, F, S):
    schema = request.getfixturevalue(schema_name)
    hyper = Hyperparams.uniform(schema, F, S)
    rng, ref = twin_streams("prior", schema_name, F, S)
    for _ in range(3):
        same_params(prior_draw(hyper, rng), oracles.prior_draw(hyper, ref))
        same_state(rng, ref)


@pytest.mark.parametrize("schema_name", ["toy_schema", "wide_schema", "four_level_schema"])
def test_synthesize_untruncated_matches_per_variable_oracle(request, schema_name):
    schema = request.getfixturevalue(schema_name)
    params = params_for(schema, 4, 3, "synth")
    rng = substream(93, schema_name)
    hh, mem, sizes, _ = draw_households(params, schema, rng.integers(4, size=300), rng)
    data = Dataset(schema, view=DatasetView.from_arrays(hh, mem, sizes))
    hyper = Hyperparams.uniform(schema, 4, 3)
    result = run_chain(data, hyper, ChainConfig(8, 2, seed=93))
    got = synthesize_untruncated(data, result.checkpoints, 4, seed=92)
    want = oracles.synthesize_untruncated(data, result.checkpoints, 4, seed=92)
    for replicate, (hh_codes, mem_codes) in zip(got.replicates, want):
        same_bits(replicate.to_view().hh_codes, hh_codes)
        same_bits(replicate.to_view().mem_codes, mem_codes)


@pytest.mark.parametrize("schema_name", SCHEMAS)
def test_given_member_classes_are_returned_and_not_drawn(request, schema_name):
    # untruncated synthesis keeps the fitted member classes: the generator
    # draws the free household variables and the member variables only
    schema = request.getfixturevalue(schema_name)
    params = params_for(schema, 5, 4, "given")
    inputs = substream(90, schema_name)
    classes = inputs.integers(5, size=40)
    sizes = inputs.integers(1, schema.max_size + 1, size=40)
    given = inputs.integers(4, size=int(sizes.sum()))
    kept = given.copy()
    rng, ref = twin_streams("given", schema_name)
    hh, mem, out_sizes, mem_class = draw_households(
        params, schema, classes, rng, sizes=sizes, mem_class=given
    )
    assert mem_class is given
    same_bits(given, kept)
    same_bits(out_sizes, sizes)
    np.testing.assert_array_equal(hh[:, schema.size_index], sizes - 1)
    assert mem.shape == (sizes.sum(), len(schema.individual_vars))
    n_free = 40 * (len(schema.household_vars) - 1)
    ref.random(n_free + int(sizes.sum()) * len(schema.individual_vars))
    assert rng.random() == ref.random()
