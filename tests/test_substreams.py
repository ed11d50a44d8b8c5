"""Bulk-seeded replication streams against numpy's SeedSequence.

`market.uniform_rows(prefix, count, width)` must hand replication r the
first `width` uniforms of ``default_rng(SeedSequence([*prefix, r]))`` bit for
bit, and every batch site (Monte Carlo tables, episodes, audit environments)
must read it, through rows wide enough for every draw the site makes.
"""

from collections import Counter

import numpy as np
import pytest

import flexmarket as fm
from flexmarket import config_io, dp, market, mechanism, simulate
from flexmarket.market import uniform_rows
from flexmarket.mechanism import Mechanism

PREFIXES = [(), (0,), (7,), (2024, 2), (2**32 - 1, 1), (2**32, 3), (2**64 + 5,),
            (1, 2, 3, 4, 5), (np.int64(11), 2)]


def _reference(prefix, count, width):
    return (np.random.default_rng(np.random.SeedSequence([*prefix, r])).random(width).tolist()
            for r in range(count))


@pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
@pytest.mark.parametrize("count", [0, 1, 2000])
def test_substreams_match_seed_sequence(prefix, count):
    got = list(uniform_rows(prefix, count, 8))
    assert len(got) == count
    assert got == list(_reference(prefix, count, 8))


def test_substreams_span_seed_blocks():
    count = 2 * market._SEED_BLOCK + 3
    got = list(uniform_rows((2**64 + 5, 2), count, 2))
    assert len(got) == count and got == list(_reference((2**64 + 5, 2), count, 2))


# 100 x 12 and 100 x 13 sit on either side of the crossover, the others well inside
@pytest.mark.parametrize("count, width, vectorized", [
    (2000, 10, True), (300, 3, True), (100, 12, True), (100, 13, False),
    (27, 140, False), (343, 140, False), (5, 0, True)])
def test_uniform_rows_either_fill(count, width, vectorized, monkeypatch):
    """Each block shape takes the fill the crossover names, and either fill
    gives the SeedSequence rows at that shape."""
    assert market._vectorize(count, width) is vectorized
    want = list(_reference((2024, 2), count, width))
    assert list(uniform_rows((2024, 2), count, width)) == want
    monkeypatch.setattr(market, "_vectorize", lambda rows, width: not vectorized)
    assert list(uniform_rows((2024, 2), count, width)) == want


@pytest.mark.parametrize("count", [3, 2000])
def test_row_0_guard_trips_on_a_wrong_multiplier(count, monkeypatch):
    """A slip in the PCG64 arithmetic (here the multiplier's high word, which
    seeding and every vectorized step use) is refused before any row."""
    assert market._vectorize(count, 8) is (count == 2000)
    monkeypatch.setattr(market, "_MULT_HI", market._MULT_HI ^ np.uint64(1))
    with pytest.raises(RuntimeError):
        next(uniform_rows((7,), count, 8))


def test_replication_index_fits_one_word():
    with pytest.raises(ValueError):
        next(uniform_rows((1,), market.MAX_REPLICATIONS + 1, 2))


@pytest.mark.parametrize("key", [-1, 0.5])
def test_bad_keys_raise_as_seed_sequence_does(key):
    with pytest.raises(Exception) as numpy_error:
        np.random.SeedSequence([key, 0])
    with pytest.raises(type(numpy_error.value)):
        next(uniform_rows((key,), 3, 2))
    assert list(uniform_rows((key,), 0, 2)) == []


@pytest.fixture
def reference_streams(monkeypatch):
    """Every batch site on per-replication SeedSequence streams; returns the
    list that records the (prefix, count, width) of each batch drawn."""
    calls = []

    def reference(prefix, count, width):
        calls.append((tuple(prefix), count, width))
        return _reference(prefix, count, width)

    for module in (dp, mechanism, simulate):
        monkeypatch.setattr(module, "uniform_rows", reference)
    return calls


def _batches(small_cfg, small_tables, seed):
    mc = fm.build_value_tables(small_cfg, backend="mc", samples=30, seed=seed)
    mech = Mechanism(small_tables)
    episodes = list(simulate.run_episodes(mech, 50, seed))
    probe = simulate.AuditProbe.default(small_cfg, 2)
    bic = simulate.bic_audit(small_cfg, small_tables, probe, 200, seed, mech=mech)
    ir = simulate.ir_audit(small_cfg, small_tables, 200, seed, mech=mech)
    return (mc.values, mc.stderrs), episodes, bic.to_json(), ir.to_json()


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64 + 5])
def test_batch_sites_read_substreams(small_cfg, small_tables, seed, request):
    bulk = _batches(small_cfg, small_tables, seed)
    calls = request.getfixturevalue("reference_streams")
    assert _batches(small_cfg, small_tables, seed) == bulk
    prefixes = {prefix for prefix, _count, _width in calls}
    assert {(seed, 1), (seed, 2), (seed,)} <= prefixes  # mc layers and audits, episodes


# Every arrival PMF puts all its mass on n_max = 2, so every draw of every
# site takes the most uniforms it can, and every row is read to its end.
FULL_ROWS = {
    "horizon": 3, "varieties": 3, "grid": {"min": 0.0, "max": 1.0, "points": 11},
    "arrivals": [[0.0, 0.0, 1.0]] * 3, "supply": [[[0.5, 0.5]] * 3] * 3,
    "types": {"family": "truncated_exponential", "alpha": [1.0, 2.0, 3.0]},
}


@pytest.fixture(scope="module")
def full_rows_mech():
    return Mechanism(fm.build_value_tables(config_io.parse_config(FULL_ROWS)))


def _per_call(prefix):
    """Per-call draws on replication `prefix`'s own Generator."""
    return np.random.default_rng(np.random.SeedSequence(list(prefix))).random


# 5 rows take the one-by-one fill, 300 the vectorized one, at every site's width here
@pytest.mark.parametrize("replications", [5, 300])
def test_episode_and_environment_rows_are_wide_enough(full_rows_mech, replications):
    mech, seed = full_rows_mech, 2**64 + 5
    cfg = mech.cfg
    assert list(simulate.run_episodes(mech, replications, seed)) == [
        simulate._run_episode(mech, _per_call([seed, r])) for r in range(replications)]
    for t in range(1, cfg.horizon + 1):
        for n_t in range(1, cfg.arrivals.n_max + 2):
            envs = Counter()
            for r in range(replications):
                u = _per_call([seed, t, r])
                y = mech.sample_supply_state(u, t)
                envs[y, tuple(mech.sample_type(u, t) for _ in range(n_t - 1))] += 1
            want = tuple((count, env) for env, count in envs.items())
            assert mech.environment_law(t, n_t, replications, seed) == want, (t, n_t)


@pytest.mark.parametrize("samples", [2, 7])
def test_mc_rows_are_wide_enough(full_rows_mech, samples, monkeypatch):
    """Each mc state's report sets are its own Generator's per-call draws."""
    cfg, seed = full_rows_mech.cfg, 3
    drawn = []
    report_sets = market.PeriodSampler.report_sets

    def recorded(sampler, row, count):
        sets = report_sets(sampler, row, count)
        drawn.append(sets)
        return sets

    monkeypatch.setattr(market.PeriodSampler, "report_sets", recorded)
    tables = fm.build_value_tables(cfg, backend="mc", samples=samples, seed=seed)
    want = []
    for t in range(cfg.horizon, 0, -1):
        sampler = cfg.sampler(t)
        for idx in range(len(tables.states[t])):
            u = _per_call([seed, t, idx])
            want.append([[sampler.consumer(u) for _ in range(sampler.arrival_count(u))]
                         for _ in range(samples)])
    assert drawn == want
