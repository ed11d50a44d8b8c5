"""Bulk-seeded replication streams against numpy's SeedSequence.

`market.substreams(prefix, count)` must hand replication r the stream of
``default_rng(SeedSequence([*prefix, r]))`` bit for bit, and every batch site
(Monte Carlo tables, episodes, audit environments) must read it.
"""

import numpy as np
import pytest

import flexmarket as fm
from flexmarket import dp, market, mechanism, simulate
from flexmarket.market import substreams
from flexmarket.mechanism import Mechanism

PREFIXES = [(), (0,), (7,), (2024, 2), (2**32 - 1, 1), (2**32, 3), (2**64 + 5,),
            (1, 2, 3, 4, 5), (np.int64(11), 2)]


def _reference(prefix, count):
    return (np.random.default_rng(np.random.SeedSequence([*prefix, r])) for r in range(count))


@pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
@pytest.mark.parametrize("count", [0, 1, 2000])
def test_substreams_match_seed_sequence(prefix, count):
    got = [rng.random(8) for rng in substreams(prefix, count)]
    want = [rng.random(8) for rng in _reference(prefix, count)]
    assert len(got) == count
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_substreams_span_seed_blocks():
    count = 2 * market._SEED_BLOCK + 3
    got = [rng.random(2) for rng in substreams((2**64 + 5, 2), count)]
    want = [rng.random(2) for rng in _reference((2**64 + 5, 2), count)]
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(got) == count


def test_replication_index_fits_one_word():
    with pytest.raises(ValueError):
        next(substreams((1,), 2**32 + 1))


@pytest.mark.parametrize("key", [-1, 0.5])
def test_bad_keys_raise_as_seed_sequence_does(key):
    with pytest.raises(Exception) as numpy_error:
        np.random.SeedSequence([key, 0])
    with pytest.raises(type(numpy_error.value)):
        next(substreams((key,), 3))
    assert list(substreams((key,), 0)) == []


@pytest.fixture
def reference_streams(monkeypatch):
    """Every batch site on per-replication SeedSequence streams; returns the
    list that records the (prefix, count) of each batch drawn."""
    calls = []

    def reference(prefix, count):
        calls.append((tuple(prefix), count))
        return _reference(prefix, count)

    for module in (dp, mechanism, simulate):
        monkeypatch.setattr(module, "substreams", reference)
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
    prefixes = {prefix for prefix, _count in calls}
    assert {(seed, 1), (seed, 2), (seed,)} <= prefixes  # mc layers and audits, episodes
