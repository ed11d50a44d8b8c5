"""Bulk-seeded replication streams against numpy's SeedSequence.

`market.uniform_blocks(prefix, count, width)` (read row by row through
conftest's `uniform_rows`) must hand replication r the first `width` uniforms
of ``default_rng(SeedSequence([*prefix, r]))`` bit for bit, and every batch
site (Monte Carlo tables, episodes, audit environments) must read it,
through rows wide enough for every draw the site makes. A draw plan's
column reader must decode every row as its per-call reader does, and a
batch must play each distinct history of a block once.
"""

from collections import Counter

import numpy as np
import pytest

import flexmarket as fm
from flexmarket import config_io, market, oracle, simulate
from flexmarket.mechanism import Mechanism
from flexmarket.simulate import AuditProbe

from conftest import per_call_keys, uniform_rows

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


@pytest.mark.parametrize("width, cap", [(14_000, None), (40, 100), (150, 100), (0, None)])
def test_wide_batches_arrive_in_capped_blocks(width, cap, monkeypatch):
    """A block holds at most `_SEED_BLOCK` rows and `_BLOCK_FLOATS` uniforms,
    or one row where a row is wider; the blocks together are the
    SeedSequence rows."""
    if cap is not None:
        monkeypatch.setattr(market, "_BLOCK_FLOATS", cap)
    count, prefix = 40, (2024, 3)
    blocks = list(market.uniform_blocks(prefix, count, width))
    step = min(market._SEED_BLOCK, max(1, market._BLOCK_FLOATS // max(width, 1)))
    assert [len(b) for b in blocks] == [min(step, count - s) for s in range(0, count, step)]
    assert all(b.size <= max(market._BLOCK_FLOATS, width) for b in blocks)
    want = np.array(list(_reference(prefix, count, width))).reshape(count, width)
    assert np.array_equal(np.concatenate(blocks), want)
    assert list(uniform_rows(prefix, count, width)) == want.tolist()


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
    """Every batch site on per-replication SeedSequence streams, handed out
    as one block; returns the list that records the (prefix, count, width)
    of each batch drawn."""
    calls = []

    def reference(prefix, count, width):
        calls.append((tuple(prefix), count, width))
        if count > 0:
            yield np.array(list(_reference(prefix, count, width))).reshape(count, width)

    monkeypatch.setattr(market, "uniform_blocks", reference)
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
    plan = market.episode_plan(cfg)
    assert list(simulate.run_episodes(mech, replications, seed)) == [
        simulate._run_episode(mech, plan.read(_per_call([seed, r]))) for r in range(replications)]
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
    drawn, ranks = [], {}
    rank_keys = market.PeriodSampler.rank_keys

    def recorded(sampler, prefix, rows, count, rank):
        ranks[prefix[1]] = rank
        for keys in rank_keys(sampler, prefix, rows, count, rank):
            drawn.append(keys)
            yield keys

    monkeypatch.setattr(market.PeriodSampler, "rank_keys", recorded)
    tables = fm.build_value_tables(cfg, backend="mc", samples=samples, seed=seed)
    want = []
    for t in range(cfg.horizon, 0, -1):
        for idx in range(len(tables.states[t])):
            want.append(per_call_keys(cfg.sampler(t), _per_call([seed, t, idx]), samples, ranks[t]))
    assert drawn == want


def test_mc_tables_do_not_depend_on_the_block_cap(small_cfg, monkeypatch):
    """Monte Carlo tables are the same bits when every block holds one row."""
    def build():
        out = []
        for cfg in (small_cfg, config_io.parse_config(FULL_ROWS)):
            tables = fm.build_value_tables(cfg, backend="mc", samples=9, seed=2**64 + 5)
            out.append((tables.values, tables.stderrs))
        return out

    want = build()
    monkeypatch.setattr(market, "_BLOCK_FLOATS", 1)
    rows = []
    blocks = market.uniform_blocks
    monkeypatch.setattr(market, "uniform_blocks", lambda *args: (
        rows.append(len(b)) or b for b in blocks(*args)))
    assert build() == want
    assert rows and set(rows) == {1}


# -- draw plans: the column reader against the per-call one ---------------------------

def _clamp_market():
    """Arrival, supply and level CDFs whose last entry rounds to just below 1,
    so `_draw`'s bound clamps a uniform at or above it to the last index."""
    below = [0.7, 0.2, 0.1]   # np.cumsum ends at 0.9999999999999999
    grid = market.ValuationGrid.uniform(0.0, 1.0, 11)
    return fm.MarketConfig(
        horizon=2, varieties=3, grid=grid,
        types=market.truncated_exponential([1.0, 2.0, 3.0], grid, 2, np.array([below] * 2)),
        arrivals=market.ArrivalDistribution.from_lists([below] * 2),
        supply=market.SupplyDistribution.from_lists([[[0.6, 0.3, 0.1], [1.0], below]] * 2))


READER_MARKETS = {
    **{f"family-{i}": lambda i=i: oracle.random_instance(i) for i in range(40)},
    "full-rows": lambda: config_io.parse_config(FULL_ROWS),
    # one level, and single-entry supply (and period-2 arrival) PMFs: draws
    # with nothing to search
    "deterministic": lambda: config_io.parse_config({
        "horizon": 2, "varieties": 1, "grid": {"min": 0.0, "max": 1.0, "points": 5},
        "arrivals": [[0.0, 1.0], [1.0]], "supply": [[[1.0]], [[1.0]]],
        "types": {"family": "truncated_exponential", "alpha": [2.0]}}),
    "clamp": _clamp_market,
}


def _plans(cfg):
    """The episode plan and the environment plan of every (t, n_t)."""
    return [market.episode_plan(cfg)] + [
        market.environment_plan(cfg, t, n_t)
        for t in range(1, cfg.horizon + 1) for n_t in range(1, cfg.arrivals.n_max + 2)]


def _column_reads(plan, prefix, count):
    return [h for block in market.uniform_blocks(prefix, count, plan.width)
            for h in plan.read_block(block)]


# 4,097 rows cross `_SEED_BLOCK`; the per-call reference costs about 10 us a
# row, so that count runs on the hand-made markets and four of the family
@pytest.mark.parametrize("name", sorted(READER_MARKETS))
def test_column_reader_matches_per_call_reader(name, monkeypatch):
    """Every plan's column reader gives, row for row, the history the
    per-call reader draws off the same row, under either fill."""
    cfg = READER_MARKETS[name]()
    counts = [1, 5, 300]
    if not name.startswith("family-") or name in {f"family-{i}" for i in range(4)}:
        counts.append(market._SEED_BLOCK + 1)
    prefix = (2**64 + 5, 3)
    for plan in _plans(cfg):
        for count in counts:
            want = [plan.read(iter(row).__next__) for row in uniform_rows(prefix, count, plan.width)]
            for vectorized in (True, False):
                monkeypatch.setattr(market, "_vectorize", lambda rows, width, v=vectorized: v)
                assert _column_reads(plan, prefix, count) == want, (plan.steps, count, vectorized)


@pytest.mark.parametrize("name", ["full-rows", "deterministic", "clamp", "family-1"])
def test_column_reader_on_cdf_entries(name):
    """Uniforms equal to a CDF entry, one ulp either side of it, 0 and the
    largest double below 1: ties and the clamp decode as `_draw` decodes."""
    cfg = READER_MARKETS[name]()
    edges = {0.0, np.nextafter(1.0, 0.0)}
    for t in range(1, cfg.horizon + 1):
        sampler = cfg.sampler(t)
        for cum in (sampler.arrivals, sampler.levels, *sampler.values, *sampler.supply):
            for c in cum:
                edges |= {c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)}
    pool = np.array(sorted(e for e in edges if 0.0 <= e < 1.0))
    rng = np.random.default_rng(5)
    for plan in _plans(cfg):
        block = rng.choice(pool, size=(300, plan.width))
        assert plan.read_block(block) == [plan.read(iter(row).__next__) for row in block.tolist()]


@pytest.mark.parametrize("name", ["full-rows", "deterministic", "clamp", "family-1"])
def test_report_set_reader_on_cdf_entries(name, monkeypatch):
    """`PeriodSampler.rank_keys` on uniforms equal to a CDF entry, one ulp
    either side of it, 0 and the largest double below 1: ties and the clamp
    decode as the per-call draws off the same row decode them."""
    cfg = READER_MARKETS[name]()
    G = cfg.grid.size
    rank = [[b * G + i for i in range(G)] for b in range(cfg.varieties)]
    rng = np.random.default_rng(5)
    for t in range(1, cfg.horizon + 1):
        sampler = cfg.sampler(t)
        edges = {0.0, np.nextafter(1.0, 0.0)}
        for cum in (sampler.arrivals, sampler.levels, *sampler.values):
            for c in cum:
                edges |= {c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)}
        pool = np.array(sorted(e for e in edges if 0.0 <= e < 1.0))
        for samples in (1, 20):
            block = rng.choice(pool, size=(300, samples * (1 + 2 * sampler.n_max)))
            monkeypatch.setattr(market, "uniform_blocks", lambda prefix, count, width: [block])
            got = list(sampler.rank_keys((1, t), len(block), samples, rank))
            assert got == [per_call_keys(sampler, iter(row).__next__, samples, rank)
                           for row in block.tolist()], (t, samples)


# -- the block memo --------------------------------------------------------------------

def _histories(plan, prefix, count):
    return [plan.read(iter(row).__next__) for row in uniform_rows(prefix, count, plan.width)]


def test_a_repeated_history_is_one_trace(small_tables, monkeypatch):
    """An episode whose history an earlier one drew is that episode's very
    trace object, and each distinct history is played once."""
    played = []
    run_episode = simulate._run_episode

    def counted(mech, history):
        played.append(history)
        return run_episode(mech, history)

    monkeypatch.setattr(simulate, "_run_episode", counted)
    mech = Mechanism(small_tables)
    traces = list(simulate.run_episodes(mech, 300, 7))
    first = {}
    for history, trace in zip(_histories(market.episode_plan(mech.cfg), (7,), 300), traces):
        assert trace is first.setdefault(history, trace)
        assert trace == run_episode(mech, history)
    assert played == list(first) and len(first) < 300


def test_block_memo_holds_one_block(small_tables, monkeypatch):
    """Episodes and laws do not depend on the block size; with blocks of 3
    rows each block plays its own distinct histories."""
    probe = AuditProbe.default(small_tables.config, 2, points=5)
    mech = Mechanism(small_tables)
    want = (list(simulate.run_episodes(mech, 50, 7)), mech.environment_law(2, 2, 50, 7),
            simulate.bic_audit(small_tables.config, small_tables, probe, 50, 7).to_json())
    monkeypatch.setattr(market, "_SEED_BLOCK", 3)
    played = []
    run_episode = simulate._run_episode
    monkeypatch.setattr(simulate, "_run_episode",
                        lambda mech, history: played.append(history) or run_episode(mech, history))
    mech = Mechanism(small_tables)
    assert (list(simulate.run_episodes(mech, 50, 7)), mech.environment_law(2, 2, 50, 7),
            simulate.bic_audit(small_tables.config, small_tables, probe, 50, 7).to_json()) == want
    histories = _histories(market.episode_plan(mech.cfg), (7,), 50)
    assert played == [h for start in range(0, 50, 3) for h in dict.fromkeys(histories[start:start + 3])]


def test_histories_with_one_environment_share_its_row(small_tables):
    """Different histories that leave the same supply state and rivals are
    one row of the law, at its first draw, with their counts summed."""
    mech = Mechanism(small_tables)
    histories = _histories(market.environment_plan(mech.cfg, 2, 1), (9, 2), 300)
    envs = [mech._environment(2, h) for h in histories]
    assert len(set(envs)) < len(set(histories))
    assert mech.environment_law(2, 1, 300, 9) == tuple(
        (count, env) for env, count in Counter(envs).items())
