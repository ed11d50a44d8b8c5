import dataclasses
import math

import numpy as np
import pytest

import flexmarket as fm
from flexmarket import (MalformedConfig, NoNonnegativePoint, NoSolution, OffGridValue, config_io,
                        market, oracle)
from flexmarket.market import ArrivalDistribution, ValuationGrid, validate_config

from conftest import per_call_keys, tabulated_config


def analytic_w(x, a):
    """Closed-form virtual valuation of the truncated exponential family."""
    return x - (1.0 - math.exp(a * (x - 1.0))) / a


def bisect_root(f, lo, hi, iters=80):
    """Sign-change bisection; the test-side root oracle."""
    flo = f(lo)
    assert flo < 0 < f(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# -- grid ---------------------------------------------------------------------

def test_grid_invariants():
    g = ValuationGrid.uniform(0.0, 1.0, 11)
    assert g.size == 11
    assert g.points[0] == 0.0 and g.points[-1] == 1.0
    assert np.all(np.diff(g.points) > 0)
    assert g.index_of(0.3) == 3
    with pytest.raises(OffGridValue):
        g.index_of(0.3501)


def test_grid_nan_is_off_grid_and_infinities_keep_their_results():
    g = ValuationGrid.uniform(0.0, 1.0, 11)
    for lookup in (g.index_of, g.snap):
        with pytest.raises(OffGridValue):
            lookup(math.nan)
    for x in (math.inf, -math.inf):
        with pytest.raises(OffGridValue):
            g.index_of(x)
    assert (g.snap(math.inf), g.snap(-math.inf)) == (1.0, 0.0)


def _numpy_lookup(g, x):
    """The numpy formula index_of and snap used before they read Python floats:
    (index or exception type, snapped value or exception type)."""
    try:
        i = int(np.clip(np.rint((x - g.theta_min) / g.step), 0, g.size - 1))
    except ValueError as exc:
        return type(exc), type(exc)
    snapped = float(g.points[i])
    if abs(g.points[i] - x) > 1e-9 * max(1.0, abs(g.step)):
        return OffGridValue, snapped
    return i, snapped


@pytest.mark.parametrize("size", [2, 3, 11, 41, 1001])
def test_grid_lookup_matches_numpy_formula(size):
    g = ValuationGrid.uniform(0.0, 1.0, size)
    offsets = (0.0, 0.4 * g.step, -0.4 * g.step, 0.5 * g.step, -0.5 * g.step, 1e-12, -1e-12)
    for p in g.points.tolist():
        for x in (p + d for d in offsets):
            try:
                got_index = g.index_of(x)
            except OffGridValue:
                got_index = OffGridValue
            assert (got_index, g.snap(x)) == _numpy_lookup(g, x), x


def test_grid_points_are_linspace_of_its_three_numbers():
    points = ValuationGrid(0.0, 1.0, 11).points
    assert points.tobytes() == np.linspace(0.0, 1.0, 11).tobytes()
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[3] = 0.5


def test_equal_grids_compare_and_hash_alike():
    a, b = ValuationGrid.uniform(0, 1, 11), ValuationGrid.uniform(0, 1, 11)
    assert a == b and hash(a) == hash(b)
    assert a != ValuationGrid.uniform(0, 1, 12)
    assert type(ValuationGrid.uniform(0, 1, np.int64(11)).size) is int   # JSON of the fingerprint


def test_grid_size_alone_moves_the_fingerprint(small_cfg):
    g = small_cfg.grid
    fps = {_with_grid(small_cfg, g.theta_min, g.theta_max, size).fingerprint
           for size in (g.size, g.size + 1, 2 * g.size)}
    assert len(fps) == 3


def test_grid_rejects_degenerate():
    with pytest.raises(MalformedConfig):
        ValuationGrid.uniform(0.0, 1.0, 1)
    with pytest.raises(MalformedConfig):
        ValuationGrid.uniform(1.0, 0.0, 5)


# -- virtual valuation --------------------------------------------------------

def test_virtual_valuation_matches_closed_form(example_cfg):
    """Tabulated (1-CDF)/pdf agrees with the analytic truncated-exponential form."""
    for j, a in ((1, 2.0), (2, 3.0)):
        for x in (0.0, 0.25, 0.5, 0.75, 0.99):
            got = fm.virtual_valuation(example_cfg, 1, x, j)
            assert got == pytest.approx(analytic_w(x, a), abs=1e-12)


def test_virtual_valuation_at_top_is_exact(example_cfg, small_cfg):
    for cfg in (example_cfg, small_cfg):
        for t in (1, 2):
            for j in (1, 2):
                assert fm.virtual_valuation(cfg, t, 1.0, j) == 1.0


def test_virtual_valuation_near_zero_at_reported_reserve(example_cfg):
    """w(0.36, 1) vanishes within grid resolution."""
    w = fm.virtual_valuation(example_cfg, 1, 0.36, 1)
    assert abs(w) < 2 * example_cfg.grid.step


def test_virtual_valuation_rejects_off_grid(example_cfg):
    with pytest.raises(OffGridValue):
        fm.virtual_valuation(example_cfg, 1, 0.36001, 1)


def test_virtual_valuation_monotone_in_value_and_level(example_cfg):
    """Non-decreasing along the grid; strictly higher for the more flexible level."""
    for t in (1, 2):
        w1 = np.asarray(example_cfg.virtual_value_row(t, 1))
        w2 = np.asarray(example_cfg.virtual_value_row(t, 2))
        assert np.all(np.diff(w1) > 0)
        assert np.all(np.diff(w2) > 0)
        assert np.all(w2[:-1] > w1[:-1])
        assert w2[-1] == w1[-1] == 1.0


# -- reserve price and inverse -------------------------------------------------

def test_reserve_prices_match_root_oracle(example_cfg):
    """Grid reserves sit within one step of the continuous roots 0.36 / 0.29."""
    step = example_cfg.grid.step
    for j, a in ((1, 2.0), (2, 3.0)):
        root = bisect_root(lambda x: analytic_w(x, a), 0.01, 0.99)
        res = fm.reserve_price(example_cfg, 2, j)
        assert 0 <= res - root <= step  # smallest grid point at or above the root
    assert fm.reserve_price(example_cfg, 2, 1) == pytest.approx(0.36, abs=0.005)
    assert fm.reserve_price(example_cfg, 2, 2) == pytest.approx(0.29, abs=0.005)


def test_reserve_non_increasing_in_level(example_cfg):
    assert fm.reserve_price(example_cfg, 2, 1) > fm.reserve_price(example_cfg, 2, 2)


def test_reserve_endpoint_only():
    """Two-point grid where only theta_max has non-negative w: reserve = theta_max."""
    cfg = tabulated_config([1.0, 1.0], grid=(0.0, 1.0, 2))
    assert fm.virtual_valuation(cfg, 1, 0.0, 1) < 0
    assert fm.virtual_valuation(cfg, 1, 1.0, 1) == 1.0
    assert fm.reserve_price(cfg, 1, 1) == 1.0


def test_reserve_no_nonnegative_point():
    """w < 0 on the whole grid (negative valuations): degenerate instance."""
    cfg = tabulated_config([1.0] * 5, grid=(-1.0, -0.5, 5))
    assert fm.virtual_valuation(cfg, 1, -0.5, 1) == -0.5  # even the top point fails
    with pytest.raises(NoNonnegativePoint):
        fm.reserve_price(cfg, 1, 1)


def test_inverse_virtual(example_cfg):
    assert fm.inverse_virtual(example_cfg, 1, 0.037, 1) == pytest.approx(0.39, abs=0.01)
    assert fm.inverse_virtual(example_cfg, 1, 0.0, 2) == pytest.approx(0.29, abs=0.01)
    assert fm.inverse_virtual(example_cfg, 1, 1.0, 1) == 1.0  # w(1, j) = 1 analytically
    with pytest.raises(NoSolution):
        fm.inverse_virtual(example_cfg, 1, 1.0 + 1e-9, 1)


def test_threshold_scans_match_numpy_on_family():
    """`reserve_price` and `inverse_virtual` pick the first grid point that
    `np.flatnonzero` finds, on every (t, level) of the first 50 family
    instances: at 0.0, at every virtual value, one ulp above each, and above
    the top."""
    for seed in range(50):
        cfg = oracle.random_instance(seed)
        for t in range(1, cfg.horizon + 1):
            for b in range(1, cfg.varieties + 1):
                w = np.asarray(cfg.virtual_value_row(t, b))
                hits = np.flatnonzero(w >= 0.0)
                if hits.size:
                    assert fm.reserve_price(cfg, t, b) == cfg.grid.points[hits[0]]
                else:
                    with pytest.raises(NoNonnegativePoint):
                        fm.reserve_price(cfg, t, b)
                targets = (0.0, *w.tolist(), *np.nextafter(w, np.inf).tolist(), w.max() + 1.0)
                for target in targets:
                    hits = np.flatnonzero(w >= target)
                    if hits.size:
                        assert fm.inverse_virtual(cfg, t, target, b) == cfg.grid.points[hits[0]]
                    else:
                        with pytest.raises(NoSolution):
                            fm.inverse_virtual(cfg, t, target, b)


# -- example builder ------------------------------------------------------------

def test_build_example_config_shape(example_cfg):
    assert example_cfg.horizon == 2 and example_cfg.varieties == 2
    lam = example_cfg.arrivals.pmf(1)
    assert lam.tolist() == [0.5, 0.5]
    assert example_cfg.types.flex_pmf.tolist() == [[0.5, 0.5]] * 2
    # one good of each variety arrives in period 1, none afterwards
    assert example_cfg.supply.pmf(1, 1).tolist() == [0.0, 1.0]
    assert example_cfg.supply.pmf(2, 1).tolist() == [1.0]


def test_build_example_degenerate_cases():
    cfg = fm.build_example_config((2.0,), 0.0, 2, 11)
    assert cfg.arrivals.pmf(1).tolist() == [1.0, 0.0]
    assert cfg.types.flex_pmf.tolist() == [[1.0]] * 2
    with pytest.raises(MalformedConfig):
        fm.build_example_config((3.0, 2.0), 0.5)  # rates must increase
    with pytest.raises(MalformedConfig):
        fm.build_example_config((2.0, 3.0), 1.5)


def test_binned_pmf_normalizes(example_cfg):
    sums = example_cfg.types.binned_pmf.sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-9)


# -- validation ------------------------------------------------------------------

def test_example_config_passes_regularity(example_cfg):
    report = validate_config(example_cfg)
    assert report.passed
    assert report.notes  # grid-only caveat is stated


def test_uniform_single_level_passes():
    """Uniform on [0,1]: hazard 1/(1-x) non-decreasing, w(0) = -1 < 0."""
    cfg = tabulated_config([1.0] * 11, grid=(0.0, 1.0, 11))
    report = validate_config(cfg)
    assert report.passed
    hz = report.hazard[(1, 1)]
    expected = 1.0 / (1.0 - cfg.grid.points[:-1])
    assert np.allclose(hz[:-1], expected, rtol=1e-12)
    assert np.isinf(hz[-1])
    assert fm.virtual_valuation(cfg, 1, 0.0, 1) == -1.0


def test_flex_pmf_not_normalized_is_malformed():
    cfg = tabulated_config([1.0] * 11, flex=[[0.9]])
    with pytest.raises(MalformedConfig):
        validate_config(cfg)


def test_arrival_pmf_not_normalized_is_malformed(small_cfg):
    import dataclasses
    from flexmarket.market import ArrivalDistribution
    bad = dataclasses.replace(
        small_cfg, arrivals=ArrivalDistribution.from_lists([[0.6, 0.5]] * 2)
    )
    with pytest.raises(MalformedConfig):
        validate_config(bad)


def _with_grid(cfg, theta_min, theta_max, size):
    return dataclasses.replace(cfg, grid=ValuationGrid(theta_min, theta_max, size))


# refusals a config file cannot reach (parsing builds grids with
# `ValuationGrid.uniform`, which refuses first), each with its check's message
_STRUCTURE_REFUSALS = {
    "one-point-grid": (lambda c: market.check_structure(_with_grid(c, 0.0, 1.0, 1)),
                       "valuation grid has fewer than 2 points"),
    "reversed-bounds": (lambda c: market.check_structure(_with_grid(c, 1.0, 0.0, c.grid.size)),
                        "grid bounds out of order"),
    "horizon-0": (lambda c: market.check_structure(dataclasses.replace(c, horizon=0)),
                  "horizon and variety count must be positive"),
    "varieties-0": (lambda c: market.check_structure(dataclasses.replace(c, varieties=0)),
                    "horizon and variety count must be positive"),
    "example-horizon-0": (lambda c: fm.build_example_config((2.0, 3.0), 0.5, horizon=0),
                          "horizon must be positive"),
}


@pytest.mark.parametrize("case", sorted(_STRUCTURE_REFUSALS))
def test_structure_refusal_names_its_check(small_cfg, case):
    call, message = _STRUCTURE_REFUSALS[case]
    with pytest.raises(MalformedConfig) as exc:
        call(small_cfg)
    assert str(exc.value) == message


def test_decreasing_hazard_is_reported_not_raised():
    """A mid-grid hazard drop is a regularity finding, not an error."""
    cfg = tabulated_config([2.0, 0.5, 2.0], grid=(0.0, 1.0, 3))
    report = validate_config(cfg)
    assert not report.passed
    assert any(v.kind == "hazard_in_x" for v in report.violations)


def test_nonnegative_w_at_bottom_is_reported():
    cfg = tabulated_config([1.0] * 5, grid=(2.0, 3.0, 5))
    report = validate_config(cfg)
    assert any(v.kind == "w_min_sign" for v in report.violations)


def test_cross_level_strictness_violation_flagged():
    """Two identical levels cannot satisfy the strict cross condition."""
    cfg = tabulated_config([[1.0] * 11, [1.0] * 11], k=2, flex=[[0.5, 0.5]])
    report = validate_config(cfg)
    assert any(v.kind == "hazard_strict_cross" for v in report.violations)
    assert not any(v.kind == "hazard_in_x" for v in report.violations)


# -- per-period primitives -----------------------------------------------------------

def test_supply_outcomes_and_consumer_atoms(example_cfg):
    cfg = tabulated_config([1.0] * 5, T=1, k=2, grid=(0.0, 1.0, 5),
                           supply=[[[0.25, 0.75], [0.0, 0.5, 0.5]]])
    assert cfg.supply.outcomes(1) == ((0.125, (0, 1)), (0.125, (0, 2)),
                                      (0.375, (1, 1)), (0.375, (1, 2)))
    assert example_cfg.supply.outcomes(2) == ((1.0, (0, 0)),)
    atoms = example_cfg.consumer_atoms(1)
    assert [a[:2] for a in atoms] == sorted(a[:2] for a in atoms)
    assert all(p > 0.0 for _b, _i, p, _w in atoms)
    assert math.fsum(p for _b, _i, p, _w in atoms) == pytest.approx(1.0, abs=1e-12)
    b, i, _p, w = atoms[-1]
    assert w == fm.virtual_valuation(example_cfg, 1, float(example_cfg.grid.points[i]), b)


_BAD_ACCESS = {  # (call on the worked example at T = 2, k = 2, the message it must raise)
    "arrivals-pmf-period-0": (lambda c: c.arrivals.pmf(0), "period 0 outside 1..2"),
    "arrivals-pmf-period-T+1": (lambda c: c.arrivals.pmf(3), "period 3 outside 1..2"),
    "supply-pmf-period-0": (lambda c: c.supply.pmf(0, 1), "period 0 outside 1..2"),
    "supply-pmf-period-T+1": (lambda c: c.supply.pmf(3, 1), "period 3 outside 1..2"),
    "supply-pmf-variety-0": (lambda c: c.supply.pmf(1, 0), "variety 0 outside 1..2"),
    "supply-pmf-variety-k+1": (lambda c: c.supply.pmf(1, 3), "variety 3 outside 1..2"),
    "outcomes-period-0": (lambda c: c.supply.outcomes(0), "period 0 outside 1..2"),
    "outcomes-period-T+1": (lambda c: c.supply.outcomes(3), "period 3 outside 1..2"),
    "x-max-period-0": (lambda c: c.supply.x_max(0, 1), "period 0 outside 1..2"),
    "x-max-variety-0": (lambda c: c.supply.x_max(1, 0), "variety 0 outside 1..2"),
    "x-max-variety-k+1": (lambda c: c.supply.x_max(2, 3), "variety 3 outside 1..2"),
    "cumulative-max-period-0": (lambda c: c.supply.cumulative_max(0, 1), "period 0 outside 1..2"),
    "cumulative-max-period-T+1": (lambda c: c.supply.cumulative_max(3, 1),
                                  "period 3 outside 1..2"),
    "cumulative-max-variety-0": (lambda c: c.supply.cumulative_max(2, 0),
                                 "variety 0 outside 1..2"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ACCESS))
def test_distribution_accessors_check_their_indices(case, small_cfg):
    """A period or variety outside its range raises ValueError, never reads
    another period's or variety's entry by a wrapped index (0 reads the last)
    nor fails with a bare IndexError."""
    call, message = _BAD_ACCESS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(small_cfg)


def test_period_sampler_follows_the_pmfs(example_cfg):
    sampler = example_cfg.sampler(1)
    assert sampler is example_cfg.sampler(1)  # CDFs tabulated once per config
    rng = np.random.default_rng(5)
    draws = [sampler.consumer(rng.random) for _ in range(4000)]
    assert {b for b, _i in draws} == {1, 2}
    mean_level1 = np.mean([example_cfg.grid.points[i] for b, i in draws if b == 1])
    exact = float(example_cfg.types.binned_pmf[0, 0] @ example_cfg.grid.points)
    assert mean_level1 == pytest.approx(exact, abs=0.02)
    assert {sampler.supply_arrivals(rng.random) for _ in range(20)} == {(1, 1)}
    assert {sampler.arrival_count(rng.random) for _ in range(100)} == {0, 1}


# perfbench's mc-market: k=3, T=3, G=201, arrivals uniform on {0..3}, supply uniform on {0, 1, 2}
MC_MARKET = {
    "horizon": 3, "varieties": 3, "grid": {"min": 0.0, "max": 1.0, "points": 201},
    "arrivals": [[0.25] * 4] * 3, "supply": [[[1 / 3] * 3] * 3] * 3,
    "types": {"family": "truncated_exponential", "alpha": [1.0, 2.0, 3.0]},
}


def _rank_tables(cfg) -> list:
    """Two rank tables for `PeriodSampler.rank_keys`: one ranks every cell by
    (level, grid index), so a key decodes back to its set's reports, and one
    leaves out every cell of odd grid index."""
    G = cfg.grid.size
    ordered = [[b * G + i for i in range(G)] for b in range(cfg.varieties)]
    return [ordered, [[-1 if i % 2 else r for i, r in enumerate(row)] for row in ordered]]


def _checked_report_sets(sampler, prefix: tuple, count: int, rank, rows: int = 2) -> list:
    """`sampler.rank_keys` on rows 0..rows-1 of `prefix`, ``count * (1 + 2 *
    n_max)`` uniforms each, checked row by row against `count` rounds of
    per-call draws from the row's own generator,
    ``default_rng(SeedSequence([*prefix, r]))``; returns row 0's keys."""
    got = list(sampler.rank_keys(prefix, rows, count, rank))
    assert len(got) == rows
    for r, keys in enumerate(got):
        u = np.random.default_rng(np.random.SeedSequence([*prefix, r])).random
        assert keys == per_call_keys(sampler, u, count, rank), r
    return got[0]


@pytest.mark.parametrize("count", [0, 1, 20, 500])
def test_report_sets_are_the_per_call_draws(count, example_cfg):
    for cfg in (config_io.parse_config(MC_MARKET), example_cfg):
        for t in range(1, cfg.horizon + 1):
            for rank in _rank_tables(cfg):
                _checked_report_sets(cfg.sampler(t), (t,), count, rank)


def test_report_sets_with_no_arrivals(small_cfg):
    """Arrivals [1.0]: n_max = 0, so each set is empty and takes one uniform."""
    cfg = dataclasses.replace(small_cfg, arrivals=ArrivalDistribution.from_lists([[1.0], [1.0]]))
    for rank in _rank_tables(cfg):
        assert _checked_report_sets(market.PeriodSampler(cfg, 1), (3,), 50, rank) == [()] * 50


def test_report_sets_clamp_a_cdf_below_1(small_cfg):
    """CDFs ending at 0.5: a uniform at or above 0.5 draws the last index
    only through the clamp (`_draw`'s bound, and the cut that stops short of
    the last entry), so every set of one report and every level-2 report
    here is the clamp's. The per-call lists are patched alone: the block
    decoder's cuts are made from them."""
    sampler = market.PeriodSampler(small_cfg, 1)
    sampler.arrivals = [0.5, 0.5]
    sampler.levels = [0.5, 0.5]
    ordered, dropped = _rank_tables(small_cfg)
    keys = _checked_report_sets(sampler, (9,), 200, ordered)
    assert {len(key) for key in keys} == {0, 1}
    assert {r // small_cfg.grid.size + 1 for key in keys for r in key} == {1, 2}
    _checked_report_sets(sampler, (9,), 200, dropped)


@pytest.mark.parametrize("count", ["none", "n_max"])
def test_report_sets_where_every_row_draws_alike(count, monkeypatch):
    """Blocks in which every set of every row draws 0 arrivals, or n_max:
    the column chase steps every row by one width per sample, and each
    row's keys are still the per-call draws off that row."""
    cfg = config_io.parse_config(MC_MARKET)
    rng = np.random.default_rng(8)
    samples = 20
    for t in range(1, cfg.horizon + 1):
        sampler = cfg.sampler(t)
        per_set = 1 + 2 * sampler.n_max
        block = rng.random((50, samples * per_set))
        if count == "none":   # every set is its arrival uniform alone
            block[:, :samples] = 0.0
        else:
            block[:, ::per_set] = np.nextafter(1.0, 0.0)
        monkeypatch.setattr(market, "uniform_blocks", lambda prefix, rows, width: [block])
        ordered, dropped = _rank_tables(cfg)
        for rank in (ordered, dropped):
            got = list(sampler.rank_keys((1, t), len(block), samples, rank))
            assert got == [per_call_keys(sampler, iter(row).__next__, samples, rank)
                           for row in block.tolist()], t
            if rank is ordered:
                sizes = {len(key) for keys in got for key in keys}
                assert sizes == {0 if count == "none" else sampler.n_max}


def test_report_sets_across_block_splits(monkeypatch):
    """A `_BLOCK_FLOATS` cap of three rows splits eight rows into blocks of
    3, 3 and 2: every row's keys are still its own stream's per-call draws."""
    cfg = config_io.parse_config(MC_MARKET)
    sampler, samples = cfg.sampler(2), 7
    monkeypatch.setattr(market, "_BLOCK_FLOATS", 3 * samples * (1 + 2 * sampler.n_max))
    sizes = []
    blocks = market.uniform_blocks
    monkeypatch.setattr(market, "uniform_blocks", lambda *args: (
        sizes.append(len(b)) or b for b in blocks(*args)))
    for rank in _rank_tables(cfg):
        _checked_report_sets(sampler, (5, 2), samples, rank, rows=8)
    assert sizes == [3, 3, 2] * 2


def test_truncated_exponential_rescales_to_the_grid():
    unit = fm.market.truncated_exponential((2.0, 3.0), ValuationGrid.uniform(0.0, 1.0, 11), 1)
    wide = fm.market.truncated_exponential((2.0, 3.0), ValuationGrid.uniform(2.0, 6.0, 11), 1)
    assert np.allclose(wide.cdf, unit.cdf, rtol=1e-14, atol=1e-16)
    assert np.allclose(wide.pdf, unit.pdf / 4.0, rtol=1e-14, atol=0.0)
    with pytest.raises(MalformedConfig):
        fm.market.truncated_exponential((2.0, 0.0), ValuationGrid.uniform(0.0, 1.0, 11), 1)
