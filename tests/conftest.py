import numpy as np
import pytest

import flexmarket as fm
from flexmarket import market
from flexmarket.market import TypeDistribution, ArrivalDistribution, SupplyDistribution, ValuationGrid
from flexmarket.mechanism import Mechanism


@pytest.fixture(scope="session")
def example_cfg():
    """The worked two-period instance at full grid resolution."""
    return fm.build_example_config((2.0, 3.0), 0.5, 2, 1001)


@pytest.fixture(scope="session")
def example_tables(example_cfg):
    return fm.build_value_tables(example_cfg)


@pytest.fixture(scope="session")
def example_mech(example_tables):
    return Mechanism(example_tables)


@pytest.fixture(scope="session")
def small_cfg():
    """Same instance on a coarse grid, for tests that re-solve repeatedly."""
    return fm.build_example_config((2.0, 3.0), 0.5, 2, 41)


@pytest.fixture(scope="session")
def small_tables(small_cfg):
    return fm.build_value_tables(small_cfg)


def tabulated_config(pdf_rows, T=1, k=1, grid=(0.0, 1.0, 11), n_max=1, p_arrive=0.5,
                     supply=None, flex=None):
    """Build a config from raw per-level pdf values (trapezoid CDF, normalized)."""
    g = ValuationGrid.uniform(*grid)
    raw = np.broadcast_to(np.asarray(pdf_rows, dtype=float), (T, k, g.size)).copy()
    widths = np.diff(g.points)
    cdf = np.zeros_like(raw)
    cdf[..., 1:] = np.cumsum((raw[..., :-1] + raw[..., 1:]) / 2.0 * widths, axis=-1)
    norm = cdf[..., -1:].copy()
    types = TypeDistribution.from_tables(
        flex_pmf=np.full((T, k), 1.0 / k) if flex is None else np.asarray(flex, dtype=float),
        pdf=raw / norm, cdf=cdf / norm,
    )
    arrivals = ArrivalDistribution.from_lists(
        [[1.0 - p_arrive] + [p_arrive / n_max] * n_max] * T
    )
    if supply is None:
        supply = [[[0.0, 1.0]] * k] + [[[1.0]] * k] * (T - 1)
    return fm.MarketConfig(
        horizon=T, varieties=k, grid=g,
        types=types, arrivals=arrivals,
        supply=SupplyDistribution.from_lists(supply),
    )


def per_call_keys(sampler, u, count: int, rank) -> list:
    """`count` report sets drawn per call off `u` (`arrival_count`, then that
    many `consumer` calls), each keyed as `PeriodSampler.rank_keys` keys it:
    its reports' ranks in ascending order, cells ranked -1 left out."""
    sets = [[sampler.consumer(u) for _ in range(sampler.arrival_count(u))] for _ in range(count)]
    return [tuple(sorted(rank[b - 1][i] for b, i in drawn if rank[b - 1][i] >= 0))
            for drawn in sets]


def uniform_rows(prefix, count: int, width: int):
    """The rows of `market.uniform_blocks`, one by one, each a list of floats."""
    for block in market.uniform_blocks(prefix, count, width):
        for row in block:
            yield row.tolist()
