"""Config file ingestion and writing.

A market is described by a single JSON document::

    {
      "horizon": 2,
      "varieties": 2,
      "grid": {"min": 0.0, "max": 1.0, "points": 1001},
      "arrivals": [[0.5, 0.5], [0.5, 0.5]],          # per-period PMF of N_t
      "supply": [[[0,1],[0,1]], [[1],[1]]],          # per-period, per-variety PMF
      "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]}
    }

`types` may instead tabulate `flexibility` (per-period level PMF) together
with `pdf` and `cdf` arrays shaped [period][level][grid point]. Unknown
fields are rejected at every level. Here only the document's own types are
checked (objects, counts, numbers); every array's shape and values are
checked once, by `market.check_structure`, before anything is derived from it.

Files are written in the canonical serialization (`market.canonical_dict`),
which always tabulates the type distributions.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MalformedConfig
from .market import (
    MAX_FLOATS,
    ArrivalDistribution,
    MarketConfig,
    SupplyDistribution,
    TypeDistribution,
    ValuationGrid,
    canonical_dict,
    check_structure,
    truncated_exponential,
)


def _expect_keys(obj: dict, required: set[str], where: str, optional: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise MalformedConfig(f"{where}: expected an object")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise MalformedConfig(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise MalformedConfig(f"{where}: missing fields {sorted(missing)}")


def _count(value, where: str) -> int:
    # bool is a subclass of int, but `true` is not a count
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise MalformedConfig(f"{where} must be a positive integer, got {value!r}")
    return value


def parse_config(doc: dict) -> MarketConfig:
    """Build and structurally validate a MarketConfig from a parsed JSON document."""
    _expect_keys(doc, {"horizon", "varieties", "grid", "arrivals", "supply", "types"}, "config")

    horizon = _count(doc["horizon"], "horizon")
    varieties = _count(doc["varieties"], "varieties")

    gspec = doc["grid"]
    _expect_keys(gspec, {"min", "max", "points"}, "grid")
    try:
        bounds = float(gspec["min"]), float(gspec["max"])
    except (TypeError, ValueError) as exc:
        raise MalformedConfig(f"grid bounds must be numbers: {exc}") from exc
    points = _count(gspec["points"], "grid.points")
    if horizon * varieties * points > MAX_FLOATS:
        raise MalformedConfig(f"the type tables would hold horizon x varieties x grid.points = "
                              f"{horizon * varieties * points} floats, more than numpy can shape")
    grid = ValuationGrid.uniform(*bounds, points)

    try:
        arrivals = ArrivalDistribution.from_lists(doc["arrivals"])
        supply = SupplyDistribution.from_lists(doc["supply"])
    except (TypeError, ValueError) as exc:
        raise MalformedConfig(f"bad arrival/supply PMF arrays: {exc}") from exc

    types = _parse_types(doc["types"], grid, horizon, varieties)
    cfg = MarketConfig(
        horizon=horizon, varieties=varieties, grid=grid,
        types=types, arrivals=arrivals, supply=supply,
    )
    check_structure(cfg)
    return cfg


def _parse_types(spec: dict, grid: ValuationGrid, horizon: int, varieties: int) -> TypeDistribution:
    if not isinstance(spec, dict):
        raise MalformedConfig("types: expected an object")
    if "family" in spec:
        _expect_keys(spec, {"family", "alpha"}, "types")
        if spec["family"] != "truncated_exponential":
            raise MalformedConfig(f"unknown type family {spec['family']!r}")
        if not isinstance(spec["alpha"], list) or len(spec["alpha"]) != varieties:
            raise MalformedConfig("types.alpha must list one rate per variety")
        try:
            alpha = [float(a) for a in spec["alpha"]]
        except (TypeError, ValueError) as exc:
            raise MalformedConfig(f"types.alpha rates must be numbers: {exc}") from exc
        return truncated_exponential(alpha, grid, horizon)

    _expect_keys(spec, {"flexibility", "pdf", "cdf"}, "types")
    try:
        tables = {key: np.asarray(spec[key], dtype=float) for key in ("flexibility", "pdf", "cdf")}
    except (TypeError, ValueError) as exc:
        raise MalformedConfig(f"bad type tables: {exc}") from exc
    return TypeDistribution.from_tables(
        flex_pmf=tables["flexibility"], pdf=tables["pdf"], cdf=tables["cdf"],
    )


def load_config(path) -> MarketConfig:
    """Load and validate a config file; parse failures raise MalformedConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedConfig(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedConfig(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedConfig("config root must be a JSON object")
    return parse_config(doc)


def fingerprint(cfg: MarketConfig) -> str:
    """The config's `MarketConfig.fingerprint` (SHA-256 of its small part as
    JSON and its type tables as float64 bytes, cached on the config)."""
    return cfg.fingerprint


def dump_config(cfg: MarketConfig, path) -> None:
    """Write the tabulated canonical form to a config file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(canonical_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
