import dataclasses
import json
import math

import pytest

import flexmarket as fm
from flexmarket import MalformedConfig, config_io, market, oracle

EXAMPLE_DOC = {
    "horizon": 2,
    "varieties": 2,
    "grid": {"min": 0.0, "max": 1.0, "points": 41},
    "arrivals": [[0.5, 0.5], [0.5, 0.5]],
    "supply": [[[0, 1], [0, 1]], [[1], [1]]],
    "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
}


def test_family_doc_matches_builder(small_cfg):
    """Loading the family JSON reproduces the programmatic config exactly."""
    cfg = config_io.parse_config(EXAMPLE_DOC)
    assert config_io.fingerprint(cfg) == config_io.fingerprint(small_cfg)


def test_roundtrip_preserves_fingerprint(tmp_path, small_cfg):
    path = tmp_path / "cfg.json"
    config_io.dump_config(small_cfg, path)
    again = config_io.load_config(path)
    assert config_io.fingerprint(again) == config_io.fingerprint(small_cfg)
    assert again.types.binned_pmf.tolist() == small_cfg.types.binned_pmf.tolist()


def test_configs_compare_and_hash_by_fingerprint(small_cfg):
    reparsed = config_io.parse_config(market.canonical_dict(small_cfg))
    assert reparsed == small_cfg and hash(reparsed) == hash(small_cfg)
    assert small_cfg != fm.build_example_config((2.0, 3.0), 0.4, 2, 41)
    assert small_cfg != small_cfg.fingerprint


def test_unknown_fields_rejected():
    doc = dict(EXAMPLE_DOC, comment="hello")
    with pytest.raises(MalformedConfig, match="unknown fields"):
        config_io.parse_config(doc)
    doc = dict(EXAMPLE_DOC, grid={"min": 0.0, "max": 1.0, "points": 41, "step": 0.1})
    with pytest.raises(MalformedConfig, match="unknown fields"):
        config_io.parse_config(doc)


def test_missing_fields_rejected():
    doc = {k: v for k, v in EXAMPLE_DOC.items() if k != "supply"}
    with pytest.raises(MalformedConfig, match="missing"):
        config_io.parse_config(doc)


def test_grid_points_must_be_count():
    doc = dict(EXAMPLE_DOC, grid={"min": 0.0, "max": 1.0, "points": [0.0, 0.5, 1.0]})
    with pytest.raises(MalformedConfig):
        config_io.parse_config(doc)


def test_truncated_file_is_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(EXAMPLE_DOC)[:40])
    with pytest.raises(MalformedConfig, match="not valid JSON"):
        config_io.load_config(path)


def test_missing_file_is_malformed(tmp_path):
    with pytest.raises(MalformedConfig, match="cannot read"):
        config_io.load_config(tmp_path / "nope.json")


def test_bad_pmf_rejected_at_parse():
    doc = dict(EXAMPLE_DOC, arrivals=[[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(MalformedConfig, match="does not sum to 1"):
        config_io.parse_config(doc)


def test_unknown_family_rejected():
    doc = dict(EXAMPLE_DOC, types={"family": "weibull", "alpha": [1.0, 2.0]})
    with pytest.raises(MalformedConfig, match="unknown type family"):
        config_io.parse_config(doc)


def test_tabulated_types_parse(small_cfg):
    doc = dict(
        EXAMPLE_DOC,
        types={
            "flexibility": small_cfg.types.flex_pmf.tolist(),
            "pdf": small_cfg.types.pdf.tolist(),
            "cdf": small_cfg.types.cdf.tolist(),
        },
    )
    cfg = config_io.parse_config(doc)
    assert config_io.fingerprint(cfg) == config_io.fingerprint(small_cfg)


def test_fingerprint_sensitivity(small_cfg):
    other = fm.build_example_config((2.0, 3.1), 0.5, 2, 41)
    fp = config_io.fingerprint(small_cfg)
    assert len(fp) == 64 and fp == config_io.fingerprint(small_cfg)
    assert fp != config_io.fingerprint(other)


def test_fingerprint_pinned(small_cfg):
    """SHA-256 of the small part's compact JSON, then the type tables'
    little-endian float64 bytes: pinned on the worked example at G=41 and
    on the family's first instance."""
    assert config_io.fingerprint(small_cfg) == (
        "9791d1312a9ed80f6ae1dfd2ccd24822f8712acd21397d7ca3e961a1e9458bb8")
    assert config_io.fingerprint(oracle.random_instance(0)) == (
        "35cec9d3652d3c53d6d4e21c14a66249f66e4e46308293f94fe97a9b4f9a3764")


@pytest.mark.parametrize("table, at", [("flex_pmf", (1, 0)), ("pdf", (0, 1, 20)), ("cdf", (1, 1, 7))])
def test_fingerprint_sees_one_ulp_of_each_table(small_cfg, table, at):
    """One entry of one type table moved by one ulp changes the fingerprint."""
    arrays = {name: getattr(small_cfg.types, name).copy() for name in ("flex_pmf", "pdf", "cdf")}
    arrays[table][at] = math.nextafter(arrays[table][at], math.inf)
    moved = dataclasses.replace(small_cfg, types=market.TypeDistribution.from_tables(**arrays))
    same = dataclasses.replace(small_cfg, types=market.TypeDistribution.from_tables(
        **{name: getattr(small_cfg.types, name) for name in arrays}))
    assert config_io.fingerprint(same) == config_io.fingerprint(small_cfg)
    assert config_io.fingerprint(moved) != config_io.fingerprint(small_cfg)


def test_fingerprint_sees_a_trailing_zero_arrival():
    """Arrival PMFs that differ only by a trailing 0.0 are different configs."""
    padded = dict(EXAMPLE_DOC, arrivals=[[0.5, 0.5], [0.5, 0.5, 0.0]])
    a, b = config_io.parse_config(EXAMPLE_DOC), config_io.parse_config(padded)
    assert config_io.fingerprint(a) != config_io.fingerprint(b)


def test_family_fingerprints_survive_reparse():
    """All 200 family instances keep their fingerprint through their
    canonical serialization, and no two share one."""
    configs = [oracle.random_instance(i) for i in range(200)]
    fps = [config_io.fingerprint(cfg) for cfg in configs]
    assert fps == [config_io.fingerprint(config_io.parse_config(market.canonical_dict(cfg)))
                   for cfg in configs]
    assert len(set(fps)) == len(fps)


def test_family_on_shifted_grid():
    """The named family rescales to non-unit grids and stays normalized."""
    doc = dict(EXAMPLE_DOC, grid={"min": 2.0, "max": 4.0, "points": 21})
    cfg = config_io.parse_config(doc)
    assert cfg.types.cdf[0, 0, 0] == 0.0
    assert cfg.types.cdf[0, 0, -1] == pytest.approx(1.0, abs=1e-12)
    assert fm.virtual_valuation(cfg, 1, 4.0, 1) == 4.0
