import json

import pytest

import flexmarket as fm
from flexmarket import MalformedConfig, config_io, market

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


def test_family_on_shifted_grid():
    """The named family rescales to non-unit grids and stays normalized."""
    doc = dict(EXAMPLE_DOC, grid={"min": 2.0, "max": 4.0, "points": 21})
    cfg = config_io.parse_config(doc)
    assert cfg.types.cdf[0, 0, 0] == 0.0
    assert cfg.types.cdf[0, 0, -1] == pytest.approx(1.0, abs=1e-12)
    assert fm.virtual_valuation(cfg, 1, 4.0, 1) == 4.0
