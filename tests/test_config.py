"""Tests for run configuration loading and validation."""

import json

import pytest

from hhalf.config import RunConfig, config_from_env, config_from_json
from hhalf.errors import ValidationError


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.cutoff == 32
        assert cfg.grid_size == 4096
        assert cfg.spectral_tol == 1e-8
        assert cfg.matrix_tol == 1e-6
        assert cfg.seed == 0
        assert cfg.out is None

    def test_grid_must_hold_four_cutoffs(self):
        assert RunConfig(cutoff=8, grid_size=32).grid_size == 32
        with pytest.raises(ValidationError):
            RunConfig(cutoff=8, grid_size=31)

    def test_field_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(cutoff=0)
        with pytest.raises(ValidationError):
            RunConfig(cutoff=2.5)
        with pytest.raises(ValidationError):
            RunConfig(spectral_tol=0.0)
        with pytest.raises(ValidationError):
            RunConfig(matrix_tol=-1e-6)
        with pytest.raises(ValidationError):
            RunConfig(seed=-1)
        with pytest.raises(ValidationError):
            RunConfig(out=7)
        # int() read True as 1 and False as 0.
        for field, flag in (("cutoff", True), ("seed", True), ("seed", False)):
            with pytest.raises(ValidationError, match=field):
                RunConfig(**{field: flag})

    def test_integer_coercion(self):
        cfg = RunConfig(cutoff=16.0, grid_size=256.0, seed=3.0)
        assert (cfg.cutoff, cfg.grid_size, cfg.seed) == (16, 256, 3)
        assert isinstance(cfg.cutoff, int)


class TestJson:
    def test_partial_objects_keep_defaults(self):
        cfg = config_from_json({"cutoff": 16})
        assert cfg.cutoff == 16
        assert cfg.grid_size == 4096

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValidationError):
            config_from_json({"cutoff": 16, "bogus": 1})
        with pytest.raises(ValidationError):
            config_from_json([1, 2, 3])


class TestLoading:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cutoff": 8, "grid_size": 64}))
        cfg = config_from_env({"HHP_CONFIG": str(path)})
        assert (cfg.cutoff, cfg.grid_size) == (8, 64)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            config_from_env({"HHP_CONFIG": str(tmp_path / "missing.json")})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            config_from_env({"HHP_CONFIG": str(path)})

    def test_env_default(self):
        assert config_from_env({}) == RunConfig()

    def test_env_inline_json(self):
        cfg = config_from_env({"HHP_CONFIG": '{"cutoff": 16, "grid_size": 256}'})
        assert cfg.cutoff == 16 and cfg.grid_size == 256
        with pytest.raises(ValidationError):
            config_from_env({"HHP_CONFIG": '{"cutoff": '})

    def test_env_pointer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9}))
        cfg = config_from_env({"HHP_CONFIG": str(path)})
        assert cfg.seed == 9

    def test_env_empty_value_means_default(self):
        assert config_from_env({"HHP_CONFIG": ""}) == RunConfig()
