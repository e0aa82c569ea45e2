import copy
import json

import pytest

from cqedkit import cli, config
from cqedkit.coupled import SystemParams
from cqedkit.errors import ConfigError
from cqedkit.lindblad import LindbladModel
from cqedkit.trajectory import DetectorModel, PumpSchedule


def test_presets_validate():
    for name, cfg in config.PRESETS.items():
        assert config.validate_config(cfg) is cfg
        assert isinstance(config.build_model(cfg), LindbladModel)
        assert isinstance(config.build_pump(cfg), PumpSchedule)
        assert isinstance(config.build_detectors(cfg), DetectorModel)


def test_unknown_key_rejected_with_path():
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    cfg["device"]["gama_c"] = 85.0  # typo must not silently default
    with pytest.raises(ConfigError, match="config field device"):
        config.validate_config(cfg)
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    cfg["detector"] = {}
    with pytest.raises(ConfigError, match="config field <root>"):
        config.validate_config(cfg)


def test_missing_required_and_bad_values():
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    del cfg["device"]["g"]
    with pytest.raises(ConfigError):
        config.validate_config(cfg)
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    cfg["device"]["gamma_c"] = -85.0
    with pytest.raises(ConfigError, match="gamma_c"):
        config.validate_config(cfg)
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    cfg["pump"]["mode"] = "sideways"
    with pytest.raises(ConfigError, match="pump.mode"):
        config.validate_config(cfg)


def test_config_hash_canonical_and_sensitive():
    h = config.config_hash(config.DEFAULT_CONFIG)
    assert len(h) == 16
    # key order does not matter
    reordered = json.loads(json.dumps(config.DEFAULT_CONFIG))
    reordered = dict(reversed(list(reordered.items())))
    assert config.config_hash(reordered) == h
    changed = copy.deepcopy(config.DEFAULT_CONFIG)
    changed["seed"] += 1
    assert config.config_hash(changed) != h


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config.DEFAULT_CONFIG))
    cfg = config.load_config(path)
    assert config.config_hash(cfg) == config.config_hash(config.DEFAULT_CONFIG)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        config.load_config(bad)


def test_builders_map_fields():
    cfg = copy.deepcopy(config.FIG4_DETUNED_CONFIG)
    system = config.build_system(cfg)
    assert isinstance(system, SystemParams)
    assert system.e_c - system.e_x == pytest.approx(config.DETUNING_04NM_UEV)
    model = config.build_model(cfg)
    assert model.transfer == config.TRANSFER_RATE
    pump = config.build_pump(cfg)
    assert pump.reservoir_mean == config.RESERVOIR_MEAN
    assert pump.background_feed_rate == config.BACKGROUND_DETUNED
    params = config.analysis_params(cfg)
    assert params["bin_width_ps"] == 130.0
    assert params["n_side"] == 6


def test_analysis_defaults_without_section():
    cfg = {"device": dict(config.DEFAULT_CONFIG["device"])}
    config.validate_config(cfg)
    params = config.analysis_params(cfg)
    assert params["window_ps"] == 6.5 * config.REP_PERIOD_PS
    # the correlate command's defaults are the same numbers
    args = cli.build_parser().parse_args(["correlate", "clicks.csv"])
    assert ((args.bin, args.window, args.n_side, args.rep_period)
            == (params["bin_width_ps"], params["window_ps"], params["n_side"],
                config.REP_PERIOD_PS))
