import copy
import json

import pytest

from cqedkit import cli, config
from cqedkit.coupled import SystemParams
from cqedkit.errors import ConfigError
from cqedkit.trajectory import DetectorModel, PumpSchedule


def test_presets_validate():
    for name, cfg in config.PRESETS.items():
        assert config.validate_config(cfg) is cfg
        assert isinstance(config.build_model(cfg), SystemParams)
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
    model = config.build_model(cfg)
    assert isinstance(model, SystemParams)
    assert model.e_c - model.e_x == pytest.approx(config.DETUNING_04NM_UEV)
    assert model.transfer == config.TRANSFER_RATE
    pump = config.build_pump(cfg)
    assert pump.reservoir_mean == config.RESERVOIR_MEAN
    assert pump.background_feed_rate == config.BACKGROUND_DETUNED


def test_analysis_defaults_without_section():
    # the paper's HBT settings are correlate's flag defaults, not config
    args = cli.build_parser().parse_args(["correlate", "clicks.csv"])
    assert ((args.bin, args.window, args.n_side, args.rep_period)
            == (130.0, 84500.0, 6, 13000.0))


def test_preset_hashes_are_stable():
    # every output embeds these; a change here changes every output's bytes
    assert {name: config.config_hash(cfg)
            for name, cfg in config.PRESETS.items()} == {
        "default": "2a60c40cbe2831dc",
        "single-photon-detuned": "bd063c4ee1902df0",
        "single-photon-resonant": "21c1102d4e78314a",
    }


DELETE = object()
#: the device's energies, linewidths and coupling in ueV
DEVICE_UEV_KEYS = ("e_x", "e_c", "g", "gamma_x", "gamma_c")

BAD_CONFIGS = [
    # (keys to the field, value or DELETE, field named, text in the message)
    pytest.param(("detector",), {}, "<root>", "detector", id="unknown_top_key"),
    pytest.param(("device",), DELETE, "<root>", "device", id="missing_device"),
    pytest.param(("pump",), None, "pump", "object", id="section_not_object"),
    pytest.param(("device", "gama_c"), 85.0, "device", "gama_c",
                 id="unknown_section_key"),
    # the analysis settings are correlate's flags, not a config section
    pytest.param(("analysis",), {"bin_width_ps": 130.0}, "<root>",
                 "['analysis']", id="unknown_analysis_key"),
    pytest.param(("device", "g"), DELETE, "device", "'g'", id="missing_g"),
    pytest.param(("device", "gamma_c"), -85.0, "device", "gamma_c",
                 id="negative_gamma_c"),
    pytest.param(("device", "e_x"), 0.0, "device.e_x", "> 0", id="zero_e_x"),
    # rates that no command reads from a config
    pytest.param(("device", "pump_x"), 0.5, "device.pump_x", "no command",
                 id="unread_pump_x"),
    pytest.param(("device", "feed_c"), 0.2, "device.feed_c", "no command",
                 id="unread_feed_c"),
    pytest.param(("device", "dephasing"), 5.0, "device", "dephasing",
                 id="removed_dephasing"),
    pytest.param(("pump", "mode"), "sideways", "pump", "sideways",
                 id="unknown_pump_mode"),
    # ran the resonant_pulsed code, so it named no scheme of its own
    pytest.param(("pump", "mode"), "above_band_pulsed", "pump",
                 "above_band_pulsed", id="unknown_pump_mode_above_band_pulsed"),
    pytest.param(("pump", "excitation_prob"), 1.5, "pump", "excitation_prob",
                 id="excitation_prob_above_1"),
    pytest.param(("detectors", "efficiency"), 0, "detectors", "efficiency",
                 id="zero_efficiency"),
    pytest.param(("device", "g"), True, "device.g", "True", id="bool_number"),
    pytest.param(("pump", "rep_period"), "13000", "pump.rep_period", "'13000'",
                 id="string_number"),
    pytest.param(("seed",), 5.0, "seed", "5.0", id="float_seed"),
    pytest.param(("seed",), -1, "seed", "-1", id="negative_seed"),
] + [
    pytest.param((section, key), value, f"{section}.{key}", "finite",
                 id=f"{section}_{value}")
    for section, key in (("device", "g"), ("pump", "rep_period"),
                         ("detectors", "dark_count_rate"))
    for value in (float("nan"), float("inf"), float("-inf"))
] + [
    # a figure of merit that eigen would print as inf or nan
    pytest.param(("device", "gamma_x"), 5e-324, "device.gamma_x",
                 "Purcell factor", id="subnormal_gamma_x"),
    pytest.param(("device", "gamma_c"), 5e-324, "device.gamma_c",
                 "g / gamma_c", id="subnormal_gamma_c"),
] + [
    # the closed-form mode energies would overflow
    pytest.param(("device", key), 1e300, f"device.{key}", "at most",
                 id=f"device_{key}_1e300")
    for key in DEVICE_UEV_KEYS
]


@pytest.mark.parametrize("keys, value, field, text", BAD_CONFIGS)
def test_bad_config_file_exits_2_naming_the_field(tmp_path, capsys, keys,
                                                  value, field, text):
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    *parents, last = keys
    node = cfg
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity as JSON extensions
    code = cli.main(["eigen", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"error: config field {field}: ")
    assert err.count("\n") == 1 and text in err


def run_with_device_values(tmp_path, capsys, command, **values):
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    cfg["device"].update(values)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["--out-dir", str(tmp_path / "out"), *command,
                     "--config", str(path)])
    return (code, *capsys.readouterr())


COMMANDS = [pytest.param(["eigen"], id="eigen"),
            pytest.param(["sweep"], id="sweep"),
            pytest.param(["simulate", "--pulses", "2000"], id="simulate")]


@pytest.mark.parametrize("command", COMMANDS[1:])
@pytest.mark.parametrize("key", DEVICE_UEV_KEYS)
def test_huge_device_value_exits_2_in_sweep_and_simulate(tmp_path, capsys,
                                                         command, key):
    code, out, err = run_with_device_values(tmp_path, capsys, command,
                                            **{key: 1e160})
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"error: config field device.{key}: must be at "
                          f"most ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", DEVICE_UEV_KEYS)
def test_device_value_at_the_bound_runs(tmp_path, capsys, command, key):
    code, _, err = run_with_device_values(tmp_path, capsys, command,
                                          **{key: config.MAX_DEVICE_UEV})
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", COMMANDS)
def test_lines_whose_purcell_product_underflows_exit_2(tmp_path, capsys,
                                                       command):
    # gamma_c * gamma_x is 0: the Purcell factor divided by it
    code, out, err = run_with_device_values(tmp_path, capsys, command,
                                            gamma_x=1e-200, gamma_c=1e-200)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: config field device.gamma_x: 1e-200 ueV ")
    assert err.count("\n") == 1 and "Purcell factor" in err
    assert not (tmp_path / "out").exists()


def test_vast_pulse_period_is_named_before_the_event_rates(tmp_path, capsys):
    # 2000 pulses of 1e300 ps: the duration, not the background rate
    # that meets it, is refused
    cfg = copy.deepcopy(config.FIG4_DETUNED_CONFIG)
    cfg["pump"]["rep_period"] = 1e300
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["--out-dir", str(tmp_path), "simulate", "--config",
                     str(path), "--pulses", "2000"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: --pulses 2000: duration 2e+303 ps is "
                          "longer than ")
    assert err.count("\n") == 1 and "(pump.rep_period 1e+300 ps)" in err
    assert "background_feed_rate" not in err
    assert not (tmp_path / "clicks.csv").exists()


def test_seed_override_is_validated(tmp_path, capsys):
    code = cli.main(["--out-dir", str(tmp_path), "--seed=-1", "simulate",
                     "--pulses", "100"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: config field seed: ") and err.count("\n") == 1
    assert not (tmp_path / "clicks.csv").exists()


def test_finite_configs_still_accepted():
    cfg = copy.deepcopy(config.DEFAULT_CONFIG)
    # ints where floats are usual, every optional field
    cfg["device"].update(gamma_c=85, transfer=0)
    cfg["pump"] = {"mode": "resonant_cw", "rep_period": 13000,
                   "excitation_prob": 0, "reservoir_mean": 0.5,
                   "capture_rate": 1, "background_feed_rate": 0,
                   "cw_pump_rate": 1e-3}
    cfg["detectors"] = {"efficiency": 1, "jitter_sigma": 25.0,
                        "dead_time": 0, "dark_count_rate": 1e-9}
    assert config.validate_config(cfg) is cfg
    seedless = {"device": cfg["device"]}
    assert config.validate_config(seedless) is seedless
