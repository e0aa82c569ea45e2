"""Run configuration: JSON schema, hashing, and bundled device presets.

A run config is one JSON document with sections device / pump /
detectors / analysis plus a seed.  Unknown keys are rejected so a typo
cannot silently fall back to a default.  Every output embeds the sha256
hash of the canonical (sorted, minimal) JSON encoding, making runs
reproducible from the config alone.
"""
import copy
import hashlib
import json

import jsonschema

from .coupled import SystemParams
from .errors import ConfigError
from .lindblad import LindbladModel
from .trajectory import DetectorModel, PumpSchedule
from .units import HBAR_UEV_PS, wavelength_to_energy

#: calibration of the off-resonant single-photon regime: exciton placed
#: 0.4 nm below the cavity line, exciton->cavity transfer tuned so the
#: cavity-to-exciton flux ratio is 3.5, plus a small uncaptured-carrier
#: background into the cavity channel
DETUNING_04NM_UEV = wavelength_to_energy(936.35) - wavelength_to_energy(936.75)
TRANSFER_RATE = 0.0037512794646437455
RESERVOIR_MEAN = 0.0911
CAPTURE_RATE = 0.01
REP_PERIOD_PS = 13000.0
BACKGROUND_DETUNED = 0.14176 / REP_PERIOD_PS
BACKGROUND_RESONANT = 0.0132 / REP_PERIOD_PS

_NONNEG = {"type": "number", "minimum": 0}
_POS = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["device"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "device": {
            "type": "object",
            "additionalProperties": False,
            "required": ["e_x", "e_c", "g", "gamma_x", "gamma_c"],
            "properties": {
                "e_x": _POS,
                "e_c": _POS,
                "g": _NONNEG,
                "gamma_x": _POS,
                "gamma_c": _POS,
                "transfer": _NONNEG,
                "pump_x": _NONNEG,
                "feed_c": _NONNEG,
                "dephasing": _NONNEG,
            },
        },
        "pump": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["resonant_pulsed", "resonant_cw",
                                  "above_band_pulsed"]},
                "rep_period": _POS,
                "excitation_prob": {"type": "number", "minimum": 0, "maximum": 1},
                "reservoir_mean": _NONNEG,
                "capture_rate": _POS,
                "background_feed_rate": _NONNEG,
                "cw_pump_rate": _POS,
            },
        },
        "detectors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "efficiency": {"type": "number", "exclusiveMinimum": 0,
                               "maximum": 1},
                "jitter_sigma": _NONNEG,
                "dead_time": _NONNEG,
                "dark_count_rate": _NONNEG,
            },
        },
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bin_width_ps": _POS,
                "window_ps": _POS,
                "n_side": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_CAVITY_E = wavelength_to_energy(936.35)

#: strongly coupled pillar at resonance (the headline device)
DEFAULT_CONFIG = {
    "seed": 20260823,
    "device": {
        "e_x": _CAVITY_E,
        "e_c": _CAVITY_E,
        "g": 35.0,
        "gamma_x": HBAR_UEV_PS / 700.0,
        "gamma_c": 85.0,
    },
    "pump": {
        "mode": "resonant_pulsed",
        "rep_period": REP_PERIOD_PS,
        "excitation_prob": 1.0,
    },
    "detectors": {},
    # the one source of the analysis defaults (correlate, demo-paper)
    "analysis": {"bin_width_ps": 130.0, "window_ps": 6.5 * REP_PERIOD_PS,
                 "n_side": 6},
}

#: single-photon operating point: exciton detuned 0.4 nm, calibrated
#: transfer + background reproducing the measured correlations
FIG4_DETUNED_CONFIG = copy.deepcopy(DEFAULT_CONFIG)
FIG4_DETUNED_CONFIG["device"]["e_x"] = _CAVITY_E - DETUNING_04NM_UEV
FIG4_DETUNED_CONFIG["device"]["transfer"] = TRANSFER_RATE
FIG4_DETUNED_CONFIG["pump"].update(
    reservoir_mean=RESERVOIR_MEAN,
    capture_rate=CAPTURE_RATE,
    background_feed_rate=BACKGROUND_DETUNED,
)

#: same device tuned to resonance (smaller background: no detuned-QD feed)
FIG4_RESONANT_CONFIG = copy.deepcopy(DEFAULT_CONFIG)
FIG4_RESONANT_CONFIG["device"]["transfer"] = TRANSFER_RATE
FIG4_RESONANT_CONFIG["pump"].update(
    reservoir_mean=RESERVOIR_MEAN,
    capture_rate=CAPTURE_RATE,
    background_feed_rate=BACKGROUND_RESONANT,
)

PRESETS = {
    "default": DEFAULT_CONFIG,
    "single-photon-detuned": FIG4_DETUNED_CONFIG,
    "single-photon-resonant": FIG4_RESONANT_CONFIG,
}


def validate_config(cfg: dict) -> dict:
    """Schema-check a config; returns it unchanged on success."""
    try:
        jsonschema.validate(cfg, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {exc.message}") from exc
    return cfg


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON encoding, first 16 hex digits."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return validate_config(cfg)


def build_system(cfg: dict) -> SystemParams:
    d = cfg["device"]
    return SystemParams(e_x=d["e_x"], e_c=d["e_c"], gamma_x=d["gamma_x"],
                        gamma_c=d["gamma_c"], g=d["g"])


def build_model(cfg: dict) -> LindbladModel:
    d = cfg["device"]
    extra = {k: d[k] for k in ("transfer", "pump_x", "feed_c", "dephasing")
             if k in d}
    return LindbladModel.from_system(build_system(cfg), **extra)


def build_pump(cfg: dict) -> PumpSchedule:
    return PumpSchedule(**cfg.get("pump", {}))


def build_detectors(cfg: dict) -> DetectorModel:
    return DetectorModel(**cfg.get("detectors", {}))


def analysis_params(cfg: dict) -> dict:
    """The config's analysis section over DEFAULT_CONFIG's."""
    return {**DEFAULT_CONFIG["analysis"], **cfg.get("analysis", {})}
