"""Run configuration: validation, hashing, and bundled device presets.

A run config is one JSON document with sections device / pump /
detectors plus a seed.  The classes each section builds
(coupled.SystemParams, PumpSchedule, DetectorModel) own its keys and
ranges, so an unknown key is rejected rather than silently falling back
to a default.  A device energy, linewidth or coupling above
MAX_DEVICE_UEV is refused too: the closed-form mode energies square it;
so is a linewidth so narrow that a figure of merit (cavity Q,
g / gamma_c, Purcell factor) overflows.
Every output embeds the sha256 hash of the canonical (sorted, minimal)
JSON encoding, making runs reproducible from the config alone.
The HBT analysis settings (bin width, window, side peaks) are not config:
they are flags of the correlate command (cli.py).
"""
import copy
import hashlib
import json
import math
import sys

from .coupled import SystemParams
from .errors import ConfigError
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


#: the config sections built into objects, and the classes that check them
_SECTIONS = {"device": SystemParams, "pump": PumpSchedule,
            "detectors": DetectorModel}
#: the largest device energy, linewidth or coupling in ueV: the closed form
#: (coupled._eigenvalues) squares differences of up to about 4.5 of them,
#: which stay below the float range under this bound
MAX_DEVICE_UEV = math.sqrt(sys.float_info.max) / 8


def _field_error(path: str, what) -> ConfigError:
    return ConfigError(f"config field {path}: {what}")


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # False for NaN and inf


def validate_config(cfg: dict) -> dict:
    """Check a config; returns it unchanged on success.

    The seed is an int >= 0 and every section value but pump.mode a
    finite number.  Keys, required fields and ranges of the device, pump
    and detectors sections are checked by building their _SECTIONS
    classes; e_x, e_c must also be > 0, the device's values in ueV at
    most MAX_DEVICE_UEV and its figures of merit finite.
    """
    if not isinstance(cfg, dict):
        raise _field_error("<root>", "expected an object")
    unknown = sorted(set(cfg) - {"seed", *_SECTIONS})
    if unknown:
        raise _field_error("<root>", f"unknown keys {unknown}")
    if "device" not in cfg:
        raise _field_error("<root>", "'device' is required")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise _field_error("seed", f"expected an integer >= 0, got {seed!r}")
    for section in _SECTIONS:
        values = cfg.get(section, {})
        if not isinstance(values, dict):
            raise _field_error(section, "expected an object")
        for key, value in values.items():
            if (section, key) != ("pump", "mode") and not _finite_number(value):
                raise _field_error(f"{section}.{key}",
                                   f"expected a finite number, got {value!r}")
    for key in ("e_x", "e_c"):
        if cfg["device"].get(key, 1.0) <= 0:
            raise _field_error(f"device.{key}", "must be > 0")
    for key in ("e_x", "e_c", "g", "gamma_x", "gamma_c"):
        if cfg["device"].get(key, 0.0) > MAX_DEVICE_UEV:
            raise _field_error(f"device.{key}",
                               f"must be at most {MAX_DEVICE_UEV:.4g} ueV")
    built = {}
    for section, cls in _SECTIONS.items():
        try:
            built[section] = cls(**cfg.get(section, {}))
        except (TypeError, ValueError, ConfigError) as exc:
            raise _field_error(section, exc) from None
    _check_figures_of_merit(built["device"])
    return cfg


def _check_figures_of_merit(p: SystemParams) -> None:
    """ConfigError naming the linewidth that takes a figure of merit of
    `eigen` beyond the float range: gamma_c if e_c / gamma_c (the cavity
    Q) or g / gamma_c overflows, else the narrower line if the Purcell
    factor 4 g^2 / (gamma_c gamma_x) does, its denominator underflowing
    to 0 included (the quantum efficiency is then NaN)."""
    width = p.gamma_c * p.gamma_x
    if not math.isfinite(max(p.e_c, p.g) / p.gamma_c):
        key, what = "gamma_c", "e_c / gamma_c or g / gamma_c"
    elif not (width > 0 and math.isfinite(4.0 * p.g**2 / width)):
        key = "gamma_x" if p.gamma_x <= p.gamma_c else "gamma_c"
        what = "the Purcell factor 4 g^2 / (gamma_c gamma_x)"
    else:
        return
    raise _field_error(f"device.{key}", f"{getattr(p, key)!r} ueV takes "
                       f"{what} beyond the float range")


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


def build_model(cfg: dict) -> SystemParams:
    return SystemParams(**cfg["device"])


def build_pump(cfg: dict) -> PumpSchedule:
    return PumpSchedule(**cfg.get("pump", {}))


def build_detectors(cfg: dict) -> DetectorModel:
    return DetectorModel(**cfg.get("detectors", {}))
