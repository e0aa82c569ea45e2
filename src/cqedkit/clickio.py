"""File formats: click streams, histograms, spectra, and report blocks.

All formats are plain text, diff-able, and byte-reproducible: CSV for
data, flat `key = value` blocks for reports.  Click times are written
with 0.1 ps precision.
"""
import io

import numpy as np

from .errors import MalformedFileError
from .hbt import CorrelationHistogram
from .specfit import Spectrum
from .trajectory import ClickStream

CLICK_MAGIC = "#cqed-click-v1"


def write_click_stream(path, stream: ClickStream) -> None:
    with open(path, "w") as fh:
        fh.write(f"{CLICK_MAGIC} seed={stream.seed} "
                 f"duration_ps={stream.duration!r} "
                 f"confighash={stream.config_hash}\n")
        fh.write("channel,time_ps\n")
        for ch, t in zip(stream.channels, stream.times):
            fh.write(f"{ch},{t:.1f}\n")


def read_click_stream(path) -> ClickStream:
    """Parse a click file; a malformed one raises MalformedFileError."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
    fields = header.split()
    if not fields or fields[0] != CLICK_MAGIC:
        raise MalformedFileError(f"{path}: not a {CLICK_MAGIC} file")
    try:
        meta = dict(f.split("=", 1) for f in fields[1:])
        data = np.genfromtxt(io.StringIO(body), delimiter=",", skip_header=1,
                             dtype=[("channel", "U1"), ("time_ps", "f8")])
        data = np.atleast_1d(data)
        # unparsable times read as NaN, which ClickStream rejects
        return ClickStream(
            times=data["time_ps"].astype(np.float64),
            channels=data["channel"],
            duration=float(meta["duration_ps"]),
            seed=int(meta["seed"]),
            config_hash=meta["confighash"],
        )
    except KeyError as exc:
        raise MalformedFileError(f"{path}: header lacks {exc}") from None
    except ValueError as exc:  # on one line: genfromtxt's message has several
        raise MalformedFileError(f"{path}: {' '.join(str(exc).split())}") from None


def write_histogram(path, h: CorrelationHistogram) -> None:
    with open(path, "w") as fh:
        fh.write("tau_ps,counts\n")
        for t, c in zip(h.tau, h.counts):
            # counts are integers, except after accidental subtraction
            c = int(c) if float(c).is_integer() else repr(float(c))
            fh.write(f"{float(t)!r},{c}\n")


def write_spectrum(path, s: Spectrum) -> None:
    with open(path, "w") as fh:
        if s.temperature is not None:
            fh.write(f"# temperature_K={s.temperature!r}\n")
        fh.write("wavelength_nm,intensity\n")
        for lam, y in zip(s.wavelength_nm, s.intensity):
            fh.write(f"{float(lam)!r},{float(y)!r}\n")


def read_spectrum(path) -> Spectrum:
    temperature = None
    with open(path) as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].startswith("#"):
        head = lines.pop(0).lstrip("# ")
        key, _, val = head.partition("=")
        if key.strip() == "temperature_K":
            temperature = float(val)
    if lines and lines[0].strip().startswith("wavelength"):
        lines.pop(0)
    rows = [ln.split(",") for ln in lines]
    lam = np.array([float(r[0]) for r in rows])
    inten = np.array([float(r[1]) for r in rows])
    return Spectrum(lam, inten, temperature=temperature)


def format_report(title: str, fields: dict) -> str:
    """Flat `key = value` text block; floats via repr for round-tripping."""
    lines = [f"[{title}]"]
    for key, val in fields.items():
        if isinstance(val, (float, np.floating)):
            val = repr(float(val))
        elif isinstance(val, (bool, np.bool_)):
            val = str(bool(val))
        elif isinstance(val, np.integer):
            val = str(int(val))
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("["):
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out
