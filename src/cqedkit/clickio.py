"""File formats: click streams, histograms, spectra, and report blocks.

All formats are plain text, diff-able, and byte-reproducible: CSV for
data, flat `key = value` blocks for reports.  Click times are written
with 0.1 ps precision.
"""
import io
import math

import numpy as np

from .errors import MalformedFileError
from .hbt import CorrelationHistogram
from .specfit import Spectrum
from .trajectory import ClickStream

CLICK_MAGIC = "#cqed-click-v1"
CLICK_COLUMNS = "channel,time_ps"
CLICK_CHANNELS = ("C", "X", "D")


def write_click_stream(path, stream: ClickStream) -> None:
    rows = "".join([f"{ch},{t:.1f}\n" for ch, t in
                    zip(stream.channels.tolist(), stream.times.tolist())])
    with open(path, "w") as fh:
        fh.write(f"{CLICK_MAGIC} seed={stream.seed} "
                 f"duration_ps={stream.duration!r} "
                 f"confighash={stream.config_hash}\n"
                 f"{CLICK_COLUMNS}\n{rows}")


def _line_error(path, lineno: int, what: str) -> MalformedFileError:
    return MalformedFileError(f"{path}: line {lineno}: {what}")


def _decode(path, data: bytes) -> str:
    """UTF-8 text of a file's bytes; a byte that is not raises
    MalformedFileError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise _line_error(path, lineno, f"not UTF-8 text (byte "
                          f"{data[exc.start]:#04x})") from None


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _header_meta(fields):
    """(duration, seed, config_hash) of a header's `key=value` fields;
    KeyError for a missing key, ValueError for a bad field."""
    meta = dict(f.split("=", 1) for f in fields)
    return float(meta["duration_ps"]), int(meta["seed"]), meta["confighash"]


def read_click_stream(path) -> ClickStream:
    """Parse a click file; a malformed one raises MalformedFileError.

    The message names the file, and the line for a bad row: a channel
    other than C, X or D, an unparsable or non-finite time, a time below
    the previous row's, or a byte that is not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    stream = _parse_clicks(data)
    return _scan_clicks(path, data) if stream is None else stream


_CHANNEL_BYTES = "".join(CLICK_CHANNELS).encode()
#: the bytes of a click file's rows on the vectorised path; any other
#: byte sends the file to the line scan
_ROW_BYTES = b"0123456789.+-eE,\n" + _CHANNEL_BYTES


def _parse_clicks(data: bytes):
    """The ClickStream of a plain click file, all rows checked at once;
    None for any other file, which _scan_clicks then reads.

    It takes only what the scan takes, to equal arrays: a printable ASCII
    header, the exact columns line, and rows of one channel byte, a comma
    and a time token of [0-9.+-eE], each ending in a newline.
    """
    head, _, rest = data.partition(b"\n")
    columns, _, body = rest.partition(b"\n")
    if not (head.isascii() and head.decode().isprintable()
            and columns == CLICK_COLUMNS.encode()
            and (body.endswith(b"\n") or not body)
            and not body.translate(None, _ROW_BYTES)):
        return None
    fields = head.decode().split()
    if not fields or fields[0] != CLICK_MAGIC:
        return None
    try:
        duration, seed, config_hash = _header_meta(fields[1:])
    except (KeyError, ValueError):
        return None
    u = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(u == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))[:len(ends)]
    heads = u[starts]
    times_text = body.translate(None, b"," + _CHANNEL_BYTES)
    # every row opens with a channel and a comma, and neither appears
    # elsewhere; `and` looks past a row's first byte only if no row is empty
    if not (np.isin(heads, list(_CHANNEL_BYTES)).all()
            and (u[starts + 1] == ord(",")).all()
            and len(body) - len(times_text) == 2 * len(ends)):
        return None
    # an ASCII byte is its own code point: <U1 without a string cast
    channels = heads.astype(np.uint32).view("U1")
    try:
        # a token float() rejects, or a time that is not finite or runs
        # back: the scan rejects both
        return ClickStream(times=np.array(times_text.split(b"\n")[:-1],
                                          dtype=np.float64),
                           channels=channels, duration=duration, seed=seed,
                           config_hash=config_hash)
    except ValueError:
        return None


def _scan_clicks(path, data: bytes) -> ClickStream:
    """Line-by-line parse of a click file's bytes; the only path that
    says what is wrong with a malformed one."""
    # universal newlines, as open() reads text
    fh = io.StringIO(_decode(path, data), newline=None)
    header = fh.readline().rstrip("\n")
    columns = fh.readline().strip()
    lines = fh.read().splitlines()
    fields = header.split()
    if not fields or fields[0] != CLICK_MAGIC:
        raise MalformedFileError(f"{path}: not a {CLICK_MAGIC} file")
    try:
        duration, seed, config_hash = _header_meta(fields[1:])
    except KeyError as exc:
        raise MalformedFileError(f"{path}: header lacks {exc}") from None
    except ValueError as exc:
        raise _line_error(path, 1, f"bad header field ({exc})") from None
    if columns != CLICK_COLUMNS:
        raise _line_error(path, 2, f"expected {CLICK_COLUMNS!r}")

    first_row = 3  # line number of rows[0]
    rows = [ln.partition(",") for ln in lines]
    channels = [r[0] for r in rows]
    if not set(channels) <= set(CLICK_CHANNELS):
        i = next(i for i, ch in enumerate(channels) if ch not in CLICK_CHANNELS)
        raise _line_error(path, first_row + i, f"unknown channel {channels[i]!r}")
    stamps = [r[2] for r in rows]
    try:
        times = np.array(stamps, dtype=np.float64)
    except ValueError:
        times = np.array([_float_or_nan(t) for t in stamps])
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        i = bad[0]
        raise _line_error(path, first_row + i, f"bad time {stamps[i]!r}")
    back = np.flatnonzero(np.diff(times) < 0)
    if len(back):
        i = back[0] + 1
        raise _line_error(path, first_row + i,
                         f"time {stamps[i]} ps before the previous row's")
    return ClickStream(times=times, channels=np.array(channels, dtype=str),
                       duration=duration, seed=seed, config_hash=config_hash)


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
    """Parse a spectrum file; a malformed one raises MalformedFileError
    naming the file and, for a bad row, its line."""
    temperature = None
    with open(path, "rb") as fh:
        text = _decode(path, fh.read())
    # splitlines breaks at \r\n and \r as well, as open() reads text
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if lines and lines[0][1].startswith("#"):
        lineno, head = lines.pop(0)
        key, _, val = head.lstrip("# ").partition("=")
        if key.strip() == "temperature_K":
            temperature = _float_or_nan(val)
            if not math.isfinite(temperature):
                raise _line_error(path, lineno, f"bad temperature {val!r}")
    if lines and lines[0][1].strip().startswith("wavelength"):
        lines.pop(0)
    values = []
    for lineno, ln in lines:
        row = [_float_or_nan(v) for v in ln.split(",")]
        if len(row) != 2 or not all(map(math.isfinite, row)):
            raise _line_error(path, lineno,
                             f"expected wavelength_nm,intensity, got {ln!r}")
        values.append(row)
    lam, inten = np.array(values, dtype=np.float64).reshape(-1, 2).T
    try:
        return Spectrum(lam, inten, temperature=temperature)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}") from None


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
