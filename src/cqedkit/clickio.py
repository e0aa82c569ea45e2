"""File formats: click streams, histograms, spectra, and report blocks.

All formats are plain text, diff-able, and byte-reproducible: CSV for
data, flat `key = value` blocks for reports.

Click times are written with 0.1 ps precision, as integer tenths of a
picosecond made in numpy.  The writer takes k = round-half-even(10 t)
exactly from t = M * 2**E (np.frexp), which is the rounding of
format(t, ".1f"), and writes the digits of k // 10, a point and k % 10,
so the bytes are those of f"{ch},{t:.1f}\n".  Sorted times make k
nondecreasing, so the rows of each digit count are one block, found by
searchsorted of the powers of ten in k.  Each row's last nine digits
come from k % 10**9 and the rest from k // 10**9, both int32 (k <= 10 *
2**53, so the quotient is below 10**8), as int32 divisions are cheaper
than int64 ones.  The writer streams the rows to the file in blocks of
trajectory._BLOCK rows, so its memory does not grow with the run; a
block that holds a negative time, -0.0, a time from 2**53 up or times
that fall keeps the f-string.

The reader has two paths that check the header with one function.
Rows that all read `ch,<1-15 digits>.<digit>`, with widths that never
fall, are read at once, as k / 10.0 for k <= 2**53 their digits: the
division of two exact float64s is the correctly rounded k/10, as float()
of the token is.  The rows of one width, 6 to 20 bytes, are one block,
found by searchsorted on the row sizes, and viewed as a 2-D array of the
file's bytes; the block's channel column, comma column, digit columns
and point column are each checked in place, so no row head is gathered
by index.  Any other file goes to the line scan, the only path that
names a bad line.
"""
import io
import math

import numpy as np

from .errors import MalformedFileError
from .hbt import CorrelationHistogram
from .specfit import Spectrum
from .trajectory import _BLOCK, ClickStream

CLICK_MAGIC = "#cqed-click-v1"
CLICK_COLUMNS = "channel,time_ps"
CLICK_CHANNELS = ("C", "X", "D")


#: 2**53: a float64 below it is M * 2**E with integers M < 2**53 and
#: E <= 0, and every integer up to it is a float64
_EXACT = 2 ** 53


def _tenths(times: np.ndarray) -> np.ndarray:
    """Exact round-half-even(10 t) of times 0 <= t < 2**53, as int64: the
    k with format(t, ".1f") == f"{k // 10}.{k % 10}"."""
    m, e = np.frexp(times)  # t = m * 2**e, 0.5 <= m < 1
    ten_m = (m * _EXACT).astype(np.int64) * 10  # 10 M < 2**57
    # 10 t = 10 M / 2**shift; from shift 58 on that is below one half,
    # and 60 keeps every shift of 10 M inside int64
    shift = np.minimum(53 - e.astype(np.int64), 60)
    k = ten_m >> shift
    rest = ten_m - (k << shift)
    half = (1 << shift) >> 1  # 0 at shift 0, where rest is 0 and k even
    return k + ((rest > half) | ((rest == half) & (k & 1 == 1)))


def _click_rows(times: np.ndarray, channels: np.ndarray):
    """The bytes of rows f"{ch},{t:.1f}\\n", built as integer tenths;
    None for a time that is negative, -0.0 or not below 2**53, or times
    that fall."""
    if not (times.dtype == np.float64 and channels.dtype == np.dtype("<U1")
            and len(times) == len(channels)
            and not np.signbit(times).any() and (times < _EXACT).all()):
        return None
    codes = channels.view("<u4")
    k = _tenths(times)
    if (k[1:] < k[:-1]).any():
        return None
    # rows whose k // 10 has n digits, n from 1 to 16, are a block:
    # bounds[n - 1]:bounds[n]
    bounds = [0, *np.searchsorted(k, 10 ** np.arange(2, 18, dtype=np.int64))
              .tolist()]
    # the last nine digits of k and the rest, each an int32: k <= 10 * 2**53
    high, low = (x.astype(np.int32) for x in np.divmod(k, 10 ** 9))
    blocks = []
    for n, a, b in zip(range(1, 17), bounds, bounds[1:]):
        if a == b:
            continue
        # channel, comma, n digits, point, the tenths digit, newline
        rows = np.empty((b - a, n + 5), dtype=np.uint8)
        rows[:, 0] = codes[a:b]
        rows[:, 1] = ord(",")
        rows[:, n + 2] = ord(".")
        rows[:, n + 4] = ord("\n")
        cols = (n + 3, *range(n + 1, 1, -1))  # last digit first
        for rest, part in ((low[a:b], cols[:9]), (high[a:b], cols[9:])):
            for col in part:
                tens = rest // 10
                rows[:, col] = rest - tens * 10 + ord("0")
                rest = tens
        blocks.append(rows.tobytes())
    return b"".join(blocks)


def write_click_stream(path, stream: ClickStream) -> None:
    """Write a click file, _BLOCK rows at a time; a channel that is not
    one of CLICK_CHANNELS, which the reader refuses, raises ValueError
    before any file exists."""
    codes = stream.channels.view("<u4")
    for start in range(0, len(codes), _BLOCK):
        part = codes[start:start + _BLOCK]
        known = np.zeros(len(part), dtype=bool)
        for ch in CLICK_CHANNELS:
            known |= part == ord(ch)
        if not known.all():
            raise ValueError(f"click channel {chr(part[known.argmin()])!r} "
                             f"is not one of {', '.join(CLICK_CHANNELS)}")
    header = (f"{CLICK_MAGIC} seed={stream.seed} "
              f"duration_ps={stream.duration!r} "
              f"confighash={stream.config_hash}\n{CLICK_COLUMNS}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, len(codes), _BLOCK):
            times = stream.times[start:start + _BLOCK]
            channels = stream.channels[start:start + _BLOCK]
            rows = _click_rows(times, channels)
            if rows is None:
                rows = "".join([f"{ch},{t:.1f}\n" for ch, t in zip(
                    channels.tolist(), times.tolist())]).encode()
            fh.write(rows)


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


def _click_header(path, header: str, columns: str):
    """(duration, seed, config_hash) of a click file's first two lines;
    a bad one raises MalformedFileError."""
    fields = header.split()
    if not fields or fields[0] != CLICK_MAGIC:
        raise MalformedFileError(f"{path}: not a {CLICK_MAGIC} file")
    try:
        meta = dict(f.split("=", 1) for f in fields[1:])
        duration, seed = float(meta["duration_ps"]), int(meta["seed"])
        config_hash = meta["confighash"]
    except KeyError as exc:
        raise MalformedFileError(f"{path}: header lacks {exc}") from None
    except ValueError as exc:
        raise _line_error(path, 1, f"bad header field ({exc})") from None
    if not 0.0 < duration < math.inf:  # rates divide by it
        raise _line_error(path, 1, f"duration_ps {meta['duration_ps']!r} "
                          f"must be finite and > 0")
    if columns.strip() != CLICK_COLUMNS:
        raise _line_error(path, 2, f"expected {CLICK_COLUMNS!r}")
    return duration, seed, config_hash


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


def _parse_clicks(data: bytes):
    """The ClickStream of a file of the rows `simulate` writes, all rows
    checked at once; None for any other file, which _scan_clicks then
    reads.

    It takes an ASCII header without a carriage return and rows
    `ch,<1-15 digits>.<digit>`, each ending in a newline, which the scan
    reads to equal arrays.
    """
    head_end = data.find(b"\n")
    columns_end = data.find(b"\n", head_end + 1)  # -1 if head_end is
    if columns_end < 0 or not data.endswith(b"\n"):
        return None
    header = data[:columns_end]
    if not header.isascii() or b"\r" in header:
        return None
    try:
        duration, seed, config_hash = _click_header(
            None, data[:head_end].decode(), header[head_end + 1:].decode())
    except MalformedFileError:  # the scan names the file, and reports a
        return None             # byte that is not UTF-8 first
    # the rows, a view of the file's bytes
    rows = _decimal_rows(np.frombuffer(data, dtype=np.uint8,
                                       offset=columns_end + 1))
    if rows is None:
        return None
    times, heads = rows
    # an ASCII byte is its own code point: <U1 without a string cast
    channels = heads.astype(np.uint32).view("U1")
    try:
        return ClickStream(times=times, channels=channels, duration=duration,
                           seed=seed, config_hash=config_hash)
    except ValueError:  # a time that runs back
        return None


def _decimal_rows(u: np.ndarray):
    """(times, channel bytes) of rows that all read
    `ch,<1-15 digits>.<digit>`, ch one of CLICK_CHANNELS, each ending in a
    newline, with row lengths that never fall; the times as k / 10.0 for
    k the row's digits.  None for any other rows, or a k above 2**53."""
    ends = np.flatnonzero(u == ord("\n"))
    sizes = np.diff(ends, prepend=-1)  # bytes of each row, newline included
    # the rows of size bytes are bounds[size - 6]:bounds[size - 5]
    bounds = np.searchsorted(sizes, np.arange(6, 22)).tolist()
    if not (bounds[0] == 0 and bounds[-1] == len(sizes)
            and (sizes[1:] >= sizes[:-1]).all()):
        return None
    k = np.empty(len(sizes), dtype=np.int64)
    heads = np.empty(len(sizes), dtype=np.uint8)
    for size, a, b in zip(range(6, 21), bounds, bounds[1:]):
        if a == b:
            continue
        n = size - 5  # digits before the point
        # the rows of one length, one per line of a view of the body
        rows = u[ends[a] + 1 - size:ends[b - 1] + 1].reshape(b - a, size)
        head = rows[:, 0]
        known = head == _CHANNEL_BYTES[0]
        for ch in _CHANNEL_BYTES[1:]:
            known |= head == ch
        digits = rows[:, 2:size - 1] - ord("0")  # '.' wraps to 254
        ok = digits < 10
        ok[:, n] = rows[:, n + 2] == ord(".")
        if not (known.all() and (rows[:, 1] == ord(",")).all()
                and ok.all()):
            return None
        heads[a:b] = head
        block = digits[:, 0].astype(np.int64)
        for col in (*range(1, n), n + 1):
            block *= 10
            block += digits[:, col]
        k[a:b] = block
    if k.max(initial=0) > _EXACT:
        return None
    # k / 10 is one correctly rounded division of two exact float64s, and
    # float() of the token is the correctly rounded value of the same k/10
    return k / 10.0, heads


def _scan_clicks(path, data: bytes) -> ClickStream:
    """Line-by-line parse of a click file's bytes; the only path that
    says what is wrong with a malformed one."""
    # universal newlines, as open() reads text
    fh = io.StringIO(_decode(path, data), newline=None)
    duration, seed, config_hash = _click_header(path, fh.readline(),
                                                fh.readline())
    lines = fh.read().splitlines()

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
    counts = h.counts.tolist()
    if not np.issubdtype(h.counts.dtype, np.integer):
        # float counts come from accidental subtraction; whole ones are
        # written as integers
        counts = [int(c) if float(c).is_integer() else repr(float(c))
                  for c in counts]
    rows = "".join([f"{float(t)!r},{c}\n"
                    for t, c in zip(h.tau.tolist(), counts)])
    with open(path, "w") as fh:
        fh.write("tau_ps,counts\n" + rows)


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
    # a spreadsheet may begin the file with a byte-order mark
    text = text.removeprefix("\ufeff")
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
