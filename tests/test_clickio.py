import numpy as np
import pytest

from cqedkit import clickio, hbt
from cqedkit.specfit import Spectrum
from cqedkit.trajectory import ClickStream


def sample_stream():
    return ClickStream(
        times=np.array([100.0, 250.5, 250.5, 13100.2]),
        channels=np.array(["C", "X", "D", "C"]),
        duration=26000.0, seed=7, config_hash="abcd1234abcd1234")


def test_click_stream_roundtrip(tmp_path):
    path = tmp_path / "clicks.csv"
    s = sample_stream()
    clickio.write_click_stream(path, s)
    back = clickio.read_click_stream(path)
    assert np.array_equal(back.times, s.times)
    assert np.array_equal(back.channels, s.channels)
    assert back.duration == s.duration
    assert back.seed == s.seed
    assert back.config_hash == s.config_hash
    # header carries the magic tag
    assert path.read_text().startswith(clickio.CLICK_MAGIC)


def test_click_stream_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    clickio.write_click_stream(p1, sample_stream())
    clickio.write_click_stream(p2, sample_stream())
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("channel,time_ps\nC,1.0\n")
    with pytest.raises(ValueError, match="not a"):
        clickio.read_click_stream(path)


def test_single_click_stream(tmp_path):
    for n, channel in enumerate(["X", "Y", "\u00e9"]):
        path = tmp_path / f"one{n}.csv"
        s = ClickStream(times=np.array([5.0]), channels=np.array([channel]),
                        duration=10.0, seed=0, config_hash="00")
        if channel not in clickio.CLICK_CHANNELS:
            # the reader refuses such a file, so none is written
            with pytest.raises(ValueError, match=f"channel '{channel}'"):
                clickio.write_click_stream(path, s)
            assert not path.exists()
            continue
        clickio.write_click_stream(path, s)
        back = clickio.read_click_stream(path)
        assert len(back) == 1 and back.channels[0] == channel


def test_histogram_file_layout(tmp_path):
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, 1e5, 200))
    h = hbt.correlate(t, window=2000.0, bin_width=200.0, duration=1e5)
    path = tmp_path / "hist.csv"
    clickio.write_histogram(path, h)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_ps,counts"
    assert len(lines) == 1 + len(h.tau)
    taus = np.array([float(l.split(",")[0]) for l in lines[1:]])
    counts = np.array([int(l.split(",")[1]) for l in lines[1:]])
    assert np.array_equal(taus, h.tau)
    assert np.array_equal(counts, h.counts)


def test_spectrum_roundtrip(tmp_path):
    lam = np.linspace(936.0, 936.7, 61)
    s = Spectrum(lam, np.abs(np.sin(lam)) + 0.1, temperature=10.5)
    path = tmp_path / "spec.csv"
    clickio.write_spectrum(path, s)
    back = clickio.read_spectrum(path)
    assert np.array_equal(back.wavelength_nm, s.wavelength_nm)
    assert np.array_equal(back.intensity, s.intensity)
    assert back.temperature == 10.5
    # untagged spectra stay untagged
    s2 = Spectrum(lam, s.intensity)
    clickio.write_spectrum(path, s2)
    assert clickio.read_spectrum(path).temperature is None


def test_report_roundtrip_and_scalar_coercion():
    fields = {"splitting_ueV": np.float64(55.97760113708682),
              "resolvable": np.bool_(True),
              "n_points": np.int64(21),
              "label": "resonant"}
    text = clickio.format_report("coupling", fields)
    assert text.startswith("[coupling]\n")
    assert "np.float64" not in text and "np." not in text
    back = clickio.parse_report(text)
    assert float(back["splitting_ueV"]) == 55.97760113708682
    assert back["resolvable"] == "True"
    assert back["n_points"] == "21"
    assert back["label"] == "resonant"


def test_click_writer_bytes_match_per_row_format(tmp_path):
    # the per-row f-string over numpy scalars, as rows were first written
    times = np.array([0.05, 0.15, 2.25, 2.35, 123456.75, 1e9 + 0.05,
                      1e9 + 0.25, 1e12, 1e15 + 0.3])
    channels = np.array(["C", "X", "D", "C", "X", "D", "C", "X", "D"])
    s = ClickStream(times=times, channels=channels, duration=2e15, seed=3,
                    config_hash="ff00")
    path = tmp_path / "clicks.csv"
    clickio.write_click_stream(path, s)
    expected = ("#cqed-click-v1 seed=3 duration_ps=2000000000000000.0 "
                "confighash=ff00\nchannel,time_ps\n"
                + "".join(f"{ch},{t:.1f}\n" for ch, t in zip(channels, times)))
    assert path.read_bytes() == expected.encode()


def test_zero_row_click_stream_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    s = ClickStream(times=np.array([]), channels=np.array([], dtype=str),
                    duration=10.0, seed=0, config_hash="00")
    clickio.write_click_stream(path, s)
    assert path.read_text().endswith("\nchannel,time_ps\n")
    back = clickio.read_click_stream(path)
    assert len(back) == 0
    assert back.times.dtype == np.float64 and back.channels.dtype == "<U1"
    assert back.duration == 10.0 and back.seed == 0


HEADER = (b"#cqed-click-v1 seed=7 duration_ps=26000.0 confighash=abcd\n"
          b"channel,time_ps\n")
ROWS = [b"C,100.0\n", b"X,250.5\n", b"D,250.5\n", b"C,300.0\n",
        b"X,13100.2\n", b"C,13200.0\n"]


def edit_row(line, new):
    """The click file with row `line` (file line number) replaced."""
    rows = list(ROWS)
    rows[line - 3] = new
    return HEADER + b"".join(rows)


PLAIN = HEADER + b"".join(ROWS)
CLICK_FILES = {
    "plain": PLAIN,
    "zero_rows": HEADER,
    "header_only": HEADER.partition(b"\n")[0] + b"\n",
    "empty": b"",
    "magic_only": b"#cqed-click-v1\n",
    # a header duration that no rate may divide by
    **{f"duration_{d}": PLAIN.replace(b"26000.0", d.encode())
       for d in ("0", "-5", "nan", "inf", "-inf")},
    "negative_zero": edit_row(3, b"C,-0.0\n"),
    "signed_exponent": edit_row(3, b"C,+1e1\n"),
    # the corruptions of the CLI's bad-click-file test
    "nan_time": HEADER + b"".join(ROWS[:3]) + b"C,oops\n" + b"".join(ROWS[3:]),
    "swapped_rows": HEADER + ROWS[1] + ROWS[0] + b"".join(ROWS[2:]),
    "unknown_channel": edit_row(6, b"Q,300.0\n"),
    "two_letter_channel": edit_row(6, b"CX,300.0\n"),
    "not_utf8": edit_row(6, b"C,\xff300.0\n"),
    "utf16_bom": b"\xff\xfe" + PLAIN,
    # forms the line scan reads its own way
    "crlf": PLAIN.replace(b"\n", b"\r\n"),
    "cr": PLAIN.replace(b"\n", b"\r"),
    "space_after_comma": edit_row(6, b"C, 300.0\n"),
    "underscore_time": edit_row(8, b"C,1_3200\n"),
    "form_feed": edit_row(8, b"C,13200.0\f\n"),
    "trailing_blank_line": PLAIN + b"\n",
    "no_final_newline": PLAIN[:-1],
    "empty_time": edit_row(6, b"C,\n"),
    "two_times": edit_row(6, b"C,1.0,2.0\n"),
    "inf_time": edit_row(8, b"C,inf\n"),
    "channel_in_time": edit_row(8, b"C,1X3200\n"),
    "comma_moved_to_next_row": (HEADER + b"".join(ROWS[:4])
                                + b"X,13100.2,C\n13200.0\n"),
    "channel_only": edit_row(8, b"C\n"),
    # a channel and a comma per row, but not at the row's head
    "comma_late": edit_row(6, b"C3,00.0\n"),
    "channel_after_comma": edit_row(6, b"3,C00.0\n"),
    "unterminated_bad_row": PLAIN + b"5",
    # the header rules, which both paths share
    "columns_trailing_blanks": PLAIN.replace(b"time_ps\n", b"time_ps  \n"),
    "seed_not_an_integer": PLAIN.replace(b"seed=7", b"seed=x"),
    "no_confighash": PLAIN.replace(b" confighash=abcd", b""),
    # a lone carriage return ends the scan's header line
    "cr_in_header": PLAIN.replace(b" duration_ps", b"\rduration_ps"),
    # a byte that is not UTF-8 is reported before a bad header
    "bad_header_and_not_utf8": edit_row(6, b"C,\xff300.0\n").replace(
        b"seed=7", b"seed=x"),
}


def scan_outcome(path, data):
    try:
        s = clickio._scan_clicks(path, data)
    except clickio.MalformedFileError as exc:
        return str(exc)
    return s


@pytest.mark.parametrize("name", CLICK_FILES)
def test_vectorised_click_read_agrees_with_line_scan(tmp_path, name):
    path = tmp_path / "clicks.csv"
    data = CLICK_FILES[name]
    path.write_bytes(data)
    want = scan_outcome(path, data)
    fast = clickio._parse_clicks(data)
    if fast is not None:  # the fast path takes only what the scan takes
        assert not isinstance(want, str), want
    try:
        got = clickio.read_click_stream(path)
    except clickio.MalformedFileError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    for stream in (got, fast) if fast is not None else (got,):
        assert np.array_equal(stream.times, want.times)
        assert np.array_equal(np.signbit(stream.times), np.signbit(want.times))
        assert np.array_equal(stream.channels, want.channels)
        assert stream.times.dtype == want.times.dtype
        assert stream.channels.dtype == want.channels.dtype
        assert ((stream.duration, stream.seed, stream.config_hash)
                == (want.duration, want.seed, want.config_hash))


@pytest.mark.parametrize("name, vectorised", [
    ("plain", True), ("zero_rows", True),
    # rows that are not `ch,<digits>.<digit>` go to the line scan
    ("negative_zero", False), ("signed_exponent", False),
], ids=["plain", "zero_rows", "negative_zero", "signed_exponent"])
def test_plain_click_files_take_the_vectorised_path(name, vectorised):
    assert (clickio._parse_clicks(CLICK_FILES[name]) is not None) == vectorised


def per_row_rows(times, channels):
    return "".join(f"{ch},{t:.1f}\n" for ch, t in zip(channels, times))


def test_tenths_writer_matches_per_row_format_across_magnitudes(tmp_path):
    rng = np.random.default_rng(20261019)
    drawn = 10.0 ** rng.uniform(-3, 15, 20_000)
    # multiples of 1/20 and 1/4 land on or beside the .x5 ties
    near_ties = np.concatenate([rng.integers(0, 10**7, 2_000) / 20.0,
                                rng.integers(0, 2**40, 2_000) * 0.25,
                                1e9 + rng.integers(0, 100, 200) * 0.05])
    edges = [0.0, 5e-324, 2.2e-308, 1e-300, 0.04, 0.05, 0.15, 0.25, 0.35,
             0.95, 2.25, 9.95, 99.95, 1e9 + 0.25, 1e9 + 0.05, 1e15 + 0.3,
             2.0**52 - 0.5, 2.0**52, 2.0**53 - 1, 1e9 - 1, 1e9 + 1]
    # 10 t at and beside every power of ten, so that each count of digits
    # before the point from 1 to 16 begins and ends a block; at 10**9 the
    # writer's last nine digits part from the rest
    tenths = [(10**e + d) / 10 for e in range(1, 18) for d in (-1, 0, 1)]
    times = np.sort(np.concatenate([drawn, near_ties, edges,
                                    [t for t in tenths if t < 2**53]]))
    channels = rng.choice(np.array(["C", "X", "D"]), len(times))
    want = per_row_rows(times, channels)
    assert {len(row.partition(",")[2].partition(".")[0])
            for row in want.splitlines()} == set(range(1, 17))
    assert clickio._click_rows(times, channels) == want.encode()
    s = ClickStream(times=times, channels=channels, duration=2.0**53, seed=1,
                    config_hash="ab")
    path = tmp_path / "clicks.csv"
    clickio.write_click_stream(path, s)
    assert path.read_bytes().partition(b"\n")[2].partition(b"\n")[2] == (
        want.encode())


def test_falling_times_keep_the_per_row_format():
    times = np.array([1.0, 1e9, 5.0])
    channels = np.array(["C", "X", "C"])
    assert clickio._click_rows(times, channels) is None


@pytest.mark.parametrize("times", [
    pytest.param([-2.5, -0.05, 0.0, 1.0], id="negative"),
    pytest.param([-0.0, 0.0, 0.25], id="negative_zero"),
    pytest.param([1.0, 2.0**53, 1e300], id="beyond_2_53"),
])
def test_times_outside_the_tenths_keep_the_per_row_format(tmp_path, times):
    times = np.array(times)
    channels = np.array(["C"] * len(times))
    assert clickio._click_rows(times, channels) is None
    s = ClickStream(times=times, channels=channels, duration=1.0, seed=0,
                    config_hash="00")
    path = tmp_path / "clicks.csv"
    clickio.write_click_stream(path, s)
    assert path.read_text().endswith("channel,time_ps\n"
                                     + per_row_rows(times, channels))


def click_file(tokens):
    return HEADER + b"".join(b"C," + t + b"\n" for t in tokens)


def float_tokens(k):
    """Row tokens of integer tenths k, and float() of each."""
    tokens = [f"{v // 10}.{v % 10}".encode() for v in k]
    return tokens, np.array([float(t) for t in tokens])


def test_decimal_rows_read_bit_equal_to_float(tmp_path):
    rng = np.random.default_rng(15)
    # 1 to 15 integer digits, up to k = 2**53 itself
    k = [int(10 ** rng.uniform(0, 16)) for _ in range(5_000)]
    k = sorted(v for v in k if v <= 2**53) + [2**53 - 1, 2**53]
    assert max(len(str(v // 10)) for v in k) == 15
    tokens, want = float_tokens(sorted(k))
    data = click_file(tokens)
    u = np.frombuffer(data.partition(b"\n")[2].partition(b"\n")[2], np.uint8)
    fast = clickio._decimal_rows(u)
    assert fast is not None
    assert fast[1].tobytes() == b"C" * len(k)
    path = tmp_path / "clicks.csv"
    path.write_bytes(data)
    for times in (fast[0], clickio.read_click_stream(path).times):
        assert np.array_equal(times.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("k", [
    pytest.param([15, 2**53 + 1], id="15_digits_above_2_53"),
    pytest.param([15, 10**16 + 7, 2**55 + 3, 10**17 - 1], id="16_digits"),
    # 19 integer digits: k would overflow int64
    pytest.param([15, 10**19 + 5, 2**64 + 1], id="19_digits"),
])
def test_rows_beyond_the_tenths_take_the_float_step(tmp_path, k):
    tokens, want = float_tokens(k)
    data = click_file(tokens)
    u = np.frombuffer(data.partition(b"\n")[2].partition(b"\n")[2], np.uint8)
    assert clickio._decimal_rows(u) is None
    # the line scan reads them
    assert clickio._parse_clicks(data) is None
    path = tmp_path / "clicks.csv"
    path.write_bytes(data)
    times = clickio.read_click_stream(path).times
    assert np.array_equal(times.view(np.int64), want.view(np.int64))


def test_histogram_writer_bytes_match_per_row_loop(tmp_path):
    tau = np.arange(-5, 6) * 130.0
    for counts in (np.arange(11, dtype=np.int64) * 7,
                   np.arange(11, dtype=np.int32) - 5,
                   np.full(11, 2**63 - 1, dtype=np.int64),
                   np.full(11, 2**64 - 1, dtype=np.uint64),
                   np.linspace(-2.5, 40.0, 11), np.full(11, 3.0),
                   np.full(11, 2.0**60, dtype=np.float32)):
        h = hbt.CorrelationHistogram(tau, counts, 130.0, 1e6, 10, 10, True)
        path = tmp_path / "hist.csv"
        clickio.write_histogram(path, h)
        want = "tau_ps,counts\n"
        for t, c in zip(tau, counts):
            c = int(c) if float(c).is_integer() else repr(float(c))
            want += f"{float(t)!r},{c}\n"
        assert path.read_bytes() == want.encode()


def width_rows():
    """Three rows of each width from 6 to 20 bytes, times nondecreasing:
    `ch,<n digits>.<digit>` for n from 1 to 15."""
    return [b"%c,%d.%d\n" % (ch, 10 ** (n - 1) + i, i)
            for n in range(1, 16) for i, ch in enumerate(b"CXD")]


def test_fast_reader_takes_every_row_width(tmp_path):
    rows = width_rows()
    assert sorted({len(r) for r in rows}) == list(range(6, 21))
    data = HEADER + b"".join(rows)
    path = tmp_path / "clicks.csv"
    fast, want = clickio._parse_clicks(data), clickio._scan_clicks(path, data)
    assert fast is not None
    assert np.array_equal(fast.times, want.times)
    assert np.array_equal(fast.channels, want.channels)


def test_bad_byte_in_any_column_goes_to_the_line_scan(tmp_path):
    # the middle row of each width's block, each of its bytes in turn
    path = tmp_path / "clicks.csv"
    rows = width_rows()
    for i in range(1, len(rows), 3):
        for col in range(len(rows[i])):
            bad = list(rows)
            bad[i] = rows[i][:col] + b"?" + rows[i][col + 1:]
            data = HEADER + b"".join(bad)
            assert clickio._parse_clicks(data) is None, (i, col)
            path.write_bytes(data)
            with pytest.raises(clickio.MalformedFileError,
                               match=f": line {3 + i}: "):
                clickio.read_click_stream(path)


def test_falling_row_widths_go_to_the_line_scan(tmp_path):
    path = tmp_path / "clicks.csv"
    rows = width_rows()
    for i in range(0, len(rows) - 3, 3):
        # a leading zero widens the first row of a block past the next
        # rows: the same times, but the widths fall
        wide = list(rows)
        wide[i] = wide[i][:2] + b"0" + wide[i][2:]
        data = HEADER + b"".join(wide)
        assert clickio._parse_clicks(data) is None
        path.write_bytes(data)
        got, want = (clickio.read_click_stream(path),
                     clickio._scan_clicks(path, data))
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.channels, want.channels)
        # an earlier time, in a row no wider than the one before it
        back = rows[:i + 3] + [b"C,0.5\n"] + rows[i + 3:]
        data = HEADER + b"".join(back)
        assert clickio._parse_clicks(data) is None
        path.write_bytes(data)
        with pytest.raises(clickio.MalformedFileError,
                           match=f": line {3 + i + 3}: time 0.5 ps before"):
            clickio.read_click_stream(path)
