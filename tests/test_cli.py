import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cqedkit
from cqedkit import cli, clickio, config, coupled, errors, specfit
from cqedkit.units import HC_UEV_NM, wavelength_to_energy


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eigen_report(capsys):
    code, out, _ = run(capsys, "eigen")
    assert code == 0
    rep = clickio.parse_report(out)
    p = config.build_model(config.DEFAULT_CONFIG)
    assert float(rep["splitting_ueV"]) == coupled.vacuum_rabi_splitting(p)
    assert rep["strong_coupling"] == "True"
    fom = coupled.figures_of_merit(p.g, p.gamma_c, p.gamma_x)
    assert float(rep["purcell_factor"]) == fom.purcell
    assert float(rep["quantum_efficiency"]) == fom.efficiency
    assert float(rep["cavity_q"]) == pytest.approx(15578, abs=1)
    assert rep["config_hash"] == config.config_hash(config.DEFAULT_CONFIG)


def test_sweep_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "sweep",
                       "--t-min", "8", "--t-max", "13", "--t-step", "0.5")
    assert code == 0
    path = tmp_path / "anticrossing.csv"
    assert str(path) in out
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# confighash=")
    assert lines[1] == ("T_K,lambda_upper_nm,lambda_lower_nm,"
                        "fwhm_upper_ueV,fwhm_lower_ueV")
    assert len(lines) == 2 + 11
    # first row bit-matches the direct computation
    t, lam_u, lam_l, w_u, w_l = (float(v) for v in lines[2].split(","))
    assert t == 8.0
    p = config.build_model(config.DEFAULT_CONFIG)
    lam_x, lam_c = specfit.temperature_tuning(8.0)
    pair = coupled.eigen_energies(coupled.SystemParams(
        wavelength_to_energy(lam_x), wavelength_to_energy(lam_c),
        p.gamma_x, p.gamma_c, p.g))
    hi, lo = ((pair.upper, pair.lower)
              if pair.upper.real >= pair.lower.real
              else (pair.lower, pair.upper))
    assert lam_u == HC_UEV_NM / hi.real
    assert lam_l == HC_UEV_NM / lo.real
    assert w_u == 2 * abs(hi.imag)
    assert lam_u < lam_l  # higher energy = shorter wavelength


def test_simulate_byte_identical_and_thread_independent(tmp_path, capsys):
    args = ("simulate", "--pulses", "500", "--name")
    code, _, _ = run(capsys, "--out-dir", str(tmp_path), *args, "a.csv")
    assert code == 0
    run(capsys, "--out-dir", str(tmp_path), *args, "b.csv")
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    # a different seed gives a different stream
    run(capsys, "--out-dir", str(tmp_path), "--seed", "1", *args, "d.csv")
    assert a != (tmp_path / "d.csv").read_bytes()


def test_simulate_requires_duration(tmp_path, capsys):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "simulate")
    assert code == cli.EXIT_CONFIG
    assert "duration" in err


def test_correlate_roundtrip(tmp_path, capsys):
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--pulses", "4000")
    clicks = str(tmp_path / "clicks.csv")
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "correlate",
                       clicks, "--channels", "C")
    assert code == 0
    rep = clickio.parse_report(out)
    assert rep["method"] == "pulsed_peak_area"
    # ideal single-photon source: empty zero-delay peak
    assert float(rep["value"]) < 3 * float(rep["stderr"]) + 1e-3
    assert (tmp_path / "histogram.csv").exists()
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "correlate",
                       clicks, "--channels", "X,C")
    assert code == 0
    assert clickio.parse_report(out)["method"] == "pulsed_cross_peak_area"


def test_main_builds_one_parser_and_carries_no_flag_over(tmp_path, capsys):
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--pulses", "4000")
    argv = ("--out-dir", str(tmp_path), "correlate", str(tmp_path / "clicks.csv"))
    cli.build_parser.cache_clear()
    first = run(capsys, *argv)
    first_hist = (tmp_path / "histogram.csv").read_bytes()
    flagged = run(capsys, *argv, "--bin", "200", "--channels", "X,C",
                  "--n-side", "3")
    assert flagged[0] == 0 and flagged != first
    assert run(capsys, *argv) == first
    assert (tmp_path / "histogram.csv").read_bytes() == first_hist
    assert cli.build_parser.cache_info().misses == 1


def test_correlate_insufficient_statistics(tmp_path, capsys):
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--pulses", "1",
        "--name", "tiny.csv")
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "correlate",
                       str(tmp_path / "tiny.csv"))
    assert code == cli.EXIT_STATISTICS
    assert "side peak" in err
    assert not (tmp_path / "histogram.csv").exists()


def test_correlate_dark_subtraction_contradicting_counts(tmp_path, capsys):
    # darks make up 90% of the clicks and land in no coincidence peak, so
    # their expected accidentals exceed the measured counts
    cfg = json.loads(json.dumps(config.DEFAULT_CONFIG))
    cfg["detectors"] = {"dark_count_rate": 9 / config.REP_PERIOD_PS}
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(cfg))
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--config", str(path),
        "--pulses", "1000")
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "correlate",
                         str(tmp_path / "clicks.csv"), "--dark-subtract")
    assert code == cli.EXIT_STATISTICS
    assert out == ""
    assert err.startswith("error: dark subtraction") and err.count("\n") == 1
    assert not (tmp_path / "histogram.csv").exists()


def test_every_toolkit_error_has_an_exit_code():
    classes, todo = [], [errors.CqedError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo += cls.__subclasses__()
    for cls in classes[1:]:
        codes = [cli.EXIT_CODES[c] for c in cls.__mro__ if c in cli.EXIT_CODES]
        assert codes and codes[0] in (2, 3, 4), cls


def test_correlate_window_too_small_is_config_error(tmp_path, capsys):
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--pulses", "200")
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "correlate",
                         str(tmp_path / "clicks.csv"), "--window", "2000",
                         "--bin", "10")
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: window 2000.0 ps")
    assert err.count("\n") == 1
    assert "--n-side" in err and "--rep-period" in err
    assert not (tmp_path / "histogram.csv").exists()


def fresh_interpreter_env():
    """The environment of a fresh interpreter that imports this cqedkit."""
    src = os.path.dirname(os.path.dirname(cqedkit.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_numpy_random_unloaded():
    # fit, correlate, eigen and sweep draw no random number
    code = "import sys, cqedkit.cli; sys.exit('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code],
                          env=fresh_interpreter_env(), capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_scipy_signal_unloaded(tmp_path):
    env = fresh_interpreter_env()
    no_scipy = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    spectra = write_series(tmp_path, np.arange(6.0, 16.1, 0.5))
    cases = [
        "import sys, cqedkit.cli; sys.exit('scipy.signal' in sys.modules)",
        # simulate and correlate load no scipy module at all
        "import sys, cqedkit.cli as c; "
        f"o = ['--out-dir', {str(tmp_path)!r}]; "
        "assert c.main(o + ['simulate', '--pulses', '200']) == 0; "
        f"assert c.main(o + ['correlate', {str(tmp_path / 'clicks.csv')!r}]) == 0; "
        f"sys.exit({no_scipy})",
        # nor does fitting a series and extracting the coupling
        "import sys, cqedkit.cli as c; "
        f"assert c.main(['fit', *{spectra!r}]) == 0; "
        f"sys.exit({no_scipy})",
        # nor does demo-paper (exit 1 while a row, acceptance 4, fails)
        "import sys, cqedkit.cli as c; "
        "assert c.main(['demo-paper']) in (0, 1); "
        f"sys.exit({no_scipy})",
        # configs are checked by the classes they build, not by jsonschema
        "import sys, cqedkit.cli as c; "
        f"o = ['--out-dir', {str(tmp_path)!r}]; "
        "assert c.main(o + ['simulate', '--pulses', '200']) == 0; "
        "sys.exit(any(m.split('.')[0] == 'jsonschema' for m in sys.modules))",
    ]
    for code in cases:
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


BAD_CLICK_MESSAGES = {
    "nan_time": "line 6: bad time 'oops'",
    "swapped_rows": "line 4: time",
    "missing": "No such file",
    # a one-character channel dtype would accept Q and cut CX to C
    "unknown_channel": "line 6: unknown channel 'Q'",
    "two_letter_channel": "line 6: unknown channel 'CX'",
    "not_utf8": "line 6: not UTF-8 text (byte 0xff)",
}


@pytest.mark.parametrize("corrupt", BAD_CLICK_MESSAGES)
def test_correlate_bad_click_file_is_config_error(tmp_path, capsys, corrupt):
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--pulses", "200")
    clicks = tmp_path / "clicks.csv"
    lines = clicks.read_text().splitlines(keepends=True)
    if corrupt == "nan_time":
        lines.insert(5, "C,oops\n")
    elif corrupt == "swapped_rows":
        lines[2], lines[3] = lines[3], lines[2]
    elif corrupt == "unknown_channel":
        lines[5] = "Q," + lines[5].partition(",")[2]
    elif corrupt == "two_letter_channel":
        lines[5] = "CX," + lines[5].partition(",")[2]
    elif corrupt == "not_utf8":
        lines[5] = "C,\udcff" + lines[5].partition(",")[2]
    bad = tmp_path / "bad.csv"
    if corrupt != "missing":
        # surrogateescape writes "\udcff" as the lone byte 0xff
        bad.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "correlate",
                         str(bad))
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.csv" in err and BAD_CLICK_MESSAGES[corrupt] in err
    assert not (tmp_path / "histogram.csv").exists()


CLICK_HEADER = (b"#cqed-click-v1 seed=7 duration_ps=26000.0 confighash=abcd\n"
                b"channel,time_ps\n")
CLICK_ROWS = b"C,100.0\nX,250.5\nD,250.5\nC,300.0\nX,13100.2\nC,13200.0\n"
#: id: (file bytes, exit code, text on stderr) of a click file that
#: `correlate` refuses, with or without --dark-subtract
MALFORMED_CLICK_FILES = {
    "empty": (b"", cli.EXIT_CONFIG, "bad.csv: not a #cqed-click-v1 file"),
    "magic_only": (b"#cqed-click-v1\n", cli.EXIT_CONFIG,
                   "bad.csv: header lacks 'duration_ps'"),
    "first_line_only": (CLICK_HEADER.partition(b"\n")[0] + b"\n",
                        cli.EXIT_CONFIG, "bad.csv: line 2: expected"),
    # a well-formed file of no clicks
    "no_rows": (CLICK_HEADER, cli.EXIT_STATISTICS, "empty click stream"),
    # the scan reads these two forms; each has a row that runs back
    "last_row_without_newline": (CLICK_HEADER + CLICK_ROWS + b"C,50.0",
                                 cli.EXIT_CONFIG,
                                 "bad.csv: line 9: time 50.0 ps before"),
    "crlf": ((CLICK_HEADER + CLICK_ROWS + b"C,oops\n").replace(b"\n", b"\r\n"),
             cli.EXIT_CONFIG, "bad.csv: line 9: bad time 'oops'"),
    **{f"duration_{d}": (
        CLICK_HEADER.replace(b"26000.0", d.encode()) + CLICK_ROWS,
        cli.EXIT_CONFIG, f"bad.csv: line 1: duration_ps '{d}' must be finite")
       for d in ("0", "-5", "nan", "inf")},
}


@pytest.mark.parametrize("dark_subtract", [False, True],
                         ids=["plain", "dark_subtract"])
@pytest.mark.parametrize("case", MALFORMED_CLICK_FILES)
def test_correlate_malformed_click_file_exits_with_one_error(
        tmp_path, capsys, case, dark_subtract):
    data, exit_code, message = MALFORMED_CLICK_FILES[case]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "--out-dir", str(out_dir), "correlate",
                         str(bad), *["--dark-subtract"] * dark_subtract)
    assert code == exit_code
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out_dir.exists()


def _spectrum_bytes(lam, y, head=b"wavelength_nm,intensity\n"):
    return head + b"".join(f"{float(a)!r},{float(b)!r}\n".encode()
                           for a, b in zip(lam, y))


def _two_line_spectrum():
    """61 samples 0.03 nm apart of the default device at resonance."""
    pt = specfit.tuned_system(config.build_model(config.DEFAULT_CONFIG), 10.5)
    pair = coupled.eigen_energies(pt)
    mid = HC_UEV_NM / (0.5 * (pair.upper.real + pair.lower.real))
    lam = mid + np.arange(-30, 31) * 0.03
    return lam, coupled.model_spectrum(pt, lam)


NOISE_FLAG = ("--noise-fraction", "0.05")
SPEC_LAM, SPEC_Y = _two_line_spectrum()
SPEC_FILE = _spectrum_bytes(SPEC_LAM, SPEC_Y)
SPEC_SPIKE = np.zeros(61)
SPEC_SPIKE[30] = 1e300


def _middle_intensity(text):
    """SPEC_FILE with the middle sample's intensity written as text."""
    lines = SPEC_FILE.splitlines(keepends=True)
    lines[31] = lines[31].partition(b",")[0] + b"," + text + b"\n"
    return b"".join(lines)


#: id: (spectrum file bytes, the --noise-fraction flags with which `fit`
#: must exit 3, or None) of a file that `fit` must survive with or
#: without --noise-fraction 0.05
HOSTILE_SPECTRA = {
    "empty": (b"", None),
    "header_only": (b"wavelength_nm,intensity\n", None),
    "temperature_only": (b"# temperature_K=10.0\n", None),
    "one_column": (b"".join(f"{a!r}\n".encode() for a in SPEC_LAM), None),
    "three_columns": (SPEC_FILE.replace(b"\n", b",1.0\n"), None),
    "nan": (_middle_intensity(b"nan"), None),
    "inf": (_middle_intensity(b"inf"), None),
    "repeated_wavelength": (_spectrum_bytes(np.repeat(SPEC_LAM, 2),
                                            np.repeat(SPEC_Y, 2)), None),
    "falling_wavelengths": (_spectrum_bytes(SPEC_LAM[::-1], SPEC_Y), None),
    "negative_intensity": (_spectrum_bytes(SPEC_LAM, SPEC_Y - SPEC_Y[0] * 2),
                           None),
    "utf8_bom": (b"\xef\xbb\xbf" + SPEC_FILE, None),
    "not_utf8": (_middle_intensity(b"\xff"), None),
    "crlf": (SPEC_FILE.replace(b"\n", b"\r\n"), None),
    "all_zero": (_spectrum_bytes(SPEC_LAM, np.zeros(61)), None),
    # values near the float range: the fit overflows float64
    "intensities_times_1e300": (_spectrum_bytes(SPEC_LAM, SPEC_Y * 1e300),
                                ()),
    "intensities_times_1e-310": (_spectrum_bytes(SPEC_LAM, SPEC_Y * 1e-310),
                                 NOISE_FLAG),
    "wavelengths_times_1e300": (_spectrum_bytes(SPEC_LAM * 1e300, SPEC_Y),
                                ()),
    "wavelengths_1e-300_steps": (
        _spectrum_bytes(np.arange(1, 62) * 1e-300, SPEC_Y), ()),
    "one_sample_1e300": (_spectrum_bytes(SPEC_LAM, SPEC_SPIKE), ()),
}


@pytest.mark.parametrize("flags", [(), NOISE_FLAG],
                         ids=["unweighted", "noise_fraction"])
@pytest.mark.parametrize("case", HOSTILE_SPECTRA)
def test_fit_hostile_spectrum_file_exits_with_a_documented_code(
        tmp_path, capsys, case, flags):
    data, overflows_with = HOSTILE_SPECTRA[case]
    path = tmp_path / "spec.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, "fit", str(path), *flags)
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_CONVERGENCE,
                    cli.EXIT_STATISTICS), err
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert len([line for line in err.splitlines()
                    if "error: " in line]) == 1, err
    if flags == overflows_with:
        assert code == cli.EXIT_CONVERGENCE and "overflowed" in err


def test_simulated_click_file_reads_fast_to_the_scan_arrays(tmp_path,
                                                           capsys):
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--pulses", "2000")
    path = tmp_path / "clicks.csv"
    data = path.read_bytes()
    fast, want = clickio._parse_clicks(data), clickio._scan_clicks(path, data)
    assert fast is not None and len(fast) > 0
    assert np.array_equal(fast.times, want.times)
    assert np.array_equal(fast.channels, want.channels)
    assert ((fast.duration, fast.seed, fast.config_hash)
            == (want.duration, want.seed, want.config_hash))


@pytest.mark.parametrize("rows, message", [
    pytest.param("936.0,1.0\n936.1,x\n",
                 "line 4: expected wavelength_nm,intensity, got '936.1,x'",
                 id="bad_value"),
    pytest.param("936.0,1.0\n936.1,nan\n", "line 4: ", id="nan_value"),
    pytest.param("936.0,1.0\n936.1,1.0,2.0\n", "line 4: ", id="three_fields"),
    pytest.param("936.0,1.0\n936.1,\udcff\n",
                 "line 4: not UTF-8 text (byte 0xff)", id="not_utf8"),
    pytest.param("936.1,1.0\n936.0,1.0\n", "strictly increasing",
                 id="unsorted"),
    # a well-formed file with the twin's tag: rejected before any fit
    pytest.param("936.0,1.0\n936.1,2.0\n", "twin.csv are both tagged 10.0 K",
                 id="repeated_tag"),
])
def test_fit_bad_spectrum_is_config_error(tmp_path, capsys, rows, message):
    header = "# temperature_K=10.0\nwavelength_nm,intensity\n"
    bad = tmp_path / "bad.csv"
    # surrogateescape writes "\udcff" as the lone byte 0xff
    bad.write_bytes((header + rows).encode("utf-8", "surrogateescape"))
    twin = tmp_path / "twin.csv"
    twin.write_text(header + "936.0,1.0\n936.1,2.0\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "--out-dir", str(out_dir), "fit", str(bad),
                         str(twin))
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.csv" in err and message in err
    assert not out_dir.exists()


def test_simulate_golden_bytes(tmp_path, capsys):
    # sha256 of the click rows as the 80-step bisection sampler wrote them;
    # the log-survival table and Newton steps must write the same bytes.
    # The header carries the preset's config hash.
    code, _, _ = run(capsys, "--out-dir", str(tmp_path), "--seed", "5",
                     "simulate", "--preset", "single-photon-detuned",
                     "--pulses", "2000")
    assert code == 0
    header, _, rows = (tmp_path / "clicks.csv").read_bytes().partition(b"\n")
    assert hashlib.sha256(rows).hexdigest() == (
        "1078a9fd4e3c39b5a0ab0d63e8c4dc98cb9d9af6740861175fb84d7acb4aeaa0")
    assert header == (b"#cqed-click-v1 seed=5 duration_ps=26000000.0 "
                      b"confighash=492489c9edc257fe")


def test_simulate_golden_bytes_ten_digit_times(tmp_path, capsys):
    # sha256 of the click rows as the per-row f-string wrote them; times run
    # to 10 integer digits, where the 2,000-pulse file above stops at 8
    code, _, _ = run(capsys, "--out-dir", str(tmp_path), "--seed", "5",
                     "simulate", "--preset", "single-photon-detuned",
                     "--pulses", "100000")
    assert code == 0
    path = tmp_path / "clicks.csv"
    header, _, rows = path.read_bytes().partition(b"\n")
    assert hashlib.sha256(rows).hexdigest() == (
        "76e515c8ed74cdb781b21daf13f9e8b329f82bbf15647c873cb18bbd686dc163")
    assert header == (b"#cqed-click-v1 seed=5 duration_ps=1300000000.0 "
                      b"confighash=492489c9edc257fe")
    assert rows.endswith(b"\nC,1299987041.6\n")
    # and it reads back to the line scan's arrays
    back = clickio.read_click_stream(path)
    want = clickio._scan_clicks(path, path.read_bytes())
    assert np.array_equal(back.times, want.times)
    assert np.array_equal(back.channels, want.channels)


BAD_FLAGS = {
    # id: (command line, text on stderr); {clicks} and {spec} are input
    # files.  argparse names a flag it rejects as "argument --flag: ..."
    "bin_0": ("correlate {clicks} --bin=0", "argument --bin"),
    "bin_negative": ("correlate {clicks} --bin=-5", "argument --bin"),
    "bin_inf": ("correlate {clicks} --bin=inf", "argument --bin"),
    "window_nan": ("correlate {clicks} --window=nan", "argument --window"),
    "window_inf": ("correlate {clicks} --window=inf", "argument --window"),
    "window_-inf": ("correlate {clicks} --window=-inf", "argument --window"),
    "bin_wider_than_window": ("correlate {clicks} --bin=200000 --window=1000",
                              "--bin 200000.0 ps is wider than --window 1000.0"),
    # whole 400 ps bins cut the default 84500 ps window to 84400 ps
    "bin_rounds_window": ("correlate {clicks} --bin=400",
                          "--window 84500.0 ps at --bin 400.0 ps bins to "
                          "84400.0 ps: window 84400.0 ps too small"),
    "channels_unknown": ("correlate {clicks} --channels=Q",
                         "--channels 'Q': each name must be one of C, X, D"),
    "channels_empty_name": ("correlate {clicks} --channels=C,",
                            "--channels 'C,': each name must be one of"),
    "channels_three": ("correlate {clicks} --channels=C,X,D",
                       "--channels takes one or two channel names"),
    "channels_repeated": ("correlate {clicks} --channels=C,C",
                          "use --channels C for its autocorrelation"),
    # the flag is checked before any file is read
    "channels_before_read": ("correlate {missing} --channels=Q",
                             "--channels 'Q'"),
    "n_side_0": ("correlate {clicks} --n-side=0", "argument --n-side"),
    "n_side_fractional": ("correlate {clicks} --n-side=6.5",
                          "argument --n-side"),
    "rep_period_0": ("correlate {clicks} --rep-period=0",
                     "argument --rep-period"),
    "rep_period_nan": ("correlate {clicks} --rep-period=nan",
                       "argument --rep-period"),
    # more delay bins than one histogram holds: refused before any file
    # is read or any array is made
    "window_1e12_bin_1": ("correlate {missing} --window=1e12 --bin=1",
                          "--window 1000000000000.0 ps at --bin 1.0 ps: "
                          "2 window / bin must be below 1,000,000 "
                          "(at most 1,000,001 delay bins)"),
    "window_1e300_bin_1e-300": ("correlate {missing} --window=1e300 "
                                "--bin=1e-300", "must be below 1,000,000"),
    "bin_1e-300": ("correlate {missing} --bin=1e-300",
                   "must be below 1,000,000"),
    "bin_0.001": ("correlate {missing} --bin=0.001",
                  "--window 84500.0 ps at --bin 0.001 ps: 2 window / bin"),
    # a peak narrower than a bin: refused before the peaks are summed
    "rep_period_below_bin": ("correlate {missing} --rep-period=0.001 "
                             "--n-side=10000000",
                             "--rep-period 0.001 ps is shorter than "
                             "--bin 130.0 ps"),
    "duration_nan": ("simulate --duration=nan", "argument --duration"),
    # one run length, not one flag silently winning over the other
    "pulses_and_duration": ("simulate --pulses=10 --duration=5",
                            "argument --duration: not allowed with "
                            "argument --pulses"),
    "pulses_negative": ("simulate --pulses=-3", "argument --pulses"),
    "pulses_overflow": ("simulate --pulses=" + "9" * 401, "argument --pulses"),
    # more pulses than one run may sample: refused before any array
    "pulses_beyond_an_array": ("simulate --pulses=100000000000000000000",
                               "--pulses 100000000000000000000: duration"),
    "duration_beyond_an_array": ("simulate --duration=1e300",
                                 "--duration 1e+300: duration"),
    "duration_below_one_period": ("simulate --duration=1e-300",
                                  "--duration 1e-300: duration shorter "
                                  "than one pulse period"),
    "pulses_1e17": ("simulate --pulses=100000000000000000",
                    "--pulses 100000000000000000: duration"),
    "pulses_one_above_the_bound": ("simulate --pulses=100000001",
                                   "--pulses 100000001: duration"),
    "t_step_0": ("sweep --t-step=0", "argument --t-step"),
    "t_step_negative": ("sweep --t-step=-1", "argument --t-step"),
    # more temperatures than one sweep computes: refused before any array
    "t_step_1e-300": ("sweep --t-step=1e-300", "--t-step 1e-300: more than"),
    "t_step_above_the_bound": ("sweep --t-step=0.0001",
                               "--t-step 0.0001: more than 100,000"),
    "t_min_above_t_max": ("sweep --t-min=12 --t-max=8",
                          "6.0 <= t_min <= t_max <= 40.0 K"),
    "t_min_nan": ("sweep --t-min=nan", "--t-min nan"),
    "t_min_below_range": ("sweep --t-min=2", "--t-min 2.0"),
    "t_max_above_range": ("sweep --t-max=50", "--t-max 50.0"),
    "resonance_temp_nan": ("sweep --resonance-temp=nan",
                           "argument --resonance-temp"),
    "resonance_temp_1e200": ("sweep --resonance-temp=1e200",
                             "--resonance-temp 1e+200 K is outside the "
                             "calibrated 6.0-40.0 K"),
    "resonance_temp_50": ("sweep --resonance-temp=50",
                          "--resonance-temp 50.0 K is outside"),
    "noise_fraction_negative": ("fit {spec} --noise-fraction=-1",
                                "argument --noise-fraction"),
    "noise_fraction_nan": ("fit {spec} --noise-fraction=nan",
                           "argument --noise-fraction"),
    # weights 1 / (fraction * intensity) that overflow the residuals
    "noise_fraction_1e-300": ("fit {spec} --noise-fraction=1e-300",
                              "--noise-fraction 1e-300: noise fraction"),
    "demo_pulses_0": ("demo-paper --pulses=0", "argument --pulses"),
    "demo_pulses_one_above_the_bound": ("demo-paper --pulses=100000001",
                                        "--pulses 100000001: duration"),
}


@pytest.mark.parametrize("case", BAD_FLAGS)
def test_bad_flag_exits_2_naming_it(tmp_path, capsys, case):
    argv, text = BAD_FLAGS[case]
    run(capsys, "--out-dir", str(tmp_path), "simulate", "--pulses", "1000")
    spec, = write_series(tmp_path, [10.0])
    files = {"clicks": tmp_path / "clicks.csv", "spec": spec,
             "missing": tmp_path / "missing.csv"}
    out_dir = tmp_path / "out"
    try:
        code = cli.main(["--out-dir", str(out_dir),
                         *(a.format(**files) for a in argv.split())])
    except SystemExit as exc:  # argparse rejected the flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert text in err and "Traceback" not in err
    assert not out_dir.exists()


#: each numeric flag of each subcommand, with the subcommand line it is
#: added to; {clicks} and {spec} are small input files
NUMERIC_FLAGS = {
    "seed": ("--seed", "eigen"),
    "t_min": ("--t-min", "sweep"),
    "t_max": ("--t-max", "sweep"),
    "t_step": ("--t-step", "sweep"),
    "resonance_temp": ("--resonance-temp", "sweep"),
    "duration": ("--duration", "simulate"),
    "simulate_pulses": ("--pulses", "simulate"),
    "bin": ("--bin", "correlate {clicks}"),
    "window": ("--window", "correlate {clicks}"),
    "rep_period": ("--rep-period", "correlate {clicks}"),
    "n_side": ("--n-side", "correlate {clicks}"),
    "noise_fraction": ("--noise-fraction", "fit {spec}"),
    "demo_pulses": ("--pulses", "demo-paper"),
}
HOSTILE_VALUES = ["0", "-1", "nan", "inf", "1e-300", "1e300", str(2**63),
                  str(10**400), "", "x"]


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    assert cli.main(["--out-dir", str(directory), "simulate",
                     "--pulses", "1000"]) == 0
    spec, = write_series(directory, [10.0], noise=0.05)
    return {"clicks": directory / "clicks.csv", "spec": spec}


@pytest.mark.parametrize("value", HOSTILE_VALUES,
                         ids=["0", "-1", "nan", "inf", "1e-300", "1e300",
                              "2**63", "10**400", "empty", "x"])
@pytest.mark.parametrize("flag", NUMERIC_FLAGS)
def test_hostile_numeric_flag_exits_with_a_documented_code(
        tmp_path, capsys, small_inputs, flag, value):
    name, command = NUMERIC_FLAGS[flag]
    head, *rest = (a.format(**small_inputs) for a in command.split())
    if name == "--seed":  # a global flag, before the subcommand
        argv = [f"{name}={value}", head, *rest]
    else:
        argv = [head, *rest, f"{name}={value}"]
    try:
        code = cli.main(["--out-dir", str(tmp_path), *argv])
    except SystemExit as exc:  # argparse rejected the value
        code = exc.code
    err = capsys.readouterr().err
    # 1 is demo-paper's FAIL row, which no hostile value may reach
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_CONVERGENCE,
                    cli.EXIT_STATISTICS), err
    assert "Traceback" not in err
    if code:
        assert len([line for line in err.splitlines()
                    if "error: " in line]) == 1, err


@pytest.mark.parametrize("pulses", ["1", "5"])
def test_demo_paper_too_few_pulses_is_statistics_error(capsys, pulses):
    # the detuned Fig. 4 run of so few pulses has no X click
    code, out, err = run(capsys, "demo-paper", "--pulses", pulses)
    assert code == cli.EXIT_STATISTICS
    assert out == ""
    assert err.startswith(f"error: --pulses {pulses}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("pulses", range(1, 9))
def test_demo_paper_few_pulses_prints_the_table_or_names_pulses(capsys,
                                                                pulses):
    # a short run can lack a channel or leave every side peak empty
    code, out, err = run(capsys, "demo-paper", "--pulses", str(pulses))
    assert "Traceback" not in err
    if code == cli.EXIT_STATISTICS:
        assert out == ""
        assert err.startswith(f"error: --pulses {pulses}: ")
        assert err.count("\n") == 1
    else:
        assert code in (0, 1) and err == ""
        assert out.splitlines()[-1].endswith("checks passed")


def test_demo_paper_fails_only_the_acceptance_4_row(capsys):
    code, out, err = run(capsys, "demo-paper")
    assert code == 1 and err == ""
    header, *rows, summary = out.splitlines()
    assert header.split() == ["quantity", "computed", "target", "result"]
    failed = [row[:row.index("  ")] for row in rows if row.endswith("FAIL")]
    assert failed == ["inferred bare lifetime (ps)"]
    assert all(row.endswith(("pass", "FAIL")) for row in rows)
    assert summary == f"{len(rows) - 1}/{len(rows)} checks passed"


@pytest.mark.parametrize("rows", [
    pytest.param("", id="header_only"),
    pytest.param("936.0,1.0\n936.1,2.0\n936.2,1.0\n", id="three_points"),
])
@pytest.mark.parametrize("tag", ["", "# temperature_K=10.0\n"],
                         ids=["untagged", "tagged"])
def test_fit_underdetermined_spectrum_is_statistics_error(tmp_path, capsys,
                                                          rows, tag):
    # fewer samples than the 7 fit parameters plus one: no fit to report
    path = tmp_path / "few.csv"
    path.write_text(tag + "wavelength_nm,intensity\n" + rows)
    code, out, err = run(capsys, "fit", str(path))
    assert code == cli.EXIT_STATISTICS
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at least 8" in err


@pytest.mark.parametrize("section,key,value", [
    ("pump", "background_feed_rate", 1e300),
    ("pump", "background_feed_rate", 40.0),
    ("pump", "reservoir_mean", 1e300),
    ("pump", "reservoir_mean", 6e5),
    ("detectors", "dark_count_rate", 1e300),
    ("detectors", "dark_count_rate", 40.0),
])
def test_simulate_refuses_more_poisson_events_than_a_run_samples(
        tmp_path, capsys, section, key, value):
    # 200 pulses are 2.6e6 ps: 40 per ps, or a mean of 6e5 carriers per
    # pulse, is just over the 1e8 events one run may sample, and 1e300
    # is beyond numpy's Poisson range.  Each is refused by name before
    # any draw
    cfg = json.loads(json.dumps(config.FIG4_DETUNED_CONFIG))
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "simulate",
                         "--config", str(path), "--pulses", "200")
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"error: {section}.{key} {value!r}: ")
    assert err.count("\n") == 1 and "100,000,000" in err
    assert not (tmp_path / "clicks.csv").exists()


def test_invalid_config_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cfg = json.loads(json.dumps(config.DEFAULT_CONFIG))
    cfg["device"]["bogus_knob"] = 1.0
    bad.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "eigen", "--config", str(bad))
    assert code == cli.EXIT_CONFIG
    assert "bogus_knob" in err or "config field" in err


def write_series(directory, temps, noise=0.0):
    """Model spectra of the default device tuned to each temperature, as
    tagged spectrum files, with multiplicative Gaussian noise of the given
    fraction (one value, or one per temperature)."""
    p = config.build_model(config.DEFAULT_CONFIG)
    rng = np.random.default_rng(0)
    files = []
    for t, frac in zip(temps, np.broadcast_to(noise, len(temps))):
        pt = specfit.tuned_system(p, float(t))
        pair = coupled.eigen_energies(pt)
        mid = HC_UEV_NM / (0.5 * (pair.upper.real + pair.lower.real))
        grid = mid + np.arange(-40, 41) * 0.02
        y = coupled.model_spectrum(pt, grid)
        if frac:
            y = np.maximum(y * (1 + frac * rng.standard_normal(y.size)), 0.0)
        path = directory / f"spec_{t:.1f}.csv"
        clickio.write_spectrum(path, specfit.Spectrum(grid, y,
                                                      temperature=float(t)))
        files.append(str(path))
    return files


def test_fit_series_through_cli(tmp_path, capsys):
    files = write_series(tmp_path, np.arange(6.0, 16.1, 0.5))  # hits 10.5 K
    code, out, _ = run(capsys, "fit", *files)
    assert code == 0
    # one [fit] block per file plus one [coupling] block
    assert out.count("[fit]") == len(files)
    assert out.count("[coupling]") == 1
    coupling = clickio.parse_report(out[out.index("[coupling]"):])
    assert float(coupling["g_ueV"]) == pytest.approx(35.0, rel=0.02)
    assert float(coupling["gamma_c_ueV"]) == pytest.approx(85.0, rel=0.05)
    assert coupling["splitting_resolvable"] == "True"


def test_fit_weights_untagged_spectra_by_noise_fraction(tmp_path, capsys):
    # an untagged spectrum is weighted as fit_series weights a tagged one
    tagged, = write_series(tmp_path, [10.0], noise=0.05)
    s = clickio.read_spectrum(tagged)
    path = tmp_path / "untagged.csv"
    clickio.write_spectrum(path, specfit.Spectrum(s.wavelength_nm, s.intensity))
    code, out, _ = run(capsys, "fit", str(path), "--noise-fraction", "0.05")
    assert code == 0 and out.count("[fit]") == 1
    fit = specfit.fit_double_lorentzian(s, sigma=0.05 * s.intensity)
    p1, p2 = fit.peaks
    values = [p1.center, p1.fwhm, p1.area, p2.center, p2.fwhm, p2.area,
              fit.baseline, fit.reduced_chi2]
    assert clickio.parse_report(out) == {
        "file": str(path),
        **{key: repr(float(v)) for key, v in zip(
            ["center_1_nm", "fwhm_1_nm", "area_1", "center_2_nm", "fwhm_2_nm",
             "area_2", "baseline", "reduced_chi2"], values)},
        "converged": str(fit.converged),
    }


def test_fit_reads_a_spectrum_that_begins_with_a_byte_order_mark(
        tmp_path, capsys, monkeypatch):
    # spreadsheet programs save UTF-8 text with a leading U+FEFF; the
    # report names the file, so both copies are fitted as spec.csv
    tagged, = write_series(tmp_path, [10.0], noise=0.05)
    data = open(tagged, "rb").read()
    assert data.startswith(b"# temperature_K=10.0\n")
    read, printed = [], []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "spec.csv").write_bytes(mark + data)
        monkeypatch.chdir(tmp_path / name)
        read.append(clickio.read_spectrum("spec.csv"))
        code, out, err = run(capsys, "fit", "spec.csv")
        assert code == 0, err
        printed.append(out)
    plain, marked = read
    assert np.array_equal(marked.wavelength_nm, plain.wavelength_nm)
    assert np.array_equal(marked.intensity, plain.intensity)
    assert marked.temperature == plain.temperature == 10.0
    assert printed[1] == printed[0]


def test_fit_series_keeps_line_narrower_than_smoothing(tmp_path):
    # the series above at 6.0 K: the exciton line (0.0055 nm on a 0.02 nm
    # grid) stands on one raw sample, which the 5-point smoothing spreads
    # into the only peak; seeded as a symmetric split, the fit ended at
    # reduced chi^2 1.1e-2 against a series median near 1e-9 and was dropped
    files = write_series(tmp_path, np.arange(6.0, 16.1, 0.5))
    series = specfit.fit_series([clickio.read_spectrum(f) for f in files])
    curve = specfit.assemble_anticrossing(series)
    assert 6.0 in curve.temperature
    (_, first), *_ = series
    assert first.reduced_chi2 < 1e-9
    assert min(p.fwhm for p in first.peaks) == pytest.approx(0.00554, rel=0.01)


@pytest.mark.parametrize("temps, noise, message", [
    pytest.param(np.arange(6.0, 8.1, 0.5), 0.05,
                 "series 6-8 K does not span the resonance", id="below"),
    pytest.param(np.arange(14.0, 16.1, 0.5), 0.05,
                 "series 14-16 K does not span the resonance", id="above"),
    # ten times the noise the weights assume makes a gross misfit
    pytest.param(np.arange(9.5, 11.6, 0.5), [0.05, 0.05, 0.5, 0.05, 0.05],
                 "need >= 5 converged fits spanning resonance, got 4",
                 id="misfit_dropped"),
])
def test_fit_series_without_anticrossing_is_statistics_error(
        tmp_path, capsys, temps, noise, message):
    files = write_series(tmp_path, temps, noise)
    code, out, err = run(capsys, "fit", *files, "--noise-fraction", "0.05")
    assert code == cli.EXIT_STATISTICS
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
