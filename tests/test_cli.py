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
    p = config.build_system(config.DEFAULT_CONFIG)
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
    p = config.build_system(config.DEFAULT_CONFIG)
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


def test_cli_import_leaves_scipy_signal_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(cqedkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
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
                          "more than 1,000,000 delay bins"),
    "window_1e300_bin_1e-300": ("correlate {missing} --window=1e300 "
                                "--bin=1e-300", "more than 1,000,000"),
    "bin_1e-300": ("correlate {missing} --bin=1e-300", "more than 1,000,000"),
    "bin_0.001": ("correlate {missing} --bin=0.001",
                  "--window 84500.0 ps at --bin 0.001 ps: more than"),
    # a peak narrower than a bin: refused before the peaks are summed
    "rep_period_below_bin": ("correlate {missing} --rep-period=0.001 "
                             "--n-side=10000000",
                             "--rep-period 0.001 ps is shorter than "
                             "--bin 130.0 ps"),
    "duration_nan": ("simulate --duration=nan", "argument --duration"),
    "pulses_negative": ("simulate --pulses=-3", "argument --pulses"),
    "pulses_overflow": ("simulate --pulses=" + "9" * 401, "argument --pulses"),
    # more pulses than one run may sample: refused before any array
    "pulses_beyond_an_array": ("simulate --pulses=100000000000000000000",
                               "--pulses 100000000000000000000: duration"),
    "duration_beyond_an_array": ("simulate --duration=1e300",
                                 "--duration 1e+300: duration"),
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


@pytest.mark.parametrize("pulses", ["1", "5"])
def test_demo_paper_too_few_pulses_is_statistics_error(capsys, pulses):
    # the detuned Fig. 4 run of so few pulses has no X click
    code, out, err = run(capsys, "demo-paper", "--pulses", pulses)
    assert code == cli.EXIT_STATISTICS
    assert out == ""
    assert err.startswith(f"error: --pulses {pulses}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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
    p = config.build_system(config.DEFAULT_CONFIG)
    rng = np.random.default_rng(0)
    files = []
    for t, frac in zip(temps, np.broadcast_to(noise, len(temps))):
        pt = specfit.tuned_system(p, float(t))
        pair = coupled.eigen_energies(pt)
        mid = HC_UEV_NM / (0.5 * (pair.upper.real + pair.lower.real))
        grid = mid + np.arange(-40, 41) * 0.02
        y = coupled.model_spectrum(pt, grid).intensity
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
