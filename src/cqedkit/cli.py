"""Command-line front end.

Subcommands: eigen (mode energies and figures of merit), sweep
(temperature anticrossing CSV), simulate (click-stream generation),
correlate (histograms and g2 estimates), fit (spectral fitting and
coupling extraction), demo-paper (end-to-end reproduction of the
headline numbers).

Exit codes: 0 success, 2 configuration or flag error or unreadable file, 3
numerical non-convergence, 4 insufficient statistics or a dark
subtraction that contradicts the counts.
"""
import argparse
import functools
import os
import sys

import numpy as np

from . import clickio, config as cfgmod, coupled, hbt, lindblad, specfit, trajectory
from .errors import (ConfigError, ConvergenceError, CqedError,
                     DegenerateBranchesError, DurationError,
                     InsufficientStatisticsError,
                     MiscalibrationError, PeakWindowError, WeakCouplingError)
from .kernels import MAX_HIST_BINS
from .units import HC_UEV_NM, q_factor, wavelength_to_energy

EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_STATISTICS = 4
#: exit code of each error class main() reports; the first class in an
#: error's MRO that is listed here decides
EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,  # e.g. a missing input file
    WeakCouplingError: EXIT_CONFIG,
    DegenerateBranchesError: EXIT_CONFIG,
    ConvergenceError: EXIT_CONVERGENCE,
    InsufficientStatisticsError: EXIT_STATISTICS,
    MiscalibrationError: EXIT_STATISTICS,
}

#: HBT analysis defaults of the paper's pulsed g2(0) (Fig. 4): 130 ps
#: bins, a +/-6.5-period window and six side peaks per side
BIN_WIDTH_PS = 130.0
WINDOW_PS = 6.5 * cfgmod.REP_PERIOD_PS
N_SIDE = 6
#: the most temperatures one sweep computes: ten times a 1 mK step over
#: the calibrated 6-40 K range
MAX_SWEEP_TEMPS = 100_000


def _load_config(args) -> dict:
    if args.config:
        cfg = cfgmod.load_config(args.config)
    else:
        cfg = cfgmod.PRESETS[args.preset]
    if args.seed is not None:
        cfg = dict(cfg, seed=args.seed)
    return cfgmod.validate_config(cfg)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_eigen(args) -> int:
    cfg = _load_config(args)
    p = cfgmod.build_model(cfg)
    pair = coupled.eigen_energies(p)
    fom = coupled.figures_of_merit(p.g, p.gamma_c, p.gamma_x)
    fields = {
        "config_hash": cfgmod.config_hash(cfg),
        "e_upper_ueV": pair.upper.real,
        "e_lower_ueV": pair.lower.real,
        "fwhm_upper_ueV": 2 * abs(pair.upper.imag),
        "fwhm_lower_ueV": 2 * abs(pair.lower.imag),
        "strong_coupling": fom.strongly_coupled,
    }
    if fom.strongly_coupled:
        fields["splitting_ueV"] = fom.rabi_splitting
    fields.update(purcell_factor=fom.purcell,
                  quantum_efficiency=fom.efficiency,
                  g_over_gamma_c=p.g / p.gamma_c,
                  cavity_q=q_factor(p.e_c, p.gamma_c))
    sys.stdout.write(clickio.format_report("eigen", fields))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    p = cfgmod.build_model(cfg)
    t_lo, t_hi = specfit.T_MIN_K, specfit.T_MAX_K
    if not t_lo <= args.t_min <= args.t_max <= t_hi:
        raise ConfigError(
            f"--t-min {args.t_min} and --t-max {args.t_max} must satisfy "
            f"{t_lo} <= t_min <= t_max <= {t_hi} K")
    if not t_lo <= args.resonance_temp <= t_hi:
        raise ConfigError(f"--resonance-temp {args.resonance_temp} K is "
                          f"outside the calibrated {t_lo}-{t_hi} K")
    if (args.t_max - args.t_min) / args.t_step >= MAX_SWEEP_TEMPS:
        raise ConfigError(f"--t-step {args.t_step}: more than "
                          f"{MAX_SWEEP_TEMPS:,} temperatures from {args.t_min} "
                          f"to {args.t_max} K")
    temps = np.arange(args.t_min, args.t_max + 1e-9, args.t_step)
    rows = []
    for t in temps:
        pair = coupled.eigen_energies(
            specfit.tuned_system(p, float(t), args.resonance_temp))
        hi, lo = pair.upper, pair.lower
        rows.append((float(t), float(HC_UEV_NM / hi.real),
                     float(HC_UEV_NM / lo.real),
                     float(2 * abs(hi.imag)), float(2 * abs(lo.imag))))
    path = _out_path(args, "anticrossing.csv")
    with open(path, "w") as fh:
        fh.write(f"# confighash={cfgmod.config_hash(cfg)}\n")
        fh.write("T_K,lambda_upper_nm,lambda_lower_nm,"
                 "fwhm_upper_ueV,fwhm_lower_ueV\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    print(path)
    return 0


def _click_stream(cfg: dict, pulses=None, duration=None):
    """A checked config's click stream over `pulses` pulses or `duration`
    ps; a run longer than one may sample is a ConfigError naming the flag."""
    model = cfgmod.build_model(cfg)
    pump = cfgmod.build_pump(cfg)
    det = cfgmod.build_detectors(cfg)
    if pulses is None and duration is None:
        raise ConfigError("give --duration or --pulses")
    try:
        return trajectory.simulate_stream(
            model, pump, det, pulses * pump.rep_period if pulses else duration,
            cfg.get("seed", 0), config_hash=cfgmod.config_hash(cfg))
    except DurationError as exc:
        if pulses:
            raise ConfigError(f"--pulses {pulses}: {exc} (pump.rep_period "
                              f"{pump.rep_period!r} ps)") from None
        raise ConfigError(f"--duration {duration!r}: {exc}") from None


def cmd_simulate(args) -> int:
    stream = _click_stream(_load_config(args), args.pulses, args.duration)
    path = _out_path(args, args.name)
    clickio.write_click_stream(path, stream)
    print(path)
    return 0


def _histogram(streams, channels, window, bin_width):
    """Auto- (one channel) or cross-correlation (two), summed over streams."""
    hist = None
    for stream in streams:
        times_a = stream.filter(channels[0])
        times_b = stream.filter(channels[1]) if len(channels) == 2 else None
        h = hbt.correlate(times_a, times_b, window=window,
                          bin_width=bin_width, duration=stream.duration)
        hist = h if hist is None else hist.merged_with(h)
    return hist


def _g2_zero(hist, channels, rep_period, n_side):
    """Pulsed g2(0) of an auto- (one channel) or cross-histogram (two)."""
    estimate = hbt.cross_g2_zero if len(channels) == 2 else hbt.pulsed_g2_zero
    return estimate(hist, rep_period, n_side=n_side)


def cmd_correlate(args) -> int:
    if args.bin > args.window:
        raise ConfigError(f"--bin {args.bin} ps is wider than "
                          f"--window {args.window} ps")
    # 2 round(window / bin) + 1 bins; a quotient beyond the float range
    # is inf
    if 2.0 * args.window / args.bin >= MAX_HIST_BINS:
        raise ConfigError(f"--window {args.window} ps at --bin {args.bin} ps: "
                          f"2 window / bin must be below {MAX_HIST_BINS:,} "
                          f"(at most {MAX_HIST_BINS + 1:,} delay bins)")
    if args.rep_period < args.bin:
        # a peak narrower than a bin has no bins of its own
        raise ConfigError(f"--rep-period {args.rep_period} ps is shorter "
                          f"than --bin {args.bin} ps")
    channels = args.channels.split(",")
    if len(channels) not in (1, 2):
        raise ConfigError("--channels takes one or two channel names")
    if not set(channels) <= set(clickio.CLICK_CHANNELS):
        raise ConfigError(f"--channels {args.channels!r}: each name must be "
                          f"one of {', '.join(clickio.CLICK_CHANNELS)}")
    if len(channels) == 2 and channels[0] == channels[1]:
        # a cross-correlation of a stream with itself counts its self pairs
        raise ConfigError(f"--channels {args.channels!r} names one channel "
                          f"twice; use --channels {channels[0]} for its "
                          f"autocorrelation")
    streams = [clickio.read_click_stream(f) for f in args.files]

    hist = _histogram(streams, channels, args.window, args.bin)

    if args.dark_subtract:
        dur = sum(s.duration for s in streams)
        n_d = sum(np.sum(s.channels == "D") for s in streams)
        # darks fall on both detectors; per-channel rates include them
        d_rate = n_d / dur / 2.0
        hist = hbt.subtract_dark_counts(
            hist, (d_rate, d_rate),
            (hist.n_a / dur + d_rate, hist.n_b / dur + d_rate))

    # estimate first, so that a failed estimate leaves no histogram behind
    try:
        est = _g2_zero(hist, channels, args.rep_period, args.n_side)
    except PeakWindowError as exc:
        # whole bins can cut the window short of the one asked for
        binned = (f"--window {args.window} ps at --bin {args.bin} ps bins "
                  f"to {hist.window} ps: " if hist.window != args.window
                  else "")
        raise ConfigError(f"{binned}{exc}; widen --window or lower --n-side "
                          f"or --rep-period") from None
    path = _out_path(args, "histogram.csv")
    clickio.write_histogram(path, hist)
    sys.stdout.write(clickio.format_report("g2", {
        "config_hash": streams[0].config_hash,
        "channels": args.channels,
        "value": est.value,
        "stderr": est.stderr,
        "method": est.method,
        "histogram": path,
    }))
    return 0


def cmd_fit(args) -> int:
    pairs = [(clickio.read_spectrum(f), f) for f in args.files]
    tagged = all(s.temperature is not None for s, _ in pairs)
    if tagged:
        pairs.sort(key=lambda sf: sf[0].temperature)
        for (s1, f1), (s2, f2) in zip(pairs, pairs[1:]):
            if s1.temperature == s2.temperature:
                raise ConfigError(f"{f1} and {f2} are both tagged "
                                  f"{s1.temperature} K")
    try:
        if tagged:
            series = specfit.fit_series([s for s, _ in pairs],
                                        noise_fraction=args.noise_fraction)
        else:
            series = [(float(i), specfit.fit_double_lorentzian(
                          s, sigma=specfit.noise_sigma(s, args.noise_fraction)))
                      for i, (s, _) in enumerate(pairs)]
    except ConfigError as exc:  # a fit's only config is the noise fraction
        raise ConfigError(f"--noise-fraction {args.noise_fraction!r}: "
                          f"{exc}") from None
    ext = None
    if tagged and len(series) >= 5:  # before any output: an error writes none
        ext = specfit.extract_coupling(specfit.assemble_anticrossing(series))
    for (tag, fit), (_, fname) in zip(series, pairs):
        p1, p2 = fit.peaks
        sys.stdout.write(clickio.format_report("fit", {
            "file": fname,
            "center_1_nm": p1.center, "fwhm_1_nm": p1.fwhm, "area_1": p1.area,
            "center_2_nm": p2.center, "fwhm_2_nm": p2.fwhm, "area_2": p2.area,
            "baseline": fit.baseline,
            "reduced_chi2": fit.reduced_chi2,
            "converged": fit.converged,
        }))
    if ext is not None:
        sys.stdout.write(clickio.format_report("coupling", {
            "gamma_c_ueV": ext.gamma_c,
            "gamma_x_ueV": ext.gamma_x,
            "splitting_ueV": ext.splitting,
            "g_ueV": ext.g,
            "g_err_ueV": ext.g_err,
            "resonance_temperature_K": ext.resonance_temperature,
            "splitting_resolvable": ext.resolvable,
        }))
    return 0


def cmd_demo_paper(args) -> int:
    rows = []  # (name, computed, target midpoint, tolerance)

    def check(name, value, target, tol):
        rows.append((name, value, target, tol))

    cfg = cfgmod.validate_config(cfgmod.DEFAULT_CONFIG)
    p = cfgmod.build_model(cfg)
    check("vacuum Rabi splitting (ueV)",
          coupled.vacuum_rabi_splitting(p), 56.0, 1.0)
    check("g / gamma_c", p.g / p.gamma_c, 0.412, 0.003)
    fom = coupled.figures_of_merit(p.g, p.gamma_c, p.gamma_x)
    check("Purcell factor", fom.purcell, 61.0, 7.0)
    check("quantum efficiency", fom.efficiency, 0.973, 0.004)

    delta = wavelength_to_energy(936.0) - wavelength_to_energy(936.7)
    check("coupled lifetime at 0.7 nm detuning (ps)",
          coupled.exciton_branch_lifetime(p.at_detuning(delta)), 620.0, 70.0)
    check("inferred bare lifetime (ps)",
          coupled.infer_bare_lifetime(620.0, delta, p.g, p.gamma_c),
          702.5, 7.5)

    temps = np.concatenate([np.arange(6, 8.6, 0.5),
                            np.arange(9, 12.01, 0.25),
                            np.arange(12.5, 16.01, 0.5)])
    spectra = specfit.synthetic_anticrossing(
        p, temps, np.random.default_rng(cfg["seed"]))
    ext = specfit.extract_coupling(specfit.assemble_anticrossing(
        specfit.fit_series(spectra, noise_fraction=0.05)))
    check("fitted coupling g (ueV)", ext.g, 35.0, 0.05 * 35.0)
    check("fitted cavity linewidth (ueV)", ext.gamma_c, 85.0, 0.05 * 85.0)
    check("resonance temperature (K)", ext.resonance_temperature, 10.5, 0.5)

    def g2(stream, *channels):
        try:
            h = _histogram([stream], channels, WINDOW_PS, BIN_WIDTH_PS)
            return _g2_zero(h, channels, cfgmod.REP_PERIOD_PS, N_SIDE).value
        except InsufficientStatisticsError as exc:
            # a short run can leave a channel or every side peak empty
            names = ",".join(channels)
            raise InsufficientStatisticsError(
                f"--pulses {args.pulses}: g2 of {names}: {exc}") from None

    det_stream, res_stream = (
        _click_stream(cfgmod.validate_config(c), args.pulses)
        for c in (cfgmod.FIG4_DETUNED_CONFIG, cfgmod.FIG4_RESONANT_CONFIG))
    if not np.isin(["C", "X"], det_stream.channels).all():
        raise InsufficientStatisticsError(
            f"--pulses {args.pulses}: the detuned run has no C or no X click")
    rates = trajectory.channel_rates(det_stream)
    check("cavity:exciton flux ratio (detuned)",
          rates["C"][0] / rates["X"][0], 3.5, 0.3)
    check("g2(0) resonant, cavity channel", g2(res_stream, "C"), 0.18, 0.08)
    check("g2(0) detuned, exciton channel", g2(det_stream, "X"), 0.19, 0.08)
    check("g2(0) detuned, cavity channel", g2(det_stream, "C"), 0.39, 0.08)
    check("g2(0) detuned, cross X-C", g2(det_stream, "X", "C"), 0.22, 0.08)

    tau = np.linspace(0.0, 120.0, 241)
    cw = lindblad.cw_g2(p, trajectory.PumpSchedule(
        mode="resonant_cw", cw_pump_rate=1e-4), tau, channel="X")
    target = cw[-1] * (1.0 - 1.0 / np.e)
    recovery = float(tau[np.argmax(cw >= target)])
    check("cw g2 recovery time (ps)", recovery, 17.5, 7.5)

    width = max(len(r[0]) for r in rows)
    print(f"{'quantity':<{width}}  {'computed':>10}  {'target':>14}  result")
    failures = 0
    for name, value, target, tol in rows:
        ok = abs(value - target) <= tol
        failures += not ok
        print(f"{name:<{width}}  {value:>10.4g}  "
              f"{f'{target:g} +/- {tol:g}':>14}  {'pass' if ok else 'FAIL'}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else 1


def _number(kind=float, allow_zero=False):
    """argparse type of a finite `kind` > 0 (>= 0 with allow_zero); a bad
    value makes argparse exit 2 naming the flag."""
    def parse(text):
        value = kind(text)
        above = value >= 0 if allow_zero else value > 0  # False for NaN
        # ints compare exactly, so one beyond the float range fails too
        if not (above and value <= sys.float_info.max):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {'>=' if allow_zero else '>'} 0, "
                f"got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid float value: ..."
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each parse_args call
    starts from a fresh namespace, so no call's flags reach the next."""
    ap = argparse.ArgumentParser(
        prog="cqedkit",
        description="Coupled quantum dot-cavity simulation and analysis")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    ap.add_argument("--out-dir", default=".", help="directory for output files")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_config(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--preset", choices=sorted(cfgmod.PRESETS),
                        default="default")

    sp = sub.add_parser("eigen", help="mode energies and figures of merit")
    with_config(sp)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("sweep", help="temperature anticrossing CSV")
    with_config(sp)
    sp.add_argument("--t-min", type=float, default=6.0)
    sp.add_argument("--t-max", type=float, default=16.0)
    sp.add_argument("--t-step", type=_number(), default=0.25)
    sp.add_argument("--resonance-temp", type=_number(), default=10.5)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("simulate", help="generate a click stream")
    with_config(sp)
    run = sp.add_mutually_exclusive_group()
    run.add_argument("--duration", type=_number(), default=None,
                     help="acquisition time in ps")
    run.add_argument("--pulses", type=_number(int), default=None,
                     help="number of excitation pulses (alternative to --duration)")
    sp.add_argument("--name", default="clicks.csv")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("correlate", help="correlation histogram and g2")
    sp.add_argument("files", nargs="+", help="click stream files")
    sp.add_argument("--channels", default="C",
                    help="one channel (auto) or two comma-separated (cross)")
    sp.add_argument("--bin", type=_number(), default=BIN_WIDTH_PS,
                    help="bin width, ps")
    sp.add_argument("--window", type=_number(), default=WINDOW_PS,
                    help="correlation window, ps")
    sp.add_argument("--rep-period", type=_number(),
                    default=cfgmod.REP_PERIOD_PS)
    sp.add_argument("--n-side", type=_number(int), default=N_SIDE)
    sp.add_argument("--dark-subtract", action="store_true")
    sp.set_defaults(func=cmd_correlate)

    sp = sub.add_parser("fit", help="fit spectra, extract coupling")
    sp.add_argument("files", nargs="+", help="spectrum CSV files")
    sp.add_argument("--noise-fraction", type=_number(allow_zero=True),
                    default=0.0,
                    help="relative intensity noise for weighting")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("demo-paper",
                        help="reproduce the headline numbers end to end")
    sp.add_argument("--pulses", type=_number(int), default=60000,
                    help="pulses per simulated correlation run")
    sp.set_defaults(func=cmd_demo_paper)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CqedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
