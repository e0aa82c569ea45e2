"""End-to-end acceptance criteria.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (echoed in the
terminal summary by conftest) and then asserts, so a red criterion is
visible both ways.  Criterion 4's bare-lifetime band is not attainable
from the stated inputs: the exact inverse of a 620 ps coupled lifetime at
993 ueV detuning (g = 35 ueV, gamma_c = 85 ueV) is a 687.2 ps bare
lifetime, outside [695, 710].  Its test is expected to stay red rather
than be loosened.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
import oracles
from cqedkit import (cli, config as cfgmod, coupled, hbt, lindblad, specfit,
                     trajectory)
from cqedkit.coupled import SystemParams
from cqedkit.lindblad import Operators
from cqedkit.trajectory import DetectorModel, PumpSchedule, simulate_stream
from cqedkit.units import HBAR_UEV_PS

GX = HBAR_UEV_PS / 700.0
REP = 13000.0
MODEL = SystemParams(e_x=0.0, e_c=0.0, g=35.0, gamma_x=GX, gamma_c=85.0)


def record(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def test_acceptance_01_closed_form_vs_eigensolver():
    rng = np.random.default_rng(0)
    n = 10_000
    e_x = rng.uniform(-1e3, 1e3, n)
    e_c = rng.uniform(-1e3, 1e3, n)
    g_x = rng.uniform(1e-2, 200.0, n)
    g_c = rng.uniform(1e-2, 200.0, n)
    g = rng.uniform(0.0, 100.0, n)
    m = np.zeros((n, 2, 2), dtype=complex)
    m[:, 0, 0] = e_x - 0.5j * g_x
    m[:, 1, 1] = e_c - 0.5j * g_c
    m[:, 0, 1] = m[:, 1, 0] = g
    t0 = time.perf_counter()
    ref = np.linalg.eigvals(m)
    worst = 0.0
    for k in range(n):
        pair = coupled.eigen_energies(coupled.SystemParams(
            e_x[k], e_c[k], g_x[k], g_c[k], g[k]))
        got = sorted((pair.lower, pair.upper), key=lambda z: z.real)
        want = sorted(ref[k], key=lambda z: z.real)
        scale = max(abs(want[0]), abs(want[1]))
        worst = max(worst, max(abs(got[0] - want[0]),
                               abs(got[1] - want[1])) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    record(1, ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_acceptance_02_strong_coupling_headline():
    p = coupled.SystemParams(0.0, 0.0, GX, 85.0, 35.0)
    vrs = coupled.vacuum_rabi_splitting(p)
    ratio = p.g / p.gamma_c
    ok = abs(vrs - 55.7) <= 0.5 and abs(ratio - 0.412) <= 0.001
    record(2, ok, f"splitting {vrs:.2f} ueV, g/gamma_c {ratio:.4f}")
    assert ok


def test_acceptance_03_figures_of_merit():
    fom = coupled.figures_of_merit(35.0, 85.0, GX)
    ok = (abs(fom.purcell - 61.3) < 0.05 and abs(fom.purcell - 61.0) <= 7.0
          and abs(fom.efficiency - 0.973) <= 0.004)
    record(3, ok, f"purcell {fom.purcell:.2f}, efficiency {fom.efficiency:.4f}")
    assert ok


def test_acceptance_04_lifetime_inversion():
    delta = 993.0
    tau = coupled.exciton_branch_lifetime(
        coupled.SystemParams(delta, 0.0, GX, 85.0, 35.0))
    bare = coupled.infer_bare_lifetime(620.0, delta, 35.0, 85.0)
    ok_tau = 615.0 <= tau <= 635.0
    ok_bare = 695.0 <= bare <= 710.0
    record(4, ok_tau and ok_bare,
           f"coupled {tau:.1f} ps, inferred bare {bare:.1f} ps; the exact "
           f"inverse of the stated inputs is {bare:.1f} ps, outside [695, 710]")
    assert ok_tau
    assert ok_bare  # known red: see the module docstring


def test_acceptance_05_lindblad_oracle_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        p = coupled.SystemParams(
            rng.uniform(-300, 300), 0.0, rng.uniform(0.5, 30),
            rng.uniform(5, 150), rng.uniform(0, 60))
        pair = coupled.eigen_energies(p)
        rates = oracles.liouvillian_decay_rates(p, n_max=1)
        for mode in (pair.upper, pair.lower):
            expect = 2 * abs(mode.imag) / HBAR_UEV_PS
            worst = max(worst, np.min(np.abs(rates - expect)) / expect)
    rhos = oracles.evolve(MODEL, oracles.exciton_excited(Operators(2)),
                          np.linspace(1.0, 100.0, 50), n_max=2)
    drift = float(np.max(np.abs(np.einsum("tii->t", rhos).real - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and drift < 1e-8 and elapsed < 10.0
    record(5, ok, f"worst rate mismatch {worst:.2e}, trace drift {drift:.2e}, "
                  f"{elapsed:.1f}s")
    assert ok


def _spectral_round_trip(seed):
    temps = np.concatenate([np.arange(6.0, 8.01, 1.0),
                            np.arange(8.5, 12.51, 0.5),
                            np.arange(13.0, 16.01, 1.0)])
    spectra = specfit.synthetic_anticrossing(
        coupled.SystemParams(0.0, 0.0, GX, 85.0, 35.0), temps,
        np.random.default_rng(seed))
    ext = specfit.extract_coupling(specfit.assemble_anticrossing(
        specfit.fit_series(spectra, noise_fraction=0.05)))
    return ext.g, ext.gamma_c


def test_acceptance_06_spectral_round_trip():
    t0 = time.perf_counter()
    results = np.array([_spectral_round_trip(seed) for seed in range(100)])
    elapsed = time.perf_counter() - t0
    g_err = abs(results[:, 0].mean() - 35.0) / 35.0
    gc_err = abs(results[:, 1].mean() - 85.0) / 85.0
    exact = coupled.extract_coupling_strength(56.0, 85.0 - 1.0)
    ok = g_err < 0.05 and gc_err < 0.05 and exact == 35.0 and elapsed < 60.0
    record(6, ok, f"g err {g_err:.1%}, gamma_c err {gc_err:.1%} over 100 "
                  f"seeds, noiseless inversion {exact}, {elapsed:.1f}s")
    assert ok


def test_acceptance_07_ideal_source_antibunching():
    t0 = time.perf_counter()
    s = simulate_stream(MODEL, PumpSchedule(rep_period=REP), DetectorModel(),
                        1e5 * REP, seed=11)
    h = hbt.correlate(s.filter(("C", "X")), window=6.5 * REP, bin_width=130.0,
                      duration=s.duration)
    est = hbt.pulsed_g2_zero(h, REP, n_side=6)
    elapsed = time.perf_counter() - t0
    ok = est.value < 0.01 and est.stderr < 0.01 and elapsed < 60.0
    record(7, ok, f"g2(0) = {est.value:.4f} +/- {est.stderr:.4f}, {elapsed:.1f}s")
    assert ok


def test_acceptance_08_poisson_mixture():
    t0 = time.perf_counter()
    mu, expect = 0.5, (0.5**2 + 2 * 0.5) / 1.5**2  # 0.5556
    rng = np.random.default_rng(8)
    n_pulses = 50_000
    signal = np.arange(n_pulses) * REP + rng.exponential(400.0, n_pulses)
    n_bg = rng.poisson(mu, n_pulses)
    bg = np.repeat(np.arange(n_pulses) * REP, n_bg) + rng.uniform(
        0.0, REP, int(n_bg.sum()))
    t = np.sort(np.concatenate([signal, bg]))
    dur = n_pulses * REP
    h = hbt.correlate(t, window=6.5 * REP, bin_width=130.0, duration=dur)
    est = hbt.pulsed_g2_zero(h, REP, n_side=6)
    oracle = oracles.per_pulse_g2(oracles.per_pulse_counts(t, REP, dur))
    elapsed = time.perf_counter() - t0
    ok = (abs(est.value - expect) <= 0.02
          and abs(est.value - oracle.value) < 3 * (est.stderr + oracle.stderr)
          and elapsed < 60.0)
    record(8, ok, f"g2(0) = {est.value:.4f} vs analytic {expect:.4f}, "
                  f"oracle {oracle.value:.4f}, {elapsed:.1f}s")
    assert ok


def test_acceptance_09_single_photon_operating_points():
    # the Fig. 4 path of demo-paper: stream, histogram, g2(0) estimator
    rep = cfgmod.REP_PERIOD_PS
    window, bin_w, n_side = 6.5 * rep, 130.0, 6
    n_pulses = 120_000
    streams = {}
    for tag, cfg in (("det", cfgmod.FIG4_DETUNED_CONFIG),
                     ("res", cfgmod.FIG4_RESONANT_CONFIG)):
        streams[tag] = cli._click_stream(cfgmod.validate_config(cfg),
                                         n_pulses)

    def g2(stream, *chans):
        h = cli._histogram([stream], chans, window, bin_w)
        return cli._g2_zero(h, chans, rep, n_side)

    rates = trajectory.channel_rates(streams["det"])
    flux_ratio = rates["C"][0] / rates["X"][0]
    rr = g2(streams["res"], "C")
    xx = g2(streams["det"], "X")
    cc = g2(streams["det"], "C")
    xc = g2(streams["det"], "X", "C")

    ordering = (xx.value + 3 * np.hypot(xx.stderr, cc.stderr) < cc.value
                and cc.value + 3 * cc.stderr < 0.5
                and xc.value + 3 * xc.stderr < 0.5
                and rr.value + 3 * rr.stderr < 0.5)
    caption = (abs(rr.value - 0.18) <= 0.08 and abs(xx.value - 0.19) <= 0.08
               and abs(cc.value - 0.39) <= 0.08 and abs(xc.value - 0.22) <= 0.08)
    calibrated = abs(flux_ratio - 3.5) <= 0.3
    ok = ordering and caption and calibrated
    record(9, ok, f"C:X {flux_ratio:.2f}; g2 rr {rr.value:.3f}, "
                  f"xx {xx.value:.3f}, cc {cc.value:.3f}, xc {xc.value:.3f}")
    assert ok


def test_acceptance_10_recapture_raises_g2():
    values = []
    for m in (0.25, 0.5, 1.0, 2.0, 3.0):
        pump = PumpSchedule(mode="resonant_pulsed", rep_period=REP,
                            reservoir_mean=m, capture_rate=0.01)
        s = simulate_stream(MODEL, pump, DetectorModel(), 20_000 * REP, seed=23)
        h = hbt.correlate(s.filter(("C", "X")), window=6.5 * REP,
                          bin_width=130.0, duration=s.duration)
        values.append(hbt.pulsed_g2_zero(h, REP, n_side=6))
    monotone = all(
        b.value - a.value > -3 * np.hypot(a.stderr, b.stderr)
        for a, b in zip(values, values[1:]))
    high = values[3].value > 0.8 and values[4].value > 0.8
    ok = monotone and high
    record(10, ok, "g2(0) sweep " + ", ".join(f"{v.value:.3f}" for v in values))
    assert ok


def test_acceptance_11_cw_dip_width_and_jitter():
    # master-equation recovery time of the resonant exciton channel
    model = replace(MODEL, pump_x=1e-4)
    tau = np.linspace(0.0, 120.0, 481)
    g2 = lindblad.cw_g2(model, tau, channel="X")
    target = g2[-1] * (1.0 - 1.0 / np.e)
    recovery = float(tau[np.argmax(g2 >= target)])

    # trajectory-space jitter washes out the dip
    pump = PumpSchedule(mode="resonant_cw", cw_pump_rate=0.05)
    vis = {}
    for jitter in (0.0, 300.0):
        s = simulate_stream(MODEL, pump, DetectorModel(jitter_sigma=jitter),
                            1e7, seed=31)
        h = hbt.correlate(s.filter(("C", "X")), window=2000.0, bin_width=10.0,
                          duration=s.duration)
        curve, _ = hbt.normalized_g2(h)
        far = np.concatenate([curve[:20], curve[-20:]]).mean()
        vis[jitter] = 1.0 - curve[len(curve) // 2] / far
    ok = 10.0 <= recovery <= 25.0 and vis[300.0] < 0.2 and vis[0.0] > 0.5
    record(11, ok, f"recovery {recovery:.1f} ps; visibility sharp "
                   f"{vis[0.0]:.2f} -> jittered {vis[300.0]:.2f}")
    assert ok


def test_acceptance_12_cli_determinism(tmp_path, capsys):
    def simulate(out_dir):
        out_dir.mkdir(exist_ok=True)
        code = cli.main(["--out-dir", str(out_dir), "simulate",
                         "--pulses", "2000"])
        capsys.readouterr()
        assert code == 0
        return (out_dir / "clicks.csv").read_bytes()

    a = simulate(tmp_path / "a")
    b = simulate(tmp_path / "b")
    ok = a == b
    record(12, ok, f"{len(a)} bytes, identical across runs")
    assert ok
