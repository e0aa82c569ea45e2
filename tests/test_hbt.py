import numpy as np
import pytest

import oracles
from cqedkit import hbt
from cqedkit.coupled import SystemParams
from cqedkit.errors import (InsufficientStatisticsError, MiscalibrationError,
                            NoSignalError)
from cqedkit.trajectory import DetectorModel, PumpSchedule, simulate_stream
from cqedkit.units import HBAR_UEV_PS

REP = 13000.0
GX = HBAR_UEV_PS / 700.0
MODEL = SystemParams(e_x=0.0, e_c=0.0, g=35.0, gamma_x=GX, gamma_c=85.0)


def brute_force_histogram(a, b, window, bin_width, auto):
    n_half = int(round(window / bin_width))
    edge = (n_half + 0.5) * bin_width
    counts = np.zeros(2 * n_half + 1, dtype=np.int64)
    for i, ta in enumerate(a):
        for j, tb in enumerate(b):
            if auto and i == j:
                continue
            d = tb - ta
            if -edge <= d < edge:
                counts[int((d + edge) / bin_width)] += 1
    return counts


def poisson_stream(rate, duration, rng):
    n = rng.poisson(rate * duration)
    return np.sort(rng.uniform(0.0, duration, n))


def single_photon_pulse_times(n_pulses, rng, bg_mean=0.0):
    """One click per pulse at an exponential delay, plus uniform background."""
    t = np.arange(n_pulses) * REP + rng.exponential(400.0, n_pulses)
    if bg_mean > 0:
        n_bg = rng.poisson(bg_mean, n_pulses)
        bg = np.concatenate([k * REP + rng.uniform(0, REP, m)
                             for k, m in enumerate(n_bg)] or [np.empty(0)])
        t = np.concatenate([t, bg])
    return np.sort(t)


def test_correlate_matches_brute_force():
    rng = np.random.default_rng(0)
    a = np.sort(rng.uniform(0, 1e4, 150))
    b = np.sort(rng.uniform(0, 1e4, 120))
    h_auto = hbt.correlate(a, window=2000.0, bin_width=130.0, duration=1e4)
    assert np.array_equal(
        h_auto.counts, brute_force_histogram(a, a, 2000.0, 130.0, auto=True))
    h_cross = hbt.correlate(a, b, window=2000.0, bin_width=130.0, duration=1e4)
    assert np.array_equal(
        h_cross.counts, brute_force_histogram(a, b, 2000.0, 130.0, auto=False))
    assert h_auto.is_auto and not h_cross.is_auto
    assert h_auto.tau[len(h_auto.tau) // 2] == 0.0


@pytest.mark.parametrize("kind", ["list", "float32", "int64"])
def test_same_object_twice_is_an_autocorrelation(kind):
    # a list or a non-float64 array is copied by the conversion; passed
    # as both streams it is still one stream, without self pairs
    t = np.sort(np.random.default_rng(4).integers(0, 20000, 300))
    times = {"list": t.astype(float).tolist(), "float32": t.astype(np.float32),
             "int64": t}[kind]
    h = hbt.correlate(times, times, window=2000.0, bin_width=130.0,
                      duration=2e4)
    ref = hbt.correlate(t.astype(float), window=2000.0, bin_width=130.0,
                        duration=2e4)
    assert h.is_auto
    assert np.array_equal(h.counts, ref.counts)


def test_autocorrelation_enters_the_kernel_once(monkeypatch):
    # a profiler that wraps kernels.pair_histogram counts the pairs of a
    # histogram from its one return value
    from cqedkit import kernels
    kernel, calls = kernels.pair_histogram, []

    def counted(*args, **kwargs):
        calls.append(kernel(*args, **kwargs))
        return calls[-1]
    monkeypatch.setattr(kernels, "pair_histogram", counted)
    t = np.sort(np.random.default_rng(5).uniform(0, 1e5, 2000))
    h = hbt.correlate(t, window=5000.0, bin_width=10.0, duration=1e5)
    assert len(calls) == 1
    assert calls[0].sum() == h.counts.sum() > 0


def test_poisson_autocorrelation_is_flat_unity():
    rng = np.random.default_rng(1)
    t = poisson_stream(2e-3, 5e6, rng)
    h = hbt.correlate(t, window=5000.0, bin_width=250.0, duration=5e6)
    g2, err = hbt.normalized_g2(h)
    assert np.all(np.abs(g2 - 1.0) < 4 * err)
    assert abs(g2.mean() - 1.0) < 0.01


def test_independent_poisson_cross_correlation_is_unity():
    rng = np.random.default_rng(2)
    a = poisson_stream(1e-3, 5e6, rng)
    b = poisson_stream(2e-3, 5e6, rng)
    h = hbt.correlate(a, b, window=5000.0, bin_width=250.0, duration=5e6)
    g2, err = hbt.normalized_g2(h)
    assert np.all(np.abs(g2 - 1.0) < 4 * err)


def test_pulsed_comb_and_missing_center_peak():
    rng = np.random.default_rng(3)
    t = single_photon_pulse_times(20000, rng)
    h = hbt.correlate(t, window=6.5 * REP, bin_width=130.0, duration=20000 * REP)
    est = hbt.pulsed_g2_zero(h, REP, n_side=6)
    # an ideal single-photon train has an empty zero-delay peak
    assert est.value == pytest.approx(0.0, abs=3 * est.stderr + 1e-3)
    # side peaks carry roughly one coincidence per pulse pair
    _, side = hbt._peak_areas(h, REP, 6)
    assert side.min() > 0.9 * 20000 * 0.9


def test_pulsed_g2_with_poisson_background_mixture():
    # signal 1 photon + Poisson(m) background per pulse:
    # g2(0) = (m^2 + 2m) / (1 + m)^2
    m = 0.8
    expect = (m * m + 2 * m) / (1 + m) ** 2
    rng = np.random.default_rng(4)
    t = single_photon_pulse_times(30000, rng, bg_mean=m)
    dur = 30000 * REP
    h = hbt.correlate(t, window=6.5 * REP, bin_width=130.0, duration=dur)
    est = hbt.pulsed_g2_zero(h, REP, n_side=6)
    assert est.value == pytest.approx(expect, abs=4 * est.stderr)
    # the per-pulse moment oracle agrees with the peak-area estimator
    counts = oracles.per_pulse_counts(t, REP, dur)
    oracle = oracles.per_pulse_g2(counts)
    assert oracle.value == pytest.approx(expect, abs=4 * oracle.stderr)
    assert abs(est.value - oracle.value) < 3 * (est.stderr + oracle.stderr)


def test_per_pulse_g2_small_cases():
    # <n(n-1)> = 1, <n> = 1  ->  g2 = 1
    assert oracles.per_pulse_g2(np.array([2, 0])).value == pytest.approx(1.0)
    assert oracles.per_pulse_g2(np.array([1, 1])).value == 0.0
    est = oracles.per_pulse_g2(np.array([1, 0]), np.array([0, 1]))
    assert est.value == 0.0
    est = oracles.per_pulse_g2(np.array([1, 2]), np.array([1, 2]))
    assert est.value == pytest.approx((1 + 4) / 2 / 1.5**2)
    with pytest.raises(InsufficientStatisticsError):
        oracles.per_pulse_g2(np.zeros(10, dtype=int))


def test_single_emitter_cross_correlation_vanishes_at_zero():
    # one photon per pulse routed to X or C: the channels never coincide
    pump = PumpSchedule(mode="resonant_pulsed", rep_period=REP)
    s = simulate_stream(MODEL, pump, DetectorModel(), 20000 * REP, seed=5)
    h = hbt.correlate(s.filter("X"), s.filter("C"), window=6.5 * REP,
                      bin_width=130.0, duration=s.duration)
    est = hbt.cross_g2_zero(h, REP, n_side=6)
    assert est.value == pytest.approx(0.0, abs=3 * est.stderr + 1e-3)
    assert est.method == "pulsed_cross_peak_area"


def test_dark_subtraction_identity_and_dark_only():
    rng = np.random.default_rng(6)
    t = poisson_stream(1e-3, 5e6, rng)
    h = hbt.correlate(t, window=3000.0, bin_width=250.0, duration=5e6)
    same = hbt.subtract_dark_counts(h, (0.0, 0.0), (1e-3, 1e-3))
    assert np.array_equal(same.counts, h.counts)
    # a dark-only stream subtracts to nearly nothing
    rate = len(t) / 5e6
    cleaned = hbt.subtract_dark_counts(h, (rate, rate), (rate, rate))
    assert cleaned.counts.sum() < 0.05 * h.counts.sum()
    with pytest.raises(MiscalibrationError):
        hbt.subtract_dark_counts(h, (5 * rate, 5 * rate),
                                 (5 * rate, 5 * rate))
    with pytest.raises(ValueError):
        hbt.subtract_dark_counts(h, (2e-3, 0.0), (1e-3, 1e-3))


def test_time_rescaling_equivariance():
    rng = np.random.default_rng(9)
    t = np.sort(rng.uniform(0, 1e5, 400))
    h1 = hbt.correlate(t, window=5000.0, bin_width=100.0, duration=1e5)
    h2 = hbt.correlate(t * 3.0, window=15000.0, bin_width=300.0, duration=3e5)
    assert np.array_equal(h1.counts, h2.counts)


def test_autocorrelation_is_even():
    rng = np.random.default_rng(10)
    t = np.sort(rng.uniform(0, 1e5, 500))
    h = hbt.correlate(t, window=4000.0, bin_width=160.0, duration=1e5)
    assert np.array_equal(h.counts, h.counts[::-1])
    assert h.counts.sum() % 2 == 0


def test_merge_histograms():
    rng = np.random.default_rng(11)
    a = np.sort(rng.uniform(0, 1e5, 300))
    b = np.sort(rng.uniform(1e5, 2e5, 300))
    ha = hbt.correlate(a, window=3000.0, bin_width=150.0, duration=1e5)
    hb = hbt.correlate(b, window=3000.0, bin_width=150.0, duration=1e5)
    merged = ha.merged_with(hb)
    assert np.array_equal(merged.counts, ha.counts + hb.counts)
    assert merged.duration == 2e5
    assert merged.n_a == 600
    other = hbt.correlate(a, window=3000.0, bin_width=100.0, duration=1e5)
    with pytest.raises(ValueError):
        ha.merged_with(other)


def test_correlate_rejects_empty_and_small_window():
    with pytest.raises(NoSignalError):
        hbt.correlate(np.empty(0), window=100.0, bin_width=130.0,
                      duration=1.0)
    rng = np.random.default_rng(12)
    t = single_photon_pulse_times(200, rng)
    h = hbt.correlate(t, window=2.0 * REP, bin_width=130.0, duration=200 * REP)
    with pytest.raises(ValueError):
        hbt.pulsed_g2_zero(h, REP, n_side=6)
