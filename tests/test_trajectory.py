from dataclasses import replace

import numpy as np
import pytest

import oracles
from cqedkit import config, trajectory
from cqedkit.coupled import SystemParams
from cqedkit.errors import ConfigError, DurationError
from cqedkit.lindblad import Operators
from cqedkit.trajectory import (ClickStream, DetectorModel, PumpSchedule,
                                SingleExcitationPropagator, simulate_stream)
from cqedkit.units import HBAR_UEV_PS

GX = HBAR_UEV_PS / 700.0

MODEL = SystemParams(e_x=0.0, e_c=0.0, g=35.0, gamma_x=GX, gamma_c=85.0)
PUMP = PumpSchedule(mode="resonant_pulsed", rep_period=13000.0)
IDEAL = DetectorModel()


def test_seed_determinism_bit_exact():
    a = simulate_stream(MODEL, PUMP, IDEAL, 2e6, seed=42)
    b = simulate_stream(MODEL, PUMP, IDEAL, 2e6, seed=42)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.channels, b.channels)
    c = simulate_stream(MODEL, PUMP, IDEAL, 2e6, seed=43)
    assert not np.array_equal(a.times, c.times)


def test_ideal_pulsed_stream_single_click_per_pulse():
    n_pulses = 400
    s = simulate_stream(MODEL, PUMP, IDEAL, n_pulses * PUMP.rep_period, seed=1)
    which = np.floor_divide(s.times, PUMP.rep_period).astype(int)
    counts = np.bincount(which, minlength=n_pulses)
    assert counts.max() <= 1           # one excitation, one photon
    assert counts.mean() > 0.98        # only boundary pulses can miss


def test_survival_properties():
    prop = SingleExcitationPropagator(MODEL)
    t = np.linspace(0.0, 200.0, 500)
    surv = prop.survival(t)
    assert surv[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(surv) <= 1e-12)
    assert surv[-1] < 1e-4


def _bisect_jump_times(prop, u, iters=80):
    """Reference inversion: bisection of S(t) = u on [0, t_max]."""
    lo = np.zeros(len(u))
    hi = np.full(len(u), prop.t_max)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = prop.survival(mid) > u
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


#: the resonant exceptional point: both modes share one energy and one
#: linewidth, and the mode matrix has a single eigenvector
G_EP = (MODEL.gamma_c - MODEL.gamma_x) / 4.0
JUMP_MODELS = [
    pytest.param(MODEL, id="resonant"),
    pytest.param(config.build_model(config.FIG4_DETUNED_CONFIG),
                 id="detuned-preset"),
    pytest.param(replace(MODEL, transfer=2e-3), id="transfer"),
    # deep Rabi plateaus in S: the hardest case for the table's Newton start
    pytest.param(SystemParams(e_x=0.0, e_c=0.0, g=300.0, gamma_x=GX,
                              gamma_c=5.0), id="deep-plateau"),
    pytest.param(SystemParams(e_x=0.0, e_c=0.0, g=0.0, gamma_x=GX,
                              gamma_c=85.0), id="uncoupled"),
    pytest.param(replace(MODEL, g=G_EP * (1 + 1e-9)), id="near-ep"),
    pytest.param(replace(MODEL, g=G_EP), id="at-ep"),
]


@pytest.mark.parametrize("model", JUMP_MODELS)
def test_survival_matches_the_matrix_exponential(model):
    # S(t) = |exp(-i H t / hbar) |e,0>|^2 with H the exciton-cavity matrix
    # written out here, in the cavity frame (a common energy shift is a
    # phase), its exciton line widened by the transfer rate
    from scipy.linalg import expm
    prop = SingleExcitationPropagator(model)
    gamma_x = model.gamma_x + HBAR_UEV_PS * model.transfer
    h = np.array([[model.e_x - model.e_c - 0.5j * gamma_x, model.g],
                  [model.g, -0.5j * model.gamma_c]])
    t = np.linspace(0.0, prop.t_max, 400)
    want = np.array([np.sum(np.abs(expm(-1j * h * ti / HBAR_UEV_PS)[:, 0]) ** 2)
                     for ti in t])
    got = prop.survival(t)
    # at the exceptional point eig's two eigenvectors differ by rounding
    # alone, and the closed form cancels their large coefficients
    rel = 1e-7 if model.g == G_EP else 1e-11
    seen = want >= 1e-12
    assert seen.sum() > 100
    assert np.all(np.abs(got - want)[seen] <= rel * want[seen])


@pytest.mark.parametrize("model", JUMP_MODELS)
def test_jump_times_match_bisection(model):
    prop = SingleExcitationPropagator(model)
    rng = np.random.default_rng(0)
    # more draws than one block, plus both ends of the sampled range
    u = np.concatenate([np.clip(rng.random(20000), trajectory._MIN_U, None),
                        [trajectory._MIN_U, 1.0 - 1e-16]])
    t = prop.jump_times(u)
    assert np.all((t >= 0.0) & (t <= prop.t_max))
    assert np.max(np.abs(t - _bisect_jump_times(prop, u))) <= 1e-4


@pytest.mark.parametrize("model", [
    config.build_model(config.FIG4_DETUNED_CONFIG),
    config.build_model(config.FIG4_RESONANT_CONFIG),
    replace(MODEL, transfer=2e-3),
    config.build_model(config.DEFAULT_CONFIG),
], ids=["detuned", "resonant", "transfer", "default-device"])
def test_guide_table_finds_the_searchsorted_cell(model):
    # the guide entry plus its walk is the bisection's cell, clipped as
    # the interpolation needs: on every table value and its neighbours,
    # at both ends of the sampled range and beside its top, where the
    # guide ends, beyond it up to +inf and on the sampler's own draws
    prop = SingleExcitationPropagator(model)
    table = prop._neg_log_s[:-1]
    rng = np.random.default_rng(1)
    top = -np.log(trajectory._MIN_U)
    target = np.concatenate([
        table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf),
        [0.0, top, np.nextafter(top, -np.inf), np.nextafter(top, np.inf),
         top + 1e-9, 2 * top, 1e3, np.inf],
        -np.log(np.clip(rng.random(100_000), trajectory._MIN_U, None))])
    want = np.clip(np.searchsorted(table, target, side="right") - 1,
                   0, len(table) - 2)
    assert np.array_equal(prop._table_cell(target), want)
    assert len(prop._guide) <= len(table)


def test_branching_fractions_decoupled_limits():
    pure_x = SystemParams(0.0, 0.0, g=0.0, gamma_x=GX, gamma_c=85.0)
    frac = oracles.branching_fractions(pure_x)
    assert frac["X"] == pytest.approx(1.0, abs=1e-9)
    rate_t = 2e-3
    fed = replace(pure_x, transfer=rate_t)
    frac = oracles.branching_fractions(fed)
    expect_c = rate_t / (rate_t + GX / HBAR_UEV_PS)
    assert frac["C"] == pytest.approx(expect_c, rel=1e-4)


def test_branching_fractions_match_simulated_counts():
    frac = oracles.branching_fractions(MODEL)
    n_pulses = 4000
    s = simulate_stream(MODEL, PUMP, IDEAL, n_pulses * PUMP.rep_period, seed=3)
    n_c = np.sum(s.channels == "C")
    n_x = np.sum(s.channels == "X")
    p_c = n_c / (n_c + n_x)
    sigma = np.sqrt(frac["C"] * frac["X"] / (n_c + n_x))
    assert abs(p_c - frac["C"]) < 4 * sigma


def test_average_population_matches_master_equation():
    t_grid = np.array([2.0, 6.0, 12.0, 25.0, 45.0])
    mean, se = oracles.average_excited_population(MODEL, t_grid,
                                                  n_traj=3000, seed=5)
    rhos = oracles.evolve(MODEL, oracles.exciton_excited(Operators(2)),
                          t_grid, 2)
    exact = oracles.excited_population(rhos, 2)
    assert np.all(np.abs(mean - exact) < 3 * se + 1e-4)


def test_detector_efficiency_thins_counts():
    dur = 3000 * PUMP.rep_period
    full = simulate_stream(MODEL, PUMP, IDEAL, dur, seed=7)
    half = simulate_stream(MODEL, PUMP, DetectorModel(efficiency=0.5),
                           dur, seed=7)
    ratio = len(half) / len(full)
    assert ratio == pytest.approx(0.5, abs=3 / np.sqrt(len(full)) + 0.01)


def test_detector_dead_time_enforces_gap():
    det = DetectorModel(dead_time=50.0)
    pump = PumpSchedule(mode="resonant_cw", rep_period=13000.0,
                        cw_pump_rate=5e-2)
    s = simulate_stream(MODEL, pump, det, 2e6, seed=9)
    for ch in ("C", "X"):
        t = s.filter(ch)
        if len(t) > 1:
            assert np.diff(t).min() >= 50.0


def dead_time_reference(times, dead_time):
    """The sequential rule click by click: keep a click at least dead_time
    after the last kept one."""
    keep = np.zeros(len(times), dtype=bool)
    last = -np.inf
    for i, t in enumerate(times):
        if t - last >= dead_time:
            keep[i] = True
            last = t
    return times[keep]


def test_dead_time_keeps_the_sequential_rules_clicks():
    rng = np.random.default_rng(23)
    cases = [(np.array([]), 50.0), (np.array([10.0]), 50.0),
             (np.array([5.0, 5.0, 5.0, 60.0, 60.0]), 50.0),      # ties
             (np.arange(0.0, 1000.0, 50.0), 50.0),               # gaps = dead
             (np.array([0.0, 30.0, 50.0, 80.0, 100.0]), 50.0),   # = dead to the last kept
             (np.arange(0.0, 100.0, 0.5), 50.0),                 # all close
             (np.arange(0.0, 10.0, 0.1), 0.3)]                   # inexact sums
    for _ in range(200):
        n = int(rng.integers(0, 400))
        dead = float(rng.choice([1.0, 25.0, 50.0, 400.0]))
        t = np.sort(rng.uniform(0.0, 20.0 * n, n))
        if n:  # integer times make ties and gaps exactly equal to dead
            t = np.sort(np.concatenate([t, rng.integers(0, 20 * n, n) * 25.0]))
        cases.append((t, dead))
    duration = 1e9
    for times, dead in cases:
        got = trajectory._apply_detector(times, DetectorModel(dead_time=dead),
                                         rng, duration)
        assert np.array_equal(got, dead_time_reference(np.sort(times), dead))


def test_detector_jitter_preserves_count_scale():
    dur = 2000 * PUMP.rep_period
    sharp = simulate_stream(MODEL, PUMP, IDEAL, dur, seed=11)
    blurred = simulate_stream(MODEL, PUMP, DetectorModel(jitter_sigma=300.0),
                              dur, seed=11)
    assert abs(len(blurred) - len(sharp)) <= 3  # only boundary clipping


def test_dark_counts_and_channel_rates():
    det = DetectorModel(dark_count_rate=1e-4)
    dur = 5e6
    s = simulate_stream(MODEL, PUMP, det, dur, seed=13)
    rates = trajectory.channel_rates(s)
    rate_d, err_d = rates["D"]
    assert rate_d == pytest.approx(1e-4, abs=4 * err_d)


def test_physics_and_detector_noise_are_independent_streams():
    dur = 500 * PUMP.rep_period
    clean = simulate_stream(MODEL, PUMP, IDEAL, dur, seed=17)
    noisy = simulate_stream(MODEL, PUMP,
                            DetectorModel(dark_count_rate=2e-4), dur, seed=17)
    # adding dark counts must not perturb the physical click times
    assert np.array_equal(clean.filter("C"), noisy.filter("C"))
    assert np.array_equal(clean.filter("X"), noisy.filter("X"))
    # and the dark-count times must not depend on detector efficiency
    dimmer = simulate_stream(
        MODEL, PUMP, DetectorModel(efficiency=0.3, dark_count_rate=2e-4),
        dur, seed=17)
    assert np.array_equal(noisy.filter("D"), dimmer.filter("D"))


def test_cw_mode_produces_bounded_sorted_stream():
    pump = PumpSchedule(mode="resonant_cw", cw_pump_rate=1e-3)
    s = simulate_stream(MODEL, pump, IDEAL, 1e6, seed=19)
    assert len(s) > 500
    assert np.all(np.diff(s.times) >= 0)
    assert s.times[-1] < 1e6
    # mean cycle = pump gap + emission delay, so the rate is slightly
    # below the bare pump rate
    assert 0.8e-3 < len(s) / 1e6 < 1.001e-3


def test_reservoir_recapture_gives_multi_click_pulses():
    pump = PumpSchedule(mode="resonant_pulsed", reservoir_mean=2.0,
                        capture_rate=0.01)
    n_pulses = 500
    s = simulate_stream(MODEL, pump, IDEAL, n_pulses * pump.rep_period, seed=21)
    which = np.floor_divide(s.times, pump.rep_period).astype(int)
    counts = np.bincount(which, minlength=n_pulses)
    assert counts.max() >= 2
    assert counts.mean() > 1.5  # 1 prompt + most of the mean-2 reservoir


def test_click_stream_filter_and_ordering():
    s = ClickStream(times=np.array([1.0, 2.0, 2.0, 5.0]),
                    channels=np.array(["C", "X", "C", "D"]),
                    duration=10.0, seed=0)
    assert np.array_equal(s.filter("C"), [1.0, 2.0])
    assert np.array_equal(s.filter(("C", "X")), [1.0, 2.0, 2.0])
    assert np.array_equal(s.filter(["D", "C"]), [1.0, 2.0, 5.0])
    assert len(s.filter(())) == 0
    with pytest.raises(ValueError):
        ClickStream(times=np.array([2.0, 1.0]),
                    channels=np.array(["C", "C"]), duration=10.0, seed=0)


@pytest.mark.parametrize("channels, ok", [
    (["C", "X", "D"], True),
    (np.array(["C", "X", "D"], dtype=object), True),
    (np.array(["C", "X", "D"], dtype="<U3"), True),
    (["C", "XX", "D"], False),
    (["C", "", "D"], False),
    (np.array(["C", "", "D"]), False),
], ids=["list", "object", "wide", "two_characters", "empty", "empty_u1"])
def test_click_stream_channels_are_one_character_each(channels, ok):
    times = np.array([1.0, 2.0, 3.0])
    if not ok:
        with pytest.raises(ValueError, match="one character"):
            ClickStream(times=times, channels=channels, duration=10.0, seed=0)
        return
    s = ClickStream(times=times, channels=channels, duration=10.0, seed=0)
    assert s.channels.dtype == np.dtype("<U1")
    assert np.array_equal(s.filter("X"), [2.0])


def test_config_errors():
    with pytest.raises(ConfigError):
        PumpSchedule(mode="sideways")
    with pytest.raises(ConfigError):
        PumpSchedule(excitation_prob=1.5)
    with pytest.raises(ConfigError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ConfigError):
        simulate_stream(MODEL, PUMP, IDEAL, -1.0, seed=0)
    with pytest.raises(ConfigError):
        # pulse period must greatly exceed the emission lifetime
        simulate_stream(MODEL, PumpSchedule(rep_period=30.0), IDEAL,
                        1e5, seed=0)


@pytest.mark.parametrize("pump", [
    pytest.param(PUMP, id="pulsed"),
    pytest.param(PumpSchedule(mode="resonant_cw", cw_pump_rate=1e-3), id="cw"),
])
def test_more_events_than_an_array_is_a_duration_error(pump):
    # the sampler refuses these before any array, with a ConfigError; the
    # last is one pulse above the bound, or 1.3e9 CW excitations at 1/ns
    for duration in (1e300, 2.0**64 * pump.rep_period,
                     (trajectory._MAX_EVENTS + 1) * pump.rep_period):
        with pytest.raises(DurationError, match="one run may sample"):
            simulate_stream(MODEL, pump, IDEAL, duration, seed=0)
    assert issubclass(DurationError, ConfigError)
