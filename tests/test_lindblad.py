import numpy as np
import pytest

import oracles
from cqedkit import coupled, hbt, lindblad
from cqedkit.coupled import SystemParams
from cqedkit.errors import CutoffError
from cqedkit.lindblad import Operators
from cqedkit.trajectory import DetectorModel, PumpSchedule, simulate_stream
from cqedkit.units import HBAR_UEV_PS

GX = HBAR_UEV_PS / 700.0

PAPER = SystemParams(e_x=0.0, e_c=0.0, g=35.0, gamma_x=GX, gamma_c=85.0)


def cw(rate, feed=0.0):
    return PumpSchedule(mode="resonant_cw", cw_pump_rate=rate,
                        background_feed_rate=feed)


def test_trace_preserved_and_hermitian():
    ops = Operators(2)
    t_grid = np.linspace(1.0, 120.0, 40)
    rhos = oracles.evolve(PAPER, oracles.exciton_excited(ops), t_grid, n_max=2)
    traces = np.einsum("tii->t", rhos).real
    assert np.allclose(traces, 1.0, atol=1e-10)
    for rho in rhos:
        assert np.allclose(rho, rho.conj().T, atol=1e-12)


def test_decoupled_exciton_decays_exponentially():
    model = SystemParams(0.0, 0.0, g=0.0, gamma_x=GX, gamma_c=85.0)
    ops = Operators(1)
    t_grid = np.linspace(10.0, 2000.0, 30)
    rhos = oracles.evolve(model, oracles.exciton_excited(ops), t_grid, n_max=1)
    pop = oracles.excited_population(rhos, 1)
    assert np.allclose(pop, np.exp(-GX / HBAR_UEV_PS * t_grid), rtol=1e-8)


def test_lossless_rabi_period():
    # near-lossless: full population return after pi*hbar/g
    model = SystemParams(0.0, 0.0, g=35.0, gamma_x=1e-6, gamma_c=1e-6)
    period = np.pi * HBAR_UEV_PS / 35.0
    ops = Operators(2)
    t_grid = np.array([period / 2, period])
    rhos = oracles.evolve(model, oracles.exciton_excited(ops), t_grid, n_max=2)
    pop = oracles.excited_population(rhos, 2)
    assert pop[0] == pytest.approx(0.0, abs=1e-4)   # fully in the cavity
    assert pop[1] == pytest.approx(1.0, abs=1e-4)   # and back


def test_resonant_envelope_lifetime():
    # oscillation envelope decays with tau = 2*hbar/(gamma_c + gamma_x);
    # sampling one oscillation period apart cancels the periodic factor
    tau_env = 2 * HBAR_UEV_PS / (85.0 + GX)
    pair = coupled.eigen_energies(PAPER)
    period = 2 * np.pi * HBAR_UEV_PS / (pair.upper.real - pair.lower.real)
    ops = Operators(2)
    t_grid = np.array([period, 2 * period])
    rhos = oracles.evolve(PAPER, oracles.exciton_excited(ops), t_grid, n_max=2)
    total = oracles.excited_population(rhos, 2) + np.einsum(
        "tij,ji->t", rhos, ops.num_c).real
    tau_fit = -period / np.log(total[1] / total[0])
    assert tau_fit == pytest.approx(tau_env, rel=1e-6)
    assert tau_env == pytest.approx(15.3, abs=0.2)


def test_liouvillian_rates_match_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = coupled.SystemParams(
            e_x=rng.uniform(-200, 200), e_c=0.0,
            gamma_x=rng.uniform(0.5, 30), gamma_c=rng.uniform(5, 150),
            g=rng.uniform(0, 60))
        pair = coupled.eigen_energies(p)
        rates = oracles.liouvillian_decay_rates(p, n_max=1)
        for mode in (pair.upper, pair.lower):
            expect = 2 * abs(mode.imag) / HBAR_UEV_PS
            assert np.min(np.abs(rates - expect)) < 1e-6 * max(expect, 1e-3)


def test_cutoff_convergence():
    t_grid = np.linspace(1.0, 60.0, 20)
    rho0_2 = oracles.exciton_excited(Operators(2))
    rho0_4 = oracles.exciton_excited(Operators(4))
    p2 = oracles.excited_population(oracles.evolve(PAPER, rho0_2, t_grid, 2), 2)
    p4 = oracles.excited_population(oracles.evolve(PAPER, rho0_4, t_grid, 4), 4)
    assert np.max(np.abs(p2 - p4)) < 1e-6


def test_cutoff_overflow_detected():
    with pytest.raises(CutoffError, match="population 7.93e-01"):
        lindblad.cw_g2(PAPER, cw(1e-4, feed=0.5), np.array([0.0]), n_max=1)


def test_cw_g2_two_level_channel_antibunched():
    tau = np.array([0.0, 5.0, 2e4])
    g2x = lindblad.cw_g2(PAPER, cw(1e-4), tau, channel="X", n_max=2)
    # a two-level emitter cannot hold two excitations: exact zero at tau=0
    assert g2x[0] == pytest.approx(0.0, abs=1e-10)
    assert g2x[-1] == pytest.approx(1.0, abs=1e-3)
    g2c = lindblad.cw_g2(PAPER, cw(1e-4), tau, channel="C", n_max=2)
    assert g2c[0] < 0.5          # suppressed two-photon cavity output
    assert g2c[-1] == pytest.approx(1.0, abs=1e-3)


def test_cw_g2_poisson_feed_bunching():
    # incoherent cavity feeding builds a thermal photon state: g2(0) = 2
    model = SystemParams(0.0, 0.0, g=0.0, gamma_x=GX, gamma_c=85.0)
    g2 = lindblad.cw_g2(model, cw(1e-9, feed=1e-4), np.array([0.0]),
                        channel="C", n_max=3)
    assert g2[0] == pytest.approx(2.0, abs=0.02)


def test_invalid_model_rejected():
    with pytest.raises(ValueError):
        SystemParams(0.0, 0.0, g=35.0, gamma_x=-1.0, gamma_c=85.0)
    with pytest.raises(ValueError):
        SystemParams(0.0, 0.0, g=35.0, gamma_x=GX, gamma_c=85.0, transfer=-1e-3)
    with pytest.raises(ValueError, match="resonant_cw"):
        lindblad.cw_g2(PAPER, PumpSchedule(), np.array([0.0]))  # pulsed


@pytest.mark.parametrize("tau", [
    pytest.param([-10.0], id="negative"),
    pytest.param([0.0, -1e4], id="far_negative"),
    pytest.param([float("nan")], id="nan"),
    pytest.param([float("inf")], id="inf"),
    pytest.param([[0.0, 10.0]], id="two_dimensional"),
    pytest.param(0.0, id="scalar"),
])
def test_cw_g2_refuses_delays_outside_its_domain(tau):
    with pytest.raises(ValueError, match="tau_grid"):
        lindblad.cw_g2(PAPER, cw(1e-4), tau, channel="X")


@pytest.mark.parametrize("n_max", [-1, 1.5, np.float64(2.0), "2"])
def test_cw_g2_refuses_a_cutoff_that_is_not_a_count(n_max):
    with pytest.raises(ValueError, match="n_max"):
        lindblad.cw_g2(PAPER, cw(1e-4), [0.0], n_max=n_max)


def test_cw_g2_cutoff_zero_is_a_cutoff_error():
    with pytest.raises(CutoffError, match="n_max=0"):
        lindblad.cw_g2(PAPER, cw(1e-4), [0.0], n_max=0)
    g2 = lindblad.cw_g2(PAPER, cw(1e-4), [0.0], channel="X", n_max=np.int64(2))
    assert g2[0] == pytest.approx(0.0, abs=1e-10)


def test_cw_stream_and_master_equation_on_one_pump():
    # The same pump drives both CW models.  Far from zero delay they agree;
    # on the cavity channel at zero delay they do not: the stream's system
    # lives in the single-excitation manifold, so it cannot be pumped while
    # a photon is still in the cavity, and its g2_C(0) is 0 by
    # construction, where the master equation's |g,1> -> |e,1> gives two
    # photons.  A trajectory model with two excitations would close the gap.
    pump = cw(1e-2)
    s = simulate_stream(PAPER, pump, DetectorModel(), 4e6, seed=3)
    h = hbt.correlate(s.filter("C"), window=120.0, bin_width=4.0,
                      duration=s.duration)
    stream, err = hbt.normalized_g2(h)
    master = lindblad.cw_g2(PAPER, pump, np.abs(h.tau), channel="C", n_max=4)
    far = np.flatnonzero(np.abs(h.tau) == 100.0)
    assert np.all(np.abs(stream[far] - master[far]) < 3 * err[far])
    zero = np.flatnonzero(h.tau == 0.0)[0]
    assert stream[zero] == 0.0
    assert master[zero] == pytest.approx(0.306, abs=0.005)
