import numpy as np
import pytest

from cqedkit import coupled
from cqedkit.errors import DegenerateBranchesError, WeakCouplingError
from cqedkit.units import HBAR_UEV_PS, wavelength_to_energy

GX = HBAR_UEV_PS / 700.0  # exciton linewidth for a 700 ps bare lifetime


def paper_params(detuning=0.0):
    return coupled.SystemParams(e_x=detuning, e_c=0.0, gamma_x=GX,
                                gamma_c=85.0, g=35.0)


def brute_force_eigs(p):
    m = np.array([[p.e_x - 0.5j * p.gamma_x, p.g],
                  [p.g, p.e_c - 0.5j * p.gamma_c]])
    vals = np.linalg.eigvals(m)
    return sorted(vals, key=lambda z: z.real)


def test_closed_form_matches_matrix_eigensolver():
    rng = np.random.default_rng(1)
    for _ in range(500):
        p = coupled.SystemParams(
            e_x=rng.uniform(-1e3, 1e3), e_c=rng.uniform(-1e3, 1e3),
            gamma_x=rng.uniform(1e-2, 200.0), gamma_c=rng.uniform(1e-2, 200.0),
            g=rng.uniform(0.0, 100.0))
        lo, hi = brute_force_eigs(p)
        pair = coupled.eigen_energies(p)
        scale = max(abs(hi), abs(lo))
        assert abs(pair.upper - hi) <= 1e-10 * scale
        assert abs(pair.lower - lo) <= 1e-10 * scale


def test_decoupled_limit_recovers_bare_modes():
    p = coupled.SystemParams(e_x=120.0, e_c=-40.0, gamma_x=2.0,
                             gamma_c=50.0, g=0.0)
    pair = coupled.eigen_energies(p)
    assert pair.upper == pytest.approx(120.0 - 1.0j)
    assert pair.lower == pytest.approx(-40.0 - 25.0j)


def test_resonance_splitting_and_equal_widths():
    pair = coupled.eigen_energies(paper_params())
    assert pair.upper.real - pair.lower.real == pytest.approx(55.7, abs=0.5)
    # both FWHM fixed at (gamma_c + gamma_x)/2 at resonance
    for mode in (pair.upper, pair.lower):
        assert 2 * abs(mode.imag) == pytest.approx((85.0 + GX) / 2, rel=1e-12)


def test_large_detuning_perturbative_centers():
    p = paper_params(detuning=50 * 35.0)
    pair = coupled.eigen_energies(p)
    shift = 35.0**2 / (50 * 35.0)  # second-order repulsion
    assert pair.upper.real == pytest.approx(p.e_x + shift, rel=1e-3)
    assert pair.lower.real == pytest.approx(p.e_c - shift, rel=1e-3)


def test_strong_coupling_classification():
    assert coupled.is_strongly_coupled(paper_params())
    weak = coupled.SystemParams(0.0, 0.0, 1.0, 85.0, 0.0)
    assert not coupled.is_strongly_coupled(weak)
    # exceptional point: g exactly (gamma_c - gamma_x)/4 is not SC
    boundary = coupled.SystemParams(0.0, 0.0, 1.0, 85.0, (85.0 - 1.0) / 4.0)
    assert not coupled.is_strongly_coupled(boundary)


def test_vacuum_rabi_splitting():
    assert coupled.vacuum_rabi_splitting(paper_params()) == pytest.approx(
        2 * np.sqrt(35.0**2 - (85.0 - GX) ** 2 / 16), rel=1e-14)
    sym = coupled.SystemParams(0.0, 0.0, 10.0, 10.0, 7.0)
    assert coupled.vacuum_rabi_splitting(sym) == pytest.approx(14.0, rel=1e-14)
    # evaluated at resonance even when the stored detuning is nonzero
    assert coupled.vacuum_rabi_splitting(paper_params(500.0)) == pytest.approx(
        coupled.vacuum_rabi_splitting(paper_params()), rel=1e-14)
    with pytest.raises(WeakCouplingError):
        coupled.vacuum_rabi_splitting(coupled.SystemParams(0, 0, 1.0, 85.0, 1.0))


def test_splitting_real_iff_strongly_coupled():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = coupled.SystemParams(0.0, 0.0, rng.uniform(0.1, 50),
                                 rng.uniform(0.1, 150), rng.uniform(0, 40))
        if coupled.is_strongly_coupled(p):
            assert coupled.vacuum_rabi_splitting(p) > 0
        else:
            with pytest.raises(WeakCouplingError):
                coupled.vacuum_rabi_splitting(p)


def test_coupling_strength_inversion():
    assert coupled.extract_coupling_strength(56.0, 85.0 - 1.0) == pytest.approx(
        np.sqrt(28.0**2 + 21.0**2), rel=1e-14)  # = 35 exactly
    assert coupled.extract_coupling_strength(14.0, 10.0 - 10.0) == pytest.approx(7.0)


def branch_linewidths(p):
    """FWHM of the (upper, lower) branch, 2*|Im E_k|."""
    pair = coupled.eigen_energies(p)
    return 2.0 * abs(pair.upper.imag), 2.0 * abs(pair.lower.imag)


def test_branch_linewidths_sum_rule_and_limits():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = coupled.SystemParams(rng.normal(0, 300), 0.0, rng.uniform(0.1, 30),
                                 rng.uniform(0.1, 150), rng.uniform(0, 50))
        w1, w2 = branch_linewidths(p)
        assert w1 + w2 == pytest.approx(p.gamma_c + p.gamma_x, rel=1e-10)
    w1, w2 = branch_linewidths(paper_params())
    assert w1 == pytest.approx(42.97, abs=0.01)
    assert w2 == pytest.approx(42.97, abs=0.01)
    g0 = coupled.SystemParams(100.0, 0.0, 2.0, 50.0, 0.0)
    assert branch_linewidths(g0) == pytest.approx((2.0, 50.0))


def test_exciton_linewidth_rises_toward_resonance():
    deltas = np.linspace(3000.0, 100.0, 60)
    widths = [2 * abs(HBAR_UEV_PS / (2 * coupled.exciton_branch_lifetime(
        paper_params(d)))) * 2 for d in deltas]
    # lifetime falls monotonically as detuning shrinks
    taus = [coupled.exciton_branch_lifetime(paper_params(d)) for d in deltas]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_exciton_branch_lifetime_reference():
    delta = wavelength_to_energy(936.0) - wavelength_to_energy(936.7)
    tau = coupled.exciton_branch_lifetime(paper_params(delta))
    assert 615.0 <= tau <= 635.0  # inside the measured 620 +/- 70 ps
    # decoupling limit
    far = coupled.exciton_branch_lifetime(paper_params(1e6))
    assert far == pytest.approx(700.0, rel=1e-3)
    g0 = coupled.SystemParams(50.0, 0.0, GX, 85.0, 0.0)
    assert coupled.exciton_branch_lifetime(g0) == pytest.approx(700.0, rel=1e-12)
    with pytest.raises(DegenerateBranchesError):
        coupled.exciton_branch_lifetime(paper_params(0.0))


def test_infer_bare_lifetime_roundtrip():
    delta = 993.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        gamma_x = rng.uniform(0.05, 40.0)
        tau_meas = coupled.exciton_branch_lifetime(
            coupled.SystemParams(delta, 0.0, gamma_x, 85.0, 35.0))
        tau_bare = coupled.infer_bare_lifetime(tau_meas, delta, 35.0, 85.0)
        assert tau_bare == pytest.approx(HBAR_UEV_PS / gamma_x, rel=1e-9)
    assert coupled.infer_bare_lifetime(620.0, delta, 0.0, 85.0) == 620.0


def test_figures_of_merit_reference_values():
    fom = coupled.figures_of_merit(35.0, 85.0, GX)
    assert fom.purcell == pytest.approx(61.3, abs=0.1)
    assert fom.efficiency == pytest.approx(0.973, abs=0.001)
    assert fom.strongly_coupled
    tiny = coupled.figures_of_merit(1e-9, 85.0, GX)
    assert tiny.purcell < 1e-15 and tiny.efficiency < 1e-15


def test_efficiency_monotone_in_g_and_gamma_x():
    etas_g = [coupled.figures_of_merit(g, 85.0, 1.0).efficiency
              for g in (5.0, 10.0, 20.0, 40.0)]
    assert all(a < b for a, b in zip(etas_g, etas_g[1:]))
    etas_x = [coupled.figures_of_merit(35.0, 85.0, gx).efficiency
              for gx in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(etas_x, etas_x[1:]))


def test_model_spectrum_shapes():
    lam_grid = np.linspace(930.0, 943.0, 20001)
    e_c = wavelength_to_energy(936.35)
    # g = 0: single line at the exciton energy
    p0 = coupled.SystemParams(e_c, e_c, GX, 85.0, 0.0)
    y = coupled.model_spectrum(p0, lam_grid)
    peak_lam = lam_grid[np.argmax(y)]
    assert peak_lam == pytest.approx(936.35, abs=0.01)
    assert np.trapezoid(y, lam_grid) == pytest.approx(1.0, abs=1e-6)
    # resonance: double peak with a dip below 80% of the maxima
    p = coupled.SystemParams(e_c, e_c, GX, 85.0, 35.0)
    lam_fine = np.linspace(936.0, 936.7, 4001)
    y = coupled.model_spectrum(p, lam_fine)
    mid = np.argmin(np.abs(lam_fine - 936.35))
    assert y[mid] < 0.8 * y.max()


def test_detuning_property_not_stored():
    p = coupled.SystemParams(110.0, 10.0, 1.0, 85.0, 35.0, transfer=2e-3)
    assert p.detuning == 100.0
    assert p.at_detuning(-50.0).detuning == -50.0
    assert p.at_detuning(-50.0).e_c == p.e_c
    assert p.at_detuning(-50.0).transfer == p.transfer


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        coupled.SystemParams(0.0, 0.0, -1.0, 85.0, 35.0)
    with pytest.raises(ValueError):
        coupled.SystemParams(0.0, 0.0, 1.0, 0.0, 35.0)
    with pytest.raises(ValueError):
        coupled.SystemParams(0.0, 0.0, 1.0, 85.0, -1.0)
