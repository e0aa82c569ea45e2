import numpy as np
import pytest

from cqedkit import units


def test_constants():
    assert units.HC_UEV_NM == 1.239842e9
    assert units.HBAR_UEV_PS == 658.2120


def test_wavelength_to_energy_reference_point():
    # hc/936.35 nm
    assert units.wavelength_to_energy(936.35) == pytest.approx(1.32412e6, rel=1e-5)


def test_detuning_07nm_near_936nm():
    delta = (units.wavelength_to_energy(936.0)
             - units.wavelength_to_energy(936.7))
    assert delta == pytest.approx(990.0, abs=2.0)


def test_q_factor():
    q = units.q_factor(units.wavelength_to_energy(936.35), 85.0)
    assert q == pytest.approx(15600, abs=100)
    assert units.q_factor(7.0, 7.0) == 1.0
    assert units.q_factor(7.0, 14.0) == pytest.approx(units.q_factor(7.0, 7.0) / 2)


def test_local_energy_per_nm_matches_finite_difference():
    lam = 936.35
    h = 1e-4
    fd = abs(units.wavelength_to_energy(lam + h)
             - units.wavelength_to_energy(lam - h)) / (2 * h)
    assert units.local_energy_per_nm(lam) == pytest.approx(fd, rel=1e-7)


def test_conversions_monotone():
    lams = np.linspace(100.0, 2000.0, 50)
    energies = [units.wavelength_to_energy(l) for l in lams]
    assert all(a > b for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("func", [
    units.wavelength_to_energy, units.local_energy_per_nm,
])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_inputs_rejected(func, bad):
    with pytest.raises(ValueError):
        func(bad)


def test_q_factor_rejects_invalid():
    with pytest.raises(ValueError):
        units.q_factor(-1.0, 85.0)
    with pytest.raises(ValueError):
        units.q_factor(1e6, 0.0)
