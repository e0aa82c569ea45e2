"""Two-mode coupled-oscillator model of the exciton-cavity system.

The non-Hermitian mode matrix is

    M = [[E_x - i*gamma_x/2,  g],
        [g,                  E_c - i*gamma_c/2]]

whose eigenvalues are the complex mode energies

    E_{1,2} = (E_c+E_x)/2 - i(gamma_c+gamma_x)/4
              +/- sqrt(g^2 - (gamma_c - gamma_x - 2i*Delta)^2 / 16)

with Delta = E_x - E_c.  Decaying modes carry negative imaginary part and
the FWHM of branch k is 2*|Im E_k|.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchesError, WeakCouplingError
from .units import HBAR_UEV_PS


@dataclass(frozen=True)
class SystemParams:
    """Exciton/cavity centers, FWHM linewidths and coupling, all in ueV."""

    e_x: float
    e_c: float
    gamma_x: float
    gamma_c: float
    g: float

    def __post_init__(self):
        if not (self.gamma_x > 0 and self.gamma_c > 0):
            raise ValueError("linewidths gamma_x, gamma_c must be > 0")
        if self.g < 0:
            raise ValueError("coupling g must be >= 0")

    @property
    def detuning(self) -> float:
        """Delta = E_x - E_c in ueV."""
        return self.e_x - self.e_c

    def at_detuning(self, delta: float) -> "SystemParams":
        """Same system with the exciton moved to E_c + delta."""
        return SystemParams(self.e_c + delta, self.e_c,
                            self.gamma_x, self.gamma_c, self.g)


@dataclass(frozen=True)
class EigenPair:
    """Complex mode energies, ordered by real part (upper first)."""

    upper: complex
    lower: complex


@dataclass(frozen=True)
class FiguresOfMerit:
    purcell: float
    efficiency: float
    rabi_splitting: float | None
    strongly_coupled: bool


def mode_matrix(p: SystemParams) -> np.ndarray:
    """The 2x2 non-Hermitian mode matrix, exciton first."""
    return np.array(
        [[p.e_x - 0.5j * p.gamma_x, p.g],
         [p.g, p.e_c - 0.5j * p.gamma_c]],
        dtype=complex,
    )


def _eigenvalues(p: SystemParams) -> tuple[complex, complex]:
    avg = 0.5 * (p.e_c + p.e_x) - 0.25j * (p.gamma_c + p.gamma_x)
    rad = np.sqrt(complex(p.g**2) - (p.gamma_c - p.gamma_x - 2j * p.detuning) ** 2 / 16.0)
    return avg + rad, avg - rad


def eigen_energies(p: SystemParams) -> EigenPair:
    """Complex mode energies, upper = larger Re."""
    e1, e2 = _eigenvalues(p)
    if e1.real < e2.real:
        e1, e2 = e2, e1
    return EigenPair(e1, e2)


def is_strongly_coupled(p: SystemParams) -> bool:
    """Strict strong-coupling inequality g^2 > (gamma_c - gamma_x)^2 / 16."""
    return p.g**2 > (p.gamma_c - p.gamma_x) ** 2 / 16.0


def vacuum_rabi_splitting(p: SystemParams) -> float:
    """Mode splitting at resonance, 2*sqrt(g^2 - (gamma_c-gamma_x)^2/16).

    Evaluated at Delta = 0 regardless of the stored centers.  Raises
    WeakCouplingError when the radicand is not positive.
    """
    rad = p.g**2 - (p.gamma_c - p.gamma_x) ** 2 / 16.0
    if rad <= 0:
        raise WeakCouplingError("no real splitting: system is not strongly coupled")
    return 2.0 * np.sqrt(rad)


def extract_coupling_strength(splitting: float, gamma_c: float, gamma_x: float) -> float:
    """Invert the resonance splitting for g: sqrt((S/2)^2 + (gc-gx)^2/16)."""
    if splitting <= 0:
        raise ValueError("splitting must be positive")
    return float(np.sqrt((splitting / 2.0) ** 2 + (gamma_c - gamma_x) ** 2 / 16.0))


def _exciton_branch(p: SystemParams) -> complex:
    """The mode energy whose eigenvector has the larger exciton weight.

    The eigenvector of lam is (g, lam - M00), whose exciton weight
    g^2 / (g^2 + |lam - M00|^2) is the larger for the eigenvalue nearer
    M00.  The two distances d1, d2 multiply to g^2, so the weights differ
    by |d1 - d2| / (d1 + d2).
    """
    e1, e2 = _eigenvalues(p)
    m00 = complex(p.e_x, -0.5 * p.gamma_x)
    d1, d2 = abs(e1 - m00), abs(e2 - m00)
    if abs(d1 - d2) <= 1e-12 * (d1 + d2):
        raise DegenerateBranchesError(
            "branches degenerate in character; exciton branch undefined at resonance")
    return e1 if d1 < d2 else e2


def exciton_branch_lifetime(p: SystemParams) -> float:
    """Lifetime in ps of the exciton-like branch, hbar / (2*|Im E_exc|)."""
    if p.detuning == 0 and is_strongly_coupled(p):
        raise DegenerateBranchesError("branches degenerate in width at zero detuning")
    e_exc = _exciton_branch(p)
    return HBAR_UEV_PS / (2.0 * abs(e_exc.imag))


def infer_bare_lifetime(measured_ps: float, detuning: float,
                        g: float, gamma_c: float) -> float:
    """Bare exciton lifetime tau_x such that the coupled exciton branch
    lives exactly `measured_ps` at the given detuning.

    Bisect over gamma_x in (0, gamma_c), where the branch lifetime is
    strictly monotone, until the midpoint equals an end.
    """
    if measured_ps <= 0:
        raise ValueError("measured lifetime must be positive")
    if g == 0:
        return measured_ps

    def mismatch(gamma_x):
        p = SystemParams(detuning, 0.0, gamma_x, gamma_c, g)
        return exciton_branch_lifetime(p) - measured_ps

    lo, hi = 1e-12 * gamma_c, gamma_c * (1 - 1e-12)
    if mismatch(lo) < 0 or mismatch(hi) > 0:
        raise ValueError("no bare lifetime in (0, gamma_c) reproduces the measurement")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mismatch(mid) > 0:
            lo = mid
        else:
            hi = mid
    return HBAR_UEV_PS / mid


def figures_of_merit(g: float, gamma_c: float, gamma_x: float) -> FiguresOfMerit:
    """Purcell factor F_P = 4g^2/(gamma_c*gamma_x) and cavity quantum
    efficiency eta = F_P/(1+F_P) * gamma_c/(gamma_c+gamma_x)."""
    if gamma_c <= 0 or gamma_x <= 0 or g < 0:
        raise ValueError("rates must be positive, g nonnegative")
    purcell = 4.0 * g**2 / (gamma_c * gamma_x)
    eta = purcell / (1.0 + purcell) * gamma_c / (gamma_c + gamma_x)
    p = SystemParams(0.0, 0.0, gamma_x, gamma_c, g)
    sc = is_strongly_coupled(p)
    splitting = vacuum_rabi_splitting(p) if sc else None
    return FiguresOfMerit(purcell, eta, splitting, sc)


def model_spectrum(p: SystemParams, wavelength_grid_nm):
    """Two-Lorentzian emission spectrum on a wavelength grid.

    Lines sit at Re(E_k) with FWHM 2|Im E_k|; amplitudes are the squared
    coefficients of the exciton start |e,0> in the eigenbasis of the mode
    matrix.  Normalized to unit area over the grid.
    """
    from .specfit import Spectrum
    from .units import HC_UEV_NM

    lam = np.asarray(wavelength_grid_nm, dtype=float)
    if lam.ndim != 1 or len(lam) < 3:
        raise ValueError("wavelength grid must be 1-D with >= 3 points")

    m = mode_matrix(p)
    vals, vecs = np.linalg.eig(m)
    coeffs = np.linalg.solve(vecs, np.array([1.0, 0.0]))
    weights = np.abs(coeffs) ** 2
    weights = weights / weights.sum()

    energy = HC_UEV_NM / lam
    intensity = np.zeros_like(lam)
    for lam_k, w_k in zip(vals, weights):
        center = lam_k.real
        fwhm = 2.0 * abs(lam_k.imag)
        if fwhm == 0:
            raise ValueError("zero-width branch; lossless systems have no lineshape")
        intensity += w_k * (2.0 / (np.pi * fwhm)) / (1.0 + 4.0 * (energy - center) ** 2 / fwhm**2)

    area = np.trapezoid(intensity, lam)
    if area <= 0:
        raise ValueError("grid does not cover the branch centers")
    return Spectrum(wavelength_nm=lam, intensity=intensity / area)
