"""Dense Lindblad master equation for the driven Jaynes-Cummings system.

Hilbert space: two-level exciton (g, e) tensor truncated Fock space of the
cavity mode.  The device is a `coupled.SystemParams`, whose pump_x,
feed_c and transfer rates set the pump and feeding channels; cw_g2 is
the only reader of pump_x and feed_c.  Energies in ueV, times in ps,
rates in 1/ps.  The Liouvillian is diagonalized once per `cw_g2` call;
the steady state and the two-time correlation (quantum regression)
reuse the same eigendecomposition.
Dimensions are tiny (a handful of excitations), so dense linear algebra
is the accuracy-first choice.
"""
import numpy as np

from .coupled import SystemParams
from .errors import ConvergenceError, CutoffError
from .units import HBAR_UEV_PS

_CUTOFF_TOL = 1e-6


class Operators:
    """Atom and cavity operators on the truncated product space."""

    def __init__(self, n_max: int):
        nc = n_max + 1
        ident_c = np.eye(nc)
        ident_a = np.eye(2)
        lower_c = np.diag(np.sqrt(np.arange(1, nc)), k=1)
        sm_atom = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|
        self.n_max = n_max
        self.dim = 2 * nc
        self.a = np.kron(ident_a, lower_c)
        self.sm = np.kron(sm_atom, ident_c)
        self.ad = self.a.conj().T
        self.sp = self.sm.conj().T
        self.num_c = self.ad @ self.a
        self.num_x = self.sp @ self.sm


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.flatten(order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def hamiltonian(model: SystemParams, ops: Operators) -> np.ndarray:
    return (model.e_x * ops.num_x + model.e_c * ops.num_c
            + model.g * (ops.ad @ ops.sm + ops.sp @ ops.a))


def jump_channels(model: SystemParams, ops: Operators) -> list[tuple[str, float, np.ndarray]]:
    """(tag, rate 1/ps, operator) triples; zero-rate channels omitted."""
    channels = [
        ("C", model.gamma_c / HBAR_UEV_PS, ops.a),
        ("X", model.gamma_x / HBAR_UEV_PS, ops.sm),
    ]
    if model.pump_x > 0:
        channels.append(("pump", model.pump_x, ops.sp))
    if model.feed_c > 0:
        channels.append(("feed", model.feed_c, ops.ad))
    if model.transfer > 0:
        channels.append(("transfer", model.transfer, ops.ad @ ops.sm))
    return channels


def liouvillian(model: SystemParams, ops: Operators) -> np.ndarray:
    """Dense Liouvillian on column-stacked density matrices, units 1/ps."""
    dim = ops.dim
    ident = np.eye(dim)
    h = hamiltonian(model, ops)
    lv = -1j / HBAR_UEV_PS * (np.kron(ident, h) - np.kron(h.T, ident))
    for _, rate, c in jump_channels(model, ops):
        cdc = c.conj().T @ c
        lv += rate * (np.kron(c.conj(), c)
                      - 0.5 * np.kron(ident, cdc)
                      - 0.5 * np.kron(cdc.T, ident))
    return lv


def _channel_operator(ops: Operators, channel: str) -> np.ndarray:
    if channel == "C":
        return ops.a
    if channel == "X":
        return ops.sm
    raise ValueError(f"unknown channel {channel!r}")


def cw_g2(model: SystemParams, tau_grid, channel: str = "C",
          n_max: int = 2) -> np.ndarray:
    """Normalized g2(tau) of a channel's steady-state emission.

    Quantum regression on the steady state: g2(tau) =
    Tr[c^dag c e^{L tau}(c rho_ss c^dag)] / Tr[c^dag c rho_ss]^2.
    Requires a pump (pump_x > 0) so a nontrivial steady state exists.
    """
    if model.pump_x <= 0:
        raise ValueError("cw_g2 needs pump_x > 0 for a nontrivial steady state")
    tau_grid = np.asarray(tau_grid, dtype=float)
    ops = Operators(n_max)
    c = _channel_operator(ops, channel)
    evals, evecs = np.linalg.eig(liouvillian(model, ops))
    # the steady state is the Liouvillian's null vector
    idx = np.argmin(np.abs(evals))
    if abs(evals[idx]) > 1e-8:
        raise ConvergenceError("no stationary Liouvillian mode found")
    rho_ss = _unvec(evecs[:, idx], ops.dim)
    rho_ss = 0.5 * (rho_ss + rho_ss.conj().T)
    rho_ss /= np.trace(rho_ss).real
    # the top Fock level must carry negligible weight
    nc = n_max + 1
    top = rho_ss[nc - 1, nc - 1].real + rho_ss[2 * nc - 1, 2 * nc - 1].real
    if top > _CUTOFF_TOL:
        raise CutoffError(
            f"population {top:.2e} at Fock cutoff n_max={n_max}; increase n_max")
    flux = np.trace(c.conj().T @ c @ rho_ss).real
    if flux <= 0:
        raise ConvergenceError("steady-state channel flux vanished")
    seed = _vec(c @ rho_ss @ c.conj().T)
    # eigenvectors of a small Liouvillian are well conditioned, but solve
    # rather than invert for the coefficients
    coef = np.linalg.solve(evecs, seed)
    num_weights = _vec(c.conj().T @ c).conj() @ evecs  # Tr[n_op w_k] per mode
    g2 = np.empty(len(tau_grid))
    for i, tau in enumerate(tau_grid):
        g2[i] = (num_weights * coef * np.exp(evals * tau)).sum().real / flux**2
    return g2
