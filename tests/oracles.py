"""Physics oracles the tests check cqedkit against.

None of this runs in a command: each function is a second route to a
number the toolkit computes another way.  Master-equation propagation and
the Liouvillian's decay rates check the closed-form mode energies and the
quantum-jump sampler; the branching fractions and the trajectory average
check the sampler's statistics; the per-pulse photon-number statistic
checks the pulsed peak-area g2(0) estimator.  The Lindblad oracles
diagonalise `lindblad.liouvillian` themselves, so they share no
decomposition with `lindblad.cw_g2`.
"""
import numpy as np

from cqedkit.coupled import SystemParams
from cqedkit.errors import (ConvergenceError, CutoffError,
                            InsufficientStatisticsError)
from cqedkit.hbt import G2Estimate
from cqedkit.lindblad import _CUTOFF_TOL, Operators, _unvec, _vec, liouvillian
from cqedkit.trajectory import _MIN_U, SingleExcitationPropagator


def exciton_excited(ops: Operators) -> np.ndarray:
    """Density matrix |e,0><e,0|."""
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    idx = ops.n_max + 1  # |e> block starts after the |g> Fock block
    rho[idx, idx] = 1.0
    return rho


def _eig(model: SystemParams, n_max: int):
    """(operators, eigenvalues, eigenvectors) of one (model, cutoff)
    Liouvillian."""
    ops = Operators(n_max)
    evals, evecs = np.linalg.eig(liouvillian(model, ops))
    return ops, evals, evecs


def _check_cutoff(rho: np.ndarray, ops: Operators):
    """Error out if the top Fock level carries non-negligible weight."""
    nc = ops.n_max + 1
    top = rho[nc - 1, nc - 1].real + rho[2 * nc - 1, 2 * nc - 1].real
    if top > _CUTOFF_TOL:
        raise CutoffError(
            f"population {top:.2e} at Fock cutoff n_max={ops.n_max}; increase n_max")


def evolve(model: SystemParams, rho0: np.ndarray, t_grid,
           n_max: int = 2) -> np.ndarray:
    """Propagate rho0 over t_grid; returns an array of density matrices.

    Trace is preserved to 1e-8 by construction (checked), and the top
    Fock level is monitored against cutoff overflow.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    ops, evals, evecs = _eig(model, n_max)
    dim = ops.dim
    coef = np.linalg.solve(evecs, _vec(np.asarray(rho0, dtype=complex)))
    out = np.empty((len(t_grid), dim, dim), dtype=complex)
    for i, t in enumerate(t_grid):
        rho = _unvec(evecs @ (coef * np.exp(evals * t)), dim)
        rho = 0.5 * (rho + rho.conj().T)
        drift = abs(np.trace(rho).real - 1.0)
        if drift > 1e-8:
            raise ConvergenceError(f"trace drift {drift:.2e} exceeds 1e-8")
        _check_cutoff(rho, ops)
        out[i] = rho
    return out


def steady_state(model: SystemParams, n_max: int = 2) -> np.ndarray:
    """Steady density matrix (needs a pump so the state is not trivial)."""
    ops, evals, evecs = _eig(model, n_max)
    idx = np.argmin(np.abs(evals))
    if abs(evals[idx]) > 1e-8:
        raise ConvergenceError("no stationary Liouvillian mode found")
    rho = _unvec(evecs[:, idx], ops.dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    _check_cutoff(rho, ops)
    return rho


def excited_population(rhos: np.ndarray, n_max: int) -> np.ndarray:
    """Exciton occupation for each density matrix in a trajectory."""
    ops = Operators(n_max)
    return np.einsum("tij,ji->t", rhos, ops.num_x).real


def liouvillian_decay_rates(model: SystemParams, n_max: int = 1) -> np.ndarray:
    """Sorted decay rates (-Re eigenvalues) of the Liouvillian, 1/ps."""
    _, evals, _ = _eig(model, n_max)
    return np.sort(-evals.real)


def branching_fractions(model: SystemParams) -> dict[str, float]:
    """Exact P(photon exits via C) / P(via X) for one excitation.

    Integrates the closed-form manifold amplitudes; transfer jumps count
    toward C since the resulting cavity photon always leaves through C.
    """
    prop = SingleExcitationPropagator(model)
    t = np.linspace(0.0, prop.t_max, 200001)
    alpha, beta = prop.amplitudes(t)
    int_a = np.trapezoid(np.abs(alpha) ** 2, t)
    int_b = np.trapezoid(np.abs(beta) ** 2, t)
    p_x = prop.rate_x * int_a
    p_c = prop.rate_c * int_b + prop.rate_t * int_a
    total = p_x + p_c
    return {"C": p_c / total, "X": p_x / total}


def average_excited_population(model: SystemParams, t_grid, n_traj: int,
                               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory-averaged exciton population from |e,0> and its SE.

    Each trajectory carries the conditional no-jump state; after the first
    jump of any channel the exciton is empty.  Per-trajectory substreams
    come from SeedSequence(seed).spawn(n_traj).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    prop = SingleExcitationPropagator(model)
    u = [np.random.default_rng(child).random()
         for child in np.random.SeedSequence(seed).spawn(n_traj)]
    t_jump = prop.jump_times(np.clip(u, _MIN_U, None))
    alpha, _ = prop.amplitudes(t_grid)
    cond = np.abs(alpha) ** 2 / prop.survival(t_grid)
    pop = np.where(t_grid < t_jump[:, None], cond, 0.0)
    mean = pop.mean(axis=0)
    se = pop.std(axis=0, ddof=1) / np.sqrt(n_traj)
    return mean, se


def per_pulse_counts(times, rep_period: float, duration: float) -> np.ndarray:
    """Photon counts per pulse window; the brute-force g2 oracle input."""
    n_pulses = int(duration // rep_period)
    idx = (np.asarray(times) // rep_period).astype(np.int64)
    idx = idx[idx < n_pulses]
    return np.bincount(idx, minlength=n_pulses)


def per_pulse_g2(counts_a, counts_b=None) -> G2Estimate:
    """Exact per-pulse photon-number statistic <n_a n_b'>/(<n_a><n_b>).

    For autocorrelation (counts_b None) this is <n(n-1)>/<n>^2, the
    quantity the pulsed peak-area estimator converges to.  Standard error
    by the delta method on sample moments.
    """
    n_a = np.asarray(counts_a, dtype=float)
    auto = counts_b is None
    n_b = n_a if auto else np.asarray(counts_b, dtype=float)
    x = n_a * (n_a - 1.0) if auto else n_a * n_b
    ma, mb, mx = n_a.mean(), n_b.mean(), x.mean()
    if ma == 0 or mb == 0:
        raise InsufficientStatisticsError("no counts")
    value = mx / (ma * mb)
    n = len(n_a)
    grad_x = 1.0 / (ma * mb)
    grad_a = -mx / (ma**2 * mb)
    grad_b = -mx / (ma * mb**2)
    if auto:
        cov = np.cov(np.vstack([x, n_a]))
        var = (grad_x**2 * cov[0, 0]
               + (grad_a + grad_b) ** 2 * cov[1, 1]
               + 2 * grad_x * (grad_a + grad_b) * cov[0, 1]) / n
    else:
        cov = np.cov(np.vstack([x, n_a, n_b]))
        grads = np.array([grad_x, grad_a, grad_b])
        var = grads @ cov @ grads / n
    return G2Estimate(value, float(np.sqrt(max(var, 0.0))), "per_pulse_oracle")
