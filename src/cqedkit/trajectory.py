"""Monte Carlo quantum-jump generator of timestamped photon clicks.

Physics: after each excitation the system lives in the single-excitation
manifold span{|e,0>, |g,1>} and evolves under the non-Hermitian 2x2
effective Hamiltonian until a jump.  Jump channels: exciton leaky decay
(click on X), cavity decay (click on C) and the phenomenological
exciton-to-cavity-photon transfer (no click; the excitation continues as
a cavity photon and leaves through C).  Jump times are sampled exactly by
inverting the closed-form survival probability S(t) (the Monte Carlo
wave-function method of Dalibard, Castin & Molmer, PRL 68, 580 (1992)),
numerically as in Devroye, Non-Uniform Random Variate Generation (1986),
ch. 2.  Each propagator tabulates log S once, on 16,385 uniform points
over [0, t_max], with a guide table (Chen & Asau, AIIE Trans. 6, 163
(1974); Devroye 1986, sec. III.2.4) of 16,384 equal cells in -log S, each
holding the last table point below it, built by one count of the points
per cell.  A draw's table cell is its guide entry, walked on while the
next point is not above -log u, one vectorized compare a step.  A guide
cell holds at most 2 table points on the detuned preset and 38 on the
default device, where 4.8% of draws land in a cell of more than 4.
A draw u starts from linear interpolation in log S across its table cell,
then takes a Newton step on log S(t) - log u, clipped to that cell, and a
second one only if the first moved it by more than 1e-3 ps; the draws go
in blocks of 8,192, which keeps the temporaries small.  Everything is
vectorized over pulses.

Background emitters are a statistical Poisson feed into channel C, not
Hilbert-space objects.  Detector effects (thinning, jitter, dead time,
dark counts) are applied after the physics.

Seeding: a master numpy SeedSequence is split into fixed-order children
(pulse physics, background, darks, detector), so streams are bit-exact
reproducible from (config, seed) regardless of how analysis code threads.
"""
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DurationError, InsufficientStatisticsError
from .lindblad import LindbladModel
from .units import HBAR_UEV_PS

PUMP_MODES = ("resonant_pulsed", "resonant_cw")

_MIN_U = 1e-12
# log S table points per propagator: fine enough that linear interpolation
# puts Newton in its basin even on the Rabi plateaus of S
_TABLE_POINTS = 16385
_NEWTON_STEPS = 2
# a Newton step below this (ps) leaves an error of order K * tol**2, far
# below the 0.1 ps of a click file: the draw takes no further step
_NEWTON_TOL = 1e-3
# draws per block in jump_times: bounds the temporaries
_BLOCK = 8192


@dataclass(frozen=True)
class PumpSchedule:
    """Excitation scheme parameters; rates in 1/ps, periods in ps."""

    mode: str = "resonant_pulsed"
    rep_period: float = 13000.0
    excitation_prob: float = 1.0
    reservoir_mean: float = 0.0
    capture_rate: float = 0.01
    background_feed_rate: float = 0.0
    cw_pump_rate: float = 1e-3

    def __post_init__(self):
        if self.mode not in PUMP_MODES:
            raise ConfigError(f"unknown pump mode {self.mode!r}; expected "
                              f"one of {', '.join(PUMP_MODES)}")
        if not 0.0 <= self.excitation_prob <= 1.0:
            raise ConfigError("excitation_prob must be in [0, 1]")
        for name in ("rep_period", "capture_rate", "cw_pump_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("reservoir_mean", "background_feed_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 1.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0
    dark_count_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError("efficiency must be in (0, 1]")
        for name in ("jitter_sigma", "dead_time", "dark_count_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass
class ClickStream:
    """Time-ordered detection records; channels 'C', 'X' or 'D' (dark),
    held as one '<U1' array."""

    times: np.ndarray
    channels: np.ndarray
    duration: float
    seed: int
    config_hash: str = ""

    def __post_init__(self):
        if not np.all(np.isfinite(self.times)):
            raise ValueError("click times must be finite")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("click times must be nondecreasing")
        channels = np.asarray(self.channels, dtype=str)
        short = channels.astype("<U1", copy=False)
        # '<U1' cuts longer names and holds the empty one as code point 0
        if ((short.view(np.uint32) == 0).any() or (
                short is not channels
                and (np.char.str_len(channels) != 1).any())):
            raise ValueError("click channels must be one character each")
        self.channels = short

    def __len__(self):
        return len(self.times)

    def filter(self, channels) -> np.ndarray:
        """Sorted times of clicks on any of the given channels."""
        if isinstance(channels, str):
            channels = (channels,)
        codes = self.channels.view(np.uint32)
        mask = np.zeros(len(codes), dtype=bool)
        for ch in channels:
            mask |= codes == ord(ch)
        return self.times[mask]


class SingleExcitationPropagator:
    """Closed-form non-Hermitian evolution in span{|e,0>, |g,1>}."""

    def __init__(self, model: LindbladModel):
        self.rate_x = model.gamma_x / HBAR_UEV_PS
        self.rate_c = model.gamma_c / HBAR_UEV_PS
        self.rate_t = model.transfer
        delta = model.e_x - model.e_c
        heff = np.array(
            [[delta - 0.5j * (model.gamma_x + HBAR_UEV_PS * self.rate_t), model.g],
             [model.g, -0.5j * model.gamma_c]],
            dtype=complex,
        )
        self.evals, self.evecs = np.linalg.eig(heff)
        self.coeff0 = np.linalg.solve(self.evecs, np.array([1.0, 0.0]))
        slowest = 2.0 * np.abs(self.evals.imag).min() / HBAR_UEV_PS
        self.t_max = 80.0 / slowest
        self._t_step = self.t_max / (_TABLE_POINTS - 1)
        surv = self.survival(np.arange(_TABLE_POINTS) * self._t_step)
        # -log S, nondecreasing, then +inf, which ends every guide walk
        table = -np.log(surv)
        self._neg_log_s = np.append(table, np.inf)
        # guide cells: _TABLE_POINTS - 1 equal ones from table[0] to
        # -log(_MIN_U), the largest target a draw gives, and one more for
        # the values at or beyond it
        self._guide_base = table[0]
        self._guide_top = -np.log(_MIN_U)
        self._guide_scale = (_TABLE_POINTS - 1) / (self._guide_top - table[0])
        upto = np.cumsum(np.bincount(self._guide_cell(table),
                                     minlength=_TABLE_POINTS))
        # guide[m]: the last table point in a cell below m, or 0.  The cell
        # is monotone in the value, so that point is below every target in
        # cell m, and the target's table cell does not start before it
        self._guide = np.maximum(np.append(0, upto[:-1]) - 1, 0)
        # E[jump time] = integral of S
        self.mean_jump_time = float(np.trapezoid(surv, dx=self._t_step))

    def _guide_cell(self, x: np.ndarray) -> np.ndarray:
        """Guide cell of each -log S value x, nondecreasing in x."""
        m = (x - self._guide_base) * self._guide_scale
        np.clip(m, 0, _TABLE_POINTS - 1, out=m)
        return m.astype(np.intp)

    def _table_cell(self, target: np.ndarray) -> np.ndarray:
        """The k with table[k] <= target < table[k + 1] in the -log S
        table, clipped to [0, _TABLE_POINTS - 2]: searchsorted(table,
        target, "right") - 1, clipped.  It starts from the target's guide
        entry and walks on while the next point is not above the target;
        a target beyond the guide's range, which no draw gives, starts from
        its searchsorted cell instead."""
        table = self._neg_log_s
        k = self._guide[self._guide_cell(target)]
        beyond = np.flatnonzero(target > self._guide_top)
        k[beyond] = np.searchsorted(table, target[beyond], side="right") - 1
        walk = np.flatnonzero(table[k + 1] <= target)
        while len(walk):
            k[walk] += 1
            walk = walk[table[k[walk] + 1] <= target[walk]]
        return np.minimum(k, _TABLE_POINTS - 2, out=k)

    def amplitudes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) exciton/photon amplitudes at times t from |e,0>."""
        # coeff0_k * exp(-i E_k t / hbar), one row per eigenmode, in place
        p = np.outer(self.evals, t)
        p *= -1j
        p /= HBAR_UEV_PS
        np.exp(p, out=p)
        p *= self.coeff0[:, None]
        # the 2x2 product by hand: an (n,2)@(2,2) matmul goes to threaded BLAS
        v = self.evecs
        alpha = p[0] * v[0, 0]
        alpha += p[1] * v[0, 1]
        beta = p[0] * v[1, 0]
        beta += p[1] * v[1, 1]
        return alpha, beta

    def survival(self, t: np.ndarray) -> np.ndarray:
        alpha, beta = self.amplitudes(t)
        return np.abs(alpha) ** 2 + np.abs(beta) ** 2

    def jump_times(self, u: np.ndarray) -> np.ndarray:
        """Times at which the survival probability falls to each u.

        The draws go in blocks of _BLOCK.  The guide table finds each
        draw's cell [t_k, t_k+1] in the log S table, and linear
        interpolation in log S across the cell gives the start.  Then
        come up to _NEWTON_STEPS Newton steps on log S(t) - log u, whose
        slope -(total jump rate) / S takes one `amplitudes` call; each
        step is clipped to the cell, which holds the root, and a draw
        whose step moved it by at most _NEWTON_TOL takes no further one.
        Against an 80-step bisection the times agree to 1e-4 ps
        (tests/test_trajectory.py).
        """
        out = np.empty(len(u))
        table = self._neg_log_s
        h = self._t_step
        rate_a = self.rate_x + self.rate_t
        for start in range(0, len(u), _BLOCK):
            target = -np.log(u[start:start + _BLOCK])
            k = self._table_cell(target)
            left = table[k]
            frac = (target - left) / (table[k + 1] - left)
            cell = k * h
            t = cell + h * np.clip(frac, 0.0, 1.0)
            # the block's draws that are still unsettled, and their t
            rows = np.arange(start, start + len(t))
            for _ in range(_NEWTON_STEPS):
                if not len(rows):
                    break
                alpha, beta = self.amplitudes(t)
                pop_a = alpha.real ** 2 + alpha.imag ** 2
                pop_b = beta.real ** 2 + beta.imag ** 2
                surv = pop_a + pop_b
                rate = rate_a * pop_a + self.rate_c * pop_b
                new = t + (np.log(surv) + target) * surv / rate
                np.clip(new, cell, cell + h, out=new)
                out[rows] = new
                # a draw whose step moved it by at most _NEWTON_TOL is done
                more = np.abs(new - t) > _NEWTON_TOL
                rows, t = rows[more], new[more]
                target, cell = target[more], cell[more]
        return out

    def sample_emissions(self, rng: np.random.Generator, n: int
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Exact emission (delay_ps, channel) for n fresh excitations.

        channel is 0 for C, 1 for X.  Transfer jumps are internal: the
        photon continues in the cavity and exits through C after an
        additional exponential delay.
        """
        t_jump = self.jump_times(np.clip(rng.random(n), _MIN_U, None))
        alpha, beta = self.amplitudes(t_jump)
        pop_a = np.abs(alpha) ** 2
        w_x = self.rate_x * pop_a
        w_c = self.rate_c * np.abs(beta) ** 2
        w_t = self.rate_t * pop_a
        total = w_x + w_c + w_t
        r = rng.random(n) * total
        channel = np.where(r < w_c, 0, 1)  # C else X for now
        transferred = r >= w_c + w_x
        if np.any(transferred):
            extra = rng.exponential(1.0 / self.rate_c, transferred.sum())
            t_jump = t_jump.copy()
            t_jump[transferred] += extra
            channel[transferred] = 0
        return t_jump, channel


#: the most pulses, or CW excitations, one run samples on any machine:
#: 1,000 times a 100,000-pulse Fig. 4 run.  A run near it takes minutes
#: and gigabytes.
_MAX_EVENTS = 10 ** 8


def _check_events(n: int, what: str, duration: float) -> None:
    """DurationError, before any array is made, if n events exceed
    _MAX_EVENTS."""
    if n > _MAX_EVENTS:
        raise DurationError(f"duration {duration!r} ps holds more {what} "
                            f"than the {_MAX_EVENTS:,} one run may sample")


def _pulsed_emissions(model, pump, duration, rng):
    """Emission (times, channels) for all pulses, vectorized in rounds."""
    lifetime_scale = 2.0 * HBAR_UEV_PS / (model.gamma_c + model.gamma_x)
    if pump.rep_period <= 10.0 * lifetime_scale:
        raise ConfigError(
            f"rep_period {pump.rep_period} ps must exceed 10x the coupled "
            f"lifetime ({lifetime_scale:.1f} ps) for well-separated pulses")
    n_pulses = int(duration // pump.rep_period)
    if n_pulses < 1:
        raise DurationError(f"duration shorter than one pulse period "
                            f"({pump.rep_period} ps)")
    _check_events(n_pulses, "pulses", duration)
    prop = SingleExcitationPropagator(model)
    pulse_t = np.arange(n_pulses) * pump.rep_period

    excited = rng.random(n_pulses) < pump.excitation_prob
    if pump.reservoir_mean > 0:
        reservoir = rng.poisson(pump.reservoir_mean, n_pulses)
    else:
        reservoir = np.zeros(n_pulses, dtype=int)

    times, channels = [], []
    # offset of the current excitation cycle within each pulse window
    offset = np.zeros(n_pulses)
    pending = reservoir.copy()
    idx = np.flatnonzero(excited)
    while True:
        if len(idx):
            delay, chan = prop.sample_emissions(rng, len(idx))
            times.append(pulse_t[idx] + offset[idx] + delay)
            channels.append(chan)
            offset[idx] += delay
        # every pulse with carriers left captures one, then emits again
        idx = np.flatnonzero(pending)
        if not len(idx):
            break
        offset[idx] += rng.exponential(1.0 / (pending[idx] * pump.capture_rate))
        pending[idx] -= 1
    if not times:
        return np.empty(0), np.empty(0, dtype=int)
    return np.concatenate(times), np.concatenate(channels)


def _cw_emissions(model, pump, duration, rng):
    """Emission times under CW pumping: exponential re-excitation gaps."""
    prop = SingleExcitationPropagator(model)
    mean_gap = 1.0 / pump.cw_pump_rate
    # a cycle is a pump gap plus an emission delay: a batch sized from the
    # gap alone can sample several times the excitations that fit
    mean_cycle = mean_gap + prop.mean_jump_time
    times, channels = [], []
    t_now = 0.0
    while t_now < duration:
        n = max(int((duration - t_now) / mean_cycle * 1.2) + 16, 16)
        _check_events(n, "excitations", duration)
        gaps = rng.exponential(mean_gap, n)
        delays, chan = prop.sample_emissions(rng, n)
        emit = t_now + np.cumsum(gaps + delays)
        times.append(emit)
        channels.append(chan)
        t_now = emit[-1]
    return np.concatenate(times), np.concatenate(channels)


def _poisson_times(rate, duration, rng):
    return rng.uniform(0.0, duration, rng.poisson(rate * duration))


def _apply_detector(times, det, rng, duration):
    """Thinning, jitter, the [0, duration) window, sorting and dead time
    for one channel's emission times, given in any order."""
    if det.efficiency < 1.0:
        times = times[rng.random(len(times)) < det.efficiency]
    if det.jitter_sigma > 0:
        times = times + rng.normal(0.0, det.jitter_sigma, len(times))
    times = np.sort(times[(times >= 0.0) & (times < duration)])
    if det.dead_time > 0 and len(times) > 1:
        keep = np.zeros(len(times), dtype=bool)
        last = -np.inf
        for i, t in enumerate(times):
            if t - last >= det.dead_time:
                keep[i] = True
                last = t
        times = times[keep]
    return times


def simulate_stream(model: LindbladModel, pump: PumpSchedule,
                    det: DetectorModel, duration: float, seed: int,
                    config_hash: str = "") -> ClickStream:
    """Generate a detector-level click stream; bit-exact for fixed seed."""
    if duration <= 0:
        raise ConfigError("duration must be positive")
    ss = np.random.SeedSequence(seed)
    rng_phys, rng_bg, rng_dark, rng_det = (
        np.random.default_rng(child) for child in ss.spawn(4))

    if pump.mode == "resonant_pulsed":
        emit_t, emit_ch = _pulsed_emissions(model, pump, duration, rng_phys)
    else:
        emit_t, emit_ch = _cw_emissions(model, pump, duration, rng_phys)

    c_times = emit_t[emit_ch == 0]
    x_times = emit_t[emit_ch == 1]
    if pump.background_feed_rate > 0:
        bg = _poisson_times(pump.background_feed_rate, duration, rng_bg)
        c_times = np.concatenate([c_times, bg])

    c_times = _apply_detector(c_times, det, rng_det, duration)
    x_times = _apply_detector(x_times, det, rng_det, duration)
    if det.dark_count_rate > 0:
        d_times = _poisson_times(det.dark_count_rate, duration, rng_dark)
    else:
        d_times = np.empty(0)

    all_times = np.concatenate([c_times, x_times, d_times])
    all_chan = np.concatenate([
        np.full(len(c_times), "C"),
        np.full(len(x_times), "X"),
        np.full(len(d_times), "D"),
    ])
    order = np.lexsort((all_chan, all_times))
    return ClickStream(all_times[order], all_chan[order], duration, seed,
                       config_hash)


def channel_rates(stream: ClickStream) -> dict[str, tuple[float, float]]:
    """Mean count rate and Poisson standard error per channel, 1/ps."""
    if len(stream) == 0:
        raise InsufficientStatisticsError("empty stream")
    out = {}
    for ch in ("C", "X", "D"):
        n = int(np.sum(stream.channels == ch))
        if n:
            out[ch] = (n / stream.duration, np.sqrt(n) / stream.duration)
    return out

