"""Monte Carlo quantum-jump generator of timestamped photon clicks.

Physics: after each excitation the system lives in the single-excitation
manifold span{|e,0>, |g,1>} and evolves under the non-Hermitian 2x2
effective Hamiltonian until a jump: the device's `coupled.mode_matrix` in
the cavity frame, its exciton linewidth widened by the transfer rate of
the `coupled.SystemParams`.  Jump channels: exciton leaky decay
(click on X), cavity decay (click on C) and the phenomenological
exciton-to-cavity-photon transfer (no click; the excitation continues as
a cavity photon and leaves through C).  Jump times are sampled exactly by
inverting the closed-form survival probability S(t) (the Monte Carlo
wave-function method of Dalibard, Castin & Molmer, PRL 68, 580 (1992)),
numerically as in Devroye, Non-Uniform Random Variate Generation (1986),
ch. 2.  The amplitudes are taken in the frame rotating at Re E_0, the
energy of eigenmode 0: there mode 0 only decays, one real exponential,
and mode 1 turns at (E_1 - Re E_0) / hbar, the one complex exponential
per evaluated time.  The frame is a common phase, so |alpha|^2 and
|beta|^2, all the sampler reads, are the lab frame's.  Each propagator
tabulates log S once, on 16,385 uniform points over [0, t_max], with a
guide table (Chen & Asau, AIIE Trans. 6, 163 (1974); Devroye 1986, sec.
III.2.4) of 16,384 equal cells in -log S, each holding the last table
point below it, built by one count of the points per cell.  A draw's
table cell is its guide entry, walked on while the next point is not
above -log u, one vectorized compare a step.  A guide
cell holds at most 2 table points on the detuned preset and 38 on the
default device, where 4.8% of draws land in a cell of more than 4.
A draw u starts from linear interpolation in log S across its table cell,
then takes a Newton step on log S(t) - log u, clipped to that cell, and a
second one only if the first moved it by more than 1e-3 ps.  The draws,
and then the choice of each jump's channel, go in blocks of 8,192, which
keeps the temporaries small; a run's detected clicks are merged by one
stable sort of their times.  Everything is vectorized over pulses.

Background emitters are a statistical Poisson feed into channel C, not
Hilbert-space objects.  Detector effects (thinning, jitter, dead time,
dark counts) are applied after the physics.

Seeding: a master numpy SeedSequence is split into fixed-order children
(pulse physics, background, darks, detector), so streams are bit-exact
reproducible from (config, seed) regardless of how analysis code threads.
"""
from dataclasses import dataclass, replace

import numpy as np

from .coupled import SystemParams, mode_matrix
from .errors import ConfigError, DurationError, InsufficientStatisticsError
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

    def __init__(self, model: SystemParams):
        self.rate_x = model.gamma_x / HBAR_UEV_PS
        self.rate_c = model.gamma_c / HBAR_UEV_PS
        self.rate_t = model.transfer
        # the mode matrix in the frame of the cavity, with the transfer
        # channel widening the exciton line
        heff = mode_matrix(replace(
            model, e_x=model.e_x - model.e_c, e_c=0.0,
            gamma_x=model.gamma_x + HBAR_UEV_PS * model.transfer))
        evals, evecs = np.linalg.eig(heff)
        # |e,0> = sum_k coeff0_k v_k; mode k's share of alpha and beta
        share = evecs * np.linalg.solve(evecs, np.array([1.0, 0.0]))
        self._share_a, self._share_b = share
        # in the frame rotating at Re E_0, mode 0 only decays, at rate
        # -Im E_0 / hbar, and mode 1 turns at (E_1 - Re E_0) / hbar
        self._decay0 = evals[0].imag / HBAR_UEV_PS
        self._phase1 = -1j * (evals[1] - evals[0].real) / HBAR_UEV_PS
        slowest = 2.0 * np.abs(evals.imag).min() / HBAR_UEV_PS
        self.t_max = 80.0 / slowest
        self._t_step = self.t_max / (_TABLE_POINTS - 1)
        surv = self.survival(np.arange(_TABLE_POINTS) * self._t_step)
        # -log S, nondecreasing, then NaN, which ends every guide walk: no
        # target, +inf included, is at or above it, and searchsorted
        # places it last.  S underflows to 0, and -log S is +inf, where a
        # device's fast branch carries all of |e,0> (a vast gamma_x)
        with np.errstate(divide="ignore"):
            table = -np.log(surv)
        self._neg_log_s = np.append(table, np.nan)
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
        """(alpha, beta) exciton/photon amplitudes at times t from |e,0>,
        in the frame rotating at Re E_0: their phase is not the lab
        frame's, their moduli are."""
        # one real exponential for mode 0, one complex one for mode 1, in
        # place; alpha takes over mode 1's array
        decay = np.multiply(t, self._decay0)
        np.exp(decay, out=decay)
        turn = np.multiply(t, self._phase1)
        np.exp(turn, out=turn)
        share_a, share_b = self._share_a, self._share_b
        beta = turn * share_b[1]
        alpha = np.multiply(turn, share_a[1], out=turn)
        alpha += decay * share_a[0]
        beta += decay * share_b[0]
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

    def sample_emissions(self, rng: "np.random.Generator", n: int
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Exact emission (delay_ps, channel) for n fresh excitations.

        channel is 0 for C, 1 for X, as int8.  Transfer jumps are
        internal: the photon continues in the cavity and exits through C
        after an additional exponential delay.  All n jump times come
        first; then the channel choice goes in blocks of _BLOCK, one
        rng.random call each, which draws the numbers one call for all n
        would; then the transfers' delays.
        """
        t_jump = self.jump_times(np.clip(rng.random(n), _MIN_U, None))
        channel = np.empty(n, dtype=np.int8)
        transferred = np.empty(n, dtype=bool)
        for start in range(0, n, _BLOCK):
            part = slice(start, start + _BLOCK)
            alpha, beta = self.amplitudes(t_jump[part])
            pop_a = np.abs(alpha) ** 2
            w_x = self.rate_x * pop_a
            w_c = self.rate_c * np.abs(beta) ** 2
            w_t = self.rate_t * pop_a
            total = w_x + w_c + w_t
            r = rng.random(len(total)) * total
            channel[part] = r >= w_c  # C else X for now
            transferred[part] = r >= w_c + w_x
        if transferred.any():
            extra = rng.exponential(1.0 / self.rate_c, transferred.sum())
            t_jump[transferred] += extra
            channel[transferred] = 0
        return t_jump, channel


#: the most pulses, or CW excitations, one run samples on any machine:
#: 1,000 times a 100,000-pulse Fig. 4 run.  A run near it takes minutes
#: and gigabytes.
_MAX_EVENTS = 10 ** 8


#: the longest run, in ps (about 15 minutes): a click file's times are
#: tenths of a ps, which a float64 holds as integers up to 2**53
_MAX_DURATION = 2.0 ** 53 / 10


def _check_events(n: int, what: str, duration: float) -> None:
    """DurationError, before any array is made, if n events exceed
    _MAX_EVENTS."""
    if n > _MAX_EVENTS:
        raise DurationError(f"duration {duration!r} ps holds more {what} "
                            f"than the {_MAX_EVENTS:,} one run may sample")


def _check_poisson(field: str, value: float, count: float, unit: str,
                   what: str) -> None:
    """ConfigError naming a config field, before any draw, if it gives a
    run more than _MAX_EVENTS Poisson events on average: value per unit,
    over count units."""
    mean = value * count
    if mean > _MAX_EVENTS:
        raise ConfigError(f"{field} {value!r}: {mean:.3g} expected {what} in "
                          f"{count:.6g} {unit}, more than the {_MAX_EVENTS:,} "
                          f"one run may sample")


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
    _check_poisson("pump.reservoir_mean", pump.reservoir_mean, n_pulses,
                   "pulses", "recaptures")
    prop = SingleExcitationPropagator(model)

    idx = np.flatnonzero(rng.random(n_pulses) < pump.excitation_prob)
    # carriers left in each pulse's reservoir
    if pump.reservoir_mean > 0:
        pending = rng.poisson(pump.reservoir_mean, n_pulses)
    else:
        pending = np.zeros(n_pulses, dtype=int)

    times, channels = [], []
    # offset of the current excitation cycle within each pulse window
    offset = np.zeros(n_pulses)
    while True:
        if len(idx):
            delay, chan = prop.sample_emissions(rng, len(idx))
            times.append(idx * pump.rep_period + offset[idx] + delay)
            channels.append(chan)
            offset[idx] += delay
        # every pulse with carriers left captures one, then emits again
        idx = np.flatnonzero(pending)
        if not len(idx):
            break
        offset[idx] += rng.exponential(1.0 / (pending[idx] * pump.capture_rate))
        pending[idx] -= 1
    if not times:
        return np.empty(0), np.empty(0, dtype=np.int8)
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


def simulate_stream(model: SystemParams, pump: PumpSchedule,
                    det: DetectorModel, duration: float, seed: int,
                    config_hash: str = "") -> ClickStream:
    """Generate a detector-level click stream; bit-exact for fixed seed."""
    if duration <= 0:
        raise ConfigError("duration must be positive")
    # before the event checks, whose rates do not cause a vast duration
    if duration > _MAX_DURATION:
        raise DurationError(f"duration {duration!r} ps is longer than the "
                            f"{_MAX_DURATION:.4g} ps one run may sample")
    _check_poisson("pump.background_feed_rate", pump.background_feed_rate,
                   duration, "ps", "background photons")
    _check_poisson("detectors.dark_count_rate", det.dark_count_rate,
                   duration, "ps", "dark counts")
    ss = np.random.SeedSequence(seed)
    rng_phys, rng_bg, rng_dark, rng_det = (
        np.random.default_rng(child) for child in ss.spawn(4))

    if pump.mode == "resonant_pulsed":
        emit_t, emit_ch = _pulsed_emissions(model, pump, duration, rng_phys)
    else:
        emit_t, emit_ch = _cw_emissions(model, pump, duration, rng_phys)

    c_times = emit_t[emit_ch == 0]
    x_times = emit_t[emit_ch == 1]
    # free each run-long array once it is read, before the merge sorts
    del emit_t, emit_ch
    if pump.background_feed_rate > 0:
        bg = _poisson_times(pump.background_feed_rate, duration, rng_bg)
        c_times = np.concatenate([c_times, bg])

    c_times = _apply_detector(c_times, det, rng_det, duration)
    x_times = _apply_detector(x_times, det, rng_det, duration)
    if det.dark_count_rate > 0:
        d_times = _poisson_times(det.dark_count_rate, duration, rng_dark)
    else:
        d_times = np.empty(0)

    # a stable sort of the times in channel order C, D, X puts clicks at
    # one time in that order
    times = np.concatenate([c_times, d_times, x_times])
    codes = np.repeat(np.array([ord("C"), ord("D"), ord("X")], np.uint32),
                      [len(c_times), len(d_times), len(x_times)])
    del c_times, d_times, x_times
    order = np.argsort(times, kind="stable")
    times, codes = times[order], codes[order]
    return ClickStream(times, codes.view("<U1"), duration, seed, config_hash)


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

