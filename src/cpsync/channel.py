"""Channel impairments (timing offset, multipath convolution, AWGN, CFO rotation)
and the frequency response of a tap vector.

All impairments are pure, seed-deterministic transforms that return a SampleStream,
valid by construction and not re-checked: a new one, except that add_awgn at
snr_db=+inf returns its input. Input buffers are never mutated. apply_cir writes a
fresh array. add_awgn and apply_cfo, which run after replicate_branches and so write
one row per receive branch, take their arrays from _buffer: a fresh array that the
caller owns, except inside run_monte_carlo's trial-buffer scope (_trial_buffers),
where a stage writes the same array every trial. apply_cir, add_awgn, apply_cfo and
freq_response name the overflow their arithmetic can cause, with no numpy warning
first. SNR is defined per received sample (Es/N0) against the measured payload power
of the stream the noise is added to, i.e. after any multipath convolution, so runs
across channel types compare at equal receiver SNR.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np

from .txgen import SampleStream, _instance, _integer, _names_overflow, _numbers, _real

__all__ = [
    "CIR_FIXTURE",
    "CfoParams",
    "ChannelScenario",
    "replicate_branches",
    "apply_sto",
    "apply_cir",
    "random_cir",
    "freq_response",
    "add_awgn",
    "apply_cfo",
]

# Frozen ten-tap multipath snapshot used by the canned Rayleigh scenarios,
# so fading runs are reproducible. Energy sum(|h|^2) ~= 1.1346; the dominant
# tap sits at index 6, which is what drags timing estimates away from the
# transmitted offset in the fading scenarios.
CIR_FIXTURE: tuple[complex, ...] = (
    -0.2338 + 0.1770j,
    0.1573 - 0.0179j,
    0.1352 + 0.1641j,
    -0.1318 - 0.2919j,
    -0.1715 + 0.3104j,
    0.5049 - 0.1209j,
    0.2021 - 0.6263j,
    0.0621 + 0.1324j,
    0.1568 - 0.0362j,
    0.0113 - 0.0004j,
)


# Lowest accepted SNR. Near -3000 dB the noise variance or the metric sums
# overflow float64; -300 dB leaves a margin of some 10^270 for both.
MIN_SNR_DB = -300.0


def _check_snr_db(snr_db) -> float:
    """snr_db as a float, if +inf (no noise) or >= MIN_SNR_DB with 10^(snr_db/10) finite."""
    try:
        value = _real("snr_db", snr_db)
        # +inf passes only as given: a longdouble beyond float64 becomes inf in value.
        if snr_db == math.inf or (value >= MIN_SNR_DB and 10.0 ** (value / 10.0) < math.inf):
            return value
    except OverflowError:  # from _real or from 10^(snr_db/10)
        pass
    rule = f"use +inf or a value >= {MIN_SNR_DB:g} (not NaN) with 10^(snr_db/10) finite"
    raise ValueError(f"snr_db={snr_db!s} cannot size noise; {rule}")


def _check_epsilon(epsilon) -> float:
    """epsilon as a float; refuse one that is not a finite real number."""
    try:
        if math.isfinite(value := _real("epsilon", epsilon)):
            return value
    except OverflowError:  # from _real: an int beyond float64's range
        pass
    raise ValueError(f"epsilon must be finite, got {epsilon!s}")


@dataclass(frozen=True)
class CfoParams:
    """Carrier frequency offset description.

    epsilon, stored as a float, is the normalized offset in cycles per n_subcarriers samples.
    """

    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))


@dataclass(frozen=True)
class ChannelScenario:
    """Full impairment description for one run.

    snr_db is stored as a float and may be math.inf, the no-noise sentinel.
    cir_taps is stored as a flat tuple of complex, whatever sequence, nesting
    or array it is given as; empty means an ideal (single unit tap) channel,
    and taps whose energy sum(|h|^2) is 0 in float64 are refused, since no
    signal would reach the receiver.
    """

    snr_db: float
    cir_taps: tuple[complex, ...] = ()
    cfo: CfoParams | None = None
    rx_branches: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_db", _check_snr_db(self.snr_db))
        if self.cfo is not None and not isinstance(self.cfo, CfoParams):
            raise ValueError(f"cfo must be a CfoParams or None, got {self.cfo!r}")
        object.__setattr__(self, "rx_branches", _integer("rx_branches", self.rx_branches, 1))
        h = _tap_array(self.cir_taps, "cir_taps")
        if h.size and np.vdot(h, h).real == 0:  # sum(|h|^2), with no warning if it overflows
            raise ValueError(f"cir_taps must have energy sum(|h|^2) > 0, got {self.cir_taps!r}")
        object.__setattr__(self, "cir_taps", tuple(h.tolist()))


def replicate_branches(stream: SampleStream, n_branches: int) -> SampleStream:
    """Broadcast a single-branch stream to n_branches identical branches."""
    _instance("stream", stream, SampleStream)
    if stream.n_branches != 1:
        raise ValueError(f"expected a single-branch stream, got {stream.n_branches}")
    n_branches = _integer("n_branches", n_branches, 1)
    wide = np.broadcast_to(stream.branches, (n_branches, stream.buffer_len))
    return stream._derive(branches=wide)


def apply_sto(stream: SampleStream, delta: int) -> SampleStream:
    """Displace the receiver's nominal symbol start by the timing offset delta.

    Positive delta means the symbol actually begins delta samples after the
    receiver's assumed start (the signal is late in the receiver's window),
    which is the convention under which the estimators recover delta itself.
    Sample values are untouched; only sample_origin moves.
    """
    _instance("stream", stream, SampleStream)
    delta = _integer("delta", delta)
    new_origin = stream.sample_origin - delta
    if not 0 <= new_origin < stream.buffer_len:
        raise ValueError(
            f"delta={delta} moves sample_origin to {new_origin}, "
            f"outside buffer [0, {stream.buffer_len})"
        )
    return stream._derive(sample_origin=new_origin)


def _tap_array(taps, name: str) -> np.ndarray:
    """taps as a 1-D complex128 array; refuse non-numbers or a non-finite tap under name."""
    h = _numbers(name, taps).astype(np.complex128, copy=False).ravel()
    if not np.isfinite(h).all():
        raise ValueError(f"{name} must be finite")
    return h


def _checked_taps(taps, name: str) -> np.ndarray:
    """_tap_array's taps, refusing an empty tap vector under name."""
    h = _tap_array(taps, name)
    if h.size == 0:
        raise ValueError(f"{name} must contain at least one coefficient")
    return h


@_names_overflow
def apply_cir(stream: SampleStream, taps) -> SampleStream:
    """Per-branch linear convolution with the channel impulse response.

    Output is truncated to the input length; the tail transient is absorbed
    by the frame's trailing zero guard, which keeps index bookkeeping exact
    for timing scoring.

    Only the columns the input's non-zero samples reach are convolved: from
    the first column where any branch is non-zero up to len(taps) - 1 past
    the last one. The columns outside stay exact zeros. Inside, the sum runs
    tap-major: one broadcast multiply-add per tap over every row, so output
    sample j is the sum over k of taps[k] * b[j - k], added in tap order.
    Each row comes out as it would alone, and equal to np.convolve of the row
    to within rounding. The bits hold for one numpy build and CPU: numpy
    dispatches its complex multiply to a SIMD kernel chosen at run time.
    """
    _instance("stream", stream, SampleStream)
    h = _checked_taps(taps, "cir taps")
    x = stream.branches
    out = np.zeros(x.shape, np.complex128)
    # The support is scanned, not read from the payload bounds: noise fills the guards.
    support = np.flatnonzero(x.any(axis=0))
    if support.size:
        lo, hi = int(support[0]), min(int(support[-1]) + h.size, stream.buffer_len)
        for k in range(min(h.size, hi - lo)):
            out[:, lo + k : hi] += h[k] * x[:, lo : hi - k]
        if not np.isfinite(out[:, lo:hi]).all():
            raise ValueError("apply_cir output is non-finite: the convolution overflows float64")
    return stream._derive(branches=out)


def random_cir(n_taps: int, seed: int, normalize: bool = False) -> np.ndarray:
    """Draw i.i.d. complex-Gaussian taps (g_re + j*g_im)/sqrt(2), unit tap variance.

    Tap magnitudes are therefore Rayleigh distributed. With normalize=True
    the taps are rescaled so sum(|h|^2) == 1.
    """
    n_taps = _integer("n_taps", n_taps, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    taps = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) / np.sqrt(2.0)
    if _instance("normalize", normalize, bool):
        taps /= np.sqrt(np.sum(np.abs(taps) ** 2))
    return taps


@_names_overflow
def freq_response(taps, n_points: int) -> list[tuple[int, float, float]]:
    """Frequency response of a tap vector on an n_points-bin grid.

    Returns (bin index, magnitude in dB, phase in radians) per bin, phase
    wrapped to (-pi, pi]. An exact-zero bin reports -inf dB; an overflowing one raises ValueError.
    """
    h = _checked_taps(taps, "taps")
    n_points = _integer("n_points", n_points)
    if n_points < h.size:
        raise ValueError(f"n_points={n_points} smaller than tap count {h.size}")
    response = np.fft.fft(h, n_points)  # numpy zero-pads h to n_points
    magnitude = np.abs(response)
    if not np.isfinite(magnitude).all():
        raise ValueError("freq_response output overflows float64")
    with np.errstate(divide="ignore"):
        magnitude_db = 20.0 * np.log10(magnitude)
    phase = np.angle(response)
    phase[phase == -np.pi] = np.pi
    return [(k, float(magnitude_db[k]), float(phase[k])) for k in range(n_points)]


# Each thread's trial buffers, as a thread starts in a context of its own: a
# name -> array dict inside _trial_buffers, else None.
_BUFFERS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_BUFFERS", default=None)


@contextlib.contextmanager
def _trial_buffers():
    """A scope in which _buffer hands each name the same array on every call of this thread.

    The arrays are dropped on exit, and any outer scope is restored. A stream
    built inside the scope lives only until a later stage writes the same name.
    """
    token = _BUFFERS.set({})
    try:
        yield
    finally:
        _BUFFERS.reset(token)


def _buffer(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array: the scope's array for name, new if absent or reshaped; else fresh.

    Each name is used with one dtype, so only the shape is compared.
    """
    buffers = _BUFFERS.get()
    if buffers is None:
        return np.empty(shape, dtype)
    array = buffers.get(name)
    if array is None or array.shape != shape:
        array = buffers[name] = np.empty(shape, dtype)
    return array


@_names_overflow
def add_awgn(stream: SampleStream, snr_db: float, seed: int) -> SampleStream:
    """Add circular complex Gaussian noise sized against measured payload power.

    Per-sample noise variance is P_sig / 10^(snr_db/10) with P_sig the mean
    payload power of the input stream. snr_db == +inf disables noise. Noise
    is drawn independently per branch from one seeded generator: one
    (n_branches, 2, buffer_len) draw, real then imaginary part per branch.
    """
    _instance("stream", stream, SampleStream)
    snr_db = _check_snr_db(snr_db)
    seed = _integer("seed", seed, 0)
    if snr_db == math.inf:
        return stream
    p_sig = stream.payload_power()
    if p_sig == 0.0:
        raise ValueError("cannot size noise against a zero-power payload")
    sigma2 = p_sig / 10.0 ** (snr_db / 10.0)
    if not math.isfinite(sigma2):  # finite-variance noise cannot overflow a finite stream
        raise ValueError("noise variance is non-finite: the payload power overflows float64")
    rng = np.random.default_rng(seed)
    scale = math.sqrt(sigma2 / 2.0)
    draws = _buffer("awgn draws", (stream.n_branches, 2, stream.buffer_len), np.float64)
    rng.standard_normal(out=draws)
    noise = _buffer("awgn", stream.branches.shape, np.complex128)
    noise.real = draws[:, 0]
    noise.imag = draws[:, 1]
    noise *= scale
    noise += stream.branches
    return stream._derive(branches=noise)


def apply_cfo(stream: SampleStream, epsilon: float, n_fft: int) -> SampleStream:
    """Rotate sample m by exp(j*2*pi*epsilon*m/n_fft) on every branch."""
    _instance("stream", stream, SampleStream)
    epsilon = _check_epsilon(epsilon)
    n_fft = _integer("n_fft", n_fft, 1)
    ramp = _cfo_ramp(stream.buffer_len, epsilon, n_fft, math.copysign(1.0, epsilon))
    rotated = _buffer("cfo", stream.branches.shape, np.complex128)
    return stream._derive(branches=np.multiply(stream.branches, ramp, out=rotated))


@functools.lru_cache(maxsize=32)
@_names_overflow
def _cfo_ramp(buffer_len: int, epsilon: float, n_fft: int, sign: float) -> np.ndarray:
    """apply_cfo's read-only ramp, memoised for a cell's trials; sign keys -0.0 apart from 0.0.

    A ramp whose phase overflows is refused, and lru_cache keeps no call that raised.
    """
    phase = np.exp(2j * np.pi * epsilon * np.arange(buffer_len) / n_fft)
    if not np.isfinite(phase).all():
        raise ValueError(
            f"epsilon={epsilon!s} makes the phase ramp non-finite over {buffer_len} samples"
        )
    phase.flags.writeable = False
    return phase
