"""Channel impairments: timing offset, multipath convolution, AWGN, CFO rotation.

All impairments are pure, seed-deterministic transforms that return new
SampleStream instances, valid by construction and not re-checked; input
buffers are never mutated. apply_cir and add_awgn name the overflow their
arithmetic can cause. SNR is defined per received sample (Es/N0) against the
measured payload power of the stream the noise is added to, i.e. after any
multipath convolution, so runs across channel types compare at equal receiver SNR.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .txgen import SampleStream, _check_integer

__all__ = [
    "CIR_FIXTURE",
    "CfoParams",
    "ChannelScenario",
    "replicate_branches",
    "apply_sto",
    "apply_cir",
    "random_cir",
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

_SNR_DB_RULE = f"use +inf or a value >= {MIN_SNR_DB:g} (not NaN) with 10^(snr_db/10) finite"


def _snr_db_sizes_noise(snr_db: float) -> bool:
    """True for +inf (no noise) or snr_db >= MIN_SNR_DB with 10^(snr_db/10) finite."""
    try:
        return snr_db == math.inf or (snr_db >= MIN_SNR_DB and 10.0 ** (snr_db / 10.0) < math.inf)
    except OverflowError:
        return False


@dataclass(frozen=True)
class CfoParams:
    """Carrier frequency offset description.

    epsilon is the normalized offset in cycles per n_subcarriers samples.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")


@dataclass(frozen=True)
class ChannelScenario:
    """Full impairment description for one run.

    snr_db may be math.inf, the documented no-noise sentinel. cir_taps is
    stored as a tuple of complex, whatever sequence or array it is given as;
    empty means an ideal (single unit tap) channel.
    """

    snr_db: float
    cir_taps: tuple[complex, ...] = ()
    cfo: CfoParams | None = None
    rx_branches: int = 1

    def __post_init__(self) -> None:
        if not _snr_db_sizes_noise(self.snr_db):
            raise ValueError(f"snr_db={self.snr_db} cannot size noise; {_SNR_DB_RULE}")
        if self.cfo is not None and not isinstance(self.cfo, CfoParams):
            raise ValueError(f"cfo must be a CfoParams or None, got {self.cfo!r}")
        _check_integer("rx_branches", self.rx_branches)
        if self.rx_branches < 1:
            raise ValueError(f"rx_branches must be >= 1, got {self.rx_branches}")
        taps = tuple(map(complex, self.cir_taps))
        object.__setattr__(self, "cir_taps", taps)
        if not all(math.isfinite(t.real) and math.isfinite(t.imag) for t in taps):
            raise ValueError("cir_taps must be finite")


def replicate_branches(stream: SampleStream, n_branches: int) -> SampleStream:
    """Broadcast a single-branch stream to n_branches identical branches."""
    if stream.n_branches != 1:
        raise ValueError(f"expected a single-branch stream, got {stream.n_branches}")
    if n_branches < 1:
        raise ValueError(f"n_branches must be >= 1, got {n_branches}")
    wide = np.broadcast_to(stream.branches, (n_branches, stream.buffer_len))
    return stream._derive(branches=wide)


def apply_sto(stream: SampleStream, delta: int) -> SampleStream:
    """Displace the receiver's nominal symbol start by the timing offset delta.

    Positive delta means the symbol actually begins delta samples after the
    receiver's assumed start (the signal is late in the receiver's window),
    which is the convention under which the estimators recover delta itself.
    Sample values are untouched; only sample_origin moves.
    """
    new_origin = stream.sample_origin - delta
    if not 0 <= new_origin < stream.buffer_len:
        raise ValueError(
            f"delta={delta} moves sample_origin to {new_origin}, "
            f"outside buffer [0, {stream.buffer_len})"
        )
    return stream._derive(sample_origin=new_origin)


def apply_cir(stream: SampleStream, taps) -> SampleStream:
    """Per-branch linear convolution with the channel impulse response.

    Output is truncated to the input length; the tail transient is absorbed
    by the frame's trailing zero guard, which keeps index bookkeeping exact
    for timing scoring.

    Only the columns the input's non-zero samples reach are convolved: from
    the first column where any branch is non-zero up to len(taps) - 1 past
    the last one. The columns outside stay exact zeros, and every column
    inside is the same dot over the same samples as np.convolve of the whole
    row, so the output equals np.convolve(b, taps)[:b.size] bit for bit.
    """
    h = np.asarray(taps, dtype=np.complex128).ravel()
    if h.size == 0:
        raise ValueError("cir taps must contain at least one coefficient")
    if not np.all(np.isfinite(h)):
        raise ValueError("cir taps must be finite")
    out = np.zeros(stream.branches.shape, dtype=np.complex128)
    # The support is scanned, not read from the payload bounds: noise fills the guards.
    support = np.flatnonzero(stream.branches.any(axis=0))
    if support.size:
        lo, hi = support[0], min(support[-1] + h.size, stream.buffer_len)
        start = max(lo - h.size + 1, 0)
        # numpy has no batched 1-D convolve, so this is one call per row.
        for row, b in zip(out, stream.branches):
            row[lo:hi] = np.convolve(b[start:hi], h)[lo - start : hi - start]
        if not np.isfinite(out[:, lo:hi]).all():
            raise ValueError("apply_cir output is non-finite: the convolution overflows float64")
    return stream._derive(branches=out)


def random_cir(n_taps: int, seed: int, normalize: bool = False) -> np.ndarray:
    """Draw i.i.d. complex-Gaussian taps (g_re + j*g_im)/sqrt(2), unit tap variance.

    Tap magnitudes are therefore Rayleigh distributed. With normalize=True
    the taps are rescaled so sum(|h|^2) == 1.
    """
    if n_taps < 1:
        raise ValueError(f"n_taps must be >= 1, got {n_taps}")
    rng = np.random.default_rng(seed)
    taps = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) / np.sqrt(2.0)
    if normalize:
        taps /= np.sqrt(np.sum(np.abs(taps) ** 2))
    return taps


def add_awgn(stream: SampleStream, snr_db: float, seed: int) -> SampleStream:
    """Add circular complex Gaussian noise sized against measured payload power.

    Per-sample noise variance is P_sig / 10^(snr_db/10) with P_sig the mean
    payload power of the input stream. snr_db == +inf disables noise. Noise
    is drawn independently per branch from one seeded generator: one
    (n_branches, 2, buffer_len) draw, real then imaginary part per branch.
    """
    if not _snr_db_sizes_noise(snr_db):
        raise ValueError(f"snr_db={snr_db} cannot size noise; {_SNR_DB_RULE}")
    if snr_db == math.inf:
        return stream
    p_sig = stream.payload_power()
    if p_sig == 0.0:
        raise ValueError("cannot size noise against a zero-power payload")
    sigma2 = p_sig / 10.0 ** (snr_db / 10.0)
    if not math.isfinite(sigma2):  # finite-variance noise cannot overflow a finite stream
        raise ValueError("noise variance is non-finite: the payload power overflows float64")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(sigma2 / 2.0)
    draws = rng.standard_normal((stream.n_branches, 2, stream.buffer_len))
    noise = np.empty((stream.n_branches, stream.buffer_len), dtype=np.complex128)
    noise.real = draws[:, 0]
    noise.imag = draws[:, 1]
    noise *= scale
    noise += stream.branches
    return stream._derive(branches=noise)


def apply_cfo(stream: SampleStream, epsilon: float, n_fft: int) -> SampleStream:
    """Rotate sample m by exp(j*2*pi*epsilon*m/n_fft) on every branch."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if n_fft < 1:
        raise ValueError(f"n_fft must be >= 1, got {n_fft}")
    ramp = _cfo_ramp(stream.buffer_len, epsilon, n_fft, math.copysign(1.0, epsilon))
    return stream._derive(branches=stream.branches * ramp)


@functools.lru_cache(maxsize=32, typed=True)
def _cfo_ramp(buffer_len: int, epsilon: float, n_fft: int, sign: float) -> np.ndarray:
    """apply_cfo's phase ramp, read-only and memoised: every trial of a cell shares it.

    The key matches epsilon exactly. typed keeps 0.5 apart from np.float32(0.5),
    whose product rounds differently. sign keeps -0.0 apart from 0.0: they compare
    equal, and their ramps agree only while np.exp maps the signed zeros of the
    product to the same values.
    """
    phase = np.exp(2j * np.pi * epsilon * np.arange(buffer_len) / n_fft)
    phase.flags.writeable = False
    return phase
