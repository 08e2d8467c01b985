"""Transmit-side frame generation: bits -> constellation -> inverse DFT -> cyclic prefix.

Gray-mapping conventions are fixed here and pinned by tests:

    QPSK  (2 bits, b0 b1):    ((1 - 2*b0) + 1j*(1 - 2*b1)) / sqrt(2)
                              so 00 -> (1+1j)/sqrt(2)
    QAM16 (4 bits, b0..b3):   I from (b0, b1), Q from (b2, b3), levels
                              Gray-coded 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3,
                              point = (I + 1j*Q) / sqrt(10)

Both constellations have exactly unit average power.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
# numpy's own inverse FFT; the name idft stays because perfbench's tracer times it.
from numpy.fft import ifft as idft

__all__ = [
    "Constellation",
    "OfdmParams",
    "SampleStream",
    "map_bits",
    "build_frame",
]

_QPSK_SCALE = 1.0 / np.sqrt(2.0)
_QAM16_SCALE = 1.0 / np.sqrt(10.0)
# QPSK points indexed by (b0 << 1) | b1, from the docstring's expression.
_QPSK_POINTS = ((1 - 2 * (np.arange(4) >> 1)) + 1j * (1 - 2 * (np.arange(4) & 1))) * _QPSK_SCALE
# Gray-coded amplitude levels indexed by the 2-bit pattern (b_hi << 1) | b_lo.
_QAM16_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0])


class Constellation(enum.Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"

    @property
    def bits_per_symbol(self) -> int:
        return 2 if self is Constellation.QPSK else 4


def _integer(name: str, value, minimum: int | None = None) -> int:
    """value as a Python int; refuse a non-integer (bool included) or one below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _real(name: str, value) -> float:
    """value as a Python float; refuse a non-real (bool, text, None and complex included)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)  # an int beyond float64's range raises OverflowError


def _numbers(name: str, value) -> np.ndarray:
    """value as an array of bool, integer, real or complex numbers; else refuse it under name.

    numpy parses text and bytes for a number dtype, so "12" would otherwise pass as 12.
    """
    try:
        array = np.asarray(value)
    except ValueError as err:  # e.g. a ragged list of rows
        raise ValueError(f"{name} must be numeric and share one shape: {err}") from None
    if array.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be numbers, got {value!r}")
    return array


def _instance(name: str, value, cls: type):
    """value, if it is a cls instance; else refuse it, naming the field and the class."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOUaeiou" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class OfdmParams:
    """Static description of one OFDM waveform configuration.

    n_subcarriers is both the IDFT size and the body length of a symbol in
    samples; cp_len is the guard prefix length.
    """

    n_subcarriers: int
    cp_len: int
    constellation: Constellation = Constellation.QPSK
    symbols_per_frame: int = 4

    def __post_init__(self) -> None:
        for name, minimum in (("n_subcarriers", 2), ("cp_len", None), ("symbols_per_frame", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        _instance("constellation", self.constellation, Constellation)
        if not 0 < self.cp_len < self.n_subcarriers:
            raise ValueError(
                f"cp_len must satisfy 0 < cp_len < n_subcarriers, "
                f"got cp_len={self.cp_len}, n_subcarriers={self.n_subcarriers}"
            )

    @property
    def symbol_len(self) -> int:
        """CP-extended symbol length in samples."""
        return self.n_subcarriers + self.cp_len


def _unchecked(cls, **fields):
    """A dataclass instance that is valid by construction, built without __post_init__."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass
class SampleStream:
    """Complex baseband buffer of shape (n_branches, buffer_len), one row per branch.

    A list of equal-length 1-D arrays is accepted and stacked into rows. The
    rows are stored C-contiguous: an array of any other layout is copied.
    sample_origin is the receiver's nominal start of symbol 0 (index of its
    first CP sample), in [0, buffer_len). payload_start/payload_stop bound the
    region that actually carries signal (build_frame leaves zeros outside it,
    which add_awgn fills with noise); the noise generator measures signal power
    over that region only. The three are stored as Python ints.
    """

    branches: np.ndarray
    sample_origin: int
    payload_start: int = 0
    payload_stop: int | None = None

    def __post_init__(self) -> None:
        branches = _numbers("branches", self.branches)
        self.branches = np.asarray(branches, dtype=np.complex128, order="C")
        shape = self.branches.shape
        if shape[:1] == (0,):
            raise ValueError("SampleStream needs at least one branch")
        if len(shape) != 2:
            raise ValueError(f"branches have shape {shape}, expected (n_branches, buffer_len)")
        finite = np.isfinite(self.branches)
        if not finite.all():
            bad = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise ValueError(f"branch {bad} contains non-finite samples")
        length = shape[1]
        if self.payload_stop is None:
            self.payload_stop = length
        for name in ("sample_origin", "payload_start", "payload_stop"):
            setattr(self, name, _integer(name, getattr(self, name)))
        if not 0 <= self.sample_origin < length:
            raise ValueError(f"sample_origin={self.sample_origin} outside buffer [0, {length})")
        if not 0 <= self.payload_start <= self.payload_stop <= length:
            raise ValueError(
                f"payload bounds [{self.payload_start}, {self.payload_stop}) "
                f"invalid for buffer of length {length}"
            )

    @property
    def n_branches(self) -> int:
        return self.branches.shape[0]

    @property
    def buffer_len(self) -> int:
        return self.branches.shape[1]

    def payload_power(self) -> float:
        """Mean |sample|^2 over the payload region, averaged across branches."""
        if self.payload_stop == self.payload_start:
            raise ValueError("stream has an empty payload region")
        payload = self.branches[:, self.payload_start : self.payload_stop]
        # np.mean's own arithmetic, a sum and one division per level, without its wrapper.
        row_means = np.add.reduce(np.abs(payload) ** 2, axis=1) / payload.shape[1]
        return float(np.add.reduce(row_means) / row_means.size)

    def _derive(self, **changes) -> "SampleStream":
        """This stream with fields changed and not re-validated; buffers are shared."""
        return _unchecked(SampleStream, **{**vars(self), **changes})


def map_bits(bits, constellation: Constellation) -> np.ndarray:
    """Map a bit vector to Gray-coded unit-average-power constellation points."""
    _instance("constellation", constellation, Constellation)
    b = _numbers("bits", bits).ravel()
    ones = b == 1
    if not np.all(ones | (b == 0)):
        raise ValueError("bits must contain only 0s and 1s")
    k = constellation.bits_per_symbol
    if b.size % k != 0:
        raise ValueError(
            f"bit count {b.size} is not divisible by {k} "
            f"(bits per {constellation.value} symbol)"
        )
    return _points(ones.astype(np.int64).reshape(-1, k), constellation)


def _points(pairs: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Points of a (points, bits per point) int64 array that holds only 0s and 1s."""
    if constellation is Constellation.QPSK:
        return _QPSK_POINTS[(pairs[:, 0] << 1) | pairs[:, 1]]
    i_level = _QAM16_LEVELS[(pairs[:, 0] << 1) | pairs[:, 1]]
    q_level = _QAM16_LEVELS[(pairs[:, 2] << 1) | pairs[:, 3]]
    return (i_level + 1j * q_level) * _QAM16_SCALE


def build_frame(params: OfdmParams, seed: int) -> SampleStream:
    """Generate one seeded frame of symbols_per_frame CP-extended symbols.

    The frame is padded with n_subcarriers zeros on both ends so that timing
    offsets up to +-N never index out of bounds. The constellation spectrum
    is scaled by sqrt(N) before the inverse transform, which puts the mean
    payload sample power at 1.0 (the 1/N inverse alone would leave 1/N).

    All bits come from one (symbols, bits per symbol) draw, which yields the
    same bits as one draw per symbol in turn, and one inverse transform of
    the stacked spectra.
    """
    rng = np.random.default_rng(_integer("seed", seed, 0))
    n, cp, count = params.n_subcarriers, params.cp_len, params.symbols_per_frame
    k = params.constellation.bits_per_symbol
    # A 0/1 draw reads map_bits' point tables directly, without its checks.
    bits = rng.integers(0, 2, size=(count, n * k))
    bodies = idft(_points(bits.reshape(-1, k), params.constellation).reshape(count, n) * np.sqrt(n))
    payload_stop = n + count * params.symbol_len
    buffer = np.zeros((1, payload_stop + n), np.complex128)
    symbols = buffer[0, n:payload_stop].reshape(count, params.symbol_len)
    symbols[:, :cp] = bodies[:, -cp:]
    symbols[:, cp:] = bodies
    # Zeros plus the transform of unit-power points: finite by construction.
    return _unchecked(
        SampleStream, branches=buffer, sample_origin=n, payload_start=n, payload_stop=payload_stop
    )
