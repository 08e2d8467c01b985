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
from dataclasses import dataclass, replace

import numpy as np

from .spectral import idft

__all__ = [
    "Constellation",
    "OfdmParams",
    "SampleStream",
    "map_bits",
    "ofdm_symbol",
    "add_cp",
    "build_frame",
]

_QPSK_SCALE = 1.0 / np.sqrt(2.0)
_QAM16_SCALE = 1.0 / np.sqrt(10.0)
# Gray-coded amplitude levels indexed by the 2-bit pattern (b_hi << 1) | b_lo.
_QAM16_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0])


class Constellation(enum.Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"

    @property
    def bits_per_symbol(self) -> int:
        return 2 if self is Constellation.QPSK else 4


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
        if self.n_subcarriers < 2:
            raise ValueError(f"n_subcarriers must be >= 2, got {self.n_subcarriers}")
        if not 0 < self.cp_len < self.n_subcarriers:
            raise ValueError(
                f"cp_len must satisfy 0 < cp_len < n_subcarriers, "
                f"got cp_len={self.cp_len}, n_subcarriers={self.n_subcarriers}"
            )
        if self.symbols_per_frame < 1:
            raise ValueError(f"symbols_per_frame must be >= 1, got {self.symbols_per_frame}")

    @property
    def symbol_len(self) -> int:
        """CP-extended symbol length in samples."""
        return self.n_subcarriers + self.cp_len


@dataclass
class SampleStream:
    """Complex baseband buffer of shape (n_branches, buffer_len), one row per branch.

    A list of equal-length 1-D arrays is accepted and stacked into rows.
    sample_origin is the receiver's nominal start of symbol 0 (index of its
    first CP sample). payload_start/payload_stop bound the region that
    actually carries signal (everything outside is zero guard padding); the
    noise generator measures signal power over that region only.
    """

    branches: np.ndarray
    sample_origin: int
    payload_start: int = 0
    payload_stop: int | None = None

    def __post_init__(self) -> None:
        try:
            self.branches = np.asarray(self.branches, dtype=np.complex128)
        except ValueError as err:  # e.g. a ragged list of branches
            raise ValueError(f"branches must be numeric and share one shape: {err}") from None
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
        return float(np.mean(np.mean(np.abs(payload) ** 2, axis=1)))

    # Buffers are shared, not copied: impairments never mutate in place.
    def with_branches(self, branches) -> "SampleStream":
        return replace(self, branches=branches)

    def with_origin(self, sample_origin: int) -> "SampleStream":
        return replace(self, sample_origin=sample_origin)


def map_bits(bits, constellation: Constellation) -> np.ndarray:
    """Map a bit vector to Gray-coded unit-average-power constellation points."""
    b = np.asarray(bits, dtype=np.int64).ravel()
    if b.size and not np.all((b == 0) | (b == 1)):
        raise ValueError("bits must contain only 0s and 1s")
    k = constellation.bits_per_symbol
    if b.size % k != 0:
        raise ValueError(
            f"bit count {b.size} is not divisible by {k} "
            f"(bits per {constellation.value} symbol)"
        )
    pairs = b.reshape(-1, k)
    if constellation is Constellation.QPSK:
        return ((1 - 2 * pairs[:, 0]) + 1j * (1 - 2 * pairs[:, 1])) * _QPSK_SCALE
    i_level = _QAM16_LEVELS[(pairs[:, 0] << 1) | pairs[:, 1]]
    q_level = _QAM16_LEVELS[(pairs[:, 2] << 1) | pairs[:, 3]]
    return (i_level + 1j * q_level) * _QAM16_SCALE


def ofdm_symbol(data, params: OfdmParams) -> np.ndarray:
    """Time-domain body of one OFDM symbol: the inverse transform of data."""
    arr = np.asarray(data, dtype=np.complex128)
    if arr.size != params.n_subcarriers:
        raise ValueError(
            f"data has length {arr.size}, expected n_subcarriers={params.n_subcarriers}"
        )
    return idft(arr)


def add_cp(symbol, cp_len: int) -> np.ndarray:
    """Prepend the last cp_len samples of the symbol as its cyclic prefix."""
    arr = np.asarray(symbol, dtype=np.complex128)
    if not 0 < cp_len <= arr.size:
        raise ValueError(f"cp_len must be in (0, {arr.size}], got {cp_len}")
    return np.concatenate([arr[-cp_len:], arr])


def build_frame(params: OfdmParams, seed: int) -> SampleStream:
    """Generate one seeded frame of symbols_per_frame CP-extended symbols.

    The frame is padded with n_subcarriers zeros on both ends so that timing
    offsets up to +-N never index out of bounds. The constellation spectrum
    is scaled by sqrt(N) before the inverse transform, which puts the mean
    payload sample power at 1.0 (the 1/N inverse alone would leave 1/N).
    """
    rng = np.random.default_rng(seed)
    n = params.n_subcarriers
    gain = np.sqrt(n)
    symbols = []
    for _ in range(params.symbols_per_frame):
        bits = rng.integers(0, 2, size=n * params.constellation.bits_per_symbol)
        spectrum = map_bits(bits, params.constellation) * gain
        symbols.append(add_cp(idft(spectrum), params.cp_len))
    pad = np.zeros(n, dtype=np.complex128)
    buffer = np.concatenate([pad, *symbols, pad])
    return SampleStream(
        branches=buffer[np.newaxis],
        sample_origin=n,
        payload_start=n,
        payload_stop=n + params.symbols_per_frame * params.symbol_len,
    )
