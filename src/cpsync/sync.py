"""Sliding-window symbol-timing estimators built on cyclic-prefix redundancy.

Every CP-extended symbol repeats its first cp_len samples n_fft samples
later, so a received stream y carries lag-n_fft structure that survives an
unknown integer timing offset. With n the receiver's nominal symbol start,
each candidate offset d scores a cp_len-long block against its lag-n_fft
partner, accumulated over symbols_averaged consecutive symbol periods and
over all receive branches l:

    CBM            value(d) = | sum_{l,s,i} y_l[b+i] * conj(y_l[b+n_fft+i]) |
    DBM_MAGNITUDE  value(d) = sum_{l,s,i} (|y_l[b+i]| - |y_l[b+n_fft+i]|)^2
    DBM_LITERAL    value(d) = sum_{l,s,i} |y_l[b+i] - conj(y_l[b+n_fft+i])|^2

with b = n + s*(n_fft+cp_len) + d and i in [0, cp_len). CBM picks the arg
max, the DBM variants the arg min. DBM_MAGNITUDE is the default difference
form: it is exactly zero at the true offset and depends only on sample
magnitudes, so its decisions are invariant under carrier frequency offset.
DBM_LITERAL (subtracting the conjugate instead of comparing magnitudes) is
kept selectable so its behaviour is observable; it carries neither the
zero-at-true-offset nor the CFO-invariance property.

CBM carries no noiseless exactness guarantee either. At the true offset it
scores the CP-window energy sum |y|^2, but a neighbouring offset can score
more: it drops one weak CP-edge sample and gains a cross term that happens
to be larger. For example, the noiseless 128/32 frame built from seed
derive_seed(0, "noiseless-exactness", 21) and shifted by 21 scores 132.364
at offset 22 against 131.770 at 21, so CBM's arg max is 22.

The sums run in one fixed order: each (branch, symbol) row of per-index
terms is added to the running total branch-major, then symbol, one row
after another. Every output is bit-for-bit that of a plain loop over the
rows, so that order is part of the contract. The block pairs are read
through one np.ndarray view of the stream's buffer, and the candidate
windows through one np.ndarray view of the accumulated series; neither
copies, and numpy checks that each view lies inside its buffer.

Ties are broken toward the smallest |d|, then the smaller d.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .txgen import OfdmParams, SampleStream, _check_integer, _unchecked

__all__ = [
    "Method",
    "EstimatorConfig",
    "MetricTrace",
    "estimate_sto",
    "default_config",
]


class Method(enum.Enum):
    CBM = "cbm"
    DBM_MAGNITUDE = "dbm-mag"
    DBM_LITERAL = "dbm-lit"

    @property
    def maximizes(self) -> bool:
        return self is Method.CBM


@dataclass(frozen=True)
class EstimatorConfig:
    """Search window and accumulation settings for one estimator run.

    n is the receiver's nominal start of symbol 0 within the buffer; the
    candidate offsets search_min..search_max are relative to it.
    """

    method: Method
    search_min: int
    search_max: int
    n: int
    n_fft: int
    cp_len: int
    symbols_averaged: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.method, Method):
            raise ValueError(f"method must be a Method, got {self.method!r}")
        if not self.search_min <= 0 <= self.search_max:
            raise ValueError(
                f"search range [{self.search_min}, {self.search_max}] must contain 0"
            )
        if self.cp_len < 1:
            raise ValueError(f"cp_len must be >= 1, got {self.cp_len}")
        if self.n_fft < self.cp_len:
            raise ValueError(
                f"n_fft must be >= cp_len, got n_fft={self.n_fft}, cp_len={self.cp_len}"
            )
        if self.symbols_averaged < 1:
            raise ValueError(f"symbols_averaged must be >= 1, got {self.symbols_averaged}")

    @property
    def stride(self) -> int:
        return self.n_fft + self.cp_len

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.search_min, self.search_max + 1)


@dataclass
class MetricTrace:
    """Metric values over all candidate offsets plus the argoptimum decision."""

    offsets: np.ndarray
    values: np.ndarray
    argopt: int

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.offsets.ndim != 1 or self.offsets.shape != self.values.shape:
            raise ValueError("offsets and values must be 1-D and of equal length")
        if self.offsets.size == 0:
            raise ValueError("trace must contain at least one candidate")
        if not np.all(np.diff(self.offsets) > 0):
            raise ValueError("offsets must be strictly increasing")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("metric values must be finite and >= 0")
        if not np.any(self.offsets == self.argopt):
            raise ValueError(f"argopt {self.argopt} is not a candidate offset")

    @property
    def opt_value(self) -> float:
        """The metric value at argopt."""
        return float(self.values[np.searchsorted(self.offsets, self.argopt)])


def _search_limits(buffer_len: int, n: int, stride: int, symbols_averaged: int) -> tuple[int, int]:
    """Widest candidate range whose reads, n + d to the last lag block's end, fit the buffer."""
    return -n, buffer_len - n - symbols_averaged * stride


def _check_window(stream: SampleStream, cfg: EstimatorConfig) -> None:
    """Reject a sweep whose lowest or highest touched index leaves the buffer."""
    lowest, highest = _search_limits(stream.buffer_len, cfg.n, cfg.stride, cfg.symbols_averaged)
    if cfg.search_min < lowest or cfg.search_max > highest:
        lo = cfg.n + cfg.search_min
        hi = cfg.n + cfg.search_max + cfg.symbols_averaged * cfg.stride - 1
        raise ValueError(
            f"estimator window touches [{lo}, {hi}] which exceeds the "
            f"buffer [0, {stream.buffer_len})"
        )


def _accumulated_pair_series(stream: SampleStream, cfg: EstimatorConfig) -> np.ndarray:
    """Per-index pair statistic summed over branches and symbol periods.

    Index i of the result corresponds to candidate-relative position
    search_min + i; a window sum of cp_len consecutive entries is the metric
    for one candidate. Every lead block and its lag-n_fft partner are read
    through one (branches, symbols, lead|lag, span) view of the stream's
    own buffer.
    """
    span = cfg.search_max - cfg.search_min + cfg.cp_len
    branches = stream.branches
    row_step, step = branches.strides
    # A broadcast stream (row stride 0) repeats its first row, whose buffer holds every sample.
    buffer = branches if row_step else branches[0]
    pairs = np.ndarray(
        (stream.n_branches, cfg.symbols_averaged, 2, span),
        branches.dtype,
        buffer,
        (cfg.n + cfg.search_min) * step,
        (row_step, cfg.stride * step, cfg.n_fft * step, step),
    )
    lead, lag = pairs[:, :, 0], pairs[:, :, 1]
    if cfg.method is Method.CBM:
        # out=: numpy's temporary elision would swap the operands and change last bits.
        term = np.multiply(lead, np.conj(lag), out=np.empty(lead.shape, dtype=np.complex128))
    elif cfg.method is Method.DBM_LITERAL:
        term = np.abs(lead - np.conj(lag)) ** 2
    else:
        term = (np.abs(lead) - np.abs(lag)) ** 2
    rows = term.reshape(-1, span)
    if span == 1:
        # One entry per row leaves one contiguous column, which reduce would sum
        # pairwise and so change the last bits; accumulate adds row after row.
        return np.add.accumulate(rows, axis=0)[-1]
    # With 2 or more entries per row, reduce adds row after row, the order of
    # the contract, without writing every partial sum as accumulate does.
    return np.add.reduce(rows, axis=0)


def _argopt(offsets: np.ndarray, values: np.ndarray, maximize: bool) -> int:
    opt = values.max() if maximize else values.min()
    ties = offsets[values == opt]
    if ties.size == 1:  # the common case needs no tie rule
        return int(ties[0])
    return min((int(d) for d in ties), key=lambda d: (abs(d), d))


def estimate_sto(stream: SampleStream, cfg: EstimatorConfig) -> MetricTrace:
    """Evaluate the configured metric over every candidate offset.

    The sliding evaluation is numerically equivalent to an independent
    per-candidate summation (guarded by tests against a brute-force oracle).
    """
    _check_window(stream, cfg)
    series = _accumulated_pair_series(stream, cfg)
    # series holds span >= cp_len entries, so every window lies inside it;
    # np.ndarray over its buffer costs no Python-level stride helper.
    step = series.itemsize
    width = series.size - cfg.cp_len + 1
    windows = np.ndarray((width, cfg.cp_len), series.dtype, series, 0, (step, step)).sum(axis=1)
    if cfg.method is Method.CBM:
        values = np.abs(windows)
    else:
        values = windows  # sums of squared differences, already >= 0
    if not np.isfinite(values).all():
        raise ValueError(
            f"{cfg.method.value} metric values are not finite: the stream's sums overflow"
        )
    offsets = cfg.offsets
    argopt = _argopt(offsets, values, cfg.method.maximizes)
    # arange offsets, finite non-negative values and an argopt drawn from
    # them: the trace is valid by construction, so it skips re-validation.
    return _unchecked(MetricTrace, offsets=offsets, values=values, argopt=argopt)


def _search_half_width(params: OfdmParams) -> int:
    return 2 * params.cp_len


def check_search_offset(name: str, sto: int, params: OfdmParams) -> None:
    """Reject a non-integer offset, or one that default_config's search cannot recover.

    The rule: |sto| <= min(2*cp_len, n_subcarriers - 1), the latter the frame's guard.
    """
    _check_integer(name, sto)
    limit = min(_search_half_width(params), params.n_subcarriers - 1)
    if abs(sto) > limit:
        raise ValueError(
            f"{name}={sto} outside the default search range +-{limit} "
            f"(cp_len={params.cp_len}, n_subcarriers={params.n_subcarriers})"
        )


def default_config(
    stream: SampleStream,
    params: OfdmParams,
    method: Method,
    symbols_averaged: int | None = None,
) -> EstimatorConfig:
    """Estimator configuration with the default search range of +-2*cp_len.

    The range is clamped so the full sweep window stays inside the stream's
    buffer; averaging defaults to every symbol in the frame.
    """
    return _default_configs(
        params, stream.buffer_len, stream.sample_origin, (method,), symbols_averaged
    )[0]


@functools.lru_cache(maxsize=256)
def _default_configs(
    params: OfdmParams,
    buffer_len: int,
    n: int,
    methods: tuple[Method, ...],
    symbols_averaged: int | None,
) -> tuple[EstimatorConfig, ...]:
    """default_config for each method in turn, built once per window and memoised.

    The window depends only on these arguments, and the configs are frozen,
    so every trial of a cell shares one validated tuple.
    """
    averaged = params.symbols_per_frame if symbols_averaged is None else symbols_averaged
    half = _search_half_width(params)
    lowest, highest = _search_limits(buffer_len, n, params.symbol_len, averaged)
    search_min = max(-half, lowest)
    search_max = min(half, highest)
    if search_min > 0 or search_max < 0:
        raise ValueError(
            f"stream too short for any search window around sample_origin={n}"
        )
    return tuple(
        EstimatorConfig(
            method=method,
            search_min=search_min,
            search_max=search_max,
            n=n,
            n_fft=params.n_subcarriers,
            cp_len=params.cp_len,
            symbols_averaged=averaged,
        )
        for method in methods
    )
