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
max, the DBM variants the arg min. CBM values are magnitudes and both DBM
values are sums of squares, so each method's values are >= 0 by construction;
estimate_sto raises on non-finite sums. DBM_MAGNITUDE is the default difference
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
from dataclasses import dataclass

import numpy as np

from .txgen import OfdmParams, SampleStream, _instance, _integer, _names_overflow, _unchecked

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
        return _RULES[self][2]


def _conj_product(lead: np.ndarray, lag: np.ndarray) -> np.ndarray:
    # out=: numpy's temporary elision would swap the operands and change last bits.
    return np.multiply(lead, np.conj(lag), out=np.empty(lead.shape, dtype=np.complex128))


# Each method once, as (term, finish, maximizes): the per-index term of a lead
# block and its lag-n_fft partner, the finish that turns a candidate's window
# sum into its value, and whether the arg max wins. A DBM value is the sum
# itself, a sum of squares and so already >= 0.
_RULES = {
    Method.CBM: (_conj_product, np.abs, True),
    Method.DBM_MAGNITUDE: (lambda lead, lag: (np.abs(lead) - np.abs(lag)) ** 2, lambda s: s, False),
    Method.DBM_LITERAL: (lambda lead, lag: np.abs(lead - np.conj(lag)) ** 2, lambda s: s, False),
}


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
        _instance("method", self.method, Method)
        for name, minimum in (("search_min", None), ("search_max", None), ("n", None),
                              ("n_fft", None), ("cp_len", 1), ("symbols_averaged", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if not self.search_min <= 0 <= self.search_max:
            raise ValueError(
                f"search range [{self.search_min}, {self.search_max}] must contain 0"
            )
        if self.n_fft < self.cp_len:
            raise ValueError(
                f"n_fft must be >= cp_len, got n_fft={self.n_fft}, cp_len={self.cp_len}"
            )

    @property
    def stride(self) -> int:
        return self.n_fft + self.cp_len

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.search_min, self.search_max + 1, dtype=np.int64)


@dataclass
class MetricTrace:
    """estimate_sto's result: int64 offsets, float64 metric values and the tie-ruled argopt."""

    offsets: np.ndarray
    values: np.ndarray
    argopt: int


def _accumulated_pair_series(stream: SampleStream, cfg: EstimatorConfig) -> np.ndarray:
    """Per-index pair statistic summed over branches and symbol periods.

    Index i of the result corresponds to candidate-relative position
    search_min + i; a window sum of cp_len consecutive entries is the metric
    for one candidate. Every lead block and its lag-n_fft partner are read
    through one (branches, symbols, lead|lag, span) view of the stream's
    own buffer, which numpy refuses to build past either end.
    """
    span = cfg.search_max - cfg.search_min + cfg.cp_len
    branches = stream.branches
    # A sample steps by the item size (a 1-sample broadcast row has stride 0, and its view would
    # repeat it); a broadcast stream (row stride 0) reads its first row, which holds every sample.
    row_step, step = branches.strides[0], branches.itemsize
    buffer = branches if row_step else branches[0]
    try:
        pairs = np.ndarray(
            (stream.n_branches, cfg.symbols_averaged, 2, span),
            branches.dtype,
            buffer,
            (cfg.n + cfg.search_min) * step,
            (row_step, cfg.stride * step, cfg.n_fft * step, step),
        )
    except ValueError:  # the view would read past an end of the buffer
        hi = cfg.n + cfg.search_max + cfg.symbols_averaged * cfg.stride - 1
        raise ValueError(
            f"estimator window touches [{cfg.n + cfg.search_min}, {hi}] which exceeds the "
            f"buffer [0, {stream.buffer_len})"
        ) from None
    term, _, _ = _RULES[cfg.method]
    rows = term(pairs[:, :, 0], pairs[:, :, 1]).reshape(-1, span)
    if span == 1:
        # One entry per row leaves one contiguous column, which reduce would sum
        # pairwise and so change the last bits; accumulate adds row after row.
        return np.add.accumulate(rows, axis=0)[-1]
    # With 2 or more entries per row, reduce adds row after row, the order of
    # the contract, without writing every partial sum as accumulate does.
    return np.add.reduce(rows, axis=0)


def _argopt(offsets: np.ndarray, values: np.ndarray, maximize: bool) -> int:
    first = values.argmax() if maximize else values.argmin()  # the first optimum
    tied = values == values[first]
    if np.count_nonzero(tied) == 1:  # the common case needs no tie rule
        return int(offsets[first])
    return min((int(d) for d in offsets[tied]), key=lambda d: (abs(d), d))


@_names_overflow
def estimate_sto(stream: SampleStream, cfg: EstimatorConfig) -> MetricTrace:
    """Evaluate the configured metric over every candidate offset.

    The sliding evaluation is numerically equivalent to an independent
    per-candidate summation (guarded by tests against a brute-force oracle).
    """
    _instance("stream", stream, SampleStream)
    _instance("cfg", cfg, EstimatorConfig)
    series = _accumulated_pair_series(stream, cfg)
    # series holds span >= cp_len entries, so every window lies inside it;
    # np.ndarray over its buffer costs no Python-level stride helper.
    step = series.itemsize
    width = series.size - cfg.cp_len + 1
    windows = np.ndarray((width, cfg.cp_len), series.dtype, series, 0, (step, step)).sum(axis=1)
    _, finish, maximizes = _RULES[cfg.method]
    values = finish(windows)
    if not np.isfinite(values).all():
        raise ValueError(
            f"{cfg.method.value} metric values are not finite: the stream's sums overflow"
        )
    offsets = cfg.offsets
    return MetricTrace(offsets, values, _argopt(offsets, values, maximizes))


def _search_half_width(params: OfdmParams) -> int:
    return 2 * params.cp_len


def check_search_offset(name: str, sto: int, params: OfdmParams) -> int:
    """sto as a Python int; refuse a non-integer or one that default_config's search misses.

    The rule: |sto| <= min(2*cp_len, n_subcarriers - 1), the latter the frame's guard.
    """
    sto = _integer(name, sto)
    _instance("params", params, OfdmParams)
    limit = min(_search_half_width(params), params.n_subcarriers - 1)
    if abs(sto) > limit:
        raise ValueError(
            f"{name}={sto} outside the default search range +-{limit} "
            f"(cp_len={params.cp_len}, n_subcarriers={params.n_subcarriers})"
        )
    return sto


def default_config(
    stream: SampleStream,
    params: OfdmParams,
    method: Method,
    symbols_averaged: int | None = None,
) -> EstimatorConfig:
    """Estimator configuration with the default search range of +-2*cp_len.

    The range is clamped so the full sweep window stays inside the stream's
    buffer; averaging defaults to every symbol in the frame. The arguments
    are checked on every call, and the config is then built without
    EstimatorConfig's checks, which it meets by construction: every field is
    a checked Python int or Method, search_min = max(-2*cp_len, -n) <= 0, and
    a stream too short for search_max >= 0 is refused.
    """
    _instance("stream", stream, SampleStream)
    _instance("params", params, OfdmParams)
    _instance("method", method, Method)
    if symbols_averaged is None:
        symbols_averaged = params.symbols_per_frame
    else:
        symbols_averaged = _integer("symbols_averaged", symbols_averaged, 1)
    n = stream.sample_origin
    half = _search_half_width(params)
    # The widest window reads from sample 0 (d = -n <= 0) up to the buffer's last
    # sample, so only its top can miss 0.
    search_max = min(half, stream.buffer_len - n - symbols_averaged * params.symbol_len)
    if search_max < 0:
        raise ValueError(f"stream too short for any search window around sample_origin={n}")
    return _unchecked(
        EstimatorConfig,
        method=method,
        search_min=max(-half, -n),
        search_max=search_max,
        n=n,
        n_fft=params.n_subcarriers,
        cp_len=params.cp_len,
        symbols_averaged=symbols_averaged,
    )
