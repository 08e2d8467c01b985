"""Independent reference implementations used as test oracles.

Everything here is deliberately written as direct summation / plain loops,
independent of the library's vectorised paths, so the two routes check each
other. ofdm_symbol and add_cp build a frame one symbol at a time, the
reference composition for build_frame's stacked transform.
"""

from __future__ import annotations

import numpy as np

from cpsync import OfdmParams, idft


def direct_dft(x: np.ndarray) -> np.ndarray:
    """Forward transform by direct O(N^2) summation, unscaled."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        kernel = np.exp(-2j * np.pi * k * np.arange(n) / n)
        out[k] = np.dot(x, kernel)
    return out


def direct_idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse transform by direct O(N^2) summation with 1/N scaling."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = spectrum.size
    out = np.empty(n, dtype=np.complex128)
    for m in range(n):
        kernel = np.exp(+2j * np.pi * m * np.arange(n) / n)
        out[m] = np.dot(spectrum, kernel) / n
    return out


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


def brute_force_metric(
    branches,
    base: int,
    n_fft: int,
    cp_len: int,
    symbols_averaged: int,
    delta: int,
    kind: str,
) -> float:
    """Per-candidate metric via plain Python loops.

    kind: "cbm" | "dbm-mag" | "dbm-lit".
    """
    total_complex = 0.0 + 0.0j
    total_real = 0.0
    stride = n_fft + cp_len
    for y in branches:
        for s in range(symbols_averaged):
            start = base + s * stride + delta
            for i in range(cp_len):
                a = complex(y[start + i])
                b = complex(y[start + n_fft + i])
                if kind == "cbm":
                    total_complex += a * b.conjugate()
                elif kind == "dbm-mag":
                    total_real += (abs(a) - abs(b)) ** 2
                elif kind == "dbm-lit":
                    total_real += abs(a - b.conjugate()) ** 2
                else:
                    raise ValueError(f"unknown metric kind {kind!r}")
    if kind == "cbm":
        return abs(total_complex)
    return total_real


def pdp_median_delay(taps) -> int:
    """Power-weighted median delay of a CIR: where CP estimators lock on.

    apply_cir is causal, so tap l (power |h_l|^2) repeats the CP structure
    l samples late and the CP pairs of that path match at d = sto + l. The
    expected CBM metric is then sum_l |h_l|^2 * (cp - |d - sto - l|)_+, the
    power-delay profile smoothed by a triangle. Where every tap lies within
    cp of d this is cp * sum_l |h_l|^2 - sum_l |h_l|^2 * |d - sto - l|, which
    peaks where the weighted absolute deviation is least: at the
    power-weighted median l.

    Returns the smallest l whose cumulative |h_l|^2 reaches half the total,
    and 0 for empty taps (AWGN only: the estimates centre on sto itself).
    """
    powers = [abs(complex(h)) ** 2 for h in taps]
    half = sum(powers) / 2.0
    cumulative = 0.0
    for delay, power in enumerate(powers):
        cumulative += power
        if cumulative >= half:
            return delay
    return 0


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max absolute difference normalised by the expected array's scale."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = np.max(np.abs(expected))
    if scale == 0.0:
        return float(np.max(np.abs(actual)))
    return float(np.max(np.abs(actual - expected)) / scale)
