"""Discrete Fourier transform pair for OFDM symbol synthesis and frequency responses.

Conventions, fixed for the whole package:

    forward:  X[k] = sum_{n=0}^{N-1} x[n] * exp(-j*2*pi*k*n/N)     (unscaled)
    inverse:  x[n] = (1/N) * sum_{k=0}^{N-1} X[k] * exp(+j*2*pi*k*n/N)

so that idft(dft(x)) == x and Parseval reads sum|x|^2 == (1/N)*sum|X|^2.

Both directions are numpy.fft with its default norm="backward", which is
exactly this convention, for any length. All arithmetic is complex double
precision. Both take checked 1-D vectors; the trial loop calls numpy.fft itself.
"""

from __future__ import annotations

import numpy as np

from .txgen import _numbers

__all__ = ["dft", "idft"]


def _checked_input(x, name: str) -> np.ndarray:
    arr = _numbers(name, x).astype(np.complex128, copy=False)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def dft(x) -> np.ndarray:
    """Forward transform of a complex vector, unscaled.

    Raises ValueError on empty, non-vector or non-finite input.
    """
    return np.fft.fft(_checked_input(x, "x"))


def idft(spectrum) -> np.ndarray:
    """Inverse transform with 1/N scaling; exact inverse of :func:`dft`, with its checks."""
    return np.fft.ifft(_checked_input(spectrum, "spectrum"))
