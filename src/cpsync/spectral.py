"""Discrete Fourier transform pair for OFDM symbol synthesis and frequency responses.

Conventions, fixed for the whole package:

    forward:  X[k] = sum_{n=0}^{N-1} x[n] * exp(-j*2*pi*k*n/N)     (unscaled)
    inverse:  x[n] = (1/N) * sum_{k=0}^{N-1} X[k] * exp(+j*2*pi*k*n/N)

so that idft(dft(x)) == x and Parseval reads sum|x|^2 == (1/N)*sum|X|^2.

Both directions are numpy.fft with its default norm="backward", which is
exactly this convention, for any length. All arithmetic is complex double
precision. idft also takes a (rows x N) stack and transforms each row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dft", "idft"]


def _checked_input(x, name: str, stack: bool = False) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1 and not (stack and arr.ndim == 2):
        kind = "a 1-D vector or a 2-D stack of rows" if stack else "a 1-D vector"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape}")
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
    """Inverse transform with 1/N scaling; exact inverse of :func:`dft`.

    A 2-D (rows x N) stack is transformed row by row.
    """
    return np.fft.ifft(_checked_input(spectrum, "spectrum", stack=True))
