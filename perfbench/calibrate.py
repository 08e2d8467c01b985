"""Host-speed calibration: a frozen, cpsync-shaped kernel timed next to each block.

The host this benchmark runs on shares its cores, and its speed for
interpreter-bound numpy code swings by up to 2x within seconds. Thread CPU
time swings as much as wall time, so the slowdown is not descheduling. A
kernel that does the same kind of work as a trial slows down with it. Timing
the kernel right before and right after each block, and scaling the block's
rate by (reference kernel rate / measured kernel rate), removes most of
that swing. The kernel lives here and never changes with the program, so
the scaled rate still moves one-for-one with the program's own speed.

One kernel call is one mini trial with a cpsync trial's structure and array
sizes: QPSK symbols, a radix-2 inverse transform in small numpy steps, CP
insertion and padding, an optional multipath convolution, noise, a finite
check and a CFO rotation on every branch, then three sliding metrics
accumulated per branch and per symbol in small slices, each with a Python
tie-break. It does not import cpsync.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class Kernel:
    """Shape of the mini trial; calls is the number timed per measurement."""

    n: int
    cp: int
    branches: int
    taps: int
    calls: int

    def __post_init__(self) -> None:
        bits = self.n.bit_length() - 1
        object.__setattr__(self, "_bitrev", np.array(
            [int(format(i, f"0{bits}b")[::-1], 2) for i in range(self.n)]))
        object.__setattr__(self, "_twiddles", {
            half: np.exp(2j * np.pi * np.arange(half) / (2 * half))
            for half in (2 ** k for k in range(bits))})

    def _trial(self, rng: np.random.Generator) -> int:
        n, cp = self.n, self.cp
        symbols = []
        for _ in range(4):
            bits = rng.integers(0, 2, size=2 * n)
            x = (((1 - 2 * bits[0::2]) + 1j * (1 - 2 * bits[1::2])) / np.sqrt(2.0))[self._bitrev]
            half = 1
            while half < n:
                blocks = x.reshape(-1, 2 * half)
                even = blocks[:, :half].copy()
                odd = blocks[:, half:] * self._twiddles[half]
                blocks[:, :half] = even + odd
                blocks[:, half:] = even - odd
                half *= 2
            symbols.append(np.concatenate([x[-cp:], x]))
        pad = np.zeros(n, dtype=np.complex128)
        frame = np.concatenate([pad, *symbols, pad])
        if self.taps:
            h = rng.standard_normal(self.taps) + 1j * rng.standard_normal(self.taps)
            frame = np.convolve(frame, h / np.sqrt(np.sum(np.abs(h) ** 2)))[: frame.size]
        rotation = np.exp(2j * np.pi * 0.2 * np.arange(frame.size) / n)
        branches = []
        for _ in range(self.branches):
            noisy = frame + 0.3 * (rng.standard_normal(frame.size)
                                   + 1j * rng.standard_normal(frame.size))
            if not np.all(np.isfinite(noisy)):
                raise ValueError("calibration frame is not finite")
            branches.append(noisy * rotation)
        best = 0
        for form in range(3):
            metric = np.zeros(5 * cp, dtype=np.complex128 if form == 0 else np.float64)
            for y in branches:
                for s in range(4):
                    b = n - 2 * cp + s * (n + cp)
                    lead, lag = y[b:b + 5 * cp], y[b + n:b + n + 5 * cp]
                    if form == 0:
                        metric += lead * np.conj(lag)
                    elif form == 1:
                        metric += (np.abs(lead) - np.abs(lag)) ** 2
                    else:
                        metric += np.abs(lead - np.conj(lag)) ** 2
            values = sliding_window_view(metric, cp).sum(axis=1)
            values = np.abs(values) if form == 0 else values
            opt = values.max() if form == 0 else values.min()
            best += min((i for i in range(values.size) if values[i] == opt),
                        key=lambda i: (abs(i - 2 * cp), i))
        return best

    def rate(self) -> float:
        """Kernel calls per second, measured now.

        The garbage collector is paused, so garbage the program left behind
        is never collected on the kernel's clock.
        """
        rng = np.random.default_rng(self.n + self.branches)
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for _ in range(self.calls):
                self._trial(rng)
            return self.calls / (perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
