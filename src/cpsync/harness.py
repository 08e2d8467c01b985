"""Scenario grid, seeded trials and Monte Carlo statistics for the estimators.

A trial runs the full pipeline

    build_frame -> [apply_cir] -> [replicate branches] -> apply_sto
                -> add_awgn -> [apply_cfo] -> estimate_sto per method

with every random stage seeded from one trial seed through a frozen
splitting rule, so results repeat bit for bit across runs. The seeds are
the same on every platform, but the float results of CIR cells hold for one
numpy build and CPU: apply_cir's complex multiply runs in a SIMD kernel that
numpy dispatches for the CPU at run time, and those kernels need not round
alike (on an AVX-512 host the product differs from Python's complex product).

Seed splitting: sub-seeds are blake2b-8 digests over the tagged parts, e.g.
trial seed = derive_seed(master_seed, scenario_label, trial_index) and stage
seeds = derive_seed(trial_seed, "tx" | "awgn" | "cir"). Python's built-in
hash() is salted per process and is deliberately not used.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .channel import (
    CIR_FIXTURE,
    ChannelScenario,
    _trial_buffers,
    add_awgn,
    apply_cfo,
    apply_cir,
    apply_sto,
    random_cir,
    replicate_branches,
)
from .sync import Method, MetricTrace, check_search_offset, default_config, estimate_sto
from .txgen import OfdmParams, _instance, _integer, _numbers, build_frame

__all__ = [
    "ALL_METHODS",
    "DEFAULT_STO_VALUES",
    "Scenario",
    "TrialResult",
    "MethodStats",
    "ScenarioStats",
    "derive_seed",
    "reference_scenarios",
    "run_trial",
    "run_monte_carlo",
]

ALL_METHODS: tuple[Method, ...] = tuple(Method)

DEFAULT_STO_VALUES: tuple[int, ...] = (3, -3, 2, -2)

# Channel mode -> (label tag, fixed CIR taps, fresh CIR per trial). Labels seed
# every trial, so fixture cells keep the tag "rayleigh".
_CHANNELS = {
    "awgn": ("awgn", (), False),
    "rayleigh-fixture": ("rayleigh", CIR_FIXTURE, False),
    "rayleigh-random": ("rayleigh-random", (), True),
}

# The reference grid at N = 128, one tuple of values per axis, keyed like
# _grid's arguments; the CLI's selector flags default to these values.
_REFERENCE_N = 128
_REFERENCE_AXES = {"snr_db": (10.0, 2.0), "cp": (32, 16), "channel": ("awgn", "rayleigh-fixture")}


def derive_seed(*parts: int | str) -> int:
    """Deterministic 64-bit seed from tagged integer/string parts."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            try:
                packed = int(part).to_bytes(16, "little", signed=True)
            except OverflowError:
                raise ValueError(
                    f"seed parts must lie in [-2**127, 2**127), got {int(part)}"
                ) from None
            h.update(b"i")
            h.update(packed)
        elif isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def _items(name: str, values, rule: str) -> tuple:
    """values as a tuple; refuse text, which would split into characters, or a non-iterable."""
    if not isinstance(values, (str, bytes)):
        with contextlib.suppress(TypeError):  # not iterable, e.g. None or a bare member
            return tuple(values)
    raise ValueError(f"{name} must {rule}, got {values!r}")


@dataclass(frozen=True)
class Scenario:
    """One cell of the experiment grid.

    fresh_cir_per_trial draws a new normalized Rayleigh CIR for every trial
    (seeded); otherwise channel.cir_taps (possibly empty = AWGN-only) is used
    throughout.
    """

    label: str
    ofdm: OfdmParams
    channel: ChannelScenario
    methods: tuple[Method, ...] = ALL_METHODS
    sto_values: tuple[int, ...] = DEFAULT_STO_VALUES
    fresh_cir_per_trial: bool = False
    n_random_taps: int = 10

    def __post_init__(self) -> None:
        if not _instance("label", self.label, str):
            raise ValueError("scenario label must be non-empty")
        _instance("ofdm", self.ofdm, OfdmParams)
        _instance("channel", self.channel, ChannelScenario)
        # A tuple keeps the scenario hashable.
        object.__setattr__(self, "methods", _items("methods", self.methods, "hold Method members"))
        if not self.methods:
            raise ValueError("scenario needs at least one method")
        for method in self.methods:
            if not isinstance(method, Method):
                raise ValueError(f"methods must hold Method members, got {method!r}")
        if len(set(self.methods)) != len(self.methods):
            names = ", ".join(m.value for m in self.methods)
            raise ValueError(f"methods must not repeat, got ({names})")
        stos = _items("sto_values", self.sto_values, "be a sequence of integers")
        if not stos:
            raise ValueError("scenario needs at least one true offset")
        stos = tuple(check_search_offset("sto", sto, self.ofdm) for sto in stos)
        object.__setattr__(self, "sto_values", stos)
        fresh = _instance("fresh_cir_per_trial", self.fresh_cir_per_trial, bool)
        if fresh and self.channel.cir_taps:
            raise ValueError("fresh_cir_per_trial excludes fixed cir_taps")
        object.__setattr__(self, "n_random_taps", _integer("n_random_taps", self.n_random_taps, 1))

    @property
    def channel_mode(self) -> str:
        """The _CHANNELS mode whose taps and per-trial draw this cell has, else "cir"."""
        key = (self.channel.cir_taps, self.fresh_cir_per_trial)
        modes = (mode for mode, (_, taps, fresh) in _CHANNELS.items() if (taps, fresh) == key)
        return next(modes, "cir")


@dataclass
class TrialResult:
    """Per-method decisions and full traces for one seeded trial."""

    traces: dict[Method, MetricTrace]

    @property
    def estimates(self) -> dict[Method, int]:
        """Each method's decision: the argopt of its trace."""
        return {m: t.argopt for m, t in self.traces.items()}


@dataclass
class MethodStats:
    """Error statistics for one method over a batch of trials."""

    exact_hit_rate: float
    within_1_rate: float
    mean_abs_error: float
    mean_sq_error: float
    error_histogram: dict[int, int]

    @classmethod
    def from_errors(cls, errors: np.ndarray) -> "MethodStats":
        errors = _numbers("errors", errors)
        n = errors.size
        if n == 0:  # checked first: an empty list reads as float64
            raise ValueError("errors must hold at least one trial's error")
        if errors.ndim != 1:
            raise ValueError(f"errors must be 1-D, one error per trial, got shape {errors.shape}")
        if errors.dtype.kind not in "iu":
            raise ValueError(f"errors must be integers, got {errors.dtype} values")
        # Any integer width: tolist yields Python ints, so the sums below cannot wrap.
        uniques, counts = np.unique(errors, return_counts=True)
        hist = dict(zip(uniques.tolist(), counts.tolist()))
        # Every field is an exact integer sum over the histogram divided by n;
        # below 2**53 that equals np.mean over the per-trial values bit for bit.
        return cls(
            exact_hit_rate=hist.get(0, 0) / n,
            within_1_rate=sum(hist.get(d, 0) for d in (-1, 0, 1)) / n,
            mean_abs_error=sum(abs(u) * c for u, c in hist.items()) / n,
            mean_sq_error=sum(u * u * c for u, c in hist.items()) / n,
            error_histogram=hist,
        )


@dataclass
class ScenarioStats:
    """Aggregated Monte Carlo statistics for one scenario."""

    label: str
    n_trials: int
    methods: dict[Method, MethodStats]


def _grid(
    n_fft: int,
    methods: tuple[Method, ...],
    sto_values: tuple[int, ...],
    snr_db: tuple[float, ...],
    cp: tuple[int, ...],
    channel: tuple[str, ...],
) -> list[Scenario]:
    """Grid cells over the given axes in row order: SNR-major, then CP, then channel.

    A label seeds every trial of its cell, so two cells may not share one.
    """
    cells = {}
    for snr, cp_len, mode in itertools.product(snr_db, cp, channel):
        tag, taps, fresh = _CHANNELS[mode]
        label = f"snr{snr:g}_cp{cp_len}_{tag}"
        if label in cells:
            raise ValueError(f"grid: two cells have the label {label!r}, which seeds their trials")
        cells[label] = Scenario(
            label=label,
            ofdm=OfdmParams(n_subcarriers=n_fft, cp_len=cp_len),
            channel=ChannelScenario(snr_db=snr, cir_taps=taps),
            methods=methods,
            sto_values=sto_values,
            fresh_cir_per_trial=fresh,
        )
    return list(cells.values())


def reference_scenarios(methods: tuple[Method, ...] = ALL_METHODS) -> list[Scenario]:
    """The canned 8-cell grid: {10, 2} dB x {CP 32, 16} x {AWGN, fixture CIR}."""
    return _grid(_REFERENCE_N, methods, DEFAULT_STO_VALUES, **_REFERENCE_AXES)


def run_trial(scenario: Scenario, true_sto: int, seed: int) -> TrialResult:
    """Execute the full pipeline once, deterministically for the given seed."""
    _instance("scenario", scenario, Scenario)
    ofdm = scenario.ofdm
    check_search_offset("true_sto", true_sto, ofdm)
    seed = _integer("seed", seed)
    stream = build_frame(ofdm, derive_seed(seed, "tx"))
    taps = scenario.channel.cir_taps
    if scenario.fresh_cir_per_trial:
        taps = random_cir(scenario.n_random_taps, derive_seed(seed, "cir"), normalize=True)
    if len(taps):
        stream = apply_cir(stream, taps)
    # Every branch sees the same channel, so convolve once and then replicate.
    if scenario.channel.rx_branches > 1:
        stream = replicate_branches(stream, scenario.channel.rx_branches)
    stream = apply_sto(stream, true_sto)
    stream = add_awgn(stream, scenario.channel.snr_db, derive_seed(seed, "awgn"))
    if scenario.channel.cfo is not None:
        # Receiver-mixer model: the rotation hits signal and noise alike, so
        # magnitude-based decisions match the CFO-free run exactly.
        stream = apply_cfo(stream, scenario.channel.cfo.epsilon, ofdm.n_subcarriers)
    traces = {m: estimate_sto(stream, default_config(stream, ofdm, m)) for m in scenario.methods}
    return TrialResult(traces=traces)


def run_monte_carlo(scenario: Scenario, n_trials: int, master_seed: int) -> ScenarioStats:
    """Aggregate run_trial over n_trials derived seeds, cycling the offset set.

    The trials write their noisy and rotated streams into one set of buffers
    (channel._trial_buffers), which is released when the call returns or raises.
    """
    _instance("scenario", scenario, Scenario)
    n_trials = _integer("n_trials", n_trials, 1)
    master_seed = _integer("master_seed", master_seed)
    errors: dict[Method, list[int]] = {m: [] for m in scenario.methods}
    # No stream outlives its trial: a TrialResult holds only traces.
    with _trial_buffers():
        for index in range(n_trials):
            true_sto = scenario.sto_values[index % len(scenario.sto_values)]
            result = run_trial(scenario, true_sto, derive_seed(master_seed, scenario.label, index))
            for method, estimate in result.estimates.items():
                errors[method].append(estimate - true_sto)
    return ScenarioStats(
        label=scenario.label,
        n_trials=n_trials,
        methods={m: MethodStats.from_errors(np.array(e)) for m, e in errors.items()},
    )
