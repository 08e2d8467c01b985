"""In-memory span recorder that times cpsync's layers from outside the program.

The program is not edited. Instead the public names that each module looks
up at call time are replaced by thin wrappers for the duration of a traced
block and restored afterwards:

    harness.build_frame / replicate_branches / random_cir / apply_cir /
            apply_sto / add_awgn / apply_cfo / estimate_sto / run_trial
                                            spans, looked up by run_trial
    harness.derive_seed                     call count
    txgen.idft                              span, looked up by build_frame
    cli.run_monte_carlo                     span, looked up by the sweep command
    SampleStream / MetricTrace __post_init__  call counts (validations)

A span is (id, name, start, end, self seconds, parent id, trial id). Self
time is the span's duration minus the time covered by its child spans; one
thread runs everything, so children never overlap and that cover is the sum
of their durations.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Collects spans and counters; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 1
        self._trial_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _enter(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, name, parent, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[4]
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append(
            (frame[0], frame[1], frame[4], end, duration - frame[3], frame[2], self._trial_id)
        )

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark uses this for its root calls."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, name: str, fn, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _trial_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter("harness.run_trial")
            outer = tracer._trial_id
            tracer._trial_id = frame[0]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                tracer._trial_id = outer

        return wrapper

    def _estimator_wrapper(self, fn):
        tracer = self

        def wrapper(stream, cfg, *args, **kwargs):
            tracer.count("sync.estimate_sto.calls")
            tracer.count("sync.candidates", cfg.search_max - cfg.search_min + 1)
            frame = tracer._enter(f"sync.estimate_sto.{cfg.method.value}")
            try:
                return fn(stream, cfg, *args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        if attr not in vars(owner):
            raise RuntimeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: the name is gone"
            )
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self, mods) -> None:
        """Wrap the traced names of the cpsync modules in ``mods``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        harness, txgen, sync, cli = mods.harness, mods.txgen, mods.sync, mods.cli

        def count_branch_samples(args):
            stream = args[0]
            self.count("channel.branch_samples", stream.n_branches * stream.buffer_len)

        for attr, name, on_call in (
            ("build_frame", "txgen.build_frame", None),
            ("replicate_branches", "channel.replicate_branches", None),
            ("random_cir", "channel.random_cir", None),
            ("apply_cir", "channel.apply_cir", None),
            ("apply_sto", "channel.apply_sto", None),
            ("add_awgn", "channel.add_awgn", count_branch_samples),
            ("apply_cfo", "channel.apply_cfo", None),
        ):
            self._patch(
                harness, attr, lambda fn, name=name, hook=on_call: self._span_wrapper(name, fn, hook)
            )
        self._patch(harness, "estimate_sto", self._estimator_wrapper)
        self._patch(harness, "run_trial", self._trial_wrapper)
        self._patch(harness, "derive_seed", lambda fn: self._count_wrapper("harness.derive_seed.calls", fn))
        self._patch(txgen, "idft", lambda fn: self._span_wrapper("spectral.idft", fn))
        self._patch(cli, "run_monte_carlo", lambda fn: self._span_wrapper("harness.run_monte_carlo", fn))
        # Validation hooks are counted while they exist. Moving validation to
        # the API boundary may delete them, which legitimately reads as zero.
        for cls, name in (
            (txgen.SampleStream, "txgen.SampleStream.validations"),
            (sync.MetricTrace, "sync.MetricTrace.validations"),
        ):
            if "__post_init__" in vars(cls):
                self._patch(cls, "__post_init__", lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span[1]] = totals.get(span[1], 0.0) + span[4]
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span[1]] = totals.get(span[1], 0) + 1
        return totals

    def durations(self, name: str) -> list[float]:
        return [span[3] - span[2] for span in self.spans if span[1] == name]

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON array per span, then the counts."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header, "fields": [
                "id", "name", "start", "end", "self_s", "parent", "trial"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counts": self.counts}) + "\n")
