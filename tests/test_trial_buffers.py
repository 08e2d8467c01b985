"""Trial buffers: run_monte_carlo's trials share per-branch arrays, public calls own theirs."""

import sys
import threading

import numpy as np
import pytest

from cpsync import (
    CIR_FIXTURE,
    CfoParams,
    ChannelScenario,
    MethodStats,
    OfdmParams,
    Scenario,
    add_awgn,
    apply_cfo,
    apply_cir,
    apply_sto,
    build_frame,
    harness,
    replicate_branches,
    run_monte_carlo,
    run_trial,
)
from cpsync.channel import _SCOPE, _trial_buffers

from oracles import tap_major_convolution

PARAMS = OfdmParams(n_subcarriers=64, cp_len=16)
WIDE = OfdmParams(n_subcarriers=128, cp_len=16)

# Three branches, a fixed CIR, noise and CFO: every buffered stage runs.
CELL = Scenario(
    label="rx3_cir_cfo",
    ofdm=OfdmParams(n_subcarriers=128, cp_len=16),
    channel=ChannelScenario(snr_db=2.0, cir_taps=CIR_FIXTURE, cfo=CfoParams(0.2), rx_branches=3),
)


def _noisy(seed):
    """A 2-branch stream of PARAMS' frame with noise in its guards."""
    return add_awgn(replicate_branches(build_frame(PARAMS, seed), 2), 5.0, seed)


# Each stage as a call of one seed; the noisy input is built outside any scope.
STAGES = {
    "build_frame": lambda seed, stream: build_frame(PARAMS, seed),
    "apply_cir": lambda seed, stream: apply_cir(stream, CIR_FIXTURE[: 3 + seed]),
    "add_awgn": lambda seed, stream: add_awgn(stream, 3.0, seed),
    "apply_cfo": lambda seed, stream: apply_cfo(stream, 0.1 * seed, PARAMS.n_subcarriers),
}


@pytest.mark.parametrize("stage", STAGES)
def test_calls_outside_a_scope_return_owned_arrays(stage):
    call, stream = STAGES[stage], _noisy(1)
    first, second = call(1, stream), call(2, stream)
    assert not np.shares_memory(first.branches, second.branches)
    assert not np.shares_memory(first.branches, stream.branches)


@pytest.mark.parametrize("stage", ["add_awgn", "apply_cfo"])
def test_calls_inside_a_scope_reuse_one_array_and_write_all_of_it(stage):
    call, stream = STAGES[stage], _noisy(1)
    want = call(2, stream).branches.tobytes()
    with _trial_buffers():
        first = call(1, stream)
        first.branches[...] = np.nan  # what an earlier trial leaves behind
        second = call(2, stream)
        assert np.shares_memory(first.branches, second.branches)
        assert second.branches.tobytes() == want


# These run before replicate_branches, so their arrays are one row whatever rx_branches is.
@pytest.mark.parametrize("stage", ["build_frame", "apply_cir"])
def test_single_row_stages_allocate_inside_a_scope(stage):
    call, stream = STAGES[stage], _noisy(1)
    with _trial_buffers():
        first, second = call(1, stream), call(2, stream)
        assert not np.shares_memory(first.branches, second.branches)


def test_reused_frame_keeps_zero_guards():
    with _trial_buffers():
        build_frame(PARAMS, 1).branches[...] = 7.0
        frame = build_frame(PARAMS, 2)
    n = PARAMS.n_subcarriers
    assert np.all(frame.branches[:, :n] == 0) and np.all(frame.branches[:, -n:] == 0)
    assert frame.branches.tobytes() == build_frame(PARAMS, 2).branches.tobytes()


def test_reused_cir_output_is_zero_outside_the_support():
    # No noise, so the guards hold no signal and lie outside the convolved support.
    frame = build_frame(PARAMS, 3)
    lo, reach = frame.payload_start, frame.payload_stop + len(CIR_FIXTURE) - 1
    with _trial_buffers():
        apply_cir(frame, CIR_FIXTURE).branches[...] = 7.0
        out = apply_cir(frame, CIR_FIXTURE).branches
        assert np.all(out[:, :lo] == 0) and np.all(out[:, reach:] == 0)
        assert out.tobytes() == tap_major_convolution(frame.branches, CIR_FIXTURE).tobytes()


def test_a_new_shape_gets_a_new_array():
    narrow, wide = _noisy(1), replicate_branches(build_frame(WIDE, 1), 2)
    want = add_awgn(wide, 3.0, 1).branches.tobytes()
    with _trial_buffers():
        small = add_awgn(narrow, 3.0, 1)
        large = add_awgn(wide, 3.0, 1)
        assert not np.shares_memory(small.branches, large.branches)
        assert large.branches.tobytes() == want
        assert np.shares_memory(add_awgn(wide, 3.0, 2).branches, large.branches)


def test_scope_restores_the_outer_scope():
    stream = _noisy(1)  # a shape that CELL's trials do not have
    with _trial_buffers():
        outer = _SCOPE.buffers
        noisy = add_awgn(stream, 3.0, 1)
        run_monte_carlo(CELL, 2, 0)
        assert _SCOPE.buffers is outer
        assert np.shares_memory(add_awgn(stream, 3.0, 2).branches, noisy.branches)
    assert _SCOPE.buffers is None


def test_run_monte_carlo_releases_its_buffers(monkeypatch):
    seen = []

    def trial(*args):
        seen.append(dict(_SCOPE.buffers))
        if len(seen) == 2:
            raise RuntimeError("trial failed")
        return run_trial(*args)

    run_monte_carlo(CELL, 3, 0)
    assert _SCOPE.buffers is None
    monkeypatch.setattr(harness, "run_trial", trial)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_monte_carlo(CELL, 3, 0)
    assert _SCOPE.buffers is None
    assert seen[0] == {} and seen[1].keys() == {"awgn draws", "awgn", "cfo"}


def test_run_monte_carlo_equals_a_manual_trial_loop(monkeypatch):
    traced = []

    def trial(*args):
        result = run_trial(*args)
        traced.append({m: t.values.tobytes() for m, t in result.traces.items()})
        return result

    monkeypatch.setattr(harness, "run_trial", trial)
    stats = run_monte_carlo(CELL, 12, 5)
    monkeypatch.undo()
    errors = {m: [] for m in CELL.methods}
    for index in range(12):
        sto = CELL.sto_values[index % len(CELL.sto_values)]
        result = run_trial(CELL, sto, harness.derive_seed(5, CELL.label, index))
        assert {m: t.values.tobytes() for m, t in result.traces.items()} == traced[index]
        for method, estimate in result.estimates.items():
            errors[method].append(estimate - sto)
    assert stats.methods == {m: MethodStats.from_errors(np.array(e)) for m, e in errors.items()}


def test_two_threads_match_a_serial_run():
    seeds, trials = (1, 2), 16
    want = {seed: run_monte_carlo(CELL, trials, seed).methods for seed in seeds}
    got, start = {}, threading.Barrier(len(seeds))

    def work(seed):
        start.wait(timeout=30)
        got[seed] = run_monte_carlo(CELL, trials, seed).methods

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_streams_within_a_trial_do_not_alias_their_inputs():
    # run_trial's order: each stage writes its own name, never the one it reads.
    with _trial_buffers():
        frame = build_frame(CELL.ofdm, 4)
        convolved = apply_cir(frame, CIR_FIXTURE)
        noisy = add_awgn(apply_sto(replicate_branches(convolved, 3), 2), 2.0, 4)
        rotated = apply_cfo(noisy, 0.2, CELL.ofdm.n_subcarriers)
        streams = (frame, convolved, noisy, rotated)
        for i, a in enumerate(streams):
            for b in streams[i + 1 :]:
                assert not np.shares_memory(a.branches, b.branches)
