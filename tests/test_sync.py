"""Estimator contracts: noiseless anchors, oracle equivalence, invariances."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpsync import (
    EstimatorConfig,
    Method,
    OfdmParams,
    SampleStream,
    add_awgn,
    apply_cfo,
    apply_sto,
    build_frame,
    default_config,
    estimate_sto,
    replicate_branches,
)
from cpsync.sync import _accumulated_pair_series, _argopt, check_search_offset

from oracles import accumulated_pair_series, brute_force_metric, relative_error

SMALL = OfdmParams(n_subcarriers=32, cp_len=8, symbols_per_frame=2)
DEFAULT = OfdmParams(n_subcarriers=128, cp_len=32)


def _noiseless(params, delta, seed):
    return apply_sto(build_frame(params, seed), delta)


def _noise_stream(n, seed, branches=1):
    rng = np.random.default_rng(seed)
    bufs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(branches)]
    return SampleStream(branches=bufs, sample_origin=n // 2)


def _value_at(stream, cfg, delta):
    """The metric trace's value at the single candidate offset delta."""
    trace = estimate_sto(stream, cfg)
    return float(trace.values[np.flatnonzero(trace.offsets == delta)[0]])


class TestDefaultConfigBuild:
    """default_config skips EstimatorConfig's checks; its configs must pass them unchanged."""

    INTEGER_FIELDS = ("search_min", "search_max", "n", "n_fft", "cp_len", "symbols_averaged")

    @pytest.mark.parametrize("n_fft, cp, symbols", [
        (4, 1, 1), (4, 3, 3), (32, 8, 2), (128, 32, 4), (128, 16, 6), (1024, 72, 2),
    ])
    def test_equals_the_checked_constructor(self, n_fft, cp, symbols):
        params = OfdmParams(n_fft, cp, symbols_per_frame=symbols)
        frame = build_frame(params, seed=46)
        limit = min(2 * params.cp_len, params.n_subcarriers - 1)
        for sto in range(-limit, limit + 1):
            stream = apply_sto(frame, check_search_offset("sto", sto, params))
            n = stream.sample_origin
            for averaged in (None, 1, params.symbols_per_frame):
                count = params.symbols_per_frame if averaged is None else averaged
                reach = stream.buffer_len - n - count * params.symbol_len
                for method in Method:
                    cfg = default_config(stream, params, method, averaged)
                    assert cfg == EstimatorConfig(
                        method=method,
                        search_min=max(-2 * params.cp_len, -n),
                        search_max=min(2 * params.cp_len, reach),
                        n=n,
                        n_fft=params.n_subcarriers,
                        cp_len=params.cp_len,
                        symbols_averaged=count,
                    )
                    for name in self.INTEGER_FIELDS:
                        assert type(getattr(cfg, name)) is int, name


class TestConfigValidation:
    def test_search_range_must_contain_zero(self):
        with pytest.raises(ValueError, match="contain 0"):
            EstimatorConfig(Method.CBM, 1, 5, n=0, n_fft=16, cp_len=4)
        with pytest.raises(ValueError, match="contain 0"):
            EstimatorConfig(Method.CBM, -5, -1, n=0, n_fft=16, cp_len=4)

    def test_cp_and_fft_sizes(self):
        with pytest.raises(ValueError, match="cp_len"):
            EstimatorConfig(Method.CBM, -1, 1, n=0, n_fft=16, cp_len=0)
        with pytest.raises(ValueError, match="n_fft"):
            EstimatorConfig(Method.CBM, -1, 1, n=0, n_fft=4, cp_len=8)

    def test_method_must_be_a_member(self):
        # A method string used to pass here and fail inside estimate_sto.
        with pytest.raises(ValueError, match="method must be a Method, got 'cbm'"):
            EstimatorConfig("cbm", -4, 4, n=128, n_fft=128, cp_len=32)

    def test_integer_fields_must_be_integers(self):
        # Unchecked, a float field fails only inside estimate_sto's numpy calls, naming no field.
        fields = dict(search_min=-4, search_max=4, n=128, n_fft=128, cp_len=32, symbols_averaged=1)
        for name, value in fields.items():
            for bad in (float(value), True):
                with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}"):
                    EstimatorConfig(Method.CBM, **{**fields, name: bad})
        cfg = EstimatorConfig(Method.CBM, np.int64(-4), np.int32(4), n=np.int16(128),
                              n_fft=np.int64(128), cp_len=np.int8(32), symbols_averaged=np.int64(1))
        assert cfg.offsets.tolist() == list(range(-4, 5))
        # An unsigned bound still yields int64 offsets, not arange's float64.
        unsigned = dataclasses.replace(cfg, search_min=np.uint64(0), search_max=np.uint64(4))
        assert unsigned.offsets.dtype == np.int64
        small = dict(search_min=0, search_max=4, n=64, n_fft=64, cp_len=16, symbols_averaged=2)
        for kind in (np.int8, np.int64, np.uint64):
            cfg = EstimatorConfig(Method.CBM, **{name: kind(v) for name, v in small.items()})
            assert all(type(getattr(cfg, name)) is int for name in small)
        # Stored as given, an unsigned n wrapped in the search limits' -n.
        stream = build_frame(DEFAULT, seed=1)
        plain = EstimatorConfig(Method.CBM, -4, 4, n=128, n_fft=128, cp_len=32, symbols_averaged=4)
        expected = estimate_sto(stream, plain)
        got = estimate_sto(stream, dataclasses.replace(plain, n=np.uint64(128)))
        assert got.offsets.tobytes() == expected.offsets.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()
        assert got.argopt == expected.argopt

    def test_symbols_averaged_positive(self):
        with pytest.raises(ValueError, match="symbols_averaged"):
            EstimatorConfig(Method.CBM, -1, 1, n=0, n_fft=16, cp_len=4, symbols_averaged=0)

    def test_window_bounds_checked_against_stream(self):
        stream = _noise_stream(64, seed=0)
        cfg = EstimatorConfig(Method.CBM, -40, 40, n=32, n_fft=16, cp_len=4)
        with pytest.raises(ValueError, match="exceeds the"):
            estimate_sto(stream, cfg)


class TestSearchOffsetRule:
    def test_message_states_the_bound_applied(self):
        # 2*cp_len is 14 here, but the frame's guard stops |sto| at n_subcarriers - 1.
        params = OfdmParams(n_subcarriers=8, cp_len=7)
        check_search_offset("sto", -7, params)
        with pytest.raises(ValueError, match=r"^sto=8 outside the default search range \+-7 "):
            check_search_offset("sto", 8, params)

    def test_accepts_within_both_bounds(self):
        for n in range(2, 10):
            for cp in range(1, n):
                params = OfdmParams(n_subcarriers=n, cp_len=cp)
                for sto in range(-2 * n, 2 * n + 1):
                    if abs(sto) <= 2 * cp and abs(sto) < n:
                        check_search_offset("sto", sto, params)
                    else:
                        with pytest.raises(ValueError, match="outside"):
                            check_search_offset("sto", sto, params)

    def test_offset_must_be_an_integer(self):
        for kind in (np.int8, np.int64, np.uint64):
            sto = check_search_offset("sto", kind(3), DEFAULT)
            assert sto == 3 and type(sto) is int
        # abs() of this int8 wrapped to -128, which passed the bound.
        with pytest.raises(ValueError, match=r"^sto=-128 outside the default search range"):
            check_search_offset("sto", np.int8(-128), DEFAULT)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=r"^sto must be an integer"):
                check_search_offset("sto", bad, DEFAULT)


class TestNoiselessAnchors:
    """With exact CP copies the metrics have closed-form values at the truth."""

    @pytest.mark.parametrize("delta", [0, 3, -7])
    def test_cbm_equals_cp_window_energy(self, delta):
        stream = _noiseless(DEFAULT, delta, seed=31)
        cfg = default_config(stream, DEFAULT, Method.CBM)
        buf = stream.branches[0]
        true_start = stream.sample_origin + delta
        expected = sum(
            float(np.sum(np.abs(buf[true_start + s * DEFAULT.symbol_len :][: DEFAULT.cp_len]) ** 2))
            for s in range(cfg.symbols_averaged)
        )
        assert _value_at(stream, cfg, delta) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("delta", [0, 5, -2])
    def test_dbm_magnitude_exactly_zero_at_truth(self, delta):
        stream = _noiseless(DEFAULT, delta, seed=32)
        cfg = default_config(stream, DEFAULT, Method.DBM_MAGNITUDE)
        assert _value_at(stream, cfg, delta) == 0.0

    def test_dbm_literal_nonzero_at_truth(self):
        # Subtracting the conjugate leaves 4*Im(y)^2 per aligned sample, so
        # the literal form has no null at the true offset.
        delta = 4
        stream = _noiseless(DEFAULT, delta, seed=33)
        cfg = default_config(stream, DEFAULT, Method.DBM_LITERAL)
        buf = stream.branches[0]
        true_start = stream.sample_origin + delta
        expected = sum(
            float(np.sum(4.0 * buf[true_start + s * DEFAULT.symbol_len :][: DEFAULT.cp_len].imag ** 2))
            for s in range(cfg.symbols_averaged)
        )
        value = _value_at(stream, cfg, delta)
        assert value == pytest.approx(expected, rel=1e-12)
        cbm_cfg = default_config(stream, DEFAULT, Method.CBM)
        assert value > 0.1 * _value_at(stream, cbm_cfg, delta)


class TestEstimate:
    @pytest.mark.parametrize("delta,seed", [(3, 40), (-3, 41), (2, 42), (-2, 43)])
    @pytest.mark.parametrize("method", [Method.CBM, Method.DBM_MAGNITUDE])
    def test_noiseless_recovery(self, method, delta, seed):
        stream = _noiseless(DEFAULT, delta, seed)
        trace = estimate_sto(stream, default_config(stream, DEFAULT, method))
        assert trace.argopt == delta

    def test_trace_shape_and_consistency(self):
        stream = _noiseless(DEFAULT, 0, seed=44)
        cfg = default_config(stream, DEFAULT, Method.CBM)
        trace = estimate_sto(stream, cfg)
        assert trace.offsets.size == cfg.search_max - cfg.search_min + 1
        assert trace.offsets[0] == cfg.search_min
        assert trace.offsets[-1] == cfg.search_max
        idx = int(np.nonzero(trace.offsets == trace.argopt)[0][0])
        optimum = trace.values.max() if cfg.method.maximizes else trace.values.min()
        assert trace.values[idx] == optimum

    def test_default_config_uses_whole_frame(self):
        stream = build_frame(DEFAULT, seed=45)
        cfg = default_config(stream, DEFAULT, Method.CBM)
        assert cfg.symbols_averaged == DEFAULT.symbols_per_frame
        assert cfg.search_min == -2 * DEFAULT.cp_len
        assert cfg.search_max == 2 * DEFAULT.cp_len

    def test_default_config_clamps_to_buffer(self):
        # A one-symbol frame without guard padding forces a narrower window.
        params = OfdmParams(n_subcarriers=16, cp_len=4, symbols_per_frame=1)
        body = np.arange(20, dtype=complex)
        stream = SampleStream(branches=[np.concatenate([np.zeros(2), body, np.zeros(2)])],
                              sample_origin=2)
        cfg = default_config(stream, params, Method.CBM)
        assert cfg.search_min == -2
        assert cfg.search_max == 24 - 2 - 4 - 16  # buffer_len - n - cp - n_fft

    def test_default_config_refuses_a_stream_too_short_for_any_window(self):
        # 100 samples cannot hold the four 160-sample symbol periods the window reads.
        stream = SampleStream(np.zeros((1, 100), complex), 0)
        message = "^stream too short for any search window around sample_origin=0$"
        for method in Method:
            with pytest.raises(ValueError, match=message):
                default_config(stream, DEFAULT, method)

    @pytest.mark.parametrize("field,value,message", [
        ("symbols_averaged", 4.5, "symbols_averaged must be an integer, got 4.5"),
        ("symbols_averaged", 5.0, "symbols_averaged must be an integer, got 5.0"),
        ("symbols_averaged", [2], "symbols_averaged must be an integer, got [2]"),
        ("method", ["cbm"], "method must be a Method, got ['cbm']"),
        ("params", "x", "params must be an OfdmParams, got 'x'"),
    ])
    def test_default_config_names_a_bad_argument(self, field, value, message):
        # Unchecked, these met the memo's key or arithmetic first: a message
        # naming search_max or the stream, a bare TypeError or an AttributeError.
        stream = build_frame(DEFAULT, seed=45)
        args = {"params": DEFAULT, "method": Method.CBM, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_config(stream, **args)

    @pytest.mark.parametrize("call,message", [
        (lambda s, c: default_config("x", DEFAULT, Method.CBM),
         "stream must be a SampleStream, got 'x'"),
        (lambda s, c: estimate_sto("x", c), "stream must be a SampleStream, got 'x'"),
        (lambda s, c: estimate_sto(s, "x"), "cfg must be an EstimatorConfig, got 'x'"),
        (lambda s, c: check_search_offset("sto", 3, "x"), "params must be an OfdmParams, got 'x'"),
    ], ids=["default_config-stream", "estimate_sto-stream", "estimate_sto-cfg",
            "check_search_offset-params"])
    def test_object_arguments_must_have_their_type(self, call, message):
        # Unchecked, each raised a bare AttributeError that named no field.
        stream = build_frame(DEFAULT, seed=45)
        cfg = default_config(stream, DEFAULT, Method.CBM)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(stream, cfg)

    @pytest.mark.parametrize("method", list(Method))
    def test_trace_fields_hold_by_construction(self, method):
        # MetricTrace checks nothing itself, so every field is checked here on
        # a noiseless, a noisy, a broadcast 3-branch and an all-zero stream.
        noiseless = _noiseless(DEFAULT, 3, seed=41)
        streams = [
            noiseless,
            add_awgn(noiseless, 2.0, seed=42),
            add_awgn(replicate_branches(noiseless, 3), 0.0, seed=43),
            SampleStream(branches=[np.zeros(noiseless.buffer_len)], sample_origin=128),
        ]
        for stream in streams:
            cfg = default_config(stream, DEFAULT, method)
            trace = estimate_sto(stream, cfg)
            assert trace.offsets.dtype == np.int64
            np.testing.assert_array_equal(trace.offsets, cfg.offsets)
            assert trace.values.dtype == np.float64
            assert trace.values.shape == trace.offsets.shape
            assert np.isfinite(trace.values).all()
            assert (trace.values >= 0).all()
            optimum = trace.values.max() if method.maximizes else trace.values.min()
            assert trace.values[trace.offsets == trace.argopt].tolist() == [optimum]

    def test_single_symbol_averaging(self):
        stream = _noiseless(DEFAULT, 3, seed=46)
        cfg = default_config(stream, DEFAULT, Method.DBM_MAGNITUDE, symbols_averaged=1)
        assert estimate_sto(stream, cfg).argopt == 3

    @pytest.mark.parametrize("method", list(Method))
    def test_overflowing_metric_names_method(self, method):
        # Finite samples near 1e160 square past the float64 range in the sums.
        frame = build_frame(DEFAULT, seed=1)
        stream = SampleStream(
            branches=frame.branches * 1e160,
            sample_origin=frame.sample_origin,
            payload_start=frame.payload_start,
            payload_stop=frame.payload_stop,
        )
        with pytest.raises(ValueError, match=f"{method.value} metric values are not finite"):
            estimate_sto(stream, default_config(stream, DEFAULT, method))


class TestOracleEquivalence:
    """Sliding evaluation must equal independent per-candidate brute force."""

    @pytest.mark.parametrize("method", list(Method))
    def test_trace_matches_brute_force(self, method):
        for seed in range(6):
            stream = _noise_stream(256, seed=seed)
            cfg = EstimatorConfig(
                method, -16, 16, n=stream.sample_origin, n_fft=SMALL.n_subcarriers,
                cp_len=SMALL.cp_len, symbols_averaged=2,
            )
            trace = estimate_sto(stream, cfg)
            expected = np.array([
                brute_force_metric(
                    stream.branches, cfg.n, cfg.n_fft, cfg.cp_len,
                    cfg.symbols_averaged, int(d), method.value,
                )
                for d in trace.offsets
            ])
            assert relative_error(trace.values, expected) < 1e-10

    def test_single_candidate_ops_match_brute_force(self):
        stream = _noise_stream(256, seed=77, branches=2)
        for method in Method:
            cfg = EstimatorConfig(
                method, -8, 8, n=stream.sample_origin, n_fft=32, cp_len=8,
                symbols_averaged=3,
            )
            for delta in (-8, -1, 0, 5, 8):
                expected = brute_force_metric(
                    stream.branches, cfg.n, cfg.n_fft, cfg.cp_len,
                    cfg.symbols_averaged, delta, method.value,
                )
                got = _value_at(stream, cfg, delta)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


def _row_by_row_trace(stream, cfg):
    """Values and argopt from the per-row accumulation and a sliding-window sum."""
    series = accumulated_pair_series(stream.branches, cfg)
    windows = sliding_window_view(series, cfg.cp_len).sum(axis=1)
    values = np.abs(windows) if cfg.method is Method.CBM else windows
    opt = values.max() if cfg.method.maximizes else values.min()
    ties = cfg.offsets[values == opt]
    return values, min((int(d) for d in ties), key=lambda d: (abs(d), d))


def _bit_exact_streams():
    """Streams whose traces must equal the row-by-row reference byte for byte."""
    for params in (OfdmParams(128, 16), OfdmParams(1024, 72)):
        frame = apply_sto(build_frame(params, seed=params.n_subcarriers), 3)
        for branches in (1, 3, 16):
            for seed in range(3):
                wide = replicate_branches(frame, branches) if branches > 1 else frame
                yield params, add_awgn(wide, 2.0, seed=seed)
        # A broadcast view: every row shares one buffer (row stride 0).
        yield params, add_awgn(replicate_branches(frame, 16), np.inf, seed=0)
        noisy = add_awgn(replicate_branches(frame, 3), 0.0, seed=7)
        fields = dict(sample_origin=noisy.sample_origin, payload_start=noisy.payload_start,
                      payload_stop=noisy.payload_stop)
        yield params, SampleStream(branches=np.asfortranarray(noisy.branches), **fields)
        reversed_copy = noisy.branches[:, ::-1].copy()
        yield params, SampleStream(branches=reversed_copy[:, ::-1], **fields)


class TestBitExactAccumulation:
    """estimate_sto keeps the branch-major, then symbol, sequential row order."""

    @pytest.mark.parametrize("method", list(Method))
    def test_values_equal_row_by_row_reference(self, method):
        layouts = set()
        for params, stream in _bit_exact_streams():
            cfg = default_config(stream, params, method)
            trace = estimate_sto(stream, cfg)
            values, argopt = _row_by_row_trace(stream, cfg)
            assert trace.values.tobytes() == values.tobytes()
            assert trace.argopt == argopt
            # The public constructor stores C-contiguous rows, the Fortran-ordered
            # and reversed inputs included; only a broadcast view keeps row stride 0.
            broadcast = stream.branches.strides[0] == 0
            assert broadcast or stream.branches.flags.c_contiguous
            layouts.add(broadcast)
        assert layouts == {True, False}

    @pytest.mark.parametrize("method", list(Method))
    def test_span_one_keeps_row_after_row_order(self, method):
        # One index per row: np.add.reduce would sum the 12 rows pairwise
        # (unrolled), which changes the last bits; accumulate adds them in turn.
        cfg = EstimatorConfig(method, 0, 0, n=4, n_fft=8, cp_len=1, symbols_averaged=4)
        for seed in range(5):
            stream = _noise_stream(48, seed=seed, branches=3)
            trace = estimate_sto(stream, cfg)
            values, argopt = _row_by_row_trace(stream, cfg)
            assert trace.values.tobytes() == values.tobytes()
            assert trace.argopt == argopt

    @pytest.mark.parametrize("method", list(Method))
    def test_window_touching_both_buffer_ends(self, method):
        # search_min = -n reads the buffer's first sample, search_max its last.
        frame = apply_sto(build_frame(SMALL, seed=61), 2)
        broadcast = replicate_branches(frame, 3)
        for stream in (frame, broadcast, add_awgn(broadcast, 4.0, seed=62)):
            n, averaged = stream.sample_origin, SMALL.symbols_per_frame
            search_max = stream.buffer_len - n - averaged * SMALL.symbol_len
            cfg = EstimatorConfig(method, -n, search_max, n=n, n_fft=SMALL.n_subcarriers,
                                  cp_len=SMALL.cp_len, symbols_averaged=averaged)
            trace = estimate_sto(stream, cfg)
            values, argopt = _row_by_row_trace(stream, cfg)
            assert trace.values.tobytes() == values.tobytes()
            assert trace.argopt == argopt
            # One sample further on either end leaves the buffer: numpy refuses to
            # build the pair view, and the refusal names the window.
            for wider in (dict(search_min=-n - 1), dict(search_max=search_max + 1)):
                with pytest.raises(ValueError, match="exceeds the buffer"):
                    estimate_sto(stream, dataclasses.replace(cfg, **wider))
            with pytest.raises(ValueError):
                _accumulated_pair_series(stream, dataclasses.replace(cfg, search_max=search_max + 1))

    @pytest.mark.parametrize("method", list(Method))
    def test_one_sample_broadcast_stream_refused(self, method):
        # numpy gives a broadcast 1-sample row stride 0, so a view stepped by that
        # stride would repeat the sample instead of leaving the buffer.
        stream = replicate_branches(SampleStream(branches=[[1j]], sample_origin=0), 2)
        cfg = EstimatorConfig(method, 0, 0, n=0, n_fft=1, cp_len=1)
        message = "estimator window touches [0, 1] which exceeds the buffer [0, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_sto(stream, cfg)

    @pytest.mark.parametrize("method", list(Method))
    def test_row_slice_and_read_only_streams(self, method):
        big = _noise_stream(320, seed=60, branches=5).branches
        frozen = big[1:3].copy()
        frozen.flags.writeable = False
        for branches in (big[1:3], frozen):
            stream = SampleStream(branches=branches, sample_origin=96)
            assert stream.branches.flags.c_contiguous
            before = stream.branches.copy()
            cfg = EstimatorConfig(method, -12, 12, n=96, n_fft=32, cp_len=8, symbols_averaged=3)
            trace = estimate_sto(stream, cfg)
            values, argopt = _row_by_row_trace(stream, cfg)
            assert trace.values.tobytes() == values.tobytes()
            assert trace.argopt == argopt
            assert np.array_equal(stream.branches, before)
            assert not np.shares_memory(trace.values, stream.branches)


class TestInvariances:
    def test_scale_equivariance(self):
        stream = _noiseless(DEFAULT, 3, seed=50)
        c = 1.3 - 2.1j
        scaled = SampleStream(
            branches=[b * c for b in stream.branches],
            sample_origin=stream.sample_origin,
            payload_start=stream.payload_start,
            payload_stop=stream.payload_stop,
        )
        for method in (Method.CBM, Method.DBM_MAGNITUDE):
            cfg = default_config(stream, DEFAULT, method)
            base = estimate_sto(stream, cfg)
            boosted = estimate_sto(scaled, cfg)
            assert boosted.argopt == base.argopt
            assert relative_error(boosted.values, base.values * abs(c) ** 2) < 1e-12

    @pytest.mark.parametrize("epsilon", [0.05, 0.49])
    def test_cfo_invariance_of_decisions(self, epsilon):
        params = DEFAULT
        stream = apply_sto(build_frame(params, seed=51), 3)
        noisy = add_awgn(stream, 10.0, seed=52)
        rotated = apply_cfo(noisy, epsilon, params.n_subcarriers)
        for method, tol in ((Method.CBM, 1e-9), (Method.DBM_MAGNITUDE, 1e-12)):
            cfg = default_config(noisy, params, method)
            plain_trace = estimate_sto(noisy, cfg)
            cfo_trace = estimate_sto(rotated, cfg)
            assert cfo_trace.argopt == plain_trace.argopt
            assert relative_error(cfo_trace.values, plain_trace.values) < tol

    def test_dbm_literal_is_not_cfo_invariant(self):
        params = DEFAULT
        stream = apply_sto(build_frame(params, seed=53), 2)
        rotated = apply_cfo(stream, 0.25, params.n_subcarriers)
        cfg = default_config(stream, params, Method.DBM_LITERAL)
        plain_trace = estimate_sto(stream, cfg)
        cfo_trace = estimate_sto(rotated, cfg)
        assert relative_error(cfo_trace.values, plain_trace.values) > 1e-3

    def test_branch_sum_doubles_metric(self):
        single = _noiseless(DEFAULT, 1, seed=54)
        double = replicate_branches(single, 2)
        for method in (Method.CBM, Method.DBM_LITERAL):
            cfg1 = default_config(single, DEFAULT, method)
            cfg2 = default_config(double, DEFAULT, method)
            doubled = _value_at(double, cfg2, 1)
            assert doubled == pytest.approx(2.0 * _value_at(single, cfg1, 1), rel=1e-12)
        trace = estimate_sto(double, default_config(double, DEFAULT, Method.DBM_MAGNITUDE))
        assert trace.argopt == 1


class TestTieBreak:
    def test_prefers_smallest_absolute_offset(self):
        offsets = np.array([-2, -1, 0, 1, 2])
        values = np.array([3.0, 5.0, 3.0, 5.0, 3.0])
        assert _argopt(offsets, values, maximize=False) == 0
        assert _argopt(offsets, values, maximize=True) == -1

    def test_prefers_smaller_offset_at_equal_magnitude(self):
        offsets = np.array([-1, 0, 1])
        values = np.array([7.0, 1.0, 7.0])
        assert _argopt(offsets, values, maximize=True) == -1

    def test_maximum_ties_not_resolved_by_first_index(self):
        # np.argmax alone would return the first maximum, at -2.
        offsets = np.array([-2, -1, 0, 1, 2])
        values = np.array([9.0, 1.0, 4.0, 9.0, 1.0])
        assert offsets[np.argmax(values)] == -2
        assert _argopt(offsets, values, maximize=True) == 1

    def test_single_tie_returned_as_int(self):
        offsets = np.arange(-3, 4)
        values = np.array([5.0, 4.0, 6.0, 2.0, 7.0, 8.0, 3.0])
        for maximize, expected in ((True, 2), (False, 0)):
            got = _argopt(offsets, values, maximize)
            assert got == expected and type(got) is int

    @pytest.mark.parametrize("maximize", [True, False])
    def test_ties_that_first_index_gets_wrong(self, maximize):
        offsets = np.arange(-4, 3)
        best, other = (9.0, 1.0) if maximize else (1.0, 9.0)
        # A tie at -3 and +1: the first index (np.argmax alone) is -3, the rule picks +1.
        values = np.where(np.isin(offsets, [-3, 1]), best, other)
        assert offsets[np.argmax(values == best)] == -3
        assert _argopt(offsets, values, maximize) == 1
        # A tie at -1 and +1 has equal |d|: the rule picks the smaller d.
        values = np.where(np.isin(offsets, [-1, 1]), best, other)
        assert _argopt(offsets, values, maximize) == -1

    def test_unique_optimum_unaffected(self):
        offsets = np.array([-1, 0, 1])
        values = np.array([1.0, 2.0, 3.0])
        assert _argopt(offsets, values, maximize=True) == 1
        assert _argopt(offsets, values, maximize=False) == -1

    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("first, later", [(-0.0, 0.0), (0.0, -0.0)], ids=["-0,+0", "+0,-0"])
    def test_zeros_of_either_sign_tie(self, maximize, first, later):
        # 0.0 and -0.0 compare equal, so a first optimum of either sign ties with
        # the other, and the rule picks +1 over the earlier -2.
        offsets = np.arange(-2, 3)
        other = -5.0 if maximize else 5.0
        values = np.array([first, other, other, later, other])
        assert _argopt(offsets, values, maximize) == 1


@settings(max_examples=200, deadline=None)
@given(
    search_min=st.integers(min_value=-12, max_value=0),
    search_max=st.integers(min_value=0, max_value=12),
    maximize=st.booleans(),
    data=st.data(),
)
def test_argopt_equals_plain_tie_rule(search_min, search_max, maximize, data):
    offsets = np.arange(search_min, search_max + 1)
    size = offsets.size
    finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    values = np.array(data.draw(st.lists(finite, min_size=size, max_size=size)))
    tied = data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=size))
    values[tied] = values.max() if maximize else values.min()
    opt = values.max() if maximize else values.min()
    ties = offsets[values == opt].tolist()
    got = _argopt(offsets, values, maximize)
    assert got == min(ties, key=lambda d: (abs(d), d)) and type(got) is int


@settings(max_examples=30, deadline=None)
@given(
    cp_len=st.sampled_from([4, 8]),
    delta=st.integers(min_value=-8, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Frames whose trace is exactly 0.0 at delta and at delta + 1, where the tie
# rule picks delta + 1.
@example(cp_len=8, delta=-1, seed=225717)
@example(cp_len=8, delta=-8, seed=259)
def test_dbm_magnitude_recovers_any_offset_noiselessly(cp_len, delta, seed):
    params = OfdmParams(n_subcarriers=32, cp_len=cp_len, symbols_per_frame=2)
    stream = apply_sto(build_frame(params, seed), delta)
    cfg = default_config(stream, params, Method.DBM_MAGNITUDE)
    trace = estimate_sto(stream, cfg)
    assert trace.values[trace.offsets == delta].tolist() == [0.0]
    # The tie rule's pick among the exact nulls, which is delta when it is the only one.
    nulls = trace.offsets[trace.values == 0.0].tolist()
    assert trace.argopt == min(nulls, key=lambda d: (abs(d), d))


@settings(max_examples=20, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trace_invariants_on_arbitrary_streams(method, seed):
    stream = _noise_stream(192, seed=seed)
    cfg = EstimatorConfig(method, -10, 10, n=96, n_fft=24, cp_len=6, symbols_averaged=2)
    trace = estimate_sto(stream, cfg)
    assert trace.offsets.size == 21
    assert np.all(np.isfinite(trace.values))
    assert np.all(trace.values >= 0)
    optimum = trace.values.max() if method.maximizes else trace.values.min()
    assert trace.values[int(np.nonzero(trace.offsets == trace.argopt)[0][0])] == optimum


@settings(max_examples=300, deadline=None)
@given(
    buffer_len=st.integers(min_value=1, max_value=48),
    n_branches=st.integers(min_value=1, max_value=3),
    layout=st.sampled_from(["rows", "row slice", "broadcast"]),
    n_fft=st.integers(min_value=1, max_value=10),
    symbols=st.integers(min_value=1, max_value=3),
    method=st.sampled_from(list(Method)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_window_refused_exactly_when_it_leaves_the_buffer(
    buffer_len, n_branches, layout, n_fft, symbols, method, seed, data
):
    cp_len = data.draw(st.integers(min_value=1, max_value=n_fft), label="cp_len")
    n = data.draw(st.integers(min_value=0, max_value=buffer_len - 1), label="n")
    search_min = data.draw(st.integers(min_value=-n - 3, max_value=0), label="search_min")
    search_max = data.draw(st.integers(min_value=0, max_value=buffer_len + 3), label="search_max")
    rng = np.random.default_rng(seed)
    rows = n_branches + 2 if layout == "row slice" else n_branches
    samples = rng.standard_normal((rows, buffer_len)) + 1j * rng.standard_normal((rows, buffer_len))
    if layout == "rows":
        stream = SampleStream(branches=samples, sample_origin=n)
    elif layout == "row slice":
        stream = SampleStream(branches=samples[1 : 1 + n_branches], sample_origin=n)
        assert np.shares_memory(stream.branches, samples)  # a view into the larger array
    else:
        stream = replicate_branches(SampleStream(branches=samples[:1], sample_origin=n), n_branches)
        assert stream.branches.strides[0] == 0
    cfg = EstimatorConfig(method, search_min, search_max, n=n, n_fft=n_fft, cp_len=cp_len,
                          symbols_averaged=symbols)
    # The rule, stated here: the reads run from sample n + search_min to the end of
    # the last lag block, n + search_max + symbols*(n_fft + cp_len) - 1.
    reach = n + search_max + symbols * (n_fft + cp_len) - 1
    if search_min < -n or search_max > buffer_len - n - symbols * (n_fft + cp_len):
        message = (f"estimator window touches [{n + search_min}, {reach}] "
                   f"which exceeds the buffer [0, {buffer_len})")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_sto(stream, cfg)
    else:
        trace = estimate_sto(stream, cfg)
        assert trace.values.shape == (search_max - search_min + 1,)
        assert np.isfinite(trace.values).all()
