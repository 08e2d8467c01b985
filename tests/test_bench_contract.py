"""The names the benchmark's tracer wraps must exist and record spans.

perfbench/tracer.py times each layer by patching module-level names such as
``harness.apply_cir`` and ``txgen.idft``. A rename in the program breaks the
benchmark; this test makes it break here first. It only reads perfbench/.

perfbench/run.py's oracle check captures ``harness.estimate_sto`` and
recomputes every captured trace with tests/oracles.brute_force_metric, so
run_trial must hand that name one stream and config per method.
"""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

from cpsync import (
    CfoParams,
    ChannelScenario,
    EstimatorConfig,
    Method,
    OfdmParams,
    SampleStream,
    Scenario,
    cli,
    default_config,
    harness,
    reference_scenarios,
    sync,
    txgen,
)

from oracles import brute_force_metric, relative_error

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_names_record_spans():
    scenario = next(s for s in reference_scenarios() if s.channel_mode == "rayleigh-fixture")
    tracer = _load_tracer_class()()
    tracer.install(SimpleNamespace(harness=harness, txgen=txgen, sync=sync, cli=cli))
    try:
        harness.run_trial(scenario, scenario.sto_values[0], seed=0)
    finally:
        tracer.uninstall()
    expected = {
        "harness.run_trial",
        "txgen.build_frame",
        "spectral.idft",
        "channel.apply_cir",
        "channel.apply_sto",
        "channel.add_awgn",
    } | {f"sync.estimate_sto.{m.value}" for m in Method}
    assert expected <= set(tracer.calls())
    assert harness.run_trial.__module__ == "cpsync.harness"
    # Streams and traces the pipeline derives are valid by construction:
    # no trial re-runs the public constructors' checks.
    assert tracer.counts.get("txgen.SampleStream.validations", 0) == 0
    assert tracer.counts.get("sync.MetricTrace.validations", 0) == 0


def test_run_trial_hands_estimate_sto_one_call_per_method(monkeypatch):
    captured = []
    original = harness.estimate_sto

    def capture(stream, cfg, *args, **kwargs):
        trace = original(stream, cfg, *args, **kwargs)
        captured.append((stream, cfg, trace))
        return trace

    monkeypatch.setattr(harness, "estimate_sto", capture)
    fixture = next(s for s in reference_scenarios() if s.channel_mode == "rayleigh-fixture")
    diversity = Scenario(
        label="contract-rx3-cfo",
        ofdm=OfdmParams(n_subcarriers=64, cp_len=16),
        channel=ChannelScenario(snr_db=2.0, cfo=CfoParams(0.2), rx_branches=3),
    )
    noiseless = Scenario(
        label="contract-noiseless",
        ofdm=OfdmParams(n_subcarriers=64, cp_len=8),
        channel=ChannelScenario(snr_db=math.inf),
        methods=(Method.DBM_LITERAL, Method.CBM),
    )
    # Differs from noiseless only in symbols_per_frame, so it needs its own window.
    two_symbols = Scenario(
        label="contract-two-symbols",
        ofdm=OfdmParams(n_subcarriers=64, cp_len=8, symbols_per_frame=2),
        channel=ChannelScenario(snr_db=math.inf),
        methods=(Method.DBM_LITERAL, Method.CBM),
    )
    # No noise and no CFO: estimate_sto gets replicate_branches' broadcast view (row stride 0).
    noiseless_rx3 = Scenario(
        label="contract-noiseless-rx3",
        ofdm=OfdmParams(n_subcarriers=64, cp_len=16),
        channel=ChannelScenario(snr_db=math.inf, rx_branches=3),
    )
    cases = ((fixture, 3), (diversity, -2), (noiseless, 1), (two_symbols, 1), (noiseless_rx3, 2))
    for scenario, sto in cases:
        captured.clear()
        result = harness.run_trial(scenario, sto, seed=11)
        assert [cfg.method for _, cfg, _ in captured] == list(scenario.methods)
        for stream, cfg, trace in captured:
            assert type(stream) is SampleStream and type(cfg) is EstimatorConfig
            if scenario is noiseless_rx3:
                assert stream.n_branches == 3 and stream.branches.strides[0] == 0
            assert cfg == default_config(stream, scenario.ofdm, cfg.method)
            expected = [
                brute_force_metric(stream.branches, cfg.n, cfg.n_fft, cfg.cp_len,
                                   cfg.symbols_averaged, int(d), cfg.method.value)
                for d in trace.offsets
            ]
            assert relative_error(trace.values, expected) < 1e-10
            assert result.traces[cfg.method] is trace


def test_run_monte_carlo_calls_run_trial_once_per_trial(monkeypatch):
    """``perfbench/run.py --trace 1`` counts trials by their ``harness.run_trial`` spans.

    A core that evaluates blocks of trials without calling that name would
    leave the tracer with no trial to count, so it needs the tracer's block
    span first (ROADMAP item 1, Step 1).
    """
    calls = []
    original = harness.run_trial

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", counting)
    scenario = reference_scenarios()[0]
    harness.run_monte_carlo(scenario, 7, 0)
    assert len(calls) == 7
