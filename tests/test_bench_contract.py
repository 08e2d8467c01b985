"""The names the benchmark's tracer wraps must exist and record spans.

perfbench/tracer.py times each layer by patching module-level names such as
``harness.apply_cir`` and ``txgen.idft``. A rename in the program breaks the
benchmark; this test makes it break here first. It only reads perfbench/.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from cpsync import Method, cli, harness, reference_scenarios, sync, txgen

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
