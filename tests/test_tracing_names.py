"""The names perfbench's tracer wraps must exist in pseudolat.

``perfbench/tracing.py`` looks every traced function up by name with
``getattr``; a function renamed or deleted in ``src/`` would otherwise
surface only when ``perfbench/run.py --trace 1`` runs. The tracer is loaded
from its file and used as it is; nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    """A copy of every loaded pseudolat module's namespace."""
    return {n: dict(m.__dict__) for n, m in sys.modules.items() if n.split(".")[0] == "pseudolat"}


def test_every_traced_name_exists(tracing):
    for layer, (module, names, _) in tracing.LAYERS.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}: {module.__name__}.{name} is gone"


def test_install_then_uninstall_restores_every_namespace(tracing):
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, names, _ in tracing.LAYERS.values():
            for name in names:
                original = before[module.__name__][name]
                wrapped = getattr(module, name)
                assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, ns in before.items():
        assert after[name].keys() == ns.keys(), name
        changed = [attr for attr, value in ns.items() if after[name][attr] is not value]
        assert not changed, f"{name}: {changed} not restored"


def test_tracer_reads_the_kernel_outputs(tracing):
    # The tracer unpacks what lm_solve_batch returns into its LM counters;
    # a change to the kernel's outputs must show here, not only in perfbench.
    from pseudolat import harness

    raw = json.loads((ROOT / "configs" / "circular_static.json").read_text())
    raw["runs"] = 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_scenario(harness.parse_scenario_config(raw))
    finally:
        tracer.uninstall()
    counters, _ = tracing.layer_metrics(tracer, 1)
    assert counters["localization.lm_solve_batch.calls"] > 0
    assert counters["localization.lm_solve_batch.starts"] > 0
    assert counters["localization.lm_solve_batch.start_iters"] > 0
    assert 0 < counters["localization.lm_solve_batch.conv_frac"] <= 1
