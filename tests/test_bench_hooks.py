"""The benchmark's per-layer tracer must still find every function it wraps.

perfbench/tracer.py patches module attributes by name, so a refactor that
moves or renames one of them would silently drop a layer from the traced
run. These tests import the tracer and install its hooks without running
the benchmark.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Metrics that do not come from a wrapped function: the tracer wraps
# cli.main itself, and the rest are clocks or work counts of other spans.
NOT_HOOKS = {"cli.main", "process.import_s", "trace.overhead_s",
             "train.iterations", "train.last_nll"}


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_installs_and_uninstalls():
    tracer = load_tracer()
    targets = tracer.cli_targets()
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    hooks = tracer.Tracer("test")
    hooks.install(targets)
    try:
        for (module, attr, name, _), original in zip(targets, originals):
            wrapped = getattr(module, attr)
            assert wrapped is not original, name
            assert wrapped.__wrapped__ is original, name
    finally:
        hooks.uninstall()
    for (module, attr, name, _), original in zip(targets, originals):
        assert getattr(module, attr) is original, name


def test_benchmark_layers_have_hooks():
    tracer = load_tracer()
    names = {name for _, _, name, _ in tracer.cli_targets()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {".".join(metric["name"].split(".")[:2]) for metric in spec["per_layer"]}
    assert layers - NOT_HOOKS <= names
