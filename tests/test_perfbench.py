"""The benchmark's layer tracer still finds every name it wraps."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_tracer_finds_every_traced_name():
    # a method the tracer names must stay in its own class dict, where the
    # tracer looks it up: Polynomial.__mul__ and the Span methods
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    patches = tracer._discover()
    assert tracer.absent == []
    assert len({id(original) for _, _, original, _ in patches}) == len(
        layers.TARGETS)
