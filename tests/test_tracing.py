"""The benchmark's tracer wraps hyptube functions by name; every name it
lists must exist, or a traced run dies with AttributeError."""

import importlib.util
import sys
from pathlib import Path

import hyptube

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_listed_name():
    tracing = _load_tracing()
    originals = {
        (layer, name): getattr(getattr(hyptube, layer), name)
        for layer, names in tracing.LAYERS.items()
        for name in names
    }
    undo = tracing.Tracer().install(hyptube)
    try:
        for (layer, name), orig in originals.items():
            assert getattr(getattr(hyptube, layer), name) is not orig, f"{layer}.{name}"
    finally:
        tracing.Tracer.uninstall(undo)
    for (layer, name), orig in originals.items():
        assert getattr(getattr(hyptube, layer), name) is orig, f"{layer}.{name}"
