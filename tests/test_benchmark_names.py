"""The per-layer metrics of BENCHMARK.json name functions that exist.

The benchmark's tracer wraps public functions by name, so a renamed or
deleted function leaves its metric at 0. This reads the file without
changing it and checks every traced name against the package.
"""

import functools
import importlib
import inspect
import json
import pathlib

import pytest

from rainbowposet import verify

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"
LAYERS = ("copies", "poset", "catalog", "forcing", "families", "treeembed")


def _per_layer_names():
    return [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]


def _is_traced(module, name):
    """Whether the tracer wraps `name` under this module: a plain or
    lru_cache'd function defined in it whose name has no leading
    underscore."""
    value = getattr(module, name, None)
    traceable = inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)
    return traceable and not name.startswith("_") and value.__module__ == module.__name__


@pytest.mark.parametrize("name", _per_layer_names())
def test_per_layer_metric_names_a_traced_function(name):
    layer, rest = name.split(".", 1)
    if layer == "run":
        return
    if layer == "verify":
        assert rest.endswith(".s"), name
        assert rest[: -len(".s")] in {check for check, _, _ in verify.CHECKS}, name
        return
    assert layer in LAYERS, f"{name}: no module for layer {layer!r}"
    # bench/run.py reads the copy kernel's metrics off the `_copies` module
    module_name = "_copies" if layer == "copies" else layer
    module = importlib.import_module(f"rainbowposet.{module_name}")
    function = rest.rsplit(".", 1)[0]
    assert _is_traced(module, function), f"{name}: {function} is gone"
