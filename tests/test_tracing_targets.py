"""The benchmark's span tracer reaches every library function it names.

``benchmarks/tracing.py`` wraps 32 functions by module and attribute name.
A function renamed or deleted in the library would otherwise break only the
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def held(module_name: str, attr: str):
    """What the owner's namespace holds under a target's name."""
    module = importlib.import_module(module_name)
    if "." in attr:
        owner, method = attr.split(".")
        return vars(getattr(module, owner))[method]
    return vars(module)[attr]


def function_of(obj):
    return obj.__func__ if isinstance(obj, classmethod) else obj


def test_every_target_is_wrapped_and_then_restored():
    tracing = load_tracing()
    assert len(tracing.TARGETS) == 32
    originals = [held(module, attr) for _, module, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (name, module, attr, _), original in zip(tracing.TARGETS, originals):
            wrapper = function_of(held(module, attr))
            assert wrapper.__wrapped__ is function_of(original), f"{name}: {attr}"
        assert all(
            vars(owner)[key] is replacement
            for owner, key, _, replacement in tracer._bindings
        )
    finally:
        tracer.uninstall()
    for (_, module, attr, _), original in zip(tracing.TARGETS, originals):
        assert held(module, attr) is original, attr
    assert all(vars(owner)[key] is original for owner, key, original, _ in tracer._bindings)
