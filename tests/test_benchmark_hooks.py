"""The names the benchmark's tracer (benchmarks/tracing.py) wraps must exist:
a missing one makes every `benchmarks/run.py --trace 1` run fail."""

import importlib
import importlib.util
from pathlib import Path

import qrh

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("qrh_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_names_resolve():
    missing = []
    for layer, names in _layers().items():
        module = importlib.import_module(f"qrh.{layer}")
        for dotted in names:
            owner_name, _, method = dotted.partition(".")
            owner = getattr(module, owner_name, None)
            if isinstance(owner, type):
                # a method, or a class whose own constructor is wrapped
                ok = (method or "__init__") in vars(owner)
            else:
                ok = callable(owner) and not method
            if not ok:
                missing.append(f"{layer}.{dotted}")
    assert missing == []
    # the tracer reads the Bernoulli cache's counters around each traced call
    info = qrh.bernoulli._zero_value_series.cache_info()
    assert min(info.hits, info.misses, info.currsize) >= 0
