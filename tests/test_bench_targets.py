"""The benchmark's tracer (bench/tracer.py) wraps program functions by module
and name, so renaming one of them would break `bench/run.py --trace 1`
without failing any program test.  This test resolves every traced name."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("ablab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    src = TRACER.parents[1] / "src"
    missing = []
    for layer, (module_name, attr, owner) in _tracer_targets().items():
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(src), module.__file__
        holder = vars(getattr(module, owner)) if owner else vars(module)
        if not callable(holder.get(attr)):
            missing.append(layer)
    assert not missing, f"tracer targets not found in src/: {missing}"
