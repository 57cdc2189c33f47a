"""The benchmark's tracer wraps altrank functions by name; every name it
wraps must exist, or `perfbench/run.py --trace 1` fails at install."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # loaded from its path, without writing bytecode next to it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    missing = [
        (owner, attr)
        for owner, attr, _name in tracing.TARGETS
        if attr not in vars(tracing._owner(owner))
    ]
    assert missing == []
