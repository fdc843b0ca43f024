"""The povmsim names the traced benchmark run wraps and binds.

bench/spans.py wraps every (module, function) in WRAPPED and binds the
arguments of a few of them by parameter name; a rename must fail here, not
only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _spans()


def _function(name):
    module, fn = name.split(".")
    return getattr(importlib.import_module(f"povmsim.{module}"), fn)


@pytest.mark.parametrize("module,fn", SPANS_MODULE.WRAPPED)
def test_wrapped_function_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"povmsim.{module}"), fn))


@pytest.mark.parametrize("name", sorted(SPANS_MODULE.COUNTERS))
def test_counter_bound_parameters_exist(name):
    # a counter (tracer, arguments, result) reads arguments["param"]
    counter = SPANS_MODULE.COUNTERS[name]
    arg = list(inspect.signature(counter).parameters)[1]
    bound = set(re.findall(rf'\b{arg}\["(\w+)"\]', inspect.getsource(counter)))
    params = set(inspect.signature(_function(name)).parameters)
    assert bound <= params, f"{name} lacks {sorted(bound - params)}"
