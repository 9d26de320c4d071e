"""Every name perfbench's tracer wraps still exists in ergolab.

The tracer patches `(module, name)` pairs by name; a refactor that drops or
renames one would only surface as a failing `--trace 1` benchmark run.  This
loads perfbench/tracer.py read-only (no bytecode is written next to it) and
resolves each target the way its `install` does."""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


tracer = _tracer()


TARGETS = [(modname, qualname) for _, modname, qualname, _ in tracer._targets()]


@pytest.mark.parametrize("modname,qualname", TARGETS,
                         ids=[f"{m}.{q}" for m, q in TARGETS])
def test_traced_name_resolves(modname, qualname):
    mod = importlib.import_module("ergolab." + modname)
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        assert callable(getattr(mod, cls_name).__dict__[meth])
    else:
        assert callable(getattr(mod, qualname))


def test_traced_caps_and_term_tuples_resolve():
    for modname, attr in tracer.CAPS.values():
        assert getattr(importlib.import_module("ergolab." + modname), attr) > 0
    assert callable(importlib.import_module("ergolab.exact").term_tuples)
