"""The benchmark tracer wraps package functions by the names their callers
look them up by. A refactor that moves or renames one of them must fail here,
not in a traced benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_traced_attribute_resolves(tracer):
    patches = tracer.pipeline_patches()
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in patches
        if attr not in vars(owner) or not callable(vars(owner)[attr])
    ]
    assert missing == []


def test_every_stage_call_is_traced(tracer):
    traced = {name for _, _, name, _ in tracer.pipeline_patches()}
    for stage, names in tracer.STAGES.items():
        assert set(names) <= traced, stage
