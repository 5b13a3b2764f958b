"""The benchmark's per-layer tracer patches functions by name; these tests
fail here when a name it patches is deleted or renamed, instead of in a
`perfbench/run.py --trace 1` run. They only read `perfbench/`."""

import importlib.util
from pathlib import Path

import swarmplan
# the tracer reads these modules as attributes of the package, and
# `import swarmplan` alone does not import `cli`
import swarmplan.cli
import swarmplan.mrf
import swarmplan.rhp
import swarmplan.trajopt

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_patches_find_every_name():
    tracing = load_tracing()
    patches = tracing.layer_patches(tracing.Tracer(), swarmplan)
    before = [owner.__dict__[attr] for owner, attr, _ in patches]
    with tracing.patched(patches):
        for owner, attr, new in patches:
            assert getattr(owner, attr) is new
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == before
