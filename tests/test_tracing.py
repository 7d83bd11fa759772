"""The benchmark's traced layer run still finds every name it patches.

``perfbench/tracing.py`` wraps the module attributes through which one
layer of the package calls another, by name. A package change that retires
or renames one of them breaks ``perfbench/run.py --trace 1``; this test
makes that a tier-1 failure instead.
"""

import sys
from pathlib import Path

from mirrorphase import ModelParams, phase, sweeps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_and_restore(monkeypatch):
    # import the benchmark's modules without writing bytecode under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "stats"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    originals = (phase.adaptive_simpson, phase.angles_closed_form, sweeps.gp_exact)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert len(tracer._patched) == 33
        phase.gp_exact(ModelParams(0.05, 5.0, 0.03, 0.5), 1.0)
    finally:
        tracer.restore()
        for name in ("tracing", "stats"):
            sys.modules.pop(name, None)
    assert [span[0] for span in tracer.spans] == ["phase.gp_exact",
                                                  "numerics.adaptive_simpson"]
    assert tracer.hot["qubit.angles_closed_form"][0] > 0
    assert (phase.adaptive_simpson, phase.angles_closed_form, sweeps.gp_exact) == originals
