"""The benchmark's tracer can wrap and restore every library name it spans."""

import importlib.util
from pathlib import Path

import casimir_plates
import casimir_plates.cli  # noqa: F401  (the tracer wraps cli names too)
from casimir_plates import lifshitz

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(au):
    tracer = _load_spans().Tracer()
    original = lifshitz.casimir_pressure
    try:
        tracer.install(casimir_plates)
        assert lifshitz.casimir_pressure is not original
        system = lifshitz.PlateSystem(au, au, gap=1e-6)
        result = lifshitz.casimir_pressure(system, lifshitz.ThermalState(300.0))
        # the quadrature span wraps a working function, not only a name
        integral = lifshitz.adaptive_pair_quadrature(lambda y: (y, 0.0), [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert lifshitz.casimir_pressure is original
    assert tracer.counts["lifshitz.calls"] == 1
    assert tracer.counts["lifshitz.terms"] == result.m_used
    assert integral == (0.5, 0.0)
    assert tracer.counts["quadrature.calls"] == 1
    assert tracer.counts["quadrature.evals"] == 15
