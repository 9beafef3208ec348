"""Tests of the span tracer: self-time and coverage arithmetic, and bindings.

  python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

NAMES = ("splitting.bulk_ode_step", "splitting.bulk_ode_rhs", "splitting.hull_bounds",
         "qtensor.eigvals_traceless_sym3", "energy.derived_constants")


def reduce(rows, t0, t1):
    """summarize() over (name, start, end, parent) rows listed by start."""
    name, start, end, parent = zip(*rows)
    return spans.summarize(NAMES, name, start, end, parent, t0, t1)


def test_self_time_of_nested_spans_across_layers():
    per_span, coverage = reduce([
        (0, 0.0, 10.0, -1),   # bulk_ode_step
        (1, 1.0, 3.0, 0),     #   bulk_ode_rhs
        (1, 4.0, 6.0, 0),     #   bulk_ode_rhs
        (2, 11.0, 15.0, -1),  # hull_bounds
        (3, 12.0, 14.0, 3),   #   eigvals_traceless_sym3
        (4, 16.0, 17.0, -1),  # derived_constants, no children
    ], 0.0, 20.0)
    assert per_span == {
        "splitting.bulk_ode_step": (1, 6.0),
        "splitting.bulk_ode_rhs": (2, 4.0),
        "splitting.hull_bounds": (1, 2.0),
        "qtensor.eigvals_traceless_sym3": (1, 2.0),
        "energy.derived_constants": (1, 1.0),
    }
    assert coverage == 0.75
    assert sum(s for _, s in per_span.values()) == coverage * 20.0


def test_children_count_by_the_union_they_cover_inside_the_parent():
    per_span, coverage = reduce([
        (0, 0.0, 10.0, -1),
        (1, 2.0, 6.0, 0),
        (1, 4.0, 8.0, 0),    # overlaps the previous child by 2
        (1, 9.0, 12.0, 0),   # runs past the parent's end by 2
        (4, 18.0, 22.0, -1),  # runs past the window's end by 2
    ], 0.0, 20.0)
    assert per_span["splitting.bulk_ode_step"] == (1, 10.0 - 7.0)
    assert per_span["energy.derived_constants"] == (1, 4.0)
    assert per_span["splitting.hull_bounds"] == (0, 0.0)
    assert coverage == pytest.approx(12.0 / 20.0)


def test_nested_spans_of_a_real_call_sum_to_its_duration():
    import numpy as np
    from qflow import splitting
    from qflow.energy import LdGParams

    params = LdGParams(a=-1.0, b=3.0, c=1.0, L1=1.0, L2=0.0, L3=0.0, L4=0.0)
    tracer = spans.Tracer(NAMES)
    tracer.install()
    try:
        Q = np.zeros((4, 4, 3, 3))
        Q[..., 0, 0], Q[..., 1, 1] = 0.2, -0.2
        splitting.hull_bounds(splitting.PeriodicField(
            splitting.bulk_ode_step(Q, 0.1, params, 3), 1.0))
    finally:
        tracer.restore()
    t0, t1 = tracer.start[0], max(tracer.end)
    per_span, coverage = tracer.summary(t0, t1)
    assert per_span["splitting.bulk_ode_step"][0] == 1
    rhs_calls = per_span["splitting.bulk_ode_rhs"][0]
    assert rhs_calls > 0 and rhs_calls % 4 == 0  # four RK4 stages per substep
    assert per_span["splitting.hull_bounds"][0] == 1
    assert per_span["qtensor.eigvals_traceless_sym3"][0] == 1
    assert all(s >= 0.0 for _, s in per_span.values())
    assert sum(s for _, s in per_span.values()) == pytest.approx((t1 - t0) * coverage)
    assert 0.0 < coverage <= 1.0


def test_tracer_rebinds_every_from_import_and_restores_it():
    import numpy as np
    from qflow import cli, pde2d, radial, splitting

    must_wrap = [("qflow.cli", n) for n in (
        "blowup_certificate", "comparison_lower_bound", "bulk_ode_step",
        "eigen_ode_integrate", "hull_bounds", "physical_interval", "derived_constants")]
    must_wrap += [("qflow.splitting", "eigvals_traceless_sym3"), ("qflow.radial", "rhs_pq"),
                  ("qflow.radial", "solve_banded")]
    before = {(m, n): getattr(sys.modules[m], n) for m, n in must_wrap}
    tracer = spans.Tracer(workloads.SPANS)
    tracer.install()
    try:
        assert set(must_wrap) <= set(tracer.bindings())
        for m, n in must_wrap:
            assert getattr(sys.modules[m], n).__wrapped__ is before[(m, n)]
        # PeriodicField.eigenvalues reaches eigvals_traceless_sym3 through
        # the name splitting bound by a from-import
        splitting.PeriodicField(np.zeros((3, 3, 3, 3)), 1.0).eigenvalues()
        assert [workloads.SPANS[i] for i in tracer.name] == ["qtensor.eigvals_traceless_sym3"]
    finally:
        tracer.restore()
    for m, n in must_wrap:
        assert getattr(sys.modules[m], n) is before[(m, n)]
    assert pde2d.rhs_pq is radial.rhs_pq
    assert splitting.bulk_ode_step is cli.bulk_ode_step


def test_tracer_fails_loudly_on_a_missing_function():
    import qflow.cli  # noqa: F401

    tracer = spans.Tracer(("pde2d.step", "pde2d.no_such_function"))
    with pytest.raises(AttributeError):
        tracer.install()
    assert tracer.bindings() == []
