"""Timing-only execution needs no switch: a compute scope that is never run.

A sweep charges every batch it sweeps and *submits* the matching to the
ambient :func:`repro.core.compute.compute_scope`; a scope nobody runs has
charged everything and computed nothing.  Every session of
``tests/golden/sweep_clock.json`` replayed inside one must leave every
recorded clock, profiler row, stat and verdict of the golden behind, and
no match at all (``verify`` is not a sweep: it still computes).
"""

from __future__ import annotations

import json

import pytest

from repro.core.compute import compute_scope
from tests.test_sweep_clock import BACKENDS, recorded, script


def without_matches(record: dict) -> str:
    return json.dumps({
        session: {step: {k: v for k, v in fields.items() if k != "matches"}
                  for step, fields in steps.items()}
        for session, steps in record.items()
    }, indent=1)


@pytest.mark.parametrize("backend,precision", BACKENDS)
def test_an_unrun_scope_charges_the_golden_clock_and_computes_nothing(backend, precision):
    with compute_scope():
        got = script(backend, precision)
    want = recorded()[f"{backend}/{precision}"]
    assert without_matches(got) == without_matches(want)
    for session, steps in want.items():
        for step, fields in steps.items():
            if "matches" in fields:
                assert got[session][step]["matches"] == [[] for _ in fields["matches"]]
