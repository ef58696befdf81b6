"""A descriptor entry past float32's range is refused with a 400, and
parsing it emits no warning: a finite double such as ``1e308`` casts to
``inf``, which the non-finite check names — not NumPy's overflow warning."""

from __future__ import annotations

import warnings

import pytest

from repro.core import EngineConfig
from repro.distributed import DistributedSearchSystem, Request, build_api
from tests.conftest import make_descriptors

M = 24


@pytest.mark.parametrize("method, path, wrap", [
    ("POST", "/textures", lambda q: {"id": "new", "descriptors": q}),
    ("POST", "/enroll", lambda q: {"id": "new", "descriptors": q}),
    ("PUT", "/textures/ref0", lambda q: {"descriptors": q}),
    ("POST", "/search", lambda q: {"descriptors": q}),
    ("POST", "/search/batch", lambda q: {"queries": [q]}),
])
def test_a_descriptor_past_float32_answers_400_without_a_warning(method, path, wrap):
    system = DistributedSearchSystem(1, EngineConfig(m=M, n=16, batch_size=4, min_matches=2,
                                                      scale_factor=0.25))
    system.add("ref0", make_descriptors(M, seed=1))
    body = make_descriptors(M, seed=2).tolist()
    body[3][5] = 1e308  # finite as a double, inf as float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        response = build_api(system).handle(Request(method, path, wrap(body)))
    assert response.status == 400
    assert response.body["error"] == "descriptors contain non-finite values"
