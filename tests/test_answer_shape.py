"""One answer shape from engine to REST.

``tests/golden/rest_payloads.json`` holds the JSON bodies a seeded script
of search requests answered before the four search-result classes were
folded into :class:`~repro.core.results.Sweep` and
:class:`~repro.core.results.Answer`; the bodies must stay byte-identical.
Run ``PYTHONPATH=src python -m tests.test_answer_shape`` from the repo
root to re-record them.
"""

from __future__ import annotations

import copy
import json
import pickle
from dataclasses import FrozenInstanceError, asdict, dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EngineConfig
from repro.core import engine as engine_module
from repro.core.results import Answer, ImageMatch, Sweep
from repro.distributed import DistributedSearchSystem, FaultInjector, Request, build_api
from repro.distributed import cluster as cluster_module
from repro.obs import brownout_scope
from repro.routing import RouterPolicy
from tests.conftest import make_descriptors, noisy_copy

GOLDEN = Path(__file__).parent / "golden" / "rest_payloads.json"
CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


def cluster(n_nodes: int, n_refs: int, config: EngineConfig = CFG, **kwargs):
    system = DistributedSearchSystem(n_nodes, config, **kwargs)
    descs = [make_descriptors(config.n, seed=40 + i) for i in range(n_refs)]
    for i, desc in enumerate(descs):
        system.add(f"r{i}", desc)
    return build_api(system), descs


def queries(descs, picks, seed: int = 0) -> list[list]:
    return [noisy_copy(descs[i], 8.0, seed=seed + k).tolist() for k, i in enumerate(picks)]


def search(api, query, **knobs) -> dict:
    response = api.handle(Request("POST", "/search", {"descriptors": query, "top": 3, **knobs}))
    return {"status": response.status, "body": response.body}


def batch(api, group, **knobs) -> dict:
    response = api.handle(Request("POST", "/search/batch", {"queries": group, "top": 2, **knobs}))
    return {"status": response.status, "body": response.body}


def rest_script() -> dict[str, dict]:
    """Every body the script's requests answer, keyed by scenario."""
    out: dict[str, dict] = {}
    api, descs = cluster(14, 56)
    qs = queries(descs, [3, 17, 22, 9])
    out["14/search"] = search(api, qs[0])
    out["14/batch-1"] = batch(api, qs[:1])
    out["14/batch-4"] = batch(api, qs)
    for budget in (60.0, 1500.0):  # cuts every shard mid-sweep, cuts nothing
        out[f"14/deadline-{budget:g}/search"] = search(api, qs[1], budget_us=budget)
        out[f"14/deadline-{budget:g}/batch-4"] = batch(api, qs, budget_us=budget)
    with brownout_scope(0.5):
        out["14/brownout/search"] = search(api, qs[2])
        out["14/brownout/batch-4"] = batch(api, qs)

    injector = FaultInjector(seed=0)
    api, descs = cluster(3, 6, fault_injector=injector)
    qs = queries(descs, [0, 1, 2, 3], seed=5)
    injector.crash_after("gpu-01", 1)  # dies on the group's shard RPC
    out["crash/batch-4"] = batch(api, qs)
    out["crash/search"] = search(api, qs[0])

    api, descs = cluster(4, 12, router_policy=RouterPolicy(kind="ivf", n_lists=4, nprobe=2))
    qs = queries(descs, [1, 6, 11], seed=9)
    for nprobe in (1, 4):
        out[f"router-nprobe-{nprobe}/search"] = search(api, qs[0], nprobe=nprobe)
        out[f"router-nprobe-{nprobe}/batch-3"] = batch(api, qs, nprobe=nprobe)

    api, descs = cluster(3, 9, CFG.with_updates(backend="cascade", scale_factor=2.0**-7))
    qs = queries(descs, [2, 7], seed=13)
    out["cascade/search"] = search(api, qs[0])
    out["cascade/batch-1"] = batch(api, qs[1:])

    api, descs = cluster(3, 9, replication_factor=2)
    qs = queries(descs, [0, 4, 8], seed=17)
    out["replicated/batch-3"] = batch(api, qs)
    out["replicated/deadline/batch-3"] = batch(api, qs, budget_us=70.0)  # the slices cut apart
    return out


def encoded(bodies: dict) -> str:
    return json.dumps(bodies, indent=1) + "\n"


def test_rest_payloads_are_the_golden_bytes():
    assert encoded(rest_script()) == GOLDEN.read_text()


def test_one_header_field_reaches_both_routes_answers(monkeypatch):
    """Adding a field to every answer is one line: a throw-away header
    subclass, and no other class changes."""

    @dataclass(frozen=True)
    class Tagged(Sweep):
        tag: str = "tagged"

    monkeypatch.setattr(engine_module, "Sweep", Tagged)
    monkeypatch.setattr(cluster_module, "Sweep", Tagged)
    api, descs = cluster(3, 6)
    qs = queries(descs, [0, 3])
    single = search(api, qs[0])["body"]
    group = batch(api, qs)["body"]
    assert single["tag"] == "tagged"
    assert [answer["tag"] for answer in group["queries"]] == ["tagged", "tagged"]


def test_the_answers_share_one_immutable_header():
    """What the per-query metadata copies guarded against — one request
    poisoning a group-mate's metadata — cannot happen to a frozen header."""
    system = DistributedSearchSystem(3, CFG)
    descs = [make_descriptors(CFG.n, seed=40 + i) for i in range(6)]
    for i, desc in enumerate(descs):
        system.add(f"r{i}", desc)
    sweep = system.search_group([noisy_copy(descs[i], 8.0, seed=i) for i in (0, 3)])
    first, second = sweep.answers
    assert type(first) is Answer and first.sweep is second.sweep
    assert first.sweep == replace(sweep, answers=())
    assert (first.best().reference_id, second.best().reference_id) == ("r0", "r3")
    with pytest.raises(AttributeError):
        first.unsearched_shards.append("poison")
    first.corpus_epoch["gpu-00"] = -1  # a copy: no header changes
    assert second.corpus_epoch == sweep.corpus_epoch == dict(sweep.shard_epochs)
    assert sweep.corpus_epoch["gpu-00"] > 0
    with pytest.raises(FrozenInstanceError):
        sweep.elapsed_us = 0.0
    # a value like any other: it copies, pickles and converts
    assert copy.deepcopy(sweep) == pickle.loads(pickle.dumps(sweep)) == sweep
    assert asdict(sweep)["shard_epochs"] == tuple(first.corpus_epoch.items())


MATCHES = st.lists(
    st.builds(ImageMatch, reference_id=st.sampled_from(["a", "b", "c"]),
              good_matches=st.integers(0, 2), n_query_features=st.just(4),
              inliers=st.none() | st.integers(0, 2)),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(matches=MATCHES, data=st.data())
def test_top_is_the_head_of_the_full_sort(matches, data):
    """Score ties, id ties and both at once: ``top(count)`` is the same
    objects in the same order as the first ``count`` of a stable sort."""
    count = data.draw(st.integers(0, len(matches) + 1), label="count")
    answer = Answer(matches, Sweep())
    ranked = sorted(matches, key=lambda m: (-m.score, m.reference_id))
    assert [id(m) for m in answer.top(count)] == [id(m) for m in ranked[:count]]
    assert answer.best() is (ranked[0] if ranked else None)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(encoded(rest_script()))
    print(f"wrote {GOLDEN}")
