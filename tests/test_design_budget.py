"""Ratchets on the shape of the sweep, on where telemetry lives and on
one implementation of the LSH baseline and its sign-bit encoder (stdlib
``ast`` only).

``TextureSearchEngine._execute_sweep`` was the most branched function in
``src/``: 40 decision points in 156 lines at the commit before PR 18, by
the rule below.  It serves searches and nothing else now, and since every
kernel pre-costs its batches it has one exact-match path, and since the
stream overlap reads the steps it charged, one timing rule (20 points, 90
lines); these budgets keep a later PR from growing it back one
caller-specific branch at a time.  A helper that only the sweep calls
counts as part of the sweep.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.baselines import adapters
from repro.core import algorithm1, cascade, engine, kernels, topk
from repro.core.registry import kernel_class
from repro.gpusim import GPUDevice

DECISIONS = (ast.If, ast.For, ast.While, ast.With, ast.ExceptHandler, ast.BoolOp, ast.IfExp,
             ast.comprehension)
MAX_DECISION_POINTS = 20
MAX_LINES = 90


def engine_methods() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(inspect.getsource(engine))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TextureSearchEngine")
    return {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}


def decision_points(fn: ast.FunctionDef) -> int:
    """One path through the function, plus one per decision node."""
    return 1 + sum(isinstance(node, DECISIONS) for node in ast.walk(fn))


def lines_outside_docstring(fn: ast.FunctionDef) -> int:
    doc = fn.body[0]
    has_doc = isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
    return fn.end_lineno - fn.lineno + 1 - (doc.end_lineno - doc.lineno + 1 if has_doc else 0)


def self_calls(fn: ast.FunctionDef) -> set[str]:
    return {
        node.func.attr for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"
    }


def sweep_and_its_private_helpers() -> list[ast.FunctionDef]:
    """``_execute_sweep`` and every private method reached from it alone."""
    methods = engine_methods()
    callers: dict[str, set[str]] = {}
    for name, fn in methods.items():
        for callee in self_calls(fn) & methods.keys():
            callers.setdefault(callee, set()).add(name)
    owned, frontier = ["_execute_sweep"], ["_execute_sweep"]
    while frontier:
        for callee in sorted(self_calls(methods[frontier.pop()]) & methods.keys()):
            if callee.startswith("_") and callee not in owned and callers[callee] <= set(owned):
                owned.append(callee)
                frontier.append(callee)
    return [methods[name] for name in owned]


def test_the_sweep_takes_a_search_and_nothing_else():
    sweep = engine_methods()["_execute_sweep"]
    args = sweep.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == [
        "self", "query", "n_queries", "candidate_ids",
    ]
    assert args.vararg is None and args.kwarg is None
    callers = [name for name, fn in engine_methods().items() if "_execute_sweep" in self_calls(fn)]
    assert callers == ["search_group"]


def test_the_sweep_stays_within_its_budget():
    owned = sweep_and_its_private_helpers()
    assert [fn.name for fn in owned] == ["_execute_sweep", "_swept_matches"]
    sweep, helpers = owned[0], owned[1:]
    # the functional plane predates the budget and is measured on its own
    # line below; anything *new* the sweep grows is charged to the sweep.
    new = [fn for fn in helpers if fn.name != "_swept_matches"]
    assert sum(map(decision_points, [sweep, *new])) <= MAX_DECISION_POINTS
    assert sum(map(lines_outside_docstring, [sweep, *new])) <= MAX_LINES
    assert decision_points(owned[1]) <= 7 and lines_outside_docstring(owned[1]) <= 17


def test_the_sweep_charges_and_never_matches():
    """One exact-match path: every swept batch is charged its ``batch_steps``,
    and only the functional plane computes — no kernel match call in the loop."""
    called = {
        node.func.attr for fn in sweep_and_its_private_helpers() for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "charge" in called and "batch_steps" in called
    assert not called & {"match_batch", "match_batch_multi"}


def test_the_cascade_kernel_has_no_match_loop_of_its_own():
    assert "match_batch" not in cascade.CascadeKernel.__dict__
    assert {"prefilter_batch", "prepare_query", "reference_aux"} <= cascade.CascadeKernel.__dict__.keys()


def test_one_exact_match_plane():
    """Every exact kernel matches on the stacked plane: only LSH, the one
    approximate backend, compares a stack image by image, and the thin
    per-image caller makes no GEMM, top-k or norm epilogue of its own."""
    assert not hasattr(kernels, "PerImageKernel")
    backends = ("algorithm1", "algorithm2", "garcia", "opencv", "lsh", "cascade")
    per_slot = {cls for cls in map(kernel_class, backends) for owner in cls.__mro__
                if "image_knn" in owner.__dict__}
    assert per_slot == {adapters.LshKernel}
    own = {"hgemm", "sgemm", "batched_hgemm", "query_major_product", "matmul", "dot", "einsum",
           "functional_topk", "sqrt", "maximum"}
    tree = ast.parse(inspect.getsource(algorithm1.knn_algorithm1))
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & own, called & own
    assert not any(isinstance(node, (ast.MatMult, ast.BinOp)) for node in ast.walk(tree))


def test_the_engine_leaves_the_tracers_off_switch_to_the_tracer():
    tree = ast.parse(inspect.getsource(engine))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "nullcontext" not in imported and "contextlib" not in imported
    source = inspect.getsource(engine)
    for gone in ("record_stats", "honor_deadline", "fully_pruned", "_pruned_matches", "nullcontext"):
        assert gone not in source


#: the process-global telemetry API that one handle per system replaced
GLOBAL_TELEMETRY = frozenset({
    "default_registry", "set_default_registry",
    "install_recorder", "installed_recorder", "uninstall_recorder",
    "advance_to", "advance_by", "exclusive_clock",
    "install_engine", "installed_engine", "uninstall_engine",
    "reset_observability",
})
#: still method names: of a recorder, and of the handle that forwards to it
CLOCK_METHODS = frozenset({"advance_to", "advance_by"})


def import_time_nodes(tree: ast.Module):
    """Every node that runs when the module is imported: the module's and
    class bodies' statements, never a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_telemetry_is_bound_by_its_owner_not_at_import():
    """Every metric family is created when the part that owns it is built,
    on its system's registry; no module creates one at import, and nothing
    under ``src/`` names the process-global registry, recorder, SLO engine,
    their clock hooks or their reset."""
    at_import, named = [], []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        where = path.relative_to(Path(repro.__file__).parent).as_posix()
        tree = ast.parse(path.read_text())
        at_import += [
            (where, node.lineno) for node in import_time_nodes(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "gauge", "histogram")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found = {node.id}
            elif isinstance(node, ast.alias):
                found = {node.name.rpartition(".")[2], node.asname}
            elif isinstance(node, ast.Attribute):
                found = {node.attr} - CLOCK_METHODS
            else:
                found = set()
            named += [(where, name) for name in found & GLOBAL_TELEMETRY]
        named += [(where, node.name) for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in GLOBAL_TELEMETRY]
    assert at_import == []
    assert named == []
    assert not GLOBAL_TELEMETRY & set(obs.__all__)
    for module in (obs, obs.metrics, obs.timeseries, obs.slo):
        assert not [name for name in GLOBAL_TELEMETRY if hasattr(module, name)], module.__name__


def test_one_lsh_and_one_sign_code_encoder():
    """The LSH baseline is the ``lsh`` engine, and sign bits are packed in
    ``features/binarize.py`` alone: no second matcher, no second encoder."""
    defined, encoding = [], []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        where = path.relative_to(Path(repro.__file__).parent).as_posix()
        tree = ast.parse(path.read_text())
        defined += [where for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and node.name == "LshMatcher"]
        encoding += [(where, node.lineno) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and where != "features/binarize.py"
                     and (node.func.attr if isinstance(node.func, ast.Attribute)
                          else getattr(node.func, "id", None)) in ("sign_planes", "pack_bits")]
    assert defined == []
    assert encoding == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.baselines.lsh")


def test_no_typed_charge_without_a_caller():
    """The cascade charges its prefilter as a step list; the typed device
    calls and top-k wrappers nothing in ``src/`` called are gone."""
    assert not {"hamming_prefilter", "insertion_sort"} & set(dir(GPUDevice))
    assert topk.__all__ == ["functional_topk"]


#: the places a public name's caller may sit, besides ``src/`` itself
CALLER_PLACES = ("README.md", "examples", "benchmarks", "perfbench", "docs")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: public names only tests call, kept because the tests use them as tools:
#: moving one into the tests would delete nothing
TEST_TOOLS = (
    "core/ratio_test.py:match_images",  # the per-image oracle of the stacked match builders
    "data/dataset.py:build_image_dataset",  # rendered photos for the image-pipeline tests
    "distributed/loadbalancer.py:WebTier.handle_burst",  # a burst through the web workers' clocks
    "distributed/loadbalancer.py:WebTier.reset_clocks",  # rewinds those clocks between bursts
    "core/identification.py:IdentificationPipeline.identify",  # README's photo-to-decision pipeline
    "core/engine.py:TextureSearchEngine.export_records",  # an engine's records, to compare engines by
    "distributed/cluster.py:DistributedSearchSystem.add_node",  # grows a cluster by one empty shard
    "distributed/node.py:SearchNode.snapshot_to_store",  # writes what restore_from_store reads back
    "core/engine.py:TextureSearchEngine.reset_profile",  # starts a fresh profile window on a warm engine
    "features/rootsift.py:is_unit_normalized",  # the RootSIFT tests' unit-norm check
    "gpusim/device.py:get_device_spec",  # a device by name in the configuration matrix
    "gpusim/device.py:DeviceSpec.with_memory",  # a device of a chosen memory size for the engine and cache tests
    "obs/slo.py:AlertLog.for_policy",  # one policy's alert history in the SLO tests
)


def public_definitions() -> dict[str, ast.AST]:
    """``{"module path:Qualified.name": node}`` of every public top-level
    function and class under ``src/repro`` and every public method of a
    public class."""
    root = Path(repro.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{where}:{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    found.update({f"{where}:{node.name}.{item.name}": item for item in node.body
                                  if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")})
    return found


def class_hierarchies() -> dict[str, frozenset[str]]:
    """``{class name: the names of its ancestors, itself and its descendants}``
    over every top-level class in ``src/repro``: the classes whose methods a
    ``self.<name>`` inside that class can reach."""
    root = Path(repro.__file__).parent
    bases: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases if isinstance(base, (ast.Name, ast.Attribute)))

    def closure(name: str, step) -> set[str]:
        seen, frontier = {name}, [name]
        while frontier:
            for other in step(frontier.pop()) - seen:
                seen.add(other)
                frontier.append(other)
        return seen

    def children(name: str) -> set[str]:
        return {child for child, parents in bases.items() if name in parents}

    return {name: frozenset(closure(name, lambda n: bases.get(n, set())) | closure(name, children))
            for name in bases}


def src_references() -> list[tuple[str, int, str, str | None]]:
    """``(module path, line, name, class)`` of every name ``src/repro`` uses: a
    name, an attribute, or a string that is exactly an identifier (the backend
    registry names its classes so) outside an ``__all__``.  ``class`` is the
    enclosing top-level class of a ``self.<name>`` use, else ``None``.  Imports
    are not uses, so a package re-export is none."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        exported = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value)}
        owner = {id(node): top.name for top in tree.body if isinstance(top, ast.ClassDef)
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.append((where, node.lineno, node.id, None))
            elif isinstance(node, ast.Attribute):
                on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                found.append((where, node.lineno, node.attr, owner.get(id(node)) if on_self else None))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported
                  and IDENTIFIER.fullmatch(node.value)):
                found.append((where, node.lineno, node.value, None))
    return found


def uncalled_public_names(tools: tuple[str, ...]) -> list[str]:
    """Every public name nothing outside ``tests/`` reaches.  A use inside the
    name's own definition does not count, nor one inside a definition that is
    itself uncalled, so a helper only dead code calls is dead too, and a
    ``self.<name>`` use counts only for the same-named methods of its class's
    hierarchy; each of ``tools`` counts as called."""
    root = Path(repro.__file__).parents[2]
    outside = set()
    for place in CALLER_PLACES:
        files = [root / place] if place.endswith(".md") else sorted((root / place).rglob("*"))
        for path in files:
            if path.suffix in (".py", ".md"):
                outside |= set(IDENTIFIER.findall(path.read_text()))
    definitions = public_definitions()
    spans: dict[str, list[tuple[str, int, int]]] = {}
    for key, node in definitions.items():
        spans.setdefault(key.split(":")[0], []).append((key, node.lineno, node.end_lineno))
    hierarchies = class_hierarchies()
    uses: dict[str, list[tuple[frozenset[str], frozenset[str] | None]]] = {}
    for where, line, name, cls in src_references():
        enclosing = frozenset(key for key, first, last in spans.get(where, ()) if first <= line <= last)
        uses.setdefault(name, []).append((enclosing, hierarchies.get(cls) if cls else None))

    def reaches(key: str, classes: frozenset[str] | None) -> bool:
        qualified = key.split(":")[1]
        return classes is None or ("." in qualified and qualified.split(".")[0] in classes)

    dead: set[str] = set()
    while True:
        now = {key for key, node in definitions.items()
               if key not in tools and node.name not in outside
               and not any(key not in enclosing and not enclosing & dead and reaches(key, classes)
                           for enclosing, classes in uses.get(node.name, ()))}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_public_name_has_a_caller():
    """Every public function, class and method is reached from ``src/``,
    ``examples/``, ``benchmarks/``, ``perfbench/``, ``docs/`` or README.md,
    or is a test tool; library surface that only its own tests call goes."""
    assert uncalled_public_names(TEST_TOOLS) == []
    assert set(TEST_TOOLS) <= set(uncalled_public_names(())), "a tool with a caller leaves TEST_TOOLS"


def test_every_option_has_a_second_value_outside_the_tests():
    """An option nothing outside the tests sets to anything but its default
    is a second code path only tests reach: the paper always takes k = 2,
    each Algorithm 1 kernel owns its sort, references are placed round-robin,
    web workers are picked round-robin and admit every request, a full
    serving queue bounces the arrival, retries back off on a fixed
    schedule, and a sweep keeps each match's count, never its mask or
    matched indices."""
    from repro.core import EngineConfig, ImageMatch, TextureSearchEngine
    from repro.core.compute import SweepCompute
    from repro.core.kernels import MatchKernel, stacked_matches
    from repro.distributed import DistributedSearchSystem, RetryPolicy, WebTier
    from repro.serving import BatchPolicy
    import repro.distributed

    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "d", "m", "n", "precision", "scale_factor", "backend", "normalization", "batch_size",
        "tensor_core", "ratio_threshold", "min_matches", "streams",
    ]
    assert "placement" not in inspect.signature(DistributedSearchSystem.__init__).parameters
    assert list(inspect.signature(WebTier.__init__).parameters)[1:] == ["system", "n_workers"]
    assert [f.name for f in dataclasses.fields(BatchPolicy)] == ["max_batch", "max_wait_us", "max_queue_depth"]
    assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
        "max_attempts", "timeout_us", "backoff_us", "backoff_multiplier",
    ]
    assert not {"ConsistentHashPlacement", "PlacementPolicy", "AdmissionPolicy", "TokenBucket"} & set(
        dir(repro.distributed))
    assert not {"brownout_scope", "current_brownout"} & set(dir(obs))
    for fn in (TextureSearchEngine.search, TextureSearchEngine.search_group, MatchKernel.match_batch,
               MatchKernel.match_batch_multi, SweepCompute.submit, stacked_matches):
        assert "keep_masks" not in inspect.signature(fn).parameters, fn.__qualname__
    assert [f.name for f in dataclasses.fields(ImageMatch)] == ["reference_id", "good_matches"]


def test_an_image_match_is_built_only_for_what_a_caller_is_handed():
    """Answers are arrays from kernel to fold: ``src/`` builds an
    ``ImageMatch`` only in ``Answer.top`` and in ``core/ratio_test.py``,
    whose ``match_images_batch`` the host-clock scoreboard binds and whose
    ``match_images`` the tests keep as an oracle; an ``Answer`` holds no
    match list.  Every name the scoreboard's tracer binds still resolves
    as it binds it."""
    from repro.core.results import Answer

    src = Path(repro.__file__).parent
    builders = set()

    def visit(node, where: str, scope: str) -> None:
        if isinstance(node, ast.Call) and "ImageMatch" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            builders.add((where, scope))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        for child in ast.iter_child_nodes(node):
            visit(child, where, inner)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(src).as_posix(), "<module>")
    assert builders == {("core/results.py", "top"), ("core/ratio_test.py", "match_images_batch"),
                        ("core/ratio_test.py", "match_images")}
    assert [f.name for f in dataclasses.fields(Answer)] == ["ids", "counts", "sweep"]

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module_name, path, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(owner.__dict__[attr] if owner_name else getattr(module, attr)), path
