"""The top-level public API surface stays importable and coherent."""

import importlib
import os
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.core", "repro.gpusim", "repro.blas", "repro.fp16",
    "repro.features", "repro.geometry", "repro.cache",
    "repro.baselines", "repro.data", "repro.metrics", "repro.distributed",
    "repro.serving", "repro.obs", "repro.routing",
    "repro.bench", "repro.bench.experiments",
]

# What a search process imports: SciPy serves only the image pipeline
# (DoG, SURF, capture simulation) and loads on its first call there.
SEARCH_PATH = [
    "repro", "repro.core", "repro.distributed", "repro.serving",
    "repro.routing", "repro.obs",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__") or name == "repro.bench.experiments"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_search_path_loads_no_scipy():
    """A fresh interpreter that imports every search-path package holds
    no ``scipy`` module: each one it loaded would be resident memory a
    search process cannot spend on its reference cache."""
    code = (
        "import importlib, sys\n"
        f"for name in {SEARCH_PATH!r}: importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]", done.stdout


def test_obs_exports_one_handle_and_no_process_globals():
    """Telemetry is reached through a system's ``obs`` handle; the tracer is
    the one process-wide object left."""
    import repro.obs

    assert sorted(repro.obs.__all__) == sorted([
        "AlertEvent", "AlertLog", "BurnRateRule", "CRITICAL", "Counter", "DEFAULT_US_BUCKETS",
        "Deadline", "DeadlineFanOut", "Gauge", "Histogram", "MetricsRegistry", "OK",
        "Observability", "RequestTracer", "SeriesSelection", "SloEngine", "SloPolicy", "Span",
        "TimeSeriesRecorder", "WARNING", "current_deadline", "deadline_scope", "default_tracer",
        "to_perfetto",
    ])


def test_top_level_exports():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol)
    assert repro.__version__ == "1.0.0"


def test_quickstart_snippet_shape():
    """The README quickstart must keep working verbatim."""
    import numpy as np

    from repro import EngineConfig, TextureSearchEngine

    engine = TextureSearchEngine(EngineConfig(m=384, n=768))
    rng = np.random.default_rng(0)
    desc = rng.gamma(0.6, 1.0, (128, 100)).astype(np.float32)
    desc = desc / np.linalg.norm(desc, axis=0, keepdims=True) * 512
    engine.add_reference("brick-0", desc)
    engine.flush()
    result = engine.search(desc)
    assert result.best().reference_id == "brick-0"
    assert result.images_per_s > 0
