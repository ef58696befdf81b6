"""Match-kernel backend layer: registry resolution, cross-backend
result parity, baseline adapters through the real engine, and the
regressions the cache-sweep executor refactor guards against."""

import numpy as np
import pytest

from repro.baselines import LshKernel
from repro.core import EngineConfig, TextureSearchEngine, available_backends
from repro.core.registry import canonical_backend
from repro.gpusim import GPUDevice, TESLA_P100
from tests.conftest import make_descriptors, noisy_copy

M = N = 48
BATCH = 4


def cfg(backend, **kwargs):
    defaults = dict(m=M, n=N, batch_size=BATCH, min_matches=5, backend=backend)
    if backend in ("opencv", "garcia", "algorithm1", "lsh"):
        defaults["precision"] = "fp32"
    else:
        defaults["scale_factor"] = 0.25
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def build_engine(backend, **kwargs):
    config = cfg(backend, **kwargs)
    if backend == "lsh":
        # exhaustive candidates -> exact FP32 brute force (parity mode)
        return TextureSearchEngine(
            config, kernel=LshKernel(config, n_bits=256, n_candidates=M)
        )
    return TextureSearchEngine(config)


def enrolled(engine, count=8):
    descs = {i: make_descriptors(M, seed=4000 + i) for i in range(count)}
    for i, d in descs.items():
        engine.add_reference(f"ref{i}", d)
    engine.flush()
    return descs


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for expected in (
            "algorithm1", "algorithm2", "garcia", "opencv", "lsh", "cascade",
        ):
            assert expected in names

    def test_aliases(self):
        """Names normalise case; the historical ``rootsift``/``cublas``
        aliases are gone and rejected like any unknown name."""
        assert canonical_backend("Algorithm1") == "algorithm1"
        assert EngineConfig(backend="ALGORITHM2").backend == "algorithm2"
        assert EngineConfig().backend == "algorithm2"
        for alias in ("rootsift", "cublas"):
            with pytest.raises(ValueError, match="unknown backend"):
                canonical_backend(alias)

    def test_unknown_backend_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="faiss")

    def test_unknown_backend_error_lists_every_registered_name(self):
        with pytest.raises(ValueError) as excinfo:
            canonical_backend("faiss")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_engine_reports_backend(self):
        assert TextureSearchEngine(cfg("garcia")).backend == "garcia"
        assert TextureSearchEngine(EngineConfig(m=M, n=N)).backend == "algorithm2"

    def test_validate_config_enforced(self):
        with pytest.raises(ValueError, match="fp32"):
            TextureSearchEngine(EngineConfig(m=M, n=N, backend="opencv", precision="fp16"))
        with pytest.raises(ValueError, match="fp32"):
            TextureSearchEngine(EngineConfig(m=M, n=N, backend="lsh", precision="fp16"))

    def test_memory_per_image(self):
        # Algorithm-1 family caches N_R next to the matrix, in its precision
        assert cfg("algorithm1").feature_matrix_bytes() == M * 128 * 4 + M * 4
        assert cfg("garcia").feature_matrix_bytes() == M * 128 * 4 + M * 4
        fp16 = cfg("algorithm1", precision="fp16", scale_factor=0.25)
        assert fp16.feature_matrix_bytes() == M * 128 * 2 + M * 2
        # norm-free kernels cache just the matrix
        assert cfg("opencv").feature_matrix_bytes() == M * 128 * 4
        assert cfg("algorithm2").feature_matrix_bytes() == M * 128 * 2
        # LSH hashes where it compares: it caches no signature words
        assert cfg("lsh").feature_matrix_bytes() == M * 128 * 4


class TestBackendParity:
    """Every backend must agree on *results*; only cost models differ."""

    EXACT_FP32 = ["algorithm1", "garcia", "opencv", "lsh"]
    ALL = EXACT_FP32 + ["algorithm2"]

    @pytest.fixture(scope="class")
    def fixtures(self):
        refs = {i: make_descriptors(M, seed=4000 + i) for i in range(8)}
        return {
            "refs": refs,
            "query": noisy_copy(refs[3], 8.0, seed=47),
            "genuine": (refs[5], noisy_copy(refs[5], 8.0, seed=48)),
            "impostor": (refs[5], noisy_copy(refs[6], 8.0, seed=49)),
        }

    def test_all_backends_find_the_true_reference(self, fixtures):
        for backend in self.ALL:
            engine = build_engine(backend)
            for i, d in fixtures["refs"].items():
                engine.add_reference(f"ref{i}", d)
            result = engine.search(fixtures["query"])
            assert result.best().reference_id == "ref3", backend
            assert result.images_searched == 8, backend

    def test_all_backends_agree_on_verification_verdicts(self, fixtures):
        for backend in self.ALL:
            engine = build_engine(backend)
            same, count = engine.verify(*fixtures["genuine"])
            assert same, backend
            assert count >= 5, backend
            same, _ = engine.verify(*fixtures["impostor"])
            assert not same, backend

    def test_exact_fp32_family_identical_match_counts(self, fixtures):
        """OpenCV/Garcia/LSH-exhaustive are the same FP32 math as
        Algorithm 1 — match counts must be bit-identical per image."""
        per_backend = {}
        for backend in self.EXACT_FP32:
            engine = build_engine(backend)
            for i, d in fixtures["refs"].items():
                engine.add_reference(f"ref{i}", d)
            result = engine.search(fixtures["query"])
            per_backend[backend] = {
                m.reference_id: m.good_matches for m in result.matches
            }
        reference = per_backend["algorithm1"]
        assert len(reference) == 8
        for backend, counts in per_backend.items():
            assert counts == reference, backend

    def test_adapters_respect_tombstones_and_updates(self, fixtures):
        for backend in ("opencv", "lsh"):
            engine = build_engine(backend)
            descs = enrolled(engine)
            assert engine.remove_reference("ref3")
            result = engine.search(noisy_copy(descs[3], 8.0, seed=50))
            assert all(m.reference_id != "ref3" for m in result.matches), backend
            assert result.images_searched == 8  # tombstoned slot still compared

    def test_adapters_run_through_hybrid_cache(self):
        """Baseline kernels must stream host-resident batches like the
        native pipelines do (the whole point of the adapter layer)."""
        config = cfg("opencv", batch_size=2)
        batch_bytes = config.batch_size * config.feature_matrix_bytes()
        engine = TextureSearchEngine(
            config,
            device=GPUDevice(TESLA_P100.with_memory(10**6)),
            gpu_cache_bytes=batch_bytes,
            host_cache_bytes=batch_bytes * 10,
        )
        descs = enrolled(engine, 6)
        assert engine.cache.host_batches >= 1
        result = engine.search(noisy_copy(descs[0], 8.0, seed=51))
        assert result.best().reference_id == "ref0"
        assert "H2D copy" in engine.device.profiler.as_dict()

    def test_lsh_approximate_mode_degrades_not_breaks(self):
        config = cfg("lsh")
        engine = TextureSearchEngine(
            config, kernel=LshKernel(config, n_bits=64, n_candidates=4)
        )
        descs = enrolled(engine)
        result = engine.search(noisy_copy(descs[2], 8.0, seed=52))
        assert result.images_searched == 8
        assert result.best() is not None


class TestSweepExecutorRegressions:
    """Regressions guarding the unified cache-sweep executor."""

    def test_verify_does_not_depend_on_stale_query_state(self):
        """Algorithm-1 ``verify`` after a prior ``search`` must match a
        fresh engine's verdict (the old engine kept the search's
        prepared query in hidden mutable state)."""
        config = cfg("algorithm1")
        ref = make_descriptors(M, seed=4100)
        genuine = noisy_copy(ref, 8.0, seed=4101)

        fresh = TextureSearchEngine(config)
        expected = fresh.verify(ref, genuine)

        used = TextureSearchEngine(config)
        enrolled(used)
        used.search(make_descriptors(M, seed=4102))  # unrelated query
        assert used.verify(ref, genuine) == expected

    def test_search_then_verify_then_search_stable(self):
        engine = build_engine("algorithm1")
        descs = enrolled(engine)
        first = engine.search(noisy_copy(descs[1], 8.0, seed=4200))
        engine.verify(descs[4], noisy_copy(descs[4], 8.0, seed=4201))
        second = engine.search(noisy_copy(descs[1], 8.0, seed=4200))
        assert [m.good_matches for m in first.matches] == [
            m.good_matches for m in second.matches
        ]

    def test_search_many_accumulates_step_times(self):
        """A fused group must feed the same per-step profile stats as
        ``search`` so profile reports cover query-batched sweeps."""
        engine = TextureSearchEngine(cfg("algorithm2"))
        enrolled(engine)
        engine.search_group([make_descriptors(M, seed=4300 + i) for i in range(3)])
        steps = engine.stats.step_times_us
        assert "GEMM" in steps and "Top-2 sort" in steps
        # the sweep's profile deltas equal the profiler's totals here
        # (fresh engine, search charges only)
        for name, total in engine.device.profiler.as_dict().items():
            assert steps[name] == pytest.approx(total)

    def test_step_times_are_deltas_not_cumulative_totals(self):
        """Two identical searches contribute ~equal step time, not a
        re-addition of the profiler's running totals."""
        engine = TextureSearchEngine(cfg("algorithm2"))
        descs = enrolled(engine)
        query = noisy_copy(descs[0], 8.0, seed=4400)
        engine.search(query)
        after_one = dict(engine.stats.step_times_us)
        engine.search(query)
        for name, first in after_one.items():
            assert engine.stats.step_times_us[name] == pytest.approx(2 * first)

    def test_profile_report_means_track_the_reset_window(self):
        """``reset_profile`` clears the profiler but not
        ``stats.images_compared`` — per-image means must use only the
        images compared since the reset."""
        engine = TextureSearchEngine(cfg("algorithm2"))
        descs = enrolled(engine)
        for s in range(3):
            engine.search(noisy_copy(descs[0], 8.0, seed=4500 + s))
        engine.reset_profile()
        assert engine.images_since_profile_reset == 0
        engine.search(noisy_copy(descs[0], 8.0, seed=4510))
        assert engine.images_since_profile_reset == 8
        expected_mean = engine.device.profiler.total_us() / 8
        assert f"{expected_mean:.2f}" in engine.profile_report()

    def test_verify_records_no_search_stats(self):
        engine = TextureSearchEngine(cfg("algorithm2"))
        engine.verify(
            make_descriptors(M, seed=4600), make_descriptors(M, seed=4601)
        )
        assert engine.stats.searches == 0
        assert engine.stats.images_compared == 0


class TestNodeBackend:
    def test_node_constructed_by_backend_name(self):
        from repro.distributed import SearchNode

        node = SearchNode("n0", EngineConfig(m=M, n=N, precision="fp32").with_updates(backend="opencv"))
        assert node.engine.backend == "opencv"
        assert node.stats()["backend"] == "opencv"

    def test_node_backend_requires_compatible_config(self):
        from repro.distributed import SearchNode

        with pytest.raises(ValueError, match="fp32"):
            SearchNode("n0", EngineConfig(m=M, n=N, precision="fp16").with_updates(backend="opencv"))


class TestBackendBenchExperiment:
    def test_engine_path_matches_chain_models(self):
        from repro.bench.experiments import backend_bench

        result = backend_bench.run(
            backends=["opencv", "garcia", "algorithm1"],
            m=64, n=64, n_references=4, batch_size=4,
        )
        assert len(result.rows) >= 3
        for key, delta in result.summary.items():
            assert abs(delta) < 5.0, key  # existing anchor tolerance

    def test_table1_throughput_through_engine_path(self):
        """Acceptance: the opencv backend reproduces Table 1's baseline
        throughput through the engine path, within existing tolerance."""
        from repro.bench.experiments import backend_bench
        from repro.bench.experiments.table1_cublas import PAPER_SPEEDS

        result = backend_bench.run(backends=["opencv"], n_references=4, batch_size=4)
        row = result.row_by("Backend", "CUDA (OpenCV)")
        engine_speed = row[result.headers.index("engine img/s")]
        assert engine_speed == pytest.approx(PAPER_SPEEDS["CUDA (OpenCV)"], rel=0.05)

    def test_unknown_backend_filter_rejected(self):
        from repro.bench.experiments import backend_bench

        with pytest.raises(ValueError):
            backend_bench.run(backends=["faiss"])

    def test_cli_backend_flag(self, capsys):
        from repro.bench import run as bench_run

        code = bench_run.main(["--backend", "opencv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CUDA (OpenCV)" in out
