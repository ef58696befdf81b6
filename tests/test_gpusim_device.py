"""Device specs, registry, and basic GPUDevice behaviour."""

import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.gpusim import (
    DEVICE_REGISTRY,
    GPUDevice,
    TESLA_P100,
    TESLA_V100,
    get_device_spec,
)
from tests.conftest import make_descriptors


class TestDeviceSpec:
    def test_registry_lookup(self):
        assert get_device_spec("p100") is TESLA_P100
        assert get_device_spec("Tesla V100") is TESLA_V100
        assert get_device_spec("V100") is TESLA_V100

    def test_unknown_device(self):
        with pytest.raises(KeyError, match="unknown device"):
            get_device_spec("h100")

    def test_registry_is_complete(self):
        assert set(DEVICE_REGISTRY) >= {"p100", "v100", "a100"}

    def test_peak_tflops(self):
        assert TESLA_P100.peak_tflops("fp16") == 18.7
        assert TESLA_P100.peak_tflops("fp32") == 9.3
        assert TESLA_V100.peak_tflops("fp16", tensor_core=True) == 112.0

    def test_p100_has_no_tensor_cores(self):
        with pytest.raises(ValueError, match="no tensor cores"):
            TESLA_P100.peak_tflops("fp16", tensor_core=True)

    def test_tensor_core_needs_fp16(self):
        with pytest.raises(ValueError, match="fp16"):
            TESLA_V100.peak_tflops("fp32", tensor_core=True)

    def test_unknown_dtype(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            TESLA_P100.peak_tflops("fp64")

    def test_with_memory(self):
        bigger = TESLA_P100.with_memory(32 * 1024**3)
        assert bigger.mem_bytes == 32 * 1024**3
        assert bigger.name == TESLA_P100.name
        assert TESLA_P100.mem_bytes == 16 * 1024**3  # original untouched


class TestGPUDevice:
    def test_fresh_device_has_zero_time(self, p100):
        assert p100.elapsed_us() == 0.0

    def test_submit_advances_time(self, p100):
        end = p100.submit("compute", 10.0)
        assert end == 10.0
        assert p100.elapsed_us() == 10.0

    def test_submit_serialises_within_stream(self, p100):
        p100.submit("compute", 10.0)
        end = p100.submit("h2d", 5.0)  # one in-order queue: must wait
        assert end == 15.0

    def test_submit_unknown_engine(self, p100):
        with pytest.raises(ValueError, match="unknown engine"):
            p100.submit("nvlink", 1.0)

    def test_negative_duration_rejected(self, p100):
        with pytest.raises(ValueError, match="non-negative"):
            p100.submit("compute", -1.0)

    def test_synchronize_aligns_everything(self, p100):
        p100.submit("compute", 7.0)
        p100.submit("d2h", 2.0)
        t = p100.synchronize()
        assert t == 9.0 == p100.elapsed_us()
        # after sync, work on any engine starts at the barrier
        assert p100.submit("h2d", 1.0) == 10.0

    def test_reset_timing(self, p100):
        p100.submit("compute", 10.0, step="GEMM")
        p100.reset_timing()
        assert p100.elapsed_us() == 0.0
        assert p100.profiler.total_us() == 0.0

    def test_profiler_steps_accumulate(self, p100):
        p100.submit("compute", 10.0, step="GEMM")
        p100.submit("compute", 4.0, step="GEMM")
        assert p100.profiler.as_dict()["GEMM"] == 14.0

    def test_typed_ops_charge_profiler(self, p100):
        p100.gemm(768, 768, 128)
        p100.top2_scan(768, 768)
        p100.d2h_result(768, 1)
        p100.cpu_postprocess(1)
        steps = p100.profiler.as_dict()
        assert {"GEMM", "Top-2 sort", "D2H copy", "Post-processing"} <= set(steps)

    def test_feature_matrix_bytes(self):
        """One cached FP16 reference matrix takes its config's
        ``feature_matrix_bytes()`` of device memory, no more."""
        for m, nbytes in ((768, 768 * 128 * 2), (384, 98304)):
            device = GPUDevice(TESLA_P100)
            config = EngineConfig(m=m, batch_size=1)
            engine = TextureSearchEngine(config, device=device)
            engine.add_reference("r0", make_descriptors(m, seed=m))
            assert device.memory.used_bytes == config.feature_matrix_bytes() == nbytes
