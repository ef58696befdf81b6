"""PCIe model, profiler, and calibration edge cases."""

import pytest

from repro.gpusim import (
    KernelCalibration,
    StepProfiler,
    TESLA_A100,
    TESLA_P100,
    TransferModel,
    effective_h2d_bandwidth_gbs,
    h2d_time_us,
)


class TestTransferModel:
    def test_latency_plus_bandwidth(self):
        model = TransferModel(latency_us=10.0, bandwidth_gbs=1.0)
        assert model.time_us(0) == 0.0
        assert model.time_us(10**9) == pytest.approx(10.0 + 1e6)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            TransferModel(1.0, 1.0).time_us(-1)

    def test_pageable_effective_bandwidth(self):
        pinned = effective_h2d_bandwidth_gbs(TESLA_P100, pinned=True)
        pageable = effective_h2d_bandwidth_gbs(TESLA_P100, pinned=False)
        assert pinned == TESLA_P100.pcie_pinned_gbs
        # harmonic combination of DMA + staging memcpy
        expected = 1.0 / (1.0 / 9.4 + 1.0 / 12.5)
        assert pageable == pytest.approx(expected)

    def test_a100_faster_link(self):
        assert h2d_time_us(TESLA_A100, 10**8) < h2d_time_us(TESLA_P100, 10**8)


class TestProfiler:
    def test_records_in_insertion_order(self):
        profiler = StepProfiler()
        profiler.add("b", 1.0)
        profiler.add("a", 2.0)
        profiler.add("b", 3.0)
        records = profiler.records()
        assert [r.name for r in records] == ["b", "a"]
        assert records[0].total_us == 4.0
        assert records[0].calls == 2

    def test_disabled(self):
        profiler = StepProfiler()
        profiler.enabled = False
        profiler.add("x", 5.0)
        assert profiler.total_us() == 0.0
        assert "x" not in profiler

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StepProfiler().add("x", -1.0)

    def test_reset(self):
        profiler = StepProfiler()
        profiler.add("x", 1.0)
        profiler.reset()
        assert profiler.records() == []


class TestCalibrationConstruction:
    def test_for_device_requires_fp16(self):
        no_fp16 = TESLA_P100.with_memory(TESLA_P100.mem_bytes)
        # manufacture a spec without fp16 via replace
        from dataclasses import replace

        broken = replace(no_fp16, fp16_tflops=0.0)
        with pytest.raises(ValueError, match="FP16"):
            KernelCalibration.for_device(broken)

    def test_gemm_selector(self):
        cal = KernelCalibration.for_device(TESLA_P100)
        assert cal.gemm("fp16") is cal.gemm_fp16
        assert cal.gemm("fp32") is cal.gemm_fp32
        assert cal.gemm("fp16", tensor_core=True) is cal.gemm_tensor

    def test_efficiency_curve_monotone(self):
        cal = KernelCalibration.for_device(TESLA_P100)
        effs = [cal.gemm_fp16.efficiency(w) for w in (1e6, 1e8, 1e10, 1e12)]
        assert effs == sorted(effs)
        assert effs[-1] <= cal.gemm_fp16.eff_max
        assert cal.gemm_fp16.efficiency(0) == 0.0

    def test_scan_parallelism_saturates(self):
        cal = KernelCalibration.for_device(TESLA_P100)
        scan = cal.scan
        assert scan.effective_parallelism(10**9) < scan.p_sat_threads * 1.001
        assert scan.effective_parallelism(0) == 1.0
        assert scan.cost_ns("fp16") > scan.cost_ns("fp32")
