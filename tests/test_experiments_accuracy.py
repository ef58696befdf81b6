"""Functional accuracy experiments (reduced scale).

The full-scale sweeps run in ``pytest benchmarks/`` (through
``python -m repro.bench.run table2 table7``); here we verify the
experiment machinery and the qualitative claims at a size that keeps
the test suite fast.
"""

import pytest

from repro.bench.experiments import table2_fp16, table7_asymmetric


class TestTable2Small:
    @pytest.fixture(scope="class")
    def result(self):
        return table2_fp16.run(
            scales=[1.0, 2.0**-1, 2.0**-2, 2.0**-7, 2.0**-16],
            n_pairs=3,
            n_bricks=8,
            with_accuracy=True,
        )

    def test_overflow_cells(self, result):
        assert result.row_by("scale factor", "1")[1] == "overflow"
        assert result.row_by("scale factor", "2^-1")[1] == "overflow"
        assert result.summary["n_overflow_scales"] == 2

    def test_plateau_error_small(self, result):
        err_saf = float(result.row_by("scale factor", "2^-2")[1].rstrip("%"))
        err_mid = float(result.row_by("scale factor", "2^-7")[1].rstrip("%"))
        assert 0 < err_saf < 0.5
        assert err_mid == pytest.approx(err_saf, rel=0.3)

    def test_error_rises_at_tiny_scale(self, result):
        err_mid = float(result.row_by("scale factor", "2^-7")[1].rstrip("%"))
        err_deep = float(result.row_by("scale factor", "2^-16")[1].rstrip("%"))
        assert err_deep > 1.5 * err_mid

    def test_accuracy_robust_on_plateau(self, result):
        acc = result.row_by("scale factor", "2^-7")[2]
        assert acc.endswith("%")
        assert float(acc.rstrip("%")) >= 75.0  # small-sample plateau


class TestTable7Small:
    def test_speed_only_sweep(self):
        result = table7_asymmetric.run(with_accuracy=False)
        speeds = {(row[0], row[1]): row[3] for row in result.rows}
        assert speeds[(384, 768)] > speeds[(768, 768)]
        assert speeds[(384, 384)] > speeds[(384, 768)]
        assert result.summary["speed_gain_384_768"] > 0.3

    def test_accuracy_shape(self):
        """m=384 costs little accuracy; n=384 costs much more (Table 7)."""
        result = table7_asymmetric.run(
            grid=[(768, 768), (384, 768), (384, 384)],
            n_bricks=16,
            queries_per_brick=1,
            with_accuracy=True,
        )
        acc = {
            (row[0], row[1]): float(row[2].rstrip("%")) for row in result.rows
        }
        assert acc[(768, 768)] - acc[(384, 768)] <= 7.0  # small loss
        assert acc[(384, 384)] <= acc[(768, 768)]  # n-cut never helps
