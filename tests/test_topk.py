"""Top-k selection kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import functional_topk
from repro.gpusim.kernels import insertion_sort_us, top2_scan_us


class TestFunctionalTopk:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        a = rng.random((50, 20))
        vals, idx = functional_topk(a, 3)
        expected = np.sort(a, axis=0)[:3]
        np.testing.assert_allclose(vals, expected)

    def test_indices_consistent_with_values(self):
        rng = np.random.default_rng(1)
        a = rng.random((30, 10))
        vals, idx = functional_topk(a, 2)
        np.testing.assert_allclose(np.take_along_axis(a, idx, axis=0), vals)

    def test_tiebreak_lowest_index(self):
        a = np.array([[1.0, 2.0], [1.0, 1.0], [0.5, 1.0]])
        _vals, idx = functional_topk(a, 2)
        np.testing.assert_array_equal(idx[:, 0], [2, 0])
        np.testing.assert_array_equal(idx[:, 1], [1, 2])

    def test_k_equals_m(self):
        a = np.array([[3.0], [1.0], [2.0]])
        vals, idx = functional_topk(a, 3)
        np.testing.assert_allclose(vals[:, 0], [1, 2, 3])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            functional_topk(np.ones((3, 2)), 4)
        with pytest.raises(ValueError):
            functional_topk(np.ones((3, 2)), 0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            functional_topk(np.ones(5), 1)

    @given(
        hnp.arrays(
            np.float64,
            shape=st.tuples(st.integers(2, 40), st.integers(1, 12)),
            elements=st.floats(-1e6, 1e6),
        ),
        st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_vs_sort(self, a, k):
        k = min(k, a.shape[0])
        vals, _ = functional_topk(a, k)
        np.testing.assert_allclose(vals, np.sort(a, axis=0)[:k])

    @given(
        hnp.arrays(
            np.float64,
            # tall arrays cross the 4*k >= m boundary both ways, so both
            # the argpartition fast path and the full sort are exercised
            shape=st.tuples(st.integers(2, 120), st.integers(1, 6)),
            # tiny value alphabet => columns are riddled with ties
            elements=st.integers(0, 3).map(float),
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_ties_break_to_lower_row(self, a, k):
        k = min(k, a.shape[0])
        vals, idx = functional_topk(a, k)
        expected_idx = np.argsort(a, axis=0, kind="stable")[:k]
        np.testing.assert_array_equal(idx, expected_idx)
        np.testing.assert_allclose(
            vals, np.take_along_axis(a, expected_idx, axis=0)
        )


@st.composite
def selections(draw):
    """``(a, k, largest, layout)``: a tie-riddled column block over a small
    alphabet — ``+inf`` and whole NaN columns on the smallest-k path — in
    one of the three layouts :func:`functional_topk` meets."""
    m, cols, k = draw(st.integers(5, 64)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    largest = draw(st.booleans())
    alphabet = [0.0, 1.0, 2.0, 3.0] if largest else [0.0, 1.0, 2.0, np.inf, np.nan]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    a = draw(hnp.arrays(dtype, (m, cols), elements=st.sampled_from(alphabet)))
    if not largest:
        a[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = np.nan
    return a, k, largest, draw(st.sampled_from(["F", "C", "read-only F", "read-only C"]))


class TestFlatIndexSelection:
    """The winners are read and masked through flat indices into the
    F-ordered buffer; any other layout is selected from an F-ordered copy."""

    @given(selections())
    @settings(max_examples=200, deadline=None)
    def test_property_stable_sort_oracle_and_side_effects(self, case):
        original, k, largest, layout = case
        a = np.asfortranarray(original) if layout.endswith("F") else np.ascontiguousarray(original)
        a = a.copy(order="K")
        a.flags.writeable = not layout.startswith("read-only")
        # a one-column block is F-contiguous whatever its order
        consumed = a.flags.f_contiguous and a.flags.writeable and 4 * k < len(a)
        vals, idx = functional_topk(a, k, largest=largest)
        after = original.copy()
        if largest:
            assert idx is None
            np.testing.assert_array_equal(vals, np.sort(original, axis=0)[::-1][:k])
            if consumed:  # the selection path masks the winners in place
                winners = np.argsort(-original, axis=0, kind="stable")[:k]
                np.put_along_axis(after, winners, -np.inf, axis=0)
        else:
            order = np.argsort(original, axis=0, kind="stable")[:k]
            np.testing.assert_array_equal(idx, order)
            np.testing.assert_array_equal(vals, np.take_along_axis(original, order, axis=0))
        np.testing.assert_array_equal(a, after)  # restored, or masked where documented

    def test_a_masked_entry_picked_again_is_restored(self):
        # argmin picks the NaN, then — every other entry +inf — the mask
        # itself: the NaN must come back, and the column take the sort's order
        a = np.full((10, 1), np.inf)
        a[0, 0] = np.nan
        a = np.asfortranarray(a)
        vals, idx = functional_topk(a, 2)
        np.testing.assert_array_equal(idx[:, 0], [1, 2])
        np.testing.assert_array_equal(vals[:, 0], [np.inf, np.inf])
        assert np.isnan(a[0, 0]) and np.isinf(a[1:]).all()


class TestDeviceTopk:
    """The scan and the insertion sort select with :func:`functional_topk`
    and differ only in the cost their step lists charge."""

    def test_scan_charged_cheaper_than_insertion(self, p100, v100):
        for device in (p100, v100):
            scan = top2_scan_us(device.spec, device.cal, 768, 768, "fp32")
            assert insertion_sort_us(device.spec, device.cal, 768, 768, "fp32") > scan
        assert insertion_sort_us(v100.spec, v100.cal, 768, 768, "fp32") > top2_scan_us(
            p100.spec, p100.cal, 768, 768, "fp32")

    def test_general_k_supported_by_insertion(self):
        rng = np.random.default_rng(4)
        a = rng.random((32, 8))
        vals, idx = functional_topk(a, 5)
        assert vals.shape == idx.shape == (5, 8)
        np.testing.assert_array_equal(vals, np.sort(a, axis=0)[:5])

    def test_bad_sort_kind_shapes(self):
        with pytest.raises(ValueError):
            functional_topk(np.ones(4), 2)
