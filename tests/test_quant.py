import dataclasses
import errno
import io
import json
import math
import os
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgeplan import quant
from edgeplan.cli import main
from edgeplan.core import ParseError
from edgeplan.quant import (InvalidShape, SchemeKind, WeightTensor,
                            analyze_tensor, distribution_stats, feasible_bits,
                            load_weight_tensor, save_weight_tensor)

from conftest import tensor_with_skewness
from oracles import (check_linearized, max_abs_error, quantize, quantize_asymmetric,
                     quantize_symmetric)


def wt(values, name="layer"):
    v = np.asarray(values, dtype=np.float32)
    return WeightTensor(layer_name=name, values=v, shape=v.shape)


finite_arrays = hnp.arrays(
    np.float32, st.integers(1, 64),
    elements=st.floats(-100.0, 100.0, width=32))


class TestWeightTensor:
    @pytest.mark.parametrize("values, shape, error, text", [
        # 2**64 wraps around to 0 in int64
        ([], (2 ** 32, 2 ** 32), ValueError, r"0 values, shape \(4294967296, 4294967296\)"),
        ([1.0, 2.0], (-1, -2), InvalidShape, r"negative entry in shape \[-1, -2\]"),
        ([], (0,), ValueError, "empty tensor"),
        ([0.5, math.nan, -math.inf], (3,), ValueError, r"2 non-finite values \(NaN or inf\)"),
        ([1.0, 2.0], (2.7,), InvalidShape, r"non-integer entry in shape \[2.7\]"),
        ([1.0], (True,), InvalidShape, r"non-integer entry in shape \[True\]"),
    ], ids=["product_wraps", "negative_entries", "empty", "non_finite", "float_entry",
            "boolean_entry"])
    def test_refused_at_construction(self, values, shape, error, text):
        with pytest.raises(error, match=text):
            WeightTensor("layer", np.asarray(values, dtype=np.float32), shape)

    def test_numpy_integer_entries_accepted(self):
        values = np.zeros((2, 3), dtype=np.float32)
        w = WeightTensor("layer", values, (np.int64(2), np.int32(3)))
        assert w.shape == (2, 3) and all(type(s) is int for s in w.shape)

    def test_range_is_recorded_once(self):
        w = wt([0.25, -3.5, 2.0])
        assert (w.lo, w.hi) == (-3.5, 2.0)
        stats = distribution_stats(w)
        assert (stats.min, stats.max) == (w.lo, w.hi)

    @pytest.mark.parametrize("n", [2, 9, 33, 1000])
    def test_zero_ends_read_as_positive_zero(self, n):
        """Which signed zero a min or max reduction returns depends on its
        lane order; the recorded range, the stats and the histogram edges
        read +0.0 for either."""
        rng = np.random.default_rng(n)
        zeros = rng.choice([0.0, -0.0], n)
        zeros[0] = -0.0
        for values in (zeros, np.where(rng.random(n) < 0.3, 1.5, zeros),
                       np.where(rng.random(n) < 0.3, -1.5, zeros), -np.zeros(n)):
            w = wt(values)
            stats = distribution_stats(w, bins=4)
            ends = (w.lo, w.hi, stats.min, stats.max, stats.bin_edges[0], stats.bin_edges[-1])
            assert not any(e == 0.0 and math.copysign(1.0, e) < 0 for e in ends), ends


class TestSymmetric:
    def test_hand_example_b3(self):
        res = quantize_symmetric(wt([-2.0, 1.0, 2.0]), 3)
        assert res.scale == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert res.codes.tolist() == [-3, 2, 3]
        np.testing.assert_allclose(res.dequantized, [-2.0, 4.0 / 3.0, 2.0], rtol=1e-6)
        err = max_abs_error(wt([-2.0, 1.0, 2.0]).values, res.dequantized)
        assert err == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_zero_tensor(self):
        res = quantize_symmetric(wt([0.0, 0.0, 0.0]), 5)
        assert res.codes.tolist() == [0, 0, 0]
        assert max_abs_error(np.zeros(3), res.dequantized) == 0.0

    def test_constant_tensor_exact(self):
        for c in (3.25, -1.5):
            res = quantize_symmetric(wt([c, c]), 4)
            assert max_abs_error(np.array([c, c]), res.dequantized) == 0.0

    def test_half_rounds_away_from_zero(self):
        # w/s = [-3, 1.5, 3] at b=3: the 1.5 must go to 2, not 1
        res = quantize_symmetric(wt([-2.0, 1.0, 2.0]), 3)
        assert res.codes[1] == 2

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_symmetric(wt([1.0]), 1)


class TestAsymmetric:
    def test_exact_integer_grid(self):
        res = quantize_asymmetric(wt([0.0, 1.0, 2.0, 3.0]), 2)
        assert res.scale == pytest.approx(1.0)
        assert res.zero_point == 0
        assert res.codes.tolist() == [0, 1, 2, 3]
        np.testing.assert_array_equal(res.dequantized, [0.0, 1.0, 2.0, 3.0])

    def test_hand_example_b2(self):
        res = quantize_asymmetric(wt([0.0, 0.4, 1.0]), 2)
        assert res.scale == pytest.approx(1.0 / 3.0, rel=1e-6)
        np.testing.assert_allclose(res.dequantized, [0.0, 1.0 / 3.0, 1.0], rtol=1e-6)
        err = max_abs_error(np.array([0.0, 0.4, 1.0]), res.dequantized)
        assert err == pytest.approx(abs(0.4 - 1.0 / 3.0), rel=1e-5)

    def test_degenerate_range(self):
        res = quantize_asymmetric(wt([5.0, 5.0]), 4)
        np.testing.assert_array_equal(res.dequantized, [5.0, 5.0])
        assert max_abs_error(np.array([5.0, 5.0]), res.dequantized) == 0.0


class TestMaxAbsError:
    def test_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert max_abs_error(v, v) == 0.0

    def test_known_difference(self):
        assert max_abs_error(np.array([-2.0, 1.0, 2.0]),
                             np.array([-2.0, 4.0 / 3.0, 2.0])) == pytest.approx(1.0 / 3.0)

    def test_single_element(self):
        assert max_abs_error(np.array([0.0]), np.array([0.25])) == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"\(3,\) vs \(4,\)"):
            max_abs_error(np.zeros(3), np.zeros(4))


class TestLinearization:
    def test_boundary_is_inclusive(self):
        assert check_linearized(np.array([0.2]), np.array([0.0]), 0.2)

    def test_violated_bound(self):
        assert not check_linearized(np.array([0.2 + 1e-6]), np.array([0.0]), 0.2)

    def test_negative_side(self):
        assert check_linearized(np.array([-0.2]), np.array([0.0]), 0.2)
        assert not check_linearized(np.array([-0.3]), np.array([0.0]), 0.2)

    @given(finite_arrays, finite_arrays, st.floats(0.0, 50.0))
    @settings(max_examples=300, deadline=None)
    def test_equivalent_to_max_abs_error(self, a, b, delta):
        if a.size != b.size:
            b = np.resize(b, a.size)
        assert check_linearized(a, b, delta) == (max_abs_error(a, b) <= delta)


class TestFeasibleBits:
    def test_hand_example(self):
        w = wt([-2.0, 1.0, 2.0])
        errs = {b: max_abs_error(w.values,
                                 quantize(w, b, SchemeKind.SYMMETRIC_SIGNED).dequantized)
                for b in (2, 3, 8)}
        assert errs[2] == pytest.approx(1.0, rel=1e-6)
        assert errs[3] == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert errs[8] == pytest.approx(2.0 / 127.0 / 2.0, abs=1e-3)
        assert feasible_bits(w, (2, 3, 8), 0.2, SchemeKind.SYMMETRIC_SIGNED) == (8,)

    def test_zero_delta_constant_tensor(self):
        assert feasible_bits(wt([1.5, 1.5]), (2, 3, 8), 0.0,
                             SchemeKind.SYMMETRIC_SIGNED) == (2, 3, 8)

    @given(finite_arrays)
    @settings(max_examples=100, deadline=None)
    def test_delta_above_peak_admits_everything(self, values):
        w = wt(values)
        delta = float(np.max(np.abs(values))) + 1e-6
        assert feasible_bits(w, (2, 4, 8), delta,
                             SchemeKind.SYMMETRIC_SIGNED) == (2, 4, 8)


class TestDistributionStats:
    def test_symmetric_triple(self):
        stats = distribution_stats(wt([-1.0, 0.0, 1.0]))
        assert stats.mean == 0.0
        assert stats.skewness == 0.0
        assert stats.min == -1.0 and stats.max == 1.0

    def test_singleton(self):
        stats = distribution_stats(wt([2.5]))
        assert stats.std == 0.0
        assert stats.skewness == 0.0
        assert stats.counts == (1,)

    @given(finite_arrays, st.integers(1, 16))
    @settings(max_examples=150, deadline=None)
    def test_histogram_counts_partition_elements(self, values, bins):
        stats = distribution_stats(wt(values), bins=bins)
        assert sum(stats.counts) == values.size


class TestRecommendScheme:
    def test_zero_centered_gets_symmetric(self):
        w = wt([-1.0, 0.0, 1.0])
        stats = distribution_stats(w)
        assert quant._pick_scheme(w, None, stats) is SchemeKind.SYMMETRIC_SIGNED

    def test_one_tailed_gets_asymmetric(self):
        w = wt([0.0, 1.0, 2.0, 3.0, 10.0])
        stats = distribution_stats(w)
        assert stats.skewness > 0.5
        assert quant._pick_scheme(w, None, stats) is SchemeKind.ASYMMETRIC

    def test_all_positive_gets_asymmetric(self):
        # near-symmetric shape but zero is not interior
        w = wt([1.0, 2.0, 3.0])
        stats = distribution_stats(w)
        assert abs(stats.skewness) <= 0.5
        assert quant._pick_scheme(w, None, stats) is SchemeKind.ASYMMETRIC


class TestErrorBounds:
    @given(finite_arrays, st.integers(2, 8))
    @settings(max_examples=300, deadline=None)
    def test_symmetric_error_within_half_scale(self, values, bits):
        w = wt(values)
        res = quantize_symmetric(w, bits)
        err = max_abs_error(w.values, res.dequantized)
        assert err <= res.scale / 2 + 1e-12 or res.scale == 1.0 and err == 0.0

    @given(finite_arrays, st.integers(2, 8))
    @settings(max_examples=300, deadline=None)
    def test_asymmetric_error_within_half_scale(self, values, bits):
        w = wt(values)
        res = quantize_asymmetric(w, bits)
        err = max_abs_error(w.values, res.dequantized)
        assert err <= res.scale / 2 + 1e-12

    @given(finite_arrays, st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_extreme_is_exact(self, values, bits):
        w = wt(values)
        res = quantize_symmetric(w, bits)
        peak_idx = int(np.argmax(np.abs(w.values)))
        assert res.dequantized[peak_idx] == pytest.approx(
            float(w.values[peak_idx]), abs=1e-5)

    @given(finite_arrays, st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, values, bits, rnd):
        w = wt(values)
        perm = list(range(values.size))
        rnd.shuffle(perm)
        shuffled = wt(values[perm])
        np.testing.assert_array_equal(
            quantize_symmetric(w, bits).dequantized[perm],
            quantize_symmetric(shuffled, bits).dequantized)
        np.testing.assert_array_equal(
            quantize_asymmetric(w, bits).dequantized[perm],
            quantize_asymmetric(shuffled, bits).dequantized)


class TestTensorFiles:
    def test_round_trip(self, tmp_path):
        w = wt(np.linspace(-1, 1, 12).astype(np.float32).reshape(3, 4).ravel(),
               name="block0")
        obj = WeightTensor("block0", w.values, (3, 4))
        save_weight_tensor(obj, tmp_path)
        back = load_weight_tensor(tmp_path / "block0.json")
        assert back.layer_name == "block0"
        assert back.shape == (3, 4)
        np.testing.assert_array_equal(back.values, obj.values)

    def test_failed_save_leaves_no_metadata(self, tmp_path):
        """The data file cannot be written, so the metadata written before
        it is removed: no tensor is left half on disk."""
        (tmp_path / "block0.bin").mkdir()
        with pytest.raises(OSError):
            save_weight_tensor(wt([0.5, -0.5], name="block0"), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["block0.bin"]

    def test_missing_metadata_key(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"name": "bad"}')
        with pytest.raises(ParseError, match="shape"):
            load_weight_tensor(tmp_path / "bad.json")

    def test_non_finite_values_counted(self, tmp_path):
        save_weight_tensor(wt([0.0, 0.0, 0.0], name="bad"), tmp_path)
        (tmp_path / "bad.bin").write_bytes(
            np.array([np.nan, 1.0, np.inf], dtype="<f4").tobytes())
        with pytest.raises(ParseError, match=r"bad\.bin: 2 non-finite values"):
            load_weight_tensor(tmp_path / "bad.json")

    @pytest.mark.parametrize("shape, values, at_fault, text", [
        ([-2, -1], [1.0, 2.0], "bad.json", "negative entry in shape [-2, -1]"),
        ([4], [1.0, 2.0], "bad.bin", "2 values, shape (4,)"),
        ([0], [], "bad.bin", "empty tensor"),
    ], ids=["negative_entry", "size", "empty"])
    def test_refusal_names_the_file_at_fault(self, tmp_path, shape, values, at_fault, text):
        (tmp_path / "bad.json").write_text(json.dumps(
            {"name": "bad", "shape": shape, "dtype": "f32", "order": "row-major"}))
        (tmp_path / "bad.bin").write_bytes(np.asarray(values, dtype="<f4").tobytes())
        with pytest.raises(ParseError) as exc:
            load_weight_tensor(tmp_path / "bad.json")
        assert str(exc.value) == f"{tmp_path / at_fault}: {text}"

    def test_size_mismatch(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            '{"name": "bad", "shape": [4], "dtype": "f32", "order": "row-major"}')
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 8)  # 2 floats, not 4
        with pytest.raises(ParseError) as exc:
            load_weight_tensor(tmp_path / "bad.json")
        assert str(exc.value) == f"{tmp_path / 'bad.bin'}: 2 values, shape (4,)"

    @pytest.mark.parametrize("kind, code", [("missing", errno.ENOENT),
                                            ("directory", errno.EISDIR)])
    def test_unreadable_bin_refused(self, tmp_path, kind, code):
        (tmp_path / "bad.json").write_text(
            '{"name": "bad", "shape": [2], "dtype": "f32", "order": "row-major"}')
        bin_path = tmp_path / "bad.bin"
        if kind == "directory":
            bin_path.mkdir()
        with pytest.raises(ParseError) as exc:
            load_weight_tensor(tmp_path / "bad.json")
        assert str(exc.value) == f"{bin_path}: [Errno {code}] {os.strerror(code)}: '{bin_path}'"

    def test_partial_value_refused(self, tmp_path):
        """Two bytes past the last whole value: the shape fits the whole
        values, but the file is not a float32 array."""
        (tmp_path / "bad.json").write_text(
            '{"name": "bad", "shape": [2], "dtype": "f32", "order": "row-major"}')
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 8 + b"\x00\x01")
        with pytest.raises(ParseError) as exc:
            load_weight_tensor(tmp_path / "bad.json")
        assert str(exc.value) == (f"{tmp_path / 'bad.bin'}: 10 bytes, "
                                  "not a whole number of float32 values")


    @pytest.mark.parametrize("seed", range(4))
    def test_values_bit_identical_to_the_file(self, tmp_path, seed):
        """Every finite float32 bit pattern, signed zeros, subnormals and
        the float32 extremes among them, loads as the file holds it."""
        rng = np.random.default_rng(seed)
        f32 = np.finfo(np.float32)
        patterns = rng.integers(0, 2 ** 32, int(rng.integers(1, 3 * quant._BLOCK)),
                                dtype=np.uint32).view(np.float32)
        special = np.array([-0.0, 0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
                            f32.tiny, -f32.tiny, f32.max, -f32.max], dtype=np.float32)
        values = rng.permutation(np.concatenate([patterns[np.isfinite(patterns)], special]))
        save_weight_tensor(wt(values, name="w"), tmp_path)
        back = load_weight_tensor(tmp_path / "w.json")
        np.testing.assert_array_equal(
            back.values.view(np.uint32), np.fromfile(tmp_path / "w.bin", "<f4").view(np.uint32))

    def test_writes_do_not_reach_the_file(self, tmp_path):
        save_weight_tensor(wt([0.5, -0.5, 2.0], name="w"), tmp_path)
        before = (tmp_path / "w.bin").read_bytes()
        w = load_weight_tensor(tmp_path / "w.json")
        w.values[:] = 7.0
        assert (w.values == 7.0).all()
        del w
        assert (tmp_path / "w.bin").read_bytes() == before
        np.testing.assert_array_equal(load_weight_tensor(tmp_path / "w.json").values,
                                      [0.5, -0.5, 2.0])

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="reads the process's mappings from /proc")
    def test_no_mapping_outlives_its_tensor(self, tmp_path):
        save_weight_tensor(wt(np.arange(1.0, 5000.0), name="w"), tmp_path)
        bin_path = os.path.realpath(tmp_path / "w.bin")

        def mapped() -> bool:
            with open("/proc/self/maps") as f:
                return bin_path in f.read()

        for _ in range(200):
            w = load_weight_tensor(tmp_path / "w.json")
            assert w.values.sum() > 0
        assert mapped()  # the live tensor's
        del w
        assert not mapped()

class TestAnalyzeTensor:
    def test_records_and_feasibility(self):
        records, stats = analyze_tensor(wt([-2.0, 1.0, 2.0]), (2, 3, 8), 0.2,
                                        scheme=SchemeKind.SYMMETRIC_SIGNED)
        assert [r.bits for r in records] == [2, 3, 8]
        assert [r.feasible for r in records] == [False, False, True]
        assert all(r.scheme is SchemeKind.SYMMETRIC_SIGNED for r in records)

    def test_auto_scheme_follows_distribution(self):
        records, _ = analyze_tensor(wt([-1.0, -0.5, 0.0, 0.5, 1.0]), (8,), 0.2)
        assert records[0].scheme is SchemeKind.SYMMETRIC_SIGNED
        records, _ = analyze_tensor(wt([0.0, 1.0, 2.0, 3.0, 10.0]), (8,), 0.2)
        assert records[0].scheme is SchemeKind.ASYMMETRIC

    def test_forced_scheme(self):
        records, _ = analyze_tensor(wt([-2.0, 1.0, 2.0]), (8,), 0.2,
                                    scheme=SchemeKind.ASYMMETRIC)
        assert records[0].scheme is SchemeKind.ASYMMETRIC


def reference_skewness(v: np.ndarray) -> float:
    """The third standardized moment by the plain ``** 3`` formula."""
    v = v.astype(np.float64)
    mean = float(v.mean())
    m2 = float(np.mean((v - mean) ** 2))
    return 0.0 if m2 == 0.0 else float(np.mean((v - mean) ** 3)) / m2 ** 1.5


KERNEL_WIDTHS = (2, 3, 4, 8, 16, 24, 32)
KERNEL_KINDS = ("gaussian", "positive", "negative", "constant", "single",
                "half_steps", "tiny", "narrow_offset")


def kernel_case_tensors(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    if kind == "gaussian":
        return rng.normal(0.0, rng.uniform(0.01, 3.0), n)
    if kind == "positive":
        return np.abs(rng.normal(1.0, 2.0, n)) + rng.uniform(0.0, 2.0)
    if kind == "negative":
        return -np.abs(rng.standard_exponential(n)) - rng.uniform(0.0, 2.0)
    if kind == "constant":
        return np.full(n, rng.choice([0.0, -1.5, 3.25, 1e-30]))
    if kind == "single":
        return np.array([rng.choice([0.0, -0.7, 2.5, 1e-30])])
    if kind == "half_steps":
        # multiples of 0.125: many elements land exactly on a rounding tie
        return rng.integers(-32, 33, n) * 0.125 + rng.integers(0, 2) * 4.0
    if kind == "tiny":
        return rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-31, -29)
    if kind == "narrow_offset":
        # two adjacent float32 values far from 0: at 32 bits the zero-point
        # and the code differences pass 2^53
        base = np.float32(rng.choice([-1e3, 1e3]))
        return np.where(np.arange(n) % 2, base, np.nextafter(base, np.float32(0)))
    raise ValueError(kind)


class TestKernelMatchesReference:
    """analyze_tensor and feasible_bits against the oracle's quantize and
    max_abs_error."""

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_equal_to_reference(self, kind):
        for seed in range(8):
            w = wt(kernel_case_tensors(kind, seed))
            ref_stats = distribution_stats(w)
            ref_skew = reference_skewness(w.values)
            assert math.isclose(ref_stats.skewness, ref_skew, rel_tol=1e-12, abs_tol=1e-300)
            recommended = quant._pick_scheme(
                w, None, dataclasses.replace(ref_stats, skewness=ref_skew))
            for scheme in (None, SchemeKind.SYMMETRIC_SIGNED, SchemeKind.ASYMMETRIC):
                used = scheme or recommended
                results = {b: quantize(w, b, used) for b in KERNEL_WIDTHS}
                errors = {b: max_abs_error(w.values, r.dequantized) for b, r in results.items()}
                # a budget equal to one width's error puts a tie on the boundary
                delta = sorted(errors.values())[seed % len(KERNEL_WIDTHS)]
                records, stats = analyze_tensor(w, KERNEL_WIDTHS, delta, scheme)
                assert stats == ref_stats
                for r in records:
                    res = results[r.bits]
                    expect = (used, res.scale, res.zero_point,
                              errors[r.bits], errors[r.bits] <= delta)
                    assert (r.scheme, r.scale, r.zero_point, r.max_abs_error,
                            r.feasible) == expect, (kind, seed, scheme, r.bits)
                assert feasible_bits(w, KERNEL_WIDTHS, delta, scheme) == \
                    tuple(r.bits for r in records if r.feasible)

    @pytest.mark.parametrize("values, zero_point", [
        ([-0.5, 2.5], 1), ([0.5, 3.5], -1), ([-2.5, 0.5], 3)])
    def test_zero_point_ties_round_away_from_zero(self, values, zero_point):
        """At 2 bits the scale is 1 and -min/scale is a half-integer, where
        rounding half to even would pick the other neighbour."""
        w = wt(values)
        res = quantize_asymmetric(w, 2)
        assert (res.scale, res.zero_point) == (1.0, zero_point)
        records, _ = analyze_tensor(w, (2,), 0.5, SchemeKind.ASYMMETRIC)
        assert (records[0].scale, records[0].zero_point) == (1.0, zero_point)

    def test_histogram_only_when_asked(self):
        w = wt(kernel_case_tensors("gaussian", 0))
        full = distribution_stats(w, bins=8)
        bare = distribution_stats(w, bins=None)
        assert len(full.counts) == 8 and bare.counts == () and bare.bin_edges == ()
        assert (bare.min, bare.max, bare.mean, bare.std, bare.skewness) == \
            (full.min, full.max, full.mean, full.std, full.skewness)


def reference_error(w: WeightTensor, bits: int, scheme: SchemeKind) -> tuple[float, float]:
    """(scale, max-abs error) of the reference quantizer."""
    res = quantize(w, bits, scheme)
    return res.scale, max_abs_error(w.values, res.dequantized)


def rounding_slack(values: np.ndarray, scheme: SchemeKind) -> float:
    """The bound's slack: 8u max(|lo|, |hi|), plus 8u (hi - lo) when asymmetric."""
    lo, hi = float(values.min()), float(values.max())
    magnitude = max(-lo, hi)
    if scheme is SchemeKind.ASYMMETRIC:
        magnitude += hi - lo
    return 8 * 2.0 ** -53 * magnitude


def narrow_tensor(base: float, negative: bool, ulps: int, n: int, seed: int) -> np.ndarray:
    """n float32 values within ``ulps`` steps above |base|, far from 0."""
    rng = np.random.default_rng(seed)
    start = np.array([abs(base)], dtype=np.float32).view(np.int32)[0]
    v = (start + rng.integers(0, ulps + 1, n)).astype(np.int32).view(np.float32)
    return -v if negative else v


class TestCertifyOrWitness:
    """feasible_bits certifies widths from the rounding bound and scans the
    rest block by block; its verdicts must equal analyze_tensor's."""

    @given(st.sampled_from(KERNEL_KINDS), st.integers(0, 2 ** 16), st.integers(2, 32),
           st.sampled_from(list(SchemeKind)))
    @settings(max_examples=400, deadline=None)
    def test_error_within_rounding_bound(self, kind, seed, bits, scheme):
        w = wt(kernel_case_tensors(kind, seed))
        scale, err = reference_error(w, bits, scheme)
        assert err <= scale / 2 + rounding_slack(w.values, scheme)

    @given(st.floats(2.0 ** -100, 2.0 ** 100, width=32), st.booleans(), st.integers(1, 64),
           st.integers(1, 300), st.integers(0, 2 ** 16), st.integers(2, 32),
           st.sampled_from(list(SchemeKind)))
    @settings(max_examples=400, deadline=None)
    def test_narrow_range_within_rounding_bound(self, base, negative, ulps, n, seed,
                                                bits, scheme):
        w = wt(narrow_tensor(base, negative, ulps, n, seed))
        scale, err = reference_error(w, bits, scheme)
        assert err <= scale / 2 + rounding_slack(w.values, scheme)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_verdicts_equal_report_at_boundary_deltas(self, kind):
        for seed in range(4):
            w = wt(kernel_case_tensors(kind, seed))
            for scheme in (None, SchemeKind.SYMMETRIC_SIGNED, SchemeKind.ASYMMETRIC):
                records, _ = analyze_tensor(w, KERNEL_WIDTHS, 0.0, scheme)
                slack = rounding_slack(w.values, records[0].scheme)
                deltas = {0.0, math.inf}
                for r in records:
                    # the width's own error and the certification threshold
                    for edge in (r.max_abs_error, r.scale * 0.5 + slack):
                        deltas |= {edge, np.nextafter(edge, -math.inf),
                                   np.nextafter(edge, math.inf)}
                for delta in sorted(float(d) for d in deltas if d >= 0):
                    expect = tuple(r.bits for r in records if r.max_abs_error <= delta)
                    assert feasible_bits(w, KERNEL_WIDTHS, delta, scheme) == expect, \
                        (kind, seed, scheme, delta)

    def test_certified_widths_are_never_scanned(self, monkeypatch):
        # values on the 8-bit symmetric grid of peak 1: 8 bits errs only by
        # float32 rounding, below delta = s8/4 but not provably so, and is
        # scanned to the end; 16 bits is certified (s16/2 + slack <= delta);
        # 2 and 4 bits miss delta within block 0
        scanned = []
        block = quant._GridScan.block

        def spy(self, chunk, work, first):
            scanned.append((self.grid.bits, chunk.size))
            return block(self, chunk, work, first)

        monkeypatch.setattr(quant._GridScan, "block", spy)
        n = 2 * quant._BLOCK + 100
        codes = np.random.default_rng(0).integers(-127, 128, n)
        codes[0] = 127
        w = wt(codes / 127.0)
        delta = 1 / 127 / 4
        assert feasible_bits(w, (2, 4, 8, 16), delta,
                             SchemeKind.SYMMETRIC_SIGNED) == (8, 16)
        assert scanned == [(2, quant._BLOCK), (4, quant._BLOCK), (8, quant._BLOCK),
                           (8, quant._BLOCK), (8, 100)]
        records, _ = analyze_tensor(w, (2, 4, 8, 16), delta,
                                    SchemeKind.SYMMETRIC_SIGNED, bins=None)
        assert [r.bits for r in records if r.feasible] == [8, 16]

    @pytest.mark.parametrize("kind", ["positive", "negative", "constant", "narrow_offset"])
    def test_one_sided_tensors_skip_the_moments(self, kind, monkeypatch):
        calls = []
        stats = quant.distribution_stats

        def spy(*args, **kwargs):
            calls.append(args[0].layer_name)
            return stats(*args, **kwargs)

        monkeypatch.setattr(quant, "distribution_stats", spy)
        for seed in range(8):
            w = wt(kernel_case_tensors(kind, seed))
            records, _ = analyze_tensor(w, KERNEL_WIDTHS, 1e-3)
            assert records[0].scheme is SchemeKind.ASYMMETRIC
            calls.clear()
            assert analyze_tensor(w, KERNEL_WIDTHS, 1e-3, bins=None) == (records, None)
            assert feasible_bits(w, KERNEL_WIDTHS, 1e-3, None) == \
                tuple(r.bits for r in records if r.feasible)
            assert calls == []
        # two-sided: the filter computes the moments only when the two
        # schemes' verdicts differ
        agree = wt([-1.0, 0.5, 2.0], name="agree")
        assert feasible_bits(agree, KERNEL_WIDTHS, 1e-3, SchemeKind.SYMMETRIC_SIGNED) == \
            feasible_bits(agree, KERNEL_WIDTHS, 1e-3, SchemeKind.ASYMMETRIC)
        assert feasible_bits(agree, KERNEL_WIDTHS, 1e-3, None) == \
            feasible_bits(agree, KERNEL_WIDTHS, 1e-3, SchemeKind.ASYMMETRIC)
        assert calls == []
        # widths 4, 5, 6, 8 at delta 0.15: see test_verdict_at_the_skew_threshold
        differ = wt(tensor_with_skewness(0.4995, quant._BLOCK + 1000, seed=3), name="differ")
        assert feasible_bits(differ, (4, 5, 6, 8), 0.15, SchemeKind.SYMMETRIC_SIGNED) != \
            feasible_bits(differ, (4, 5, 6, 8), 0.15, SchemeKind.ASYMMETRIC)
        feasible_bits(differ, (4, 5, 6, 8), 0.15, None)
        assert calls == ["differ"]

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_lazy_pick_is_the_recommended_scheme(self, kind):
        """With no scheme forced, the filter returns the recommended
        scheme's verdicts whether or not it computes the moments: checked
        at each scheme's boundary deltas, where the two disagree."""
        for seed in range(4):
            w = wt(kernel_case_tensors(kind, seed))
            recommended = quant._pick_scheme(w, None, distribution_stats(w, None))
            deltas = {0.0, math.inf}
            for scheme in SchemeKind:
                records, _ = analyze_tensor(w, KERNEL_WIDTHS, 0.0, scheme, bins=None)
                slack = rounding_slack(w.values, scheme)
                for r in records:
                    for edge in (r.max_abs_error, r.scale * 0.5 + slack):
                        deltas |= {edge, np.nextafter(edge, -math.inf),
                                   np.nextafter(edge, math.inf)}
            for delta in sorted(float(d) for d in deltas if d >= 0):
                assert feasible_bits(w, KERNEL_WIDTHS, delta, None) == \
                    feasible_bits(w, KERNEL_WIDTHS, delta, recommended), (kind, seed, delta)

    @pytest.mark.parametrize("n", [quant._BLOCK - 1, quant._BLOCK, 2 * quant._BLOCK + 7])
    def test_errors_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.normal(0.0, 1.0, n), rng.gamma(2.0, 0.05, n)):
            w = wt(values)
            for scheme in SchemeKind:
                records, _ = analyze_tensor(w, KERNEL_WIDTHS, 1e-3, scheme, bins=None)
                for r in records:
                    scale, err = reference_error(w, r.bits, scheme)
                    assert (r.scale, r.max_abs_error) == (scale, err)
                assert feasible_bits(w, KERNEL_WIDTHS, 1e-3, scheme) == \
                    tuple(r.bits for r in records if r.feasible)


def screen_distance(values: np.ndarray, scale: float) -> np.ndarray:
    """The float32 screen's distance to the grid in steps, |t - rint(t)|
    with t = fl32(v * fl32(1/s))."""
    t = values * np.float32(1.0 / scale)
    return np.abs(t - np.rint(t))


class TestScreen:
    """_scan screens a block in float32 and runs the float64 reference
    operations only on the elements that may hold its maximum error."""

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_screen_maximum_is_not_the_exact_maximum(self, scheme):
        # at 16 bits over [0, 1] the float32 t = v / s has steps of up to
        # 2^-8, so two elements whose errors differ by less than eps can
        # swap order; both grids hold 0 and 1 exactly
        rng = np.random.default_rng(0)
        pool = wt(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 4000)]))
        scale, _ = reference_error(pool, 16, scheme)
        errors = np.abs(pool.values - quantize(pool, 16, scheme).dequantized)
        screened = screen_distance(pool.values, scale)
        j = next(j for j in np.argsort(-errors)
                 if np.any((screened > screened[j]) & (errors < errors[j])))
        i = int(np.flatnonzero((screened > screened[j]) & (errors < errors[j]))[0])
        w = wt([0.0, 1.0, pool.values[i], pool.values[j]])
        assert reference_error(w, 16, scheme) == (scale, errors[j])
        records, _ = analyze_tensor(w, (4, 8, 16), math.inf, scheme, bins=None)
        for r in records:
            assert (r.scale, r.max_abs_error) == reference_error(w, r.bits, scheme)
        assert feasible_bits(w, (16,), float(errors[j]), scheme) == (16,)
        assert feasible_bits(w, (16,), float(np.nextafter(errors[j], 0.0)), scheme) == ()

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_gaussian_block_is_screened(self, scheme, monkeypatch):
        sizes = []
        block_error = quant._block_error

        def spy(x, *args):
            sizes.append(x.size)
            return block_error(x, *args)

        monkeypatch.setattr(quant, "_block_error", spy)
        w = wt(np.random.default_rng(1).normal(0.0, 0.05, quant._BLOCK))
        records, _ = analyze_tensor(w, (16,), math.inf, scheme, bins=None)
        assert (records[0].scale, records[0].max_abs_error) == reference_error(w, 16, scheme)
        assert len(sizes) == 1 and 0 < sizes[0] < quant._BLOCK // 10


def element_errors(w: WeightTensor, bits: int, scheme: SchemeKind) -> np.ndarray:
    """Each element's reference error."""
    return np.abs(w.values.astype(np.float64) - quantize(w, bits, scheme).dequantized)


def neighbours(values) -> set[float]:
    """Each value and its two float neighbours, those not below 0."""
    return {float(d) for v in values
            for d in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)) if d >= 0}


def assert_scan_is_reference(w: WeightTensor, widths, deltas=()) -> None:
    """Under each scheme, analyze_tensor's errors at delta = inf equal the
    reference's, and feasible_bits at each error, each given delta and
    their float neighbours keeps the widths the reference keeps."""
    for scheme in SchemeKind:
        records, _ = analyze_tensor(w, widths, math.inf, scheme, bins=None)
        errors = {}
        for r in records:
            scale, errors[r.bits] = reference_error(w, r.bits, scheme)
            assert (r.scale, r.max_abs_error) == (scale, errors[r.bits]), (scheme, r.bits)
        for delta in sorted(neighbours([*errors.values(), *deltas])):
            assert feasible_bits(w, widths, delta, scheme) == \
                tuple(b for b in sorted(errors) if errors[b] <= delta), (scheme, delta)


def grid_tensor(scheme: SchemeKind, bits: int, n: int, seed: int):
    """(values, on_grid): n float32 values over a range whose ends are on
    the scheme's grid at ``bits`` (both ends included, [-1, 1] symmetric,
    [-1, 2] asymmetric), each within 0.05 steps of that grid, and
    on_grid(k, f), the value f steps past the grid's k-th point above 0."""
    rng = np.random.default_rng(seed)
    symmetric = scheme is SchemeKind.SYMMETRIC_SIGNED
    lo, hi = (-1.0, 1.0) if symmetric else (-1.0, 2.0)
    grid = quantize(wt([lo, hi]), bits, scheme)
    top = (1 << (bits - 1)) - 1 if symmetric else (1 << bits) - 1
    codes = rng.integers(-top if symmetric else 0, top + 1, n) - grid.zero_point
    v = np.clip((codes + rng.uniform(-0.05, 0.05, n)) * grid.scale, lo, hi)
    v[:2] = (lo, hi)
    return v.astype(np.float32), lambda k, f: np.float32((k + f) * grid.scale)


class TestRunningThreshold:
    """After its first block, a grid keeps only the elements whose screened
    distance reaches its running maximum (or delta) less eps; every error
    and verdict must stay the reference's."""

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_maximum_in_the_last_block(self, scheme):
        v, on_grid = grid_tensor(scheme, 8, 3 * quant._BLOCK + 77, seed=1)
        v[-5] = on_grid(40, 0.49)
        w = wt(v)
        assert int(np.argmax(element_errors(w, 8, scheme))) == v.size - 5
        assert_scan_is_reference(w, (4, 8, 16))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_later_block_beats_the_maximum_by_less_than_eps(self, scheme):
        # at 16 bits near the top of the range one float32 step is about
        # 0.004 grid steps and eps about 0.006: among values 0.47 steps off
        # the grid and their float32 neighbours, b, whose screened distance
        # falls furthest below the largest error a below its own, goes to
        # block 2 and a to block 0. A threshold of E/s without eps would
        # drop b
        v, on_grid = grid_tensor(scheme, 16, 3 * quant._BLOCK, seed=2)
        w = wt(v)
        scale = quantize(w, 16, scheme).scale
        eps = quant._screen(scale, max(-w.lo, w.hi), rounding_slack(v, scheme))[1]
        top = 32000 if scheme is SchemeKind.SYMMETRIC_SIGNED else 43000
        base = np.array([on_grid(k, 0.47) for k in range(top - 2000, top)]).view(np.int32)
        candidates = np.concatenate([(base + j).view(np.float32) for j in range(-8, 9)])
        errs = element_errors(wt(np.concatenate([v[:2], candidates])), 16, scheme)[2:]
        screened = screen_distance(candidates, scale)

        def shortfall(b):
            below = errs[errs < errs[b]]
            return below.max() / scale - screened[b] if below.size else -math.inf
        b = max(np.argsort(screened - errs / scale)[:200], key=shortfall)
        a = int(np.flatnonzero(errs == errs[errs < errs[b]].max())[0])
        v[100], v[2 * quant._BLOCK + 100] = candidates[a], candidates[b]
        w = wt(v)
        errors = element_errors(w, 16, scheme)
        assert int(np.argmax(errors)) == 2 * quant._BLOCK + 100
        assert np.sort(errors)[-2] == errors[100]
        assert 0 < errors.max() - errors[100] < eps * scale
        assert screen_distance(w.values[[2 * quant._BLOCK + 100]], scale)[0] < errors[100] / scale
        assert_scan_is_reference(w, (8, 16), deltas=[float(errors[100])])

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_ties_across_blocks(self, scheme):
        v, on_grid = grid_tensor(scheme, 8, 4 * quant._BLOCK - 9, seed=4)
        for block in (0, 1, 3):
            v[block * quant._BLOCK + 11] = on_grid(30, 0.45)
        # the mirror image errs the same under the symmetric scheme
        v[2 * quant._BLOCK + 11] = on_grid(-30, -0.45)
        w = wt(v)
        errors = element_errors(w, 8, scheme)
        tied = np.flatnonzero(errors == errors.max())
        assert len(set(tied // quant._BLOCK)) >= 3
        assert_scan_is_reference(w, (4, 8, 16))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_threshold_on_a_float32_boundary(self, scheme):
        # the filter's threshold delta/s - eps, rounded down to float32,
        # lands exactly on a later block's largest screened distance
        n = 2 * quant._BLOCK + 5
        w = wt(np.random.default_rng(5).normal(0.0, 0.3, n).clip(-1, 1))
        for bits in (8, 16):
            scale = quantize(w, bits, scheme).scale
            eps = quant._screen(scale, max(-w.lo, w.hi), rounding_slack(w.values, scheme))[1]
            later = screen_distance(w.values[quant._BLOCK:], scale)
            target = later.max()
            hits, deltas = 0, set()
            delta = float((float(target) + eps) * scale)
            for _ in range(40):
                delta = float(np.nextafter(delta, -math.inf))
            for _ in range(80):
                delta = float(np.nextafter(delta, math.inf))
                deltas.add(delta)
                hits += quant._floor32(delta / scale - eps) == target
            assert hits > 0
            assert_scan_is_reference(w, (bits,), deltas=sorted(deltas))

    def test_floor32(self):
        for x in (0.5, 0.25, 0.4, 1e-30):
            f = np.float32(x)
            assert quant._floor32(float(f)) == f
            assert quant._floor32(float(np.nextafter(float(f), 1.0))) == f
            assert quant._floor32(float(np.nextafter(float(f), 0.0))) == \
                np.nextafter(f, np.float32(0))
        assert quant._floor32(-0.1) <= -0.1 < np.nextafter(quant._floor32(-0.1), np.float32(1))
        assert quant._floor32(1e300) == 1.0

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_later_blocks_keep_few(self, scheme, monkeypatch):
        """The report evaluates block 0's kept elements, then every later
        block's together; the filter evaluates only blocks that keep
        something."""
        sizes = []
        block_error = quant._block_error

        def spy(x, *args):
            sizes.append(x.size)
            return block_error(x, *args)

        monkeypatch.setattr(quant, "_block_error", spy)
        blocks = 8
        w = wt(np.random.default_rng(6).normal(0.0, 0.05, blocks * quant._BLOCK))
        records, _ = analyze_tensor(w, (4,), math.inf, scheme, bins=None)
        assert (records[0].scale, records[0].max_abs_error) == reference_error(w, 4, scheme)
        assert 1 <= len(sizes) <= 2 and sum(sizes) < quant._BLOCK // 100
        sizes.clear()
        assert feasible_bits(w, (4,), records[0].max_abs_error, scheme) == (4,)
        assert 1 <= len(sizes) < blocks and sum(sizes) < quant._BLOCK // 100


def whole_array_moments(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, std and skewness from sums over the whole float64 array."""
    v = values.astype(np.float64)
    mean = float(v.mean())
    d = v - mean
    m2 = float(np.mean(d * d))
    skew = 0.0 if m2 == 0.0 else float(np.mean((d * d) * d)) / m2 ** 1.5
    return mean, math.sqrt(m2), skew


def fsum_moments(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, std and skewness from correctly rounded sums (math.fsum)."""
    v = values.astype(np.float64)
    mean = math.fsum(v) / v.size
    d = v - mean
    m2 = math.fsum(d * d) / v.size
    return mean, math.sqrt(m2), math.fsum(d * d * d) / v.size / m2 ** 1.5


class TestBlockedMoments:
    """distribution_stats sums block by block; the moments, histogram and
    scheme verdicts must not depend on where the blocks end."""

    @pytest.mark.parametrize("n", [quant._BLOCK - 1, quant._BLOCK, quant._BLOCK + 1,
                                   3 * quant._BLOCK + 7])
    def test_moments_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.normal(0.0, 1.0, n), rng.gamma(2.0, 0.05, n),
                       rng.normal(5.0, 0.01, n)):
            w = wt(values)
            stats = distribution_stats(w, None)
            got = (stats.mean, stats.std, stats.skewness)
            if n <= quant._BLOCK:
                assert got == whole_array_moments(w.values)
                continue
            # each block's pairwise sum, and the sum of the at most four
            # block sums, loses at most about (log2(_BLOCK) + 4) u, some
            # 2e-15, of the sum of magnitudes; 1e-13 leaves a wide margin.
            # A mean off by e moves the skewness by about 3 e / std
            mean, std, skew = fsum_moments(w.values)
            peak = float(np.max(np.abs(w.values)))
            assert abs(stats.mean - mean) <= 1e-13 * peak
            assert abs(stats.std - std) <= 1e-13 * std
            assert abs(stats.skewness - skew) <= 1e-13 * peak / std

    @pytest.mark.parametrize("bins", [1, 7, 8, 32])
    def test_histogram_equals_whole_array_histogram(self, bins):
        # eighths of [-1, 1]: with 8 bins, every eighth value is on an edge
        n = 3 * quant._BLOCK + 11
        rng = np.random.default_rng(bins)
        values = np.where(np.arange(n) % 8 == 0, rng.integers(-8, 9, n) / 8,
                          rng.uniform(-1.0, 1.0, n)).astype(np.float32)
        values[[0, -1]] = (-1.0, 1.0)
        stats = distribution_stats(wt(values), bins)
        counts, edges = np.histogram(values.astype(np.float64), bins=bins, range=(-1.0, 1.0))
        assert stats.bin_edges == tuple(edges.tolist())
        assert stats.counts == tuple(counts.tolist())

    def test_constant_tensor_has_one_bin(self):
        n = 2 * quant._BLOCK + 3
        stats = distribution_stats(wt(np.full(n, 0.1)), 32)
        assert stats.bin_edges == (stats.min, stats.max) and stats.counts == (n,)

    @pytest.mark.parametrize("target", [0.4995, 0.5005, -0.4995, -0.5005])
    def test_verdict_at_the_skew_threshold(self, target):
        w = wt(tensor_with_skewness(target, quant._BLOCK + 1000, seed=3))
        assert w.lo < 0 < w.hi
        skew = distribution_stats(w, None).skewness
        assert abs(abs(skew) - quant.SKEW_THRESHOLD) < 1e-3
        assert math.isclose(skew, fsum_moments(w.values)[2], rel_tol=1e-12)
        expect = (SchemeKind.SYMMETRIC_SIGNED if abs(target) < quant.SKEW_THRESHOLD
                  else SchemeKind.ASYMMETRIC)
        assert quant._pick_scheme(w, None, distribution_stats(w)) is expect
        # at delta 0.15 the two schemes keep different widths
        widths, delta = (4, 5, 6, 8), 0.15
        assert feasible_bits(w, widths, delta, SchemeKind.SYMMETRIC_SIGNED) != \
            feasible_bits(w, widths, delta, SchemeKind.ASYMMETRIC)
        for bins in (None, 32):
            records, _ = analyze_tensor(w, widths, delta, bins=bins)
            assert {r.scheme for r in records} == {expect}
            assert feasible_bits(w, widths, delta) == \
                tuple(r.bits for r in records if r.feasible) == \
                feasible_bits(w, widths, delta, expect)

    def test_memory_stays_block_sized(self):
        # a two-sided 1M-element tensor: whole-array moments would take
        # three 8 MB float64 arrays
        values = np.random.default_rng(0).normal(0.0, 1.0, 1 << 20).astype(np.float32)
        w = wt(values)
        for analysis in (lambda: distribution_stats(w, None),
                         lambda: feasible_bits(w, (4, 8, 16), 1e-4)):
            tracemalloc.start()
            try:
                analysis()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000


class TestScreenedPick:
    """With no moments at hand, _pick_scheme compares |skewness| with
    SKEW_THRESHOLD from float32 sums and an a-priori bound, and takes
    distribution_stats's moments only when the estimate is within the
    bound of the threshold."""

    @pytest.mark.parametrize("n", [quant._BLOCK - 1000, quant._BLOCK + 1000,
                                   3 * quant._BLOCK - 5])
    @pytest.mark.parametrize("offset", [-1e-2, -1e-3, -1e-4, -1e-6, 1e-6, 1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_verdict_near_the_threshold(self, n, offset, sign, monkeypatch):
        w = wt(tensor_with_skewness(sign * (quant.SKEW_THRESHOLD + offset), n, seed=5))
        assert w.lo < 0 < w.hi
        exact = quant._pick_scheme(w, None, distribution_stats(w, None))
        calls = []
        stats = quant.distribution_stats

        def spy(*args, **kwargs):
            calls.append(args[0].layer_name)
            return stats(*args, **kwargs)

        monkeypatch.setattr(quant, "distribution_stats", spy)
        assert quant._pick_scheme(w, None) is exact
        assert quant._skew_verdict(w) in (None, exact is SchemeKind.SYMMETRIC_SIGNED)
        if abs(offset) <= 1e-3:
            assert calls == ["layer"]

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_estimate_verdicts_are_exact(self, kind):
        for seed in range(8):
            w = wt(kernel_case_tensors(kind, seed))
            within = abs(distribution_stats(w, None).skewness) <= quant.SKEW_THRESHOLD
            assert quant._skew_verdict(w) in (None, within), (kind, seed)
        # two-sided with the mean far from 0 against the spread, and a
        # lone outlier: the raw sums cancel, and the bound must say so
        rng = np.random.default_rng(7)
        for values in (np.append(rng.normal(1.0, 1e-3, 5000), -1e-3),
                       np.append(rng.normal(0.0, 1e-2, 70000), 3.0),
                       np.append(rng.normal(0.0, 1e-2, 70000), [3.0, -3.0])):
            w = wt(values)
            within = abs(distribution_stats(w, None).skewness) <= quant.SKEW_THRESHOLD
            assert quant._skew_verdict(w) in (None, within)

    def test_gaussian_two_sided_takes_no_moments(self, tmp_path, monkeypatch):
        """quantize without --stats-out picks the scheme of two-sided
        Gaussian tensors of one to three blocks with no float64 moments."""
        rng = np.random.default_rng(8)
        wdir = tmp_path / "w"
        wdir.mkdir()
        for i, n in enumerate((1000, quant._BLOCK, quant._BLOCK + 1, 3 * quant._BLOCK - 7)):
            v = rng.normal(0.0, 10.0 ** -i, n).astype(np.float32)
            save_weight_tensor(WeightTensor(f"g{i}", v, v.shape), str(wdir))
        calls = []
        stats = quant.distribution_stats

        def spy(*args, **kwargs):
            calls.append(args[0].layer_name)
            return stats(*args, **kwargs)

        monkeypatch.setattr(quant, "distribution_stats", spy)
        out = tmp_path / "report.json"
        with redirect_stdout(io.StringIO()):
            assert main(["quantize", "--weights-dir", str(wdir), "--bits", "4,8,16",
                         "--delta", "0.01", "--out", str(out)]) == 0
        assert calls == []
        records = json.loads(out.read_text())["records"]
        assert {r["scheme"] for r in records} == {"symmetric_signed"}
