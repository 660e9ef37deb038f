import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgeplan import quant
from edgeplan.core import ParseError
from edgeplan.quant import (DistributionStats, SchemeKind, ShapeMismatch,
                            WeightTensor, analyze_tensor, check_linearized,
                            dequantize, distribution_stats, feasible_bits,
                            load_weight_tensor, max_abs_error,
                            quantize_asymmetric, quantize_symmetric,
                            recommend_scheme, save_weight_tensor)


def wt(values, name="layer"):
    v = np.asarray(values, dtype=np.float32)
    return WeightTensor(layer_name=name, values=v, shape=v.shape)


finite_arrays = hnp.arrays(
    np.float32, st.integers(1, 64),
    elements=st.floats(-100.0, 100.0, width=32))


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
        with pytest.raises(ShapeMismatch):
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
        errs = {b: max_abs_error(w.values, dequantize(w, b, SchemeKind.SYMMETRIC_SIGNED))
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
        stats = distribution_stats(wt([-1.0, 0.0, 1.0]))
        assert recommend_scheme(stats, 0.5) is SchemeKind.SYMMETRIC_SIGNED

    def test_one_tailed_gets_asymmetric(self):
        stats = distribution_stats(wt([0.0, 1.0, 2.0, 3.0, 10.0]))
        assert stats.skewness > 0.5
        assert recommend_scheme(stats, 0.5) is SchemeKind.ASYMMETRIC

    def test_all_positive_gets_asymmetric(self):
        # near-symmetric shape but zero is not interior
        stats = distribution_stats(wt([1.0, 2.0, 3.0]))
        assert abs(stats.skewness) <= 0.5
        assert recommend_scheme(stats, 0.5) is SchemeKind.ASYMMETRIC


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

    def test_missing_metadata_key(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"name": "bad"}')
        with pytest.raises(ParseError, match="shape"):
            load_weight_tensor(tmp_path / "bad.json")

    def test_non_finite_values_counted(self, tmp_path):
        save_weight_tensor(wt([0.0, 0.0, 0.0]), tmp_path, "bad")
        (tmp_path / "bad.bin").write_bytes(
            np.array([np.nan, 1.0, np.inf], dtype="<f4").tobytes())
        with pytest.raises(ParseError, match=r"bad\.bin: 2 non-finite values"):
            load_weight_tensor(tmp_path / "bad.json")

    def test_size_mismatch(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            '{"name": "bad", "shape": [4], "dtype": "f32", "order": "row-major"}')
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 8)  # 2 floats, not 4
        with pytest.raises(ParseError):
            load_weight_tensor(tmp_path / "bad.json")


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
    """analyze_tensor and feasible_bits against quantize_* + max_abs_error."""

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_equal_to_reference(self, kind):
        for seed in range(8):
            w = wt(kernel_case_tensors(kind, seed))
            ref_stats = distribution_stats(w)
            ref_skew = reference_skewness(w.values)
            assert math.isclose(ref_stats.skewness, ref_skew, rel_tol=1e-12, abs_tol=1e-300)
            recommended = recommend_scheme(dataclasses.replace(ref_stats, skewness=ref_skew))
            for scheme in (None, SchemeKind.SYMMETRIC_SIGNED, SchemeKind.ASYMMETRIC):
                used = scheme or recommended
                quantize = (quantize_symmetric if used is SchemeKind.SYMMETRIC_SIGNED
                            else quantize_asymmetric)
                results = {b: quantize(w, b) for b in KERNEL_WIDTHS}
                errors = {b: max_abs_error(w.values, r.dequantized) for b, r in results.items()}
                # a budget equal to one width's error puts a tie on the boundary
                delta = sorted(errors.values())[seed % len(KERNEL_WIDTHS)]
                records, stats = analyze_tensor(w, KERNEL_WIDTHS, delta, scheme)
                assert stats == ref_stats
                for r in records:
                    res = results[r.bits]
                    expect = (used, res.scale, getattr(res, "zero_point", 0),
                              errors[r.bits], errors[r.bits] <= delta)
                    assert (r.scheme, r.scale, r.zero_point, r.max_abs_error,
                            r.feasible) == expect, (kind, seed, scheme, r.bits)
                assert feasible_bits(w, KERNEL_WIDTHS, delta, scheme) == \
                    tuple(r.bits for r in records if r.feasible)

    def test_histogram_only_when_asked(self):
        w = wt(kernel_case_tensors("gaussian", 0))
        full = distribution_stats(w, bins=8)
        bare = distribution_stats(w, bins=None)
        assert len(full.counts) == 8 and bare.counts == () and bare.bin_edges == ()
        assert (bare.min, bare.max, bare.mean, bare.std, bare.skewness) == \
            (full.min, full.max, full.mean, full.std, full.skewness)

    @pytest.mark.parametrize("delta", [math.nan, -1.0])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            feasible_bits(wt([1.0, -1.0]), (8,), delta)
        with pytest.raises(ValueError, match="delta"):
            analyze_tensor(wt([1.0, -1.0]), (8,), delta)

    @pytest.mark.parametrize("bits", [1, 33])
    def test_width_outside_range_rejected(self, bits):
        with pytest.raises(ValueError, match="outside"):
            feasible_bits(wt([1.0, -1.0]), (8, bits), 0.1)


def reference_error(w: WeightTensor, bits: int, scheme: SchemeKind) -> tuple[float, float]:
    """(scale, max-abs error) of the reference quantizer."""
    quantize = (quantize_symmetric if scheme is SchemeKind.SYMMETRIC_SIGNED
                else quantize_asymmetric)
    res = quantize(w, bits)
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
        block_error = quant._block_error

        def spy(x, buf, mag, symmetric, grid):
            scanned.append((grid.bits, x.size))
            return block_error(x, buf, mag, symmetric, grid)

        monkeypatch.setattr(quant, "_block_error", spy)
        n = 2 * quant._BLOCK + 100
        codes = np.random.default_rng(0).integers(-127, 128, n)
        codes[0] = 127
        w = wt(codes / 127.0)
        delta = 1 / 127 / 4
        assert feasible_bits(w, (2, 4, 8, 16), delta) == (8, 16)
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
            assert feasible_bits(w, KERNEL_WIDTHS, 1e-3, None) == \
                tuple(r.bits for r in records if r.feasible)
            assert calls == []
        feasible_bits(wt([-1.0, 0.5, 2.0], name="two_sided"), KERNEL_WIDTHS, 1e-3, None)
        assert calls == ["two_sided"]

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
