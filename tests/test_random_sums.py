import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference as ref
from gammavar import (
    AtomPartition,
    Grouping,
    NormedSpace,
    RandomStream,
    SumEstimate,
    VectorMeasure,
    compare_estimates,
    enumerate_groupings,
    gaussian_sum_sq,
    rademacher_sum_sq,
    randomized_variation_norm,
    sample_brownian,
)
from gammavar import norms, random_sums, suites
from gammavar.groupings import (
    _block_sum,
    _mask_atoms,
    block_sums,
    grouping_from_labels,
    grouping_labels,
)
from gammavar.random_sums import (
    METHOD_EXACT_COVARIANCE,
    METHOD_EXACT_ENUMERATION,
    METHOD_EXACT_HILBERT,
    METHOD_EXACT_QUADRATURE,
    METHOD_MONTE_CARLO,
    covariance_moment,
    has_covariance_moment,
)


class TestRandomStream:
    def test_identical_addresses_reproduce_draws(self):
        a = RandomStream(42, (3,)).generator().standard_normal(8)
        b = RandomStream(42, (3,)).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_substreams_differ(self):
        root = RandomStream(42)
        a = root.substream(0).generator().standard_normal(8)
        b = root.substream(1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_substream_appends_to_the_address(self):
        stream = RandomStream(7, (1,)).substream(4).substream(2)
        assert stream.stream_id == (1, 4, 2)
        assert stream.seed == 7

    def test_integer_stream_id_normalizes_to_a_tuple(self):
        assert RandomStream(7, 5).stream_id == (5,)


class TestSumEstimate:
    def test_exactness_tracks_the_method(self):
        assert SumEstimate(1.0, 0.0, 0, METHOD_EXACT_HILBERT).is_exact
        assert SumEstimate(1.0, 0.0, 0, METHOD_EXACT_ENUMERATION).is_exact
        assert not SumEstimate(1.0, 0.1, 100, METHOD_MONTE_CARLO).is_exact

    def test_fields_in_the_reference_layout(self):
        # tests compare estimates with tests/_reference.py documents as dicts
        doc = dataclasses.asdict(SumEstimate(2.0, 0.1, 50, METHOD_MONTE_CARLO))
        assert list(doc.items()) == [
            ("value", 2.0),
            ("std_error", 0.1),
            ("samples", 50),
            ("method", "monte_carlo"),
        ]


class TestCompareEstimates:
    def test_two_equal_exact_estimates_are_consistent(self):
        a = SumEstimate(2.0, 0.0, 0, METHOD_EXACT_HILBERT)
        b = SumEstimate(2.0, 0.0, 0, METHOD_EXACT_ENUMERATION)
        assert compare_estimates(a, b).consistent

    def test_exact_estimates_must_agree_to_the_tight_tolerance(self):
        # values up to 1 keep the absolute tolerance
        a = SumEstimate(0.5, 0.0, 0, METHOD_EXACT_HILBERT)
        b = SumEstimate(0.5 + 5e-9, 0.0, 0, METHOD_EXACT_HILBERT)
        result = compare_estimates(a, b)
        assert not result.consistent
        assert result.tolerance == 1e-9

    @pytest.mark.parametrize("value", [2.0, 1e6, 1e12])
    def test_exact_tolerance_is_relative_beyond_one(self, value):
        a = SumEstimate(value, 0.0, 0, METHOD_EXACT_HILBERT)
        rounding = SumEstimate(value * (1.0 + 4e-16), 0.0, 0, METHOD_EXACT_COVARIANCE)
        assert compare_estimates(a, rounding).consistent
        assert compare_estimates(a, rounding).tolerance == 1e-9 * rounding.value
        discrepant = SumEstimate(value * (1.0 + 1e-6), 0.0, 0, METHOD_EXACT_COVARIANCE)
        assert not compare_estimates(a, discrepant).consistent

    def test_z_scaled_combined_error(self):
        a = SumEstimate(2.00, 0.01, 100, METHOD_MONTE_CARLO)
        b = SumEstimate(2.02, 0.01, 100, METHOD_MONTE_CARLO)
        result = compare_estimates(a, b, z=3.0)
        assert result.consistent
        assert abs(result.tolerance - 3.0 * math.hypot(0.01, 0.01)) <= 1e-15
        assert abs(result.gap - 0.02) <= 1e-15

    def test_far_apart_estimates_are_inconsistent(self):
        a = SumEstimate(1.0, 0.0, 0, METHOD_EXACT_HILBERT)
        b = SumEstimate(2.0, 0.1, 100, METHOD_MONTE_CARLO)
        assert not compare_estimates(a, b, z=3.0).consistent


class TestGaussianSumSq:
    def test_single_vector_in_l2(self):
        estimate = gaussian_sum_sq([[3.0, 4.0]], NormedSpace.l2(2))
        assert estimate.value == 25.0
        assert estimate.method == METHOD_EXACT_HILBERT
        assert estimate.std_error == 0.0

    def test_orthogonal_vectors_in_l2(self):
        estimate = gaussian_sum_sq([[1.0, 0.0], [0.0, 1.0]], NormedSpace.l2(2))
        assert estimate.value == 2.0

    def test_dimension_one_is_exact_for_any_p(self):
        estimate = gaussian_sum_sq([[1.0], [2.0]], NormedSpace(1, math.inf))
        assert estimate.method == METHOD_EXACT_HILBERT
        assert estimate.value == 5.0

    def test_sup_norm_pair_matches_the_quadrature_constant(self):
        estimate = gaussian_sum_sq(
            [[1.0, 0.0], [0.0, 1.0]],
            NormedSpace.linf(2),
            RandomStream(0, (901,)),
            100_000,
        )
        assert estimate.method == METHOD_MONTE_CARLO
        assert abs(estimate.value - ref.MAX_SQ_TWO_GAUSSIANS) <= 3.0 * estimate.std_error

    def test_monte_carlo_needs_a_stream_and_samples(self):
        with pytest.raises(ValueError):
            gaussian_sum_sq([[1.0, 0.0]], NormedSpace.linf(2))
        with pytest.raises(ValueError):
            gaussian_sum_sq([[1.0, 0.0]], NormedSpace.linf(2), RandomStream(0), 1)

    def test_value_shape_validation(self):
        with pytest.raises(ValueError):
            gaussian_sum_sq(np.empty((0, 2)), NormedSpace.l2(2))
        with pytest.raises(ValueError):
            gaussian_sum_sq([[1.0, 2.0, 3.0]], NormedSpace.l2(2))

    def test_reproducible_and_stream_sensitive(self):
        values = [[1.0, 2.0], [0.5, -1.0]]
        space = NormedSpace.l1(2)
        a = gaussian_sum_sq(values, space, RandomStream(5, (1,)), 4000)
        b = gaussian_sum_sq(values, space, RandomStream(5, (1,)), 4000)
        c = gaussian_sum_sq(values, space, RandomStream(5, (2,)), 4000)
        assert a == b
        assert a.value != c.value

    def test_sample_count_is_honored_when_not_divisible_by_batches(self):
        estimate = gaussian_sum_sq(
            [[1.0, 0.0]], NormedSpace.linf(2), RandomStream(0, (902,)), 1001
        )
        assert estimate.samples == 1001

    def test_scaling_is_exact_with_a_shared_stream(self):
        values = np.array([[1.0, 2.0], [0.5, -1.0]])
        space = NormedSpace.linf(2)
        stream = RandomStream(3, (7,))
        base = gaussian_sum_sq(values, space, stream, 2000)
        scaled = gaussian_sum_sq(2.0 * values, space, stream, 2000)
        assert abs(scaled.value - 4.0 * base.value) <= 1e-9 * abs(base.value)

    def test_hilbert_closed_form_agrees_with_monte_carlo(self):
        # the closed form and a forced-sampling run of the same quantity:
        # inside 3 sigma in at least 99 of 100 seeded repetitions
        rng = np.random.default_rng(18)
        hits = 0
        for rep in range(100):
            values = rng.standard_normal((3, 2))
            exact = gaussian_sum_sq(values, NormedSpace.l2(2))
            # p = 2.000001 defeats the Hilbert branch but not the geometry
            mc = gaussian_sum_sq(
                values, NormedSpace(2, 2.000001), RandomStream(100, (rep,)), 4000
            )
            if abs(exact.value - mc.value) <= 3.0 * mc.std_error:
                hits += 1
        assert hits >= 99

    def test_appending_a_vector_never_decreases_the_moment(self):
        space = NormedSpace.linf(2)
        rng = np.random.default_rng(20)
        for rep in range(10):
            values = rng.standard_normal((3, 2))
            extra = np.concatenate([values, rng.standard_normal((1, 2))])
            a = gaussian_sum_sq(values, space, RandomStream(21, (rep, 0)), 20_000)
            b = gaussian_sum_sq(extra, space, RandomStream(21, (rep, 1)), 20_000)
            assert b.value >= a.value - 3.0 * math.hypot(a.std_error, b.std_error)


class TestRademacherSumSq:
    def test_two_unit_scalars(self):
        estimate = rademacher_sum_sq([[1.0], [1.0]], NormedSpace.l2(1))
        assert estimate.value == 2.0
        assert estimate.is_exact

    def test_sup_norm_unit_vectors_are_constant(self):
        estimate = rademacher_sum_sq([[1.0, 0.0], [0.0, 1.0]], NormedSpace.linf(2))
        assert estimate.value == 1.0
        assert estimate.method == METHOD_EXACT_ENUMERATION
        assert estimate.std_error == 0.0

    def test_single_vector_gives_its_squared_norm(self):
        estimate = rademacher_sum_sq([[3.0, -4.0]], NormedSpace.l1(2))
        assert estimate.value == 49.0

    def test_opposite_vectors(self):
        estimate = rademacher_sum_sq([[1.0, 2.0], [-1.0, -2.0]], NormedSpace.linf(2))
        assert estimate.value == 8.0  # patterns give 0 or 2x, mean 2 ||x||^2

    @pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
    def test_enumeration_matches_the_brute_force_reference(self, p):
        rng = np.random.default_rng(31)
        values = rng.standard_normal((5, 2))
        estimate = rademacher_sum_sq(values, NormedSpace(2, p))
        expected = ref.rademacher_moment_reference(values, p)
        assert estimate.method == METHOD_EXACT_ENUMERATION
        assert abs(estimate.value - expected) <= 1e-12

    @settings(derandomize=True, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.sampled_from([1.0, 1.5, math.inf]),
        st.data(),
    )
    def test_enumeration_matches_the_reference_on_random_families(
        self, k, dim, p, data
    ):
        values = data.draw(
            arrays(float, (k, dim), elements=st.floats(-10.0, 10.0, width=64))
        )
        estimate = rademacher_sum_sq(values, NormedSpace(dim, p))
        expected = ref.rademacher_moment_reference(values, p)
        assert abs(estimate.value - expected) <= 1e-12 * expected + 1e-280

    def test_monte_carlo_engages_past_the_enumeration_cap(self):
        rng = np.random.default_rng(33)
        values = rng.standard_normal((21, 2))
        # p near 2 defeats both exact branches while the true moment stays
        # numerically indistinguishable from the Euclidean closed form
        space = NormedSpace(2, 2.000001)
        mc = rademacher_sum_sq(values, space, RandomStream(0, (903,)), 40_000)
        assert mc.method == METHOD_MONTE_CARLO
        assert mc.samples == 40_000
        assert abs(mc.value - float(np.sum(values**2))) <= 3.0 * mc.std_error


def _table_and_single_moments(values, space):
    """Every set partition's subgroup mean of the atom-sign table, paired
    with rademacher_sum_sq of its block_sums."""
    ((labels, masks),) = grouping_labels(values.shape[0])
    screen, _ = random_sums._table_screen(values, space)
    means, _ = screen(masks)
    for row, value in zip(labels.tolist(), means.tolist()):
        grouping = grouping_from_labels(row)
        yield value, rademacher_sum_sq(block_sums(values, grouping), space).value


def _six_decades(seed, shape):
    """Normal values whose atoms spread over six decades of magnitude, so
    that association shows in the bits."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-3, 4, (shape[0],) + (1,) * (len(shape) - 1))
    return rng.standard_normal(shape) * scales


class TestAtomSignTable:
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_grouping_lies_within_the_rounding_bound(self, p, dim):
        values = _six_decades(int(10 * p) if p < 10 else 99, (7, dim))
        space = NormedSpace(dim, p)
        pairs = list(_table_and_single_moments(values, space))
        assert len(pairs) == 877  # Bell(7) set partitions
        bound = random_sums._table_screen(values, space)[1]
        # the bound is a rounding bound, far below the moments
        assert 0.0 < bound <= 1e-9 * max(single for _, single in pairs)
        assert all(abs(table - single) <= bound for table, single in pairs)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_the_label_search_matches_the_per_grouping_search(self, p, dim):
        values = _six_decades(int(10 * p) if p < 10 else 99, (7, dim))
        space = NormedSpace(dim, p)
        groupings = list(enumerate_groupings(7, "all"))
        grouping, moment = norms._best(
            groupings, [rademacher_sum_sq(block_sums(values, g), space) for g in groupings]
        )
        report = randomized_variation_norm(values, space, mode="exhaustive")
        assert (report.grouping, report.moment) == (grouping, moment)

    @pytest.mark.parametrize("chunk", [1, 40, 200])
    def test_small_gathers_keep_the_means(self, monkeypatch, chunk):
        # 40 and 200 floats split the families into several gathers; 1 float
        # gathers one family at a time
        values = np.random.default_rng(5).standard_normal((5, 2))
        space = NormedSpace(2, 1.5)
        whole = [table for table, _ in _table_and_single_moments(values, space)]
        monkeypatch.setattr(random_sums, "_ENSEMBLE_CHUNK_FLOATS", chunk)
        assert [table for table, _ in _table_and_single_moments(values, space)] == whole

    @pytest.mark.parametrize(
        "space", [NormedSpace.l1(2), NormedSpace.linf(4), NormedSpace(2, 1.5), NormedSpace.l1(5)], ids=repr
    )
    def test_the_screen_bound_is_the_one_path_rounding_bound(self, space):
        # off the exact cases the search screens (N, d) values with the
        # table's own bound: one path in one chunk, at the values' reach
        rng = np.random.default_rng(8)
        for n_atoms in range(2, 11):
            for scale in (1e-5, 1.0, 1e4):
                values = scale * rng.standard_normal((n_atoms, space.dim))
                reach = random_sums._reach(values, space)
                want = random_sums._rounding_bound(reach, n_atoms, space.dim, space, 1, 1)
                assert random_sums._table_screen(values, space)[1] == want

    def test_hilbert_bases_and_exact_sums_need_no_bound(self, monkeypatch):
        values = np.random.default_rng(6).standard_normal((7, 7))
        assert random_sums._table_screen(values, NormedSpace.l2(7))[1] == 0.0
        assert random_sums._table_screen(values[:, :1], NormedSpace.linf(1))[1] == 0.0
        assert random_sums._table_screen(values, NormedSpace.l1(7))[1] > 0.0
        # disjoint supports make every signed sum exact and every partition
        # tie; the table means then equal the one-at-a-time values bit for
        # bit, and the search evaluates one partition, not all 877
        disjoint = np.diag(values[0])
        for p in (1.0, 1.5, math.inf):
            space = NormedSpace(7, p)
            assert random_sums._table_screen(disjoint, space)[1] == 0.0
            pairs = _table_and_single_moments(disjoint, space)
            assert all(table == single for table, single in pairs)
            groupings = list(enumerate_groupings(7, "all"))
            grouping, moment = norms._best(
                groupings, [rademacher_sum_sq(block_sums(disjoint, g), space) for g in groupings]
            )
            calls = []

            def counted(*args):
                calls.append(args)
                return rademacher_sum_sq(*args)

            monkeypatch.setattr(norms, "rademacher_sum_sq", counted)
            report = randomized_variation_norm(disjoint, space, mode="exhaustive")
            monkeypatch.undo()
            assert (report.grouping, report.moment, len(calls)) == (grouping, moment, 1)

    def test_the_bound_stays_finite_where_its_reach_squared_overflows(self, monkeypatch):
        # reach = sum_n ||x_n||_1 = 3.5 a, so reach^2 = 2.2e308 overflows; the
        # signed sums' squares 6.25 a^2 and 2.25 a^2 do not
        values = 4.2e153 * np.array([[1.0, 1.0], [1.0, -0.5]])
        space = NormedSpace.l1(2)
        bound = random_sums._table_screen(values, space)[1]
        unit = random_sums._table_screen(values * 2.0**-512, space)[1]
        assert bound == unit * 2.0**512 * 2.0**512
        assert 0.0 < bound < 1e-12 * 6.25 * 4.2e153 * 4.2e153
        calls = []

        def counted(*args):
            calls.append(args)
            return rademacher_sum_sq(*args)

        monkeypatch.setattr(norms, "rademacher_sum_sq", counted)
        report = randomized_variation_norm(values, space, mode="exhaustive")
        monkeypatch.undo()
        # the finest grouping lies far below the top and is never decided
        assert len(calls) == 1
        assert report.grouping == Grouping([[0, 1]], 2)
        assert report.moment == rademacher_sum_sq(block_sums(values, report.grouping), space)
        assert math.isfinite(report.moment.value)


def _far_scale_routes():
    """The three Monte Carlo routes, each as values -> SumEstimate: plain
    draws (gaussian_sum_sq), shared draws (SharedDrawMoments' sampled
    branch) and path statistics (an ensemble's decide kernel)."""
    stream = RandomStream(97, (0,))
    partition = AtomPartition(np.array([0.2, 0.3, 0.5]))
    grouping = Grouping([[0, 2], [1]], 3)
    return {
        "draws": lambda v: gaussian_sum_sq(v[:, 0, :2], NormedSpace.linf(2), stream, 1000),
        "shared-draws": lambda v: norms.SharedDrawMoments(
            # linf(4), which keeps the draws, on four coordinates of each atom
            VectorMeasure(partition, NormedSpace.linf(4), np.concatenate((v[:, 0], v[:, 1, :1]), axis=1)),
            stream,
            1000,
        ).moment(grouping),
        "paths": lambda v: _decided(v, [Grouping.finest(3)], NormedSpace.linf(3))[0],
    }


class TestFarScales:
    """Every Monte Carlo route sums its statistics at unit scale."""

    VALUES = np.random.default_rng(98).standard_normal((3, 50, 3))

    @pytest.mark.parametrize("route", sorted(_far_scale_routes()))
    def test_a_power_of_two_scale_carries_over_exactly(self, route):
        # squared statistics near 2^-2000 once underflowed to a zero error
        estimate = _far_scale_routes()[route]
        unscaled, scaled = estimate(self.VALUES), estimate(np.ldexp(self.VALUES, -500))
        assert scaled.std_error > 0.0
        assert scaled.value == math.ldexp(unscaled.value, -1000)
        assert scaled.std_error == math.ldexp(unscaled.std_error, -1000)

    @pytest.mark.parametrize("route", sorted(_far_scale_routes()))
    def test_overflowing_statistics_give_inf(self, route):
        with np.errstate(over="ignore", invalid="ignore"):
            estimate = _far_scale_routes()[route](self.VALUES * 1e160)
        assert (estimate.value, estimate.std_error) == (math.inf, math.inf)


def _plane_covariances():
    """Random full-rank, rank-one and zero 2 x 2 covariances."""
    rng = np.random.default_rng(71)
    for _ in range(6):
        x = rng.standard_normal((4, 2)) * 10.0 ** rng.integers(-2, 3)
        yield x.T @ x
    for direction in ([1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [3.0, -1.0], [1.0, -1.0]):
        v = np.array(direction)
        yield np.outer(v, v)
    yield np.zeros((2, 2))


class TestCovarianceMoment:
    def test_exact_routes_exist_for_l1_and_the_sup_norm_up_to_r3(self):
        assert has_covariance_moment(NormedSpace.l1(2))
        assert has_covariance_moment(NormedSpace.l1(7))
        assert has_covariance_moment(NormedSpace.linf(2))
        assert has_covariance_moment(NormedSpace.linf(3))
        assert not has_covariance_moment(NormedSpace.linf(4))
        assert not has_covariance_moment(NormedSpace(2, 1.5))
        assert not has_covariance_moment(NormedSpace(3, 3.0))
        with pytest.raises(ValueError):
            covariance_moment(np.eye(4), NormedSpace.linf(4))

    def test_identity_gives_the_reference_constants(self):
        l1 = covariance_moment(np.eye(2), NormedSpace.l1(2))
        linf = covariance_moment(np.eye(2), NormedSpace.linf(2))
        assert abs(l1 - ref.ABS_SUM_SQ_TWO_GAUSSIANS) <= 1e-14
        assert abs(linf - ref.MAX_SQ_TWO_GAUSSIANS) <= 1e-14

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_matches_the_plane_quadrature(self, p):
        space = NormedSpace(2, p)
        for cov in _plane_covariances():
            exact = covariance_moment(cov, space)
            want = ref.gaussian_norm_sq_plane_reference(cov, p)
            assert abs(exact - want) <= 1e-12 * max(1.0, want), cov

    @pytest.mark.parametrize("x", [[0.3515100700930197, 0.35151007009301977], [-1.25, -1.25]])
    def test_rank_one_sup_norm_moment_is_finite(self, x):
        # Y = g x, so E||Y||_inf^2 = max(x_i^2); for the first x the variance
        # of Y_0 - Y_1 rounds to -2.8e-17 when formed from the covariance
        x = np.array([x])
        cov = x.T @ x
        assert cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1] <= 0.0
        value = covariance_moment(cov, NormedSpace.linf(2))
        assert abs(value - float(np.max(x * x))) <= 1e-15 * float(np.max(x * x))

    @pytest.mark.parametrize(
        "space", [NormedSpace.l1(2), NormedSpace.l1(3), NormedSpace.linf(2), NormedSpace.linf(3)], ids=repr
    )
    def test_agrees_with_monte_carlo(self, space):
        # E||sum_n g_n x_n||^2 is the moment of a Gaussian with covariance X^T X
        rng = np.random.default_rng(72 + space.dim)
        for trial in range(8):
            x = rng.standard_normal((6, space.dim))
            exact = covariance_moment(x.T @ x, space)
            mc = gaussian_sum_sq(x, space, RandomStream(72, (space.dim, trial)), 100_000)
            assert abs(exact - mc.value) <= 3.0 * mc.std_error

    @pytest.mark.parametrize(
        "space", [NormedSpace.l1(2), NormedSpace.l1(3), NormedSpace.linf(2), NormedSpace.linf(3)], ids=repr
    )
    @pytest.mark.parametrize("shift", [-900, -500, 500, 900])
    def test_far_scales_neither_underflow_nor_overflow(self, space, shift):
        # the moment is linear in the covariance, and a power-of-two scale is
        # exact, so it must carry over bit for bit
        x = np.random.default_rng(73).standard_normal((4, space.dim))
        cov = x.T @ x
        want = math.ldexp(covariance_moment(cov, space), shift)
        assert covariance_moment(np.ldexp(cov, shift), space) == want

    @pytest.mark.parametrize(
        "space", [NormedSpace.l1(2), NormedSpace.l1(3), NormedSpace.linf(2), NormedSpace.linf(3)], ids=repr
    )
    def test_non_finite_moments_come_back_as_such(self, space):
        # a finite covariance whose moment (above 1.6 times its variances)
        # exceeds the largest float
        big = np.eye(space.dim) * math.ldexp(1.9, 1023)
        assert covariance_moment(big, space) == math.inf
        # an overflowed covariance
        x = np.random.default_rng(74).standard_normal((4, space.dim))
        cov = x.T @ x
        assert covariance_moment(cov * math.inf, space) == math.inf
        with np.errstate(invalid="ignore"):
            assert math.isnan(covariance_moment(cov * math.nan, space))

    @pytest.mark.parametrize(
        "space", [NormedSpace.l1(1), NormedSpace.l1(2), NormedSpace.l1(3), NormedSpace.linf(2)],
        ids=repr,
    )
    def test_a_stack_gives_each_matrix_its_one_matrix_moment(self, space):
        # random, zero, rank-one, far-scaled and overflowing covariances in
        # one stack, each == the one-matrix reference and its own call
        rng = np.random.default_rng(77)
        x = rng.standard_normal((40, 3, space.dim))
        covs = x.transpose(0, 2, 1) @ x
        covs[1] = 0.0
        covs[2] = np.outer(x[2, 0], x[2, 0])
        for i, shift in enumerate((-900, -500, 500, 900)):
            covs[3 + i] = np.ldexp(covs[3 + i], shift)
        covs[7] = np.eye(space.dim) * math.ldexp(1.9, 1023)
        covs[8] = math.inf
        stacked = covariance_moment(covs, space)
        assert stacked.shape == (40,)
        assert stacked.tolist() == [ref.covariance_moment_reference(c, space.p) for c in covs]
        assert stacked.tolist() == [covariance_moment(c, space) for c in covs]
        assert stacked[8] == math.inf
        dim = space.dim
        nested = covariance_moment(covs.reshape(4, 10, dim, dim), space)
        assert nested.tolist() == stacked.reshape(4, 10).tolist()

    @pytest.mark.parametrize("method", [METHOD_EXACT_COVARIANCE, METHOD_EXACT_QUADRATURE])
    def test_the_method_counts_as_exact(self, method):
        estimate = SumEstimate(1.0, 0.0, 0, method)
        assert estimate.is_exact
        assert compare_estimates(estimate, SumEstimate(1.0, 0.0, 0, METHOD_EXACT_HILBERT)).consistent


def _space_covariances():
    """Named 3 x 3 covariances: random, rank one and two, near-singular
    (two coordinates nearly tied), zero, the identity (where every kink
    circle meets others), repeated rows and small integers."""
    rng = np.random.default_rng(79)
    x = rng.standard_normal((5, 3))
    near = rng.standard_normal((4, 3))
    near[:, 2] = near[:, 0] * (1.0 + 1e-6)
    repeated = rng.standard_normal((4, 3))
    repeated[:, 1] = repeated[:, 0]
    ones = np.array([[1.0, -2.0, 0.5]])
    two = rng.standard_normal((2, 3))
    integers = rng.integers(-2, 3, size=(4, 3)).astype(float)
    return {
        "random": x.T @ x,
        "rank-1": ones.T @ ones,
        "rank-2": two.T @ two,
        "near-singular": near.T @ near,
        "zero": np.zeros((3, 3)),
        "identity": np.eye(3),
        "repeated-rows": repeated.T @ repeated,
        "integers": integers.T @ integers,
    }


class TestSupNormQuadrature:
    """covariance_moment in linf(3): the nested angular quadrature
    (random_sums._sup_moments_3d)."""

    SPACE = NormedSpace.linf(3)

    @pytest.mark.parametrize("name", sorted(_space_covariances()))
    @pytest.mark.parametrize("shift", [0, -500, 500])
    def test_doubled_nodes_agree_to_1e_12(self, name, shift):
        cov = np.ldexp(_space_covariances()[name], shift)
        nodes = random_sums._POLAR_NODES
        once, twice = (random_sums._sup_moments_3d(cov[None], n)[0] for n in (nodes, 2 * nodes))
        assert abs(once - twice) <= 1e-12 * abs(twice)

    @pytest.mark.parametrize("name", sorted(_space_covariances()))
    @pytest.mark.parametrize("shift", [-900, -500, 500, 900])
    def test_far_scales_carry_over_exactly(self, name, shift):
        cov = _space_covariances()[name]
        want = math.ldexp(covariance_moment(cov, self.SPACE), shift)
        assert covariance_moment(np.ldexp(cov, shift), self.SPACE) == want

    @pytest.mark.parametrize("v", [[1.0, -2.0, 0.5], [0.0, 3.0, 0.0], [1.0, 1.0, 1.0], [2.0, -2.0, 1e-9]])
    def test_rank_one_gives_the_largest_square(self, v):
        # Y = g v, so ||Y||_inf^2 = max_i v_i^2 g^2
        v = np.array(v)
        want = float(np.max(v * v))
        assert abs(covariance_moment(np.outer(v, v), self.SPACE) - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "variances", [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1e-3, 1.0, 10.0], [0.0, 2.0, 5.0], [4.0, 0.0, 0.0]]
    )
    def test_diagonal_covariances_match_the_one_dimensional_integral(self, variances):
        want = ref.sup_norm_sq_diagonal_reference(variances)
        got = covariance_moment(np.diag(variances), self.SPACE)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", ["random", "rank-2", "near-singular", "integers"])
    def test_matches_the_plain_product_rule(self, name):
        cov = _space_covariances()[name]
        want = ref.sup_norm_sq_sphere_reference(cov)
        assert abs(covariance_moment(cov, self.SPACE) - want) <= 1e-6 * want

    def test_agrees_loosely_with_draws(self):
        rng = np.random.default_rng(80)
        for name, cov in _space_covariances().items():
            lam, vec = np.linalg.eigh(cov)
            y = rng.standard_normal((200_000, 3)) @ (vec * np.sqrt(np.clip(lam, 0.0, None))).T
            stats = np.max(y * y, axis=1)
            se = float(np.std(stats)) / math.sqrt(stats.size)
            assert abs(covariance_moment(cov, self.SPACE) - float(np.mean(stats))) <= 4.0 * se + 1e-300, name

    def test_a_stack_gives_each_matrix_the_bits_of_a_lone_call(self):
        # more matrices than one quadrature chunk holds, with zero, rank-one,
        # far-scaled, overflowing and nan covariances among them
        rng = np.random.default_rng(81)
        x = rng.standard_normal((20, 4, 3))
        covs = x.transpose(0, 2, 1) @ x
        for i, cov in enumerate(_space_covariances().values()):
            covs[i] = cov
        covs[9], covs[10] = np.ldexp(covs[9], -500), np.ldexp(covs[10], 700)
        covs[11], covs[12] = math.inf, math.nan
        with np.errstate(invalid="ignore"):
            stacked = covariance_moment(covs, self.SPACE)
            lone = [covariance_moment(c, self.SPACE) for c in covs]
        assert stacked.shape == (20,)
        assert stacked[:11].tolist() == lone[:11] and stacked[13:].tolist() == lone[13:]
        assert stacked[11] == lone[11] == math.inf
        assert math.isnan(stacked[12]) and math.isnan(lone[12])
        nested = covariance_moment(covs[13:17].reshape(2, 2, 3, 3), self.SPACE)
        assert nested.tolist() == stacked[13:17].reshape(2, 2).tolist()


def _decided(values, groupings, base):
    """The ensemble decide kernel on held (atoms, paths, dim) values fed as
    one chunk: each grouping's estimate from its per-path statistics."""
    n_atoms, n_paths = values.shape[:2]
    return random_sums._ensemble_decide(lambda: [values], base, n_atoms, n_paths)(groupings)


class TestEnsembleValues:
    def test_hilbert_base_reduces_to_per_path_sums(self):
        rng = np.random.default_rng(40)
        values = rng.standard_normal((3, 50, 2))
        (estimate,) = _decided(values, [Grouping.finest(3)], NormedSpace.l2(2))
        expected = np.sum(values**2, axis=(0, 2)).mean()
        assert abs(estimate.value - expected) <= 1e-12
        assert estimate.samples == 50  # paths carry the uncertainty

    def test_rademacher_sign_enumeration_over_paths(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal((3, 40, 2))
        (estimate,) = _decided(values, [Grouping.finest(3)], NormedSpace.linf(2))
        # direct average over all 8 sign patterns and all paths
        per_path = np.zeros(40)
        for signs in np.ndindex(2, 2, 2):
            s = np.array([1.0 - 2.0 * b for b in signs])
            combo = np.einsum("k,kpd->pd", s, values)
            per_path += np.max(np.abs(combo), axis=-1) ** 2
        expected = per_path / 8.0
        assert abs(estimate.value - expected.mean()) <= 1e-12

    def test_sums_take_n_by_d_values_only(self):
        values = np.ones((3, 30, 2))
        for base in (NormedSpace.l2(2), NormedSpace.l1(2)):
            for moment in (rademacher_sum_sq, gaussian_sum_sq):
                with pytest.raises(ValueError, match=r"nonempty \(N, d\) array"):
                    moment(values, base, RandomStream(9, (0,)), 2000)

    def test_one_atom_moment_averages_the_norm_over_paths(self):
        # a single sign leaves ||r x||^2 = ||x||^2: the empirical L2 norm
        values = np.array([[[3.0, 4.0], [0.0, 0.0]]])  # one atom, two paths
        (estimate,) = _decided(values, [Grouping.finest(1)], NormedSpace.l2(2))
        assert estimate.value == 12.5
        assert estimate.samples == 2
        assert abs(estimate.std_error - 12.5) <= 1e-12  # std(25, 0) / sqrt(2)

    @pytest.mark.parametrize(
        "base", [NormedSpace.l2(2), NormedSpace.l1(2), NormedSpace.linf(2)], ids=repr
    )
    def test_one_atom_moments_match_the_manual_average(self, base):
        # both kernels, the search's and the sweep's, in and outside a
        # Hilbert base
        values = np.random.default_rng(3).standard_normal((4, 6, 2))
        for atom in values:
            expected = base.norm_sq(atom).mean()
            one = atom[None]
            (decided,) = _decided(one, [Grouping.finest(1)], base)
            (masked,) = ensemble_moments(one, [Grouping.finest(1)], base)
            assert abs(decided.value - expected) <= 1e-12
            assert abs(masked.value - expected) <= 1e-12


ENSEMBLE_BASES = [
    NormedSpace.from_tag(dim, tag)
    for tag in ("l1", "l2", "linf", {"lp": 1.5})
    for dim in (1, 2, 3)
]


def _one_grouping_at_a_time(values, groupings, base):
    """The reference's estimate of each grouping, one at a time; its std
    error of one path, nan, is the kernels' 0."""
    n_paths = values.shape[1]
    estimates = []
    for grouping in groupings:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            found = ref.ensemble_randomized_search_reference(
                values, base.norm_sq, base.is_hilbert, candidates=[grouping.blocks]
            )["moment"]
        if n_paths == 1:
            found["std_error"] = 0.0
        estimates.append(SumEstimate(**found))
    return estimates


def ensemble_moments(values, groupings, base, chunks=None):
    """The mask kernel on the groupings' block masks, over held values fed
    as one chunk unless chunks is given, as estimates."""
    masks = ref.block_masks_reference([g.blocks for g in groupings], values.shape[0])

    def one_chunk(size):
        return [values]

    value, error = random_sums._ensemble_moments(chunks or one_chunk, masks, base, values.shape[1])
    return [
        SumEstimate(v, e, values.shape[1], METHOD_MONTE_CARLO)
        for v, e in zip(value.tolist(), error.tolist())
    ]


def assert_within_the_rounding_bound(got, want, values, base):
    """Batched estimates against per-path ones: values and std errors
    within the rounding bound of a table over the values in one chunk,
    which lies far below the values."""
    bound = random_sums._ensemble_screen(lambda: [values], base, values.shape[0])[1]
    assert 0.0 < bound <= 1e-9 * max(w.value for w in want)
    for g, w in zip(got, want, strict=True):
        assert (g.samples, g.method) == (w.samples, w.method)
        assert abs(g.value - w.value) <= bound
        assert abs(g.std_error - w.std_error) <= bound


class TestEnsembleMoments:
    """The batched ensemble kernel on block masks against each grouping's
    per-path statistics: within the table's rounding bound, and == the
    reference where a grouping takes no table."""

    @pytest.fixture(params=["default", "one-grouping-chunks", "chunked-sweeps", "one-grouping-tables"])
    def budget(self, request, monkeypatch):
        # 10 paths in R^3 make 30 floats a row: 60 floats split a grouping's
        # sweep from 3 blocks on; one float gives one grouping per chunk or
        # per table
        names = {
            "one-grouping-chunks": ("_ENSEMBLE_CHUNK_FLOATS", 1),
            "chunked-sweeps": ("_CHUNK_FLOATS", 60),
            "one-grouping-tables": ("_ENSEMBLE_TABLE_FLOATS", 1),
        }
        if request.param in names:
            monkeypatch.setattr(random_sums, *names[request.param])
        return request.param

    @pytest.mark.parametrize("base", ENSEMBLE_BASES, ids=repr)
    def test_every_grouping_matches_its_per_path_statistics(self, base, budget):
        rng = np.random.default_rng(81)
        # magnitudes spread over six decades, so association shows in the bits
        values = rng.standard_normal((5, 10, base.dim)) * 10.0 ** rng.integers(-3, 4, (5, 1, 1))
        every = list(enumerate_groupings(5, "all"))
        groupings = every + [every[i] for i in rng.choice(len(every), size=20)]
        got = ensemble_moments(values, groupings, base)
        if budget == "one-grouping-tables":
            # no table fits: each row takes the per-path statistics' bits
            assert got == _one_grouping_at_a_time(values, groupings, base)
        else:
            assert_within_the_rounding_bound(got, _decided(values, groupings, base), values, base)

    @pytest.mark.parametrize("n_atoms, n_paths", [(16, 300), (100, 12)])
    def test_the_example_3_4_family_matches_the_reference(self, n_atoms, n_paths):
        partition = AtomPartition.uniform(n_atoms)
        paths = sample_brownian(partition, n_paths, RandomStream(82, (n_atoms,))).paths
        contributions = np.ascontiguousarray(paths.T)[:, :, None]
        family = suites._fixed_grouping_family(n_atoms)
        base = NormedSpace.l2(1)
        got = ensemble_moments(contributions, family, base)
        assert got == _one_grouping_at_a_time(contributions, family, base)

    def test_a_hilbert_base_takes_any_number_of_blocks(self):
        values = np.random.default_rng(83).standard_normal((25, 6, 2))
        base = NormedSpace.l2(2)
        finest = [Grouping.finest(25)]
        got = ensemble_moments(values, finest, base)
        assert got == _one_grouping_at_a_time(values, finest, base)

    def test_a_hilbert_grouping_past_the_table_budget_gets_no_table(self, monkeypatch):
        # a budget of 5 rows: the 40-block finest grouping once took a
        # 40-row table of its own (2.8 MB traced); its per-path statistics
        # take the block sums of the chunks of about 250 paths that the
        # kernel asks for, here views of values drawn before the trace, and
        # hold a few (paths,) rows at a time
        n_paths = 5000
        monkeypatch.setattr(random_sums, "_ENSEMBLE_TABLE_FLOATS", 5 * n_paths)
        monkeypatch.setattr(random_sums, "_ENSEMBLE_CHUNK_FLOATS", 40 * 2 * 250)
        values = np.random.default_rng(85).standard_normal((40, n_paths, 2))
        values *= 10.0 ** np.random.default_rng(86).integers(-3, 4, (40, 1, 1))
        groupings = [Grouping.finest(40), Grouping([range(20), range(20, 40)], 40)]
        base = NormedSpace.l2(2)

        def chunks(size):
            return (values[:, span] for span in random_sums._path_spans(n_paths, size))

        tracemalloc.start()
        try:
            got = ensemble_moments(values, groupings[:1], base, chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_paths * 8
        got += ensemble_moments(values, groupings[1:], base, chunks)
        assert got == _one_grouping_at_a_time(values, groupings, base)

    def test_one_path_past_the_table_budget_adds_its_blocks_pairwise(self, monkeypatch):
        # numpy sums 8 or more contiguous norms pairwise, as the closed form
        # does on one path, not in block order
        monkeypatch.setattr(random_sums, "_ENSEMBLE_TABLE_FLOATS", 1)
        groupings = [Grouping.finest(12), Grouping([[0, 11], *([a] for a in range(1, 11))], 12)]
        base = NormedSpace.l2(2)
        for seed in range(86, 92):
            values = _six_decades(seed, (12, 1, 2))
            got = ensemble_moments(values, groupings, base)
            assert got == _one_grouping_at_a_time(values, groupings, base)

    @pytest.mark.parametrize("shape", [(6, 10, 2), (6, 3, 1), (6, 1, 3), (9, 1, 1)])
    def test_the_block_table_has_the_bits_of_block_sum(self, shape):
        # every block's atoms added one at a time over the blocks of the
        # atoms before it, against _block_sum of each block: -0.0, inf, ties
        # and six decades; one float per atom, which numpy sums pairwise
        # from 8 atoms on, takes _block_sum itself
        values = _six_decades(89, shape)
        values[0, 0] = -0.0
        values[1, -1] = np.inf
        values[2] = values[3]
        base = NormedSpace.l2(shape[2])
        want = np.stack(
            [base.norm_sq(_block_sum(values, _mask_atoms(m))) for m in range(1, 1 << shape[0])]
        )
        got = random_sums._block_table(values, base)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_the_sign_cap_is_checked_before_any_sum(self, monkeypatch):
        def refused(*args):
            pytest.fail("summed blocks of a grouping over the enumeration cap")

        for name in ("_block_sum", "_atom_sign_table"):
            monkeypatch.setattr(random_sums, name, refused)
        values = np.ones((21, 4, 2))
        groupings = [Grouping([range(20), [20]], 21), Grouping.finest(21)]
        with pytest.raises(ValueError, match="capped at 20 blocks, got 21"):
            ensemble_moments(values, groupings, NormedSpace.l1(2), refused)

    def test_the_search_checks_values_against_the_space(self):
        space = NormedSpace.l1(2)
        with pytest.raises(ValueError, match="space dim"):
            randomized_variation_norm(np.ones((3, 3)), space)
        with pytest.raises(ValueError, match=r"nonempty \(N, d\) array"):
            randomized_variation_norm(np.ones((3, 4, 2)), space)


KERNEL_BASES = [
    NormedSpace.from_tag(dim, tag) for tag in ("l1", "linf", {"lp": 1.5}) for dim in (2, 3)
]


class TestSignTableMoments:
    """The ensemble kernel outside Hilbert bases, from the path mean and
    covariance of the atom-sign table, against each set partition's
    per-path statistics: values and std errors within the table's rounding
    bound."""

    @staticmethod
    def _assert_matches_one_at_a_time(values, base):
        every = list(enumerate_groupings(values.shape[0], "all"))
        got = ensemble_moments(values, every, base)
        assert_within_the_rounding_bound(got, _decided(values, every, base), values, base)
        return got

    @pytest.mark.parametrize("base", KERNEL_BASES, ids=repr)
    @pytest.mark.parametrize("n_paths", [1, 2, 9])
    def test_tie_heavy_values(self, base, n_paths):
        # a zero atom, a repeated atom and small integers make many
        # partitions tie; one path has no std error
        values = np.random.default_rng(87).integers(-2, 3, size=(6, n_paths, base.dim))
        values = values.astype(float)
        values[2] = 0.0
        values[4] = values[1]
        got = self._assert_matches_one_at_a_time(values, base)
        assert all(g.std_error == 0.0 for g in got) == (n_paths == 1)

    @pytest.mark.parametrize("base", KERNEL_BASES, ids=repr)
    @pytest.mark.parametrize("exponent", [-500, 500])
    def test_far_scales(self, base, exponent):
        # squared norms near 2^-1000 and 2^1000, and path variances near
        # their squares, are summed at unit scale
        values = np.ldexp(np.random.default_rng(88).standard_normal((5, 6, base.dim)), exponent)
        got = self._assert_matches_one_at_a_time(values, base)
        assert all(math.isfinite(g.value) and g.std_error > 0.0 for g in got)


def test_a_chunk_of_larger_statistics_rescales_the_sign_sum(monkeypatch):
    # the first sign pattern's statistic is 1e-300 and the second's 4e300:
    # met one pattern per chunk, the sum moves to the second one's scale
    values = np.array([[1e150, 1e-150], [-1e150, 0.0]])
    space = NormedSpace.l1(2)
    whole = rademacher_sum_sq(values, space)
    assert math.isfinite(whole.value)
    monkeypatch.setattr(random_sums, "_CHUNK_FLOATS", 2)
    assert rademacher_sum_sq(values, space) == whole


def test_moments_near_the_largest_float_are_summed_at_unit_scale():
    # at 2^507 every squared norm of a signed sum of these 8 atoms is
    # finite, but a sum over a subgroup's 2^(k-1) of them is not: the table,
    # the one-at-a-time enumeration and the label search add them at unit
    # scale, so each scales by exactly 2^1014 from the unscaled atoms
    values = np.random.default_rng(1).standard_normal((8, 3))
    far = np.ldexp(values, 507)
    space = NormedSpace.l1(3)
    pairs, far_pairs = (list(_table_and_single_moments(v, space)) for v in (values, far))
    assert len(far_pairs) == 4140
    assert far_pairs == [(math.ldexp(t, 1014), math.ldexp(s, 1014)) for t, s in pairs]
    report = randomized_variation_norm(values, space, mode="exhaustive")
    far_report = randomized_variation_norm(far, space, mode="exhaustive")
    assert far_report.grouping == report.grouping
    assert far_report.moment.value == math.ldexp(report.moment.value, 1014) < math.inf


@pytest.mark.parametrize("sizes", [[7, 5, 9], [1, 20], [3, 1, 1, 6]])
def test_table_stats_merge_chunks_as_one_chunk(sizes):
    # path sums and centred cross-products of a table met in chunks of
    # paths, the later ones 2^40 larger, so that they raise the unit shift,
    # against the same table met whole
    rng = np.random.default_rng(31)
    table = rng.exponential(size=(6, sum(sizes))) * 10.0 ** rng.integers(-3, 4, (6, 1))
    table[:, sizes[0] :] *= 2.0**40
    whole = random_sums._TableStats(cross=True)
    whole.add(table.copy())
    parts = random_sums._TableStats(cross=True)
    for chunk in np.split(table, np.cumsum(sizes)[:-1], axis=1):
        parts.add(chunk.copy())
    assert (parts.paths, parts.shift) == (whole.paths, whole.shift)
    np.testing.assert_allclose(parts.sums, whole.sums, rtol=1e-13)
    scale = np.max(np.abs(whole.products))
    np.testing.assert_allclose(parts.products, whole.products, rtol=0, atol=1e-13 * scale)
