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
    DiscreteOperator,
    Grouping,
    NormedSpace,
    RandomStream,
    SizeLimitError,
    StepFunction,
    VectorMeasure,
    enumerate_groupings,
    gamma_summing_norm,
    gamma_variation_norm,
    gaussian_sum_sq,
    measure_from_density,
    operator_from_measure,
    randomized_variation_norm,
    rademacher_sum_sq,
    sample_brownian,
    total_variation_norm,
    verify_duality,
)
from gammavar import norms, random_sums
from gammavar.groupings import bell_number, block_sums, grouping_from_labels, grouping_labels
from gammavar.norms import SharedDrawMoments
from gammavar.random_sums import (
    METHOD_EXACT_COVARIANCE,
    METHOD_EXACT_HILBERT,
    METHOD_MONTE_CARLO,
    SumEstimate,
    covariance_moment,
)


def _random_measure(rng, n_atoms, dim, space=None):
    weights = rng.dirichlet(np.ones(n_atoms))
    return VectorMeasure(
        AtomPartition(weights),
        space or NormedSpace.l2(dim),
        rng.standard_normal((n_atoms, dim)),
    )


class TestGammaVariationNorm:
    def test_constant_density_is_rank_one(self):
        # F(A) = mu(A) x for every atom set, so the norm is ||x|| exactly
        density = StepFunction(
            AtomPartition([0.1, 0.2, 0.7]), NormedSpace.l2(2), [[3.0, 4.0]] * 3
        )
        report = gamma_variation_norm(measure_from_density(density))
        assert abs(report.norm - 5.0) <= 1e-12
        assert report.moment.is_exact
        assert report.grouping == Grouping.finest(3)
        assert report.mode == "fast_path"

    def test_scalar_measure_closed_form(self):
        weights = [0.25, 0.75]
        values = [[1.0], [2.0]]
        measure = VectorMeasure(AtomPartition(weights), NormedSpace.l2(1), values)
        expected = math.sqrt(1.0 / 0.25 + 4.0 / 0.75)
        assert abs(gamma_variation_norm(measure).norm - expected) <= 1e-12

    def test_sup_norm_measure_matches_the_quadrature_constant(self):
        s = 1.0 / math.sqrt(2.0)
        measure = VectorMeasure(
            AtomPartition([0.5, 0.5]), NormedSpace.linf(2), [[s, 0.0], [0.0, s]]
        )
        report = gamma_variation_norm(measure, RandomStream(0, (910,)), 100_000)
        assert report.moment.method == METHOD_EXACT_COVARIANCE
        want = ref.MAX_SQ_TWO_GAUSSIANS
        assert abs(report.moment.value - want) <= 1e-12 * want

    def test_the_fast_path_is_the_maximum_of_a_grouping_scan_on_hilbert_inputs(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            measure = _random_measure(rng, 5, 3)
            fast = gamma_variation_norm(measure)
            shared = SharedDrawMoments(measure)
            scanned = max(shared.moment(g).value for g in enumerate_groupings(5, "all"))
            assert abs(math.sqrt(scanned) - fast.norm) <= 1e-12
            assert fast.grouping == Grouping.finest(5)

    def test_the_fast_path_matches_the_brute_force_reference(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            measure = _random_measure(rng, 4, 2)
            report = gamma_variation_norm(measure)
            expected = ref.gamma_variation_hilbert_reference(
                measure.partition.weights, measure.values
            )
            assert abs(report.norm - expected) <= 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(52)
        measure = _random_measure(rng, 4, 2)
        scaled = VectorMeasure(measure.partition, measure.space, -2.0 * measure.values)
        assert (
            abs(gamma_variation_norm(scaled).norm - 2.0 * gamma_variation_norm(measure).norm)
            <= 1e-12
        )


def _exact_moment(measure, grouping):
    return SharedDrawMoments(measure).moment(grouping).value


class TestGroupingMoments:
    def test_exact_moment_hand_values(self):
        measure = VectorMeasure(
            AtomPartition([0.5, 0.5]), NormedSpace.l2(2), [[1.0, 0.0], [0.0, 1.0]]
        )
        assert abs(_exact_moment(measure, Grouping.finest(2)) - 4.0) <= 1e-12
        merged = Grouping([[0, 1]], 2)
        assert abs(_exact_moment(measure, merged) - 2.0) <= 1e-12

    def test_covering_groupings_never_beat_the_finest_in_hilbert(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            measure = _random_measure(rng, 5, 2)
            finest = _exact_moment(measure, Grouping.finest(5))
            for grouping in enumerate_groupings(5, "all"):
                assert _exact_moment(measure, grouping) <= finest + 1e-12

    def test_dropping_blocks_never_increases_the_moment(self):
        rng = np.random.default_rng(54)
        measure = _random_measure(rng, 4, 2)
        covering_value = _exact_moment(measure, Grouping.finest(4))
        for blocks in ref.groupings_reference(4):
            grouping = Grouping(blocks, 4)
            assert _exact_moment(measure, grouping) <= covering_value + 1e-12

    def test_shared_draws_reproduce_the_exact_moment_in_hilbert(self):
        rng = np.random.default_rng(55)
        measure = _random_measure(rng, 4, 2)
        shared = SharedDrawMoments(measure)
        weights, values = measure.partition.weights, measure.values
        for grouping in (Grouping.finest(4), Grouping([[0, 1, 2, 3]], 4)):
            estimate = shared.moment(grouping)
            assert estimate.is_exact
            # the Hilbert closed form sum_B ||F(B)||^2 / mu(B)
            want = sum(
                np.sum(np.sum(values[list(b)], axis=0) ** 2) / np.sum(weights[list(b)])
                for b in grouping.blocks
            )
            assert abs(estimate.value - want) <= 1e-12

    def test_shared_draws_are_deterministic_and_paired(self):
        rng = np.random.default_rng(56)
        # linf in R^3 has no covariance closed form, so it keeps the draws
        measure = _random_measure(rng, 4, 3, NormedSpace.linf(3))
        a = SharedDrawMoments(measure, RandomStream(1, (0,)), 2000)
        b = SharedDrawMoments(measure, RandomStream(1, (0,)), 2000)
        grouping = Grouping([[0, 1], [2], [3]], 4)
        assert a.moment(grouping) == b.moment(grouping)
        # identical grouping evaluated twice on one instance: same estimate
        assert a.moment(grouping) == a.moment(grouping)

    def test_shared_draws_peak_near_their_own_bytes(self):
        # the batches fill one array in turn, so the constructor holds the
        # draws and one batch, not every batch and their concatenation
        rng = np.random.default_rng(58)
        measure = _random_measure(rng, 6, 2, NormedSpace(2, 1.5))
        tracemalloc.start()
        try:
            shared = SharedDrawMoments(measure, RandomStream(2, (0,)), 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 20_000 * 6 * 8
        assert shared.moment(Grouping.finest(6)).samples == 20_000

    def test_shared_draws_require_sampling_parameters_off_hilbert(self):
        rng = np.random.default_rng(57)
        measure = _random_measure(rng, 3, 3, NormedSpace.linf(3))
        with pytest.raises(ValueError):
            SharedDrawMoments(measure)


# the spaces whose grouping moments have a closed form in the block covariance
EXACT_OFF_HILBERT = [NormedSpace.l1(2), NormedSpace.l1(3), NormedSpace.linf(2)]


def _rounding_bound(finest: float) -> float:
    """The exact-vs-exact tolerance of the finest-partition suite."""
    return 1e-12 * max(1.0, abs(finest))


@st.composite
def _exact_measures(draw):
    """A measure of 1-5 atoms with integer-ratio weights in l1(2), l1(3) or
    linf(2)."""
    space = draw(st.sampled_from(EXACT_OFF_HILBERT))
    n_atoms = draw(st.integers(1, 5))
    counts = np.array(draw(st.lists(st.integers(1, 20), min_size=n_atoms, max_size=n_atoms)))
    values = draw(
        arrays(float, (n_atoms, space.dim), elements=st.floats(-1e3, 1e3, width=64))
    )
    return VectorMeasure(AtomPartition(counts / counts.sum()), space, values)


class TestExactCovarianceMoments:
    @pytest.mark.parametrize("space", EXACT_OFF_HILBERT, ids=repr)
    def test_no_stream_and_no_draws_are_needed(self, space):
        measure = _random_measure(np.random.default_rng(60), 4, space.dim, space)
        shared = SharedDrawMoments(measure)
        assert not hasattr(shared, "_draws")
        for grouping in enumerate_groupings(4, "all"):
            estimate = shared.moment(grouping)
            assert estimate.method == METHOD_EXACT_COVARIANCE
            assert estimate.is_exact
            assert (estimate.std_error, estimate.samples) == (0.0, 0)

    def test_finest_moment_is_the_covariance_moment_of_the_normalized_atoms(self):
        measure = _random_measure(np.random.default_rng(61), 5, 3, NormedSpace.l1(3))
        rows = measure.values / np.sqrt(measure.partition.weights)[:, None]
        finest = SharedDrawMoments(measure).moment(Grouping.finest(5)).value
        want = covariance_moment(rows.T @ rows, measure.space)
        assert abs(finest - want) <= 1e-12 * want

    def test_sup_norm_witness_matches_the_quadrature_constant(self):
        s = 1.0 / math.sqrt(2.0)
        measure = VectorMeasure(
            AtomPartition([0.5, 0.5]), NormedSpace.linf(2), [[s, 0.0], [0.0, s]]
        )
        moment = SharedDrawMoments(measure).moment(Grouping.finest(2))
        assert abs(moment.value - ref.MAX_SQ_TWO_GAUSSIANS) <= 1e-14

    @pytest.mark.parametrize("space", EXACT_OFF_HILBERT, ids=repr)
    def test_a_grouping_scan_peaks_at_the_fast_path(self, space):
        measure = _random_measure(np.random.default_rng(62), 5, space.dim, space)
        shared = SharedDrawMoments(measure)
        # every set partition; the coarser ones only tie or lose
        best = max(enumerate_groupings(5, "all"), key=lambda g: shared.moment(g).value)
        fast = gamma_variation_norm(measure)
        assert best == fast.grouping == Grouping.finest(5)
        assert shared.moment(best) == fast.moment
        assert fast.moment.is_exact

    @settings(derandomize=True, deadline=None)
    @given(_exact_measures())
    def test_no_coarsening_beats_the_finest_grouping(self, measure):
        shared = SharedDrawMoments(measure)
        finest = shared.moment(Grouping.finest(measure.n_atoms)).value
        for grouping in enumerate_groupings(measure.n_atoms, "all"):
            assert shared.moment(grouping).value <= finest + _rounding_bound(finest)

    @settings(derandomize=True, deadline=None)
    @given(_exact_measures(), st.floats(1e-3, 1e3))
    def test_moments_scale_with_the_square(self, measure, c):
        scaled = VectorMeasure(measure.partition, measure.space, c * measure.values)
        base, moments = SharedDrawMoments(measure), SharedDrawMoments(scaled)
        bound = _rounding_bound(c * c * base.moment(Grouping.finest(measure.n_atoms)).value)
        for grouping in enumerate_groupings(measure.n_atoms, "all"):
            want = c * c * base.moment(grouping).value
            assert abs(moments.moment(grouping).value - want) <= bound

    @settings(derandomize=True, deadline=None)
    @given(_exact_measures(), st.randoms(use_true_random=False))
    def test_moments_do_not_depend_on_the_atom_order(self, measure, random):
        n_atoms = measure.n_atoms
        order = list(range(n_atoms))
        random.shuffle(order)
        # atom i of the permuted measure is atom order[i] of the original
        permuted = VectorMeasure(
            AtomPartition(measure.partition.weights[order]),
            measure.space,
            measure.values[order],
        )
        position = {atom: i for i, atom in enumerate(order)}
        base, moments = SharedDrawMoments(measure), SharedDrawMoments(permuted)
        bound = _rounding_bound(base.moment(Grouping.finest(n_atoms)).value)
        for grouping in enumerate_groupings(n_atoms, "all"):
            moved = Grouping([[position[a] for a in b] for b in grouping.blocks], n_atoms)
            assert abs(moments.moment(moved).value - base.moment(grouping).value) <= bound


# the exact spaces: Hilbert (l2, and every norm on R^1), l1 and the plane's linf
BATCHED_SPACES = [
    NormedSpace.from_tag(dim, tag) for tag in ("l1", "l2") for dim in (1, 2, 3)
] + [NormedSpace.linf(2)]


def _tie_heavy_measure(rng, n_atoms, space, shift=0):
    """Small-integer values scaled by 2^shift, with atom 0 zero and atom 2
    repeating atom 1, on small-integer weights."""
    values = rng.integers(-2, 3, size=(n_atoms, space.dim)).astype(float)
    values[0] = 0.0
    values[2:3] = values[1:2]
    counts = rng.integers(1, 4, size=n_atoms)
    return VectorMeasure(AtomPartition(counts / counts.sum()), space, np.ldexp(values, shift))


def _assert_the_scan_matches_the_reference(measure):
    """moments over every set partition in one batch == the reference, one
    grouping at a time, with zero std errors."""
    n_atoms = measure.n_atoms
    ((labels, masks),) = grouping_labels(n_atoms, bell_number(n_atoms))
    values, errors = SharedDrawMoments(measure).moments(masks)
    weights, p = measure.partition.weights, measure.space.p
    want = [
        ref.gaussian_grouping_moment_reference(
            weights, measure.values, [np.flatnonzero(row == m) for m in range(row.max() + 1)], p
        )
        for row in labels
    ]
    assert values.tolist() == want
    assert not np.any(errors)


class TestBatchedScan:
    """SharedDrawMoments.moments, every set partition's moment from one
    block table and one stacked kernel call per block count, == the
    one-grouping-at-a-time reference (ref.gaussian_grouping_moment_reference)."""

    @pytest.mark.parametrize("space", BATCHED_SPACES, ids=repr)
    def test_every_partition_of_up_to_8_atoms(self, space):
        rng = np.random.default_rng(80)
        for n_atoms in range(1, 9):
            _assert_the_scan_matches_the_reference(_random_measure(rng, n_atoms, space.dim, space))
            _assert_the_scan_matches_the_reference(_tie_heavy_measure(rng, n_atoms, space))

    @pytest.mark.parametrize("space", BATCHED_SPACES, ids=repr)
    @pytest.mark.parametrize("shift", [-250, 250])
    def test_far_scales_rescale_each_covariance(self, space, shift):
        # values of 2^(+-250) give covariances of 2^(+-500), outside the
        # kernel's safe range
        rng = np.random.default_rng(81)
        for n_atoms in (2, 5, 7):
            scaled = _random_measure(rng, n_atoms, space.dim, space)
            scaled = VectorMeasure(scaled.partition, space, np.ldexp(scaled.values, shift))
            _assert_the_scan_matches_the_reference(scaled)
            _assert_the_scan_matches_the_reference(_tie_heavy_measure(rng, n_atoms, space, shift))

    @pytest.mark.parametrize("space", [NormedSpace.linf(3), NormedSpace(2, 1.5)], ids=repr)
    def test_sampled_spaces_keep_their_one_grouping_estimates(self, space):
        # the shared draws, one grouping at a time, fed from mask rows
        measure = _random_measure(np.random.default_rng(82), 4, space.dim, space)
        shared = SharedDrawMoments(measure, RandomStream(3, (1,)), 500)
        ((labels, masks),) = grouping_labels(4, bell_number(4))
        values, errors = shared.moments(masks)
        for row, value, error in zip(labels.tolist(), values, errors, strict=True):
            grouping = grouping_from_labels(row)
            draws = shared._draws @ norms._grouping_matrix(measure, grouping.to_lists())
            mean, se, n = random_sums._estimate_from_moments([space.norm_sq(draws)])
            assert (value, error) == (mean, se)
            want = SumEstimate(float(mean), float(se), n, METHOD_MONTE_CARLO)
            assert shared.moment(grouping) == want

    def test_exact_tables_are_capped_with_the_enumeration(self):
        measure = _random_measure(np.random.default_rng(83), 13, 2)
        with pytest.raises(SizeLimitError, match="capped at 12 atoms"):
            SharedDrawMoments(measure)


class TestExactFastPath:
    """The fast path and the summing norm take the covariance closed form in
    l1 and the plane's linf, so they need no stream and agree with the
    grouping scans, the quadrature reference and Monte Carlo."""

    @settings(derandomize=True, deadline=None)
    @given(_exact_measures())
    def test_fast_path_is_the_scans_finest_moment(self, measure):
        fast = gamma_variation_norm(measure).moment
        assert fast.method == METHOD_EXACT_COVARIANCE
        assert (fast.std_error, fast.samples) == (0.0, 0)
        finest = SharedDrawMoments(measure).moment(Grouping.finest(measure.n_atoms))
        assert fast == finest

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fast_path_is_the_scans_finest_moment_in_l2(self, dim):
        rng = np.random.default_rng(63)
        for _ in range(5):
            measure = _random_measure(rng, 5, dim)
            fast = gamma_variation_norm(measure).moment
            assert fast.method == METHOD_EXACT_HILBERT
            assert fast == SharedDrawMoments(measure).moment(Grouping.finest(5))

    @settings(derandomize=True, deadline=None)
    @given(_exact_measures())
    def test_no_scanned_grouping_exceeds_the_fast_path(self, measure):
        fast = gamma_variation_norm(measure).moment.value
        shared = SharedDrawMoments(measure)
        scanned = max(shared.moment(g).value for g in enumerate_groupings(measure.n_atoms, "all"))
        assert fast <= scanned <= fast + _rounding_bound(fast)

    @settings(derandomize=True, deadline=None)
    @given(_exact_measures())
    def test_summing_norm_equals_the_fast_path(self, measure):
        fast = gamma_variation_norm(measure).moment.value
        summing = gamma_summing_norm(operator_from_measure(measure)).moment
        assert summing.method == METHOD_EXACT_COVARIANCE
        assert abs(summing.value - fast) <= _rounding_bound(fast)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_exact_measures().filter(lambda m: m.space.dim == 2))
    def test_plane_values_match_the_quadrature(self, measure):
        rows = norms._normalized_vectors(measure)
        want = ref.gaussian_norm_sq_plane_reference(rows.T @ rows, measure.space.p)
        got = gamma_variation_norm(measure).moment.value
        assert abs(got - want) <= 1e-10 * want

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_exact_measures())
    def test_values_lie_within_monte_carlo_error(self, measure):
        rows = norms._normalized_vectors(measure)
        sampled = gaussian_sum_sq(rows, measure.space, RandomStream(0, (914,)), 100_000)
        exact = gamma_variation_norm(measure).moment.value
        assert abs(exact - sampled.value) <= 3.0 * sampled.std_error


class TestGammaSummingNorm:
    def test_zero_operator(self):
        operator = DiscreteOperator(
            AtomPartition.uniform(3), NormedSpace.l2(2), np.zeros((3, 2))
        )
        assert gamma_summing_norm(operator).norm == 0.0

    def test_hilbert_schmidt_closed_form(self):
        operator = DiscreteOperator(
            AtomPartition([0.5, 0.5]), NormedSpace.l2(2), [[3.0, 0.0], [0.0, 4.0]]
        )
        report = gamma_summing_norm(operator)
        assert abs(report.norm - 5.0) <= 1e-12
        assert report.moment.is_exact

    def test_identity_into_sup_norm_matches_the_quadrature_constant(self):
        operator = DiscreteOperator(
            AtomPartition([0.5, 0.5]), NormedSpace.linf(2), [[1.0, 0.0], [0.0, 1.0]]
        )
        report = gamma_summing_norm(operator, RandomStream(0, (911,)), 100_000)
        assert (
            abs(report.moment.value - ref.MAX_SQ_TWO_GAUSSIANS)
            <= 3.0 * report.moment.std_error
        )


class TestDuality:
    def test_hilbert_sides_agree_exactly(self):
        rng = np.random.default_rng(60)
        for _ in range(5):
            measure = _random_measure(rng, 6, 3)
            result = verify_duality(measure, RandomStream(2, (0,)))
            assert result.consistent
            assert result.comparison.gap <= 1e-9
            assert result.measure_report.moment.is_exact
            assert result.operator_report.moment.is_exact

    def test_rank_one_density_recovers_the_vector_norm(self):
        x = np.array([1.0, -2.0])
        density = StepFunction(
            AtomPartition([0.3, 0.7]), NormedSpace.l1(2), [x, x]
        )
        measure = measure_from_density(density)
        result = verify_duality(measure, RandomStream(0, (912,)), 100_000)
        assert result.consistent
        expected = float(np.sum(np.abs(x))) ** 2
        moment = result.measure_report.moment
        assert moment.method == METHOD_EXACT_COVARIANCE
        assert abs(moment.value - expected) <= 1e-12 * expected

    @pytest.mark.parametrize(
        "space", [NormedSpace.l1(2), NormedSpace.l2(2), NormedSpace.linf(2)], ids=repr
    )
    def test_a_tiny_atom_does_not_fail_on_rounding(self, space):
        # an atom of mass 1e-7 lifts the moments to ~1e7, where two exact
        # sides differ by more than 1e-9 from rounding alone
        for seed in range(200):
            rng = np.random.default_rng(seed)
            weights = np.append(rng.dirichlet(np.ones(5)) * (1.0 - 1e-7), 1e-7)
            values = rng.standard_normal((6, space.dim))
            measure = VectorMeasure(AtomPartition(weights), space, values)
            result = verify_duality(measure, RandomStream(seed))
            assert result.measure_report.moment.is_exact
            assert result.operator_report.moment.is_exact
            assert result.consistent, seed

    def test_seeded_off_hilbert_instance_is_consistent(self):
        rng = np.random.default_rng(61)
        measure = _random_measure(rng, 6, 3, NormedSpace.l1(3))
        result = verify_duality(measure, RandomStream(0, (913,)), 100_000)
        assert result.consistent

    def test_the_report_holds_both_sides(self):
        rng = np.random.default_rng(62)
        measure = _random_measure(rng, 3, 2)
        result = verify_duality(measure, RandomStream(3, (0,)))
        assert result.measure_report.grouping == result.operator_report.grouping
        assert result.comparison.gap == abs(
            result.measure_report.moment.value - result.operator_report.moment.value
        )
        assert result.comparison.consistent is True


class TestTotalVariation:
    def test_zero_measure(self):
        measure = VectorMeasure(
            AtomPartition.uniform(3), NormedSpace.l2(2), np.zeros((3, 2))
        )
        assert total_variation_norm(measure) == 0.0

    def test_scalar_signed_values(self):
        measure = VectorMeasure(
            AtomPartition([0.5, 0.5]), NormedSpace.l2(1), [[1.0], [-1.0]]
        )
        assert abs(total_variation_norm(measure) - 2.0) <= 1e-15

    def test_uniform_brownian_magnitudes_sum_to_root_n(self):
        # atom increments of norm sqrt(1/N): the sum over N atoms is sqrt(N)
        n = 100
        partition = AtomPartition.uniform(n)
        values = np.zeros((n, n))
        np.fill_diagonal(values, np.sqrt(partition.weights))
        measure = VectorMeasure(partition, NormedSpace.l2(n), values)
        assert abs(total_variation_norm(measure) - 10.0) <= 1e-9

    def test_dominates_the_total_mass_norm(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            measure = _random_measure(rng, 5, 2, NormedSpace.l1(2))
            assert (
                total_variation_norm(measure)
                >= float(measure.space.norm(measure.values.sum(axis=0))) - 1e-12
            )


class TestRandomizedVariation:
    def test_aligned_scalars_merge(self):
        report = randomized_variation_norm([[1.0], [1.0]], NormedSpace.l2(1))
        assert abs(report.norm - 2.0) <= 1e-12
        assert report.grouping == Grouping([[0, 1]], 2)
        assert report.mode == "exhaustive"

    def test_single_value_gives_its_norm(self):
        report = randomized_variation_norm([[3.0, -4.0]], NormedSpace.l2(2))
        assert abs(report.norm - 5.0) <= 1e-12

    def test_opposite_vectors_stay_at_the_finest_grouping(self):
        x = np.array([1.0, 2.0])
        report = randomized_variation_norm([x, -x], NormedSpace.linf(2))
        assert abs(report.norm - math.sqrt(2.0) * 2.0) <= 1e-12
        assert report.grouping == Grouping.finest(2)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_exhaustive_search_matches_the_brute_force_reference(self, p):
        rng = np.random.default_rng(64)
        values = rng.standard_normal((4, 2))
        report = randomized_variation_norm(values, NormedSpace(2, p), mode="exhaustive")
        assert abs(report.norm - ref.randomized_variation_reference(values, p)) <= 1e-12

    def test_ties_resolve_to_fewer_blocks_then_lexicographic(self):
        # every set partition of a zero measure ties: the one block wins
        report = randomized_variation_norm(np.zeros((2, 1)), NormedSpace.l2(1))
        assert report.grouping == Grouping([[0, 1]], 2)
        assert report.norm == 0.0
        # a zero atom joins a block: {0, 1} ties with {0}{1}, one block fewer
        report = randomized_variation_norm([[1.0], [0.0]], NormedSpace.l1(1))
        assert report.grouping == Grouping([[0, 1]], 2)
        assert report.norm == 1.0
        # {0}{1, 2} ties with {0, 1}{2} and is lexicographically smaller,
        # since (0,) sorts before (0, 1)
        report = randomized_variation_norm([[1.0], [0.0], [-1.0]], NormedSpace.l1(1))
        assert report.grouping == Grouping([[0], [1, 2]], 3)
        assert report.norm == math.sqrt(2.0)

    def test_greedy_never_beats_exhaustive_and_finds_aligned_merges(self):
        rng = np.random.default_rng(65)
        values = rng.standard_normal((5, 2))
        exhaustive = randomized_variation_norm(values, NormedSpace.l1(2), mode="exhaustive")
        greedy = randomized_variation_norm(values, NormedSpace.l1(2), mode="greedy")
        assert greedy.norm <= exhaustive.norm + 1e-12
        aligned = randomized_variation_norm([[1.0], [1.0], [1.0]], NormedSpace.l2(1), mode="greedy")
        assert abs(aligned.norm - 3.0) <= 1e-12
        assert aligned.grouping == Grouping([[0, 1, 2]], 3)

    def test_contiguous_cap_raises(self):
        with pytest.raises(SizeLimitError):
            randomized_variation_norm(
                np.ones((21, 1)), NormedSpace.l2(1), mode="contiguous"
            )

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError):
            randomized_variation_norm([[1.0]], NormedSpace.l2(1), mode="widest")

    def test_ensemble_valued_search_maximizes_over_groupings(self):
        rng = np.random.default_rng(66)
        contributions = rng.standard_normal((3, 30, 2))
        base = NormedSpace.linf(2)
        _, moment = _ensemble_search(contributions, base)
        best = ref.ensemble_randomized_search_reference(contributions, base.norm_sq, False)
        assert abs(moment.value - best["moment"]["value"]) <= 1e-12

    def test_homogeneity_of_the_exact_search(self):
        rng = np.random.default_rng(67)
        values = rng.standard_normal((4, 2))
        base = randomized_variation_norm(values, NormedSpace.l1(2))
        scaled = randomized_variation_norm(3.0 * values, NormedSpace.l1(2))
        assert abs(scaled.norm - 3.0 * base.norm) <= 1e-9


def _per_grouping_search(values, space):
    """The exhaustive search one rademacher_sum_sq call per grouping."""
    groupings = list(enumerate_groupings(values.shape[0], "all"))
    return norms._best(
        groupings, [rademacher_sum_sq(block_sums(values, g), space) for g in groupings]
    )


# repeated and zero atoms: many groupings tie exactly
_TIE_HEAVY = np.array(
    [
        [1.0, 2.0, 0.0],
        [0.0, 0.0, 0.0],
        [1.0, 2.0, 0.0],
        [-1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
        [2.0, -1.0, 1.0],
    ]
)


# two zero atoms: a plain atom-sign table mean puts the second one in a
# block of its own, one ulp above the one-grouping-at-a-time winner, which
# keeps it in the first block and so has fewer blocks
_ONE_ULP_TIE = np.array(
    [
        [1.3166478203373606, 0.7381191695252466, -1.3804460312528912],
        [-0.2673877057870027, -0.38033558246862037, -1.5488553043334206],
        [-0.4638816211751379, -1.2500798351337994, -1.6655514460193832],
        [0.21089625656145172, -0.04359127244566091, -0.6878149095751852],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.3869719823711992, 0.5228708948391112, 0.35786967764803124],
        [-0.6631035145259176, -0.6165061466820784, 0.4348641034709542],
    ]
)


class TestBatchedExhaustiveSearch:
    @pytest.mark.parametrize(
        "p, dim", [(1.0, 2), (1.0, 1), (1.0, 3), (1.5, 3), (2.0, 2), (3.0, 2), (math.inf, 3)]
    )
    def test_matches_the_per_grouping_search(self, p, dim):
        rng = np.random.default_rng(70 + dim)
        space = NormedSpace(dim, p)
        inputs = [rng.standard_normal((6, dim)), _TIE_HEAVY[:, :dim]]
        if (p, dim) == (1.0, 3):
            inputs.append(_ONE_ULP_TIE)
        for values in inputs:
            grouping, moment = _per_grouping_search(values, space)
            report = randomized_variation_norm(values, space, mode="exhaustive")
            assert report.grouping == grouping
            assert report.moment == moment
            assert report.norm == math.sqrt(moment.value)

    def test_small_chunks_give_the_same_winner(self, monkeypatch):
        # ties then meet across label chunks, not only inside one batch
        # label chunks of 5 rows of 6 atoms (88 bytes a row)
        monkeypatch.setattr(norms, "_LABEL_CHUNK_BYTES", 5 * 88)
        monkeypatch.setattr(random_sums, "_CHUNK_FLOATS", 64)
        rng = np.random.default_rng(75)
        space = NormedSpace.linf(2)
        for values in (rng.standard_normal((6, 2)), _TIE_HEAVY[:, :2]):
            grouping, moment = _per_grouping_search(values, space)
            report = randomized_variation_norm(values, space)
            assert (report.grouping, report.moment) == (grouping, moment)

    def test_the_zero_measure_takes_one_block(self):
        # every set partition ties at zero, and one block is the fewest
        report = randomized_variation_norm(np.zeros((6, 2)), NormedSpace.l1(2))
        assert report.grouping == Grouping([range(6)], 6)
        assert report.norm == 0.0

    def test_value_dimension_is_checked(self):
        with pytest.raises(ValueError, match="space dim"):
            randomized_variation_norm(np.ones((3, 2)), NormedSpace.l1(3))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: arrays(
                float, (n, 2), elements=st.integers(-3, 3).map(float)
            )
        ),
        st.sampled_from([1.0, math.inf]),
    )
    def test_matches_the_reference_search_on_small_integers(self, values, p):
        # small integers keep every sum, square and division by 2^(k-1)
        # exact, so the value must equal the supremum over every grouping,
        # and the grouping the tie-broken winner among the set partitions
        report = randomized_variation_norm(values, NormedSpace(2, p), mode="exhaustive")
        moment, _ = ref.randomized_variation_search_reference(values, p)
        assert report.moment.value == moment
        partitions = ref.set_partitions_reference(range(len(values)))
        moment, blocks = ref.randomized_variation_search_reference(values, p, partitions)
        assert report.moment.value == moment
        assert report.grouping.to_lists() == blocks


ENSEMBLE_BASES = [
    NormedSpace.from_tag(dim, tag)
    for tag in ("l1", "l2", "linf", {"lp": 1.5})
    for dim in (1, 2, 3)
]


def _induced_contributions(rng, base, density, n_paths):
    """A sampled ensemble's (atoms, paths, dim) contributions phi_n dW_n,
    each one product of a sampled increment and a density value."""
    partition = AtomPartition(rng.dirichlet(np.ones(density.shape[0])))
    ensemble = sample_brownian(partition, n_paths, RandomStream(int(rng.integers(1 << 30)), (0,)))
    return ensemble.paths.T[:, :, None] * density[:, None, :]


def _ensemble_search(contributions, base, mode="exhaustive"):
    """The streamed search's kernels (brownian.ensemble_search) on
    hand-made (atoms, paths, dim) contributions, fed as one chunk:
    the winner and its estimate."""
    n_atoms, n_paths = contributions.shape[:2]

    def chunks():
        return [contributions]

    decide = random_sums._ensemble_decide(chunks, base, n_atoms, n_paths)
    return norms._search(
        n_atoms, mode, decide, lambda: random_sums._ensemble_screen(chunks, base, n_atoms)
    )


def _assert_ensemble_search_matches_the_reference(
    contributions, base, chunk_floats=1 << 23, candidates=None
):
    grouping, moment = _ensemble_search(contributions, base)
    want = ref.ensemble_randomized_search_reference(
        contributions, base.norm_sq, base.is_hilbert, chunk_floats, candidates
    )
    document = {
        "norm": math.sqrt(moment.value),
        "moment": dataclasses.asdict(moment),
        "grouping": grouping.to_lists(),
    }
    assert document == want
    return grouping, moment


class TestEnsembleSearchAgainstTheReference:
    """The batched exhaustive search over ensemble values against the
    one-grouping-at-a-time search: norm, every moment field and the
    grouping, with ==."""

    @pytest.fixture(params=["default", "one-grouping-chunks", "chunked-sweeps", "one-grouping-tables"])
    def chunk_floats(self, request, monkeypatch):
        # 12 paths in R^3 make 36 floats a row: 72 floats split a grouping's
        # sweep into 2-pattern chunks from 3 blocks on
        if request.param == "one-grouping-chunks":
            monkeypatch.setattr(random_sums, "_ENSEMBLE_CHUNK_FLOATS", 1)
        if request.param == "one-grouping-tables":
            monkeypatch.setattr(random_sums, "_ENSEMBLE_TABLE_FLOATS", 1)
        if request.param == "chunked-sweeps":
            monkeypatch.setattr(random_sums, "_CHUNK_FLOATS", 72)
            return 72
        return 1 << 23

    @pytest.mark.parametrize("base", ENSEMBLE_BASES, ids=repr)
    def test_random_ensembles(self, base, chunk_floats):
        rng = np.random.default_rng(91)
        contributions = _induced_contributions(rng, base, rng.standard_normal((5, base.dim)), 12)
        _assert_ensemble_search_matches_the_reference(contributions, base, chunk_floats)

    @pytest.mark.parametrize("base", ENSEMBLE_BASES, ids=repr)
    def test_a_zero_atom_lets_a_non_covering_grouping_tie(self, base, chunk_floats):
        rng = np.random.default_rng(92)
        density = rng.integers(-2, 3, size=(5, base.dim)).astype(float)
        density[0] = 0.0
        density[1:] += density[1:] == 0.0
        contributions = _induced_contributions(rng, base, density, 12)
        grouping, moment = _assert_ensemble_search_matches_the_reference(
            contributions, base, chunk_floats
        )
        # the winner without its zero atom ties exactly; the lexicographic
        # rule keeps the block that holds the atom
        blocks = [[a for a in block if a != 0] for block in grouping.blocks]
        without = Grouping([b for b in blocks if b], 5)
        assert without != grouping
        want = ref.ensemble_randomized_search_reference(
            contributions, base.norm_sq, base.is_hilbert, chunk_floats, [without.blocks]
        )
        assert want["moment"] == dataclasses.asdict(moment)

    @pytest.mark.parametrize("base", ENSEMBLE_BASES[::3] + ENSEMBLE_BASES[2::3], ids=repr)
    def test_two_equal_atoms(self, base, chunk_floats):
        rng = np.random.default_rng(93)
        contributions = rng.integers(-2, 3, size=(5, 12, base.dim)).astype(float)
        contributions[3] = contributions[1]
        _assert_ensemble_search_matches_the_reference(contributions, base, chunk_floats)
        density = rng.integers(-2, 3, size=(5, base.dim)).astype(float)
        density[2] = density[0]
        contributions = _induced_contributions(rng, base, density, 12)
        _assert_ensemble_search_matches_the_reference(contributions, base, chunk_floats)

    @pytest.mark.parametrize("base", ENSEMBLE_BASES[1::3] + ENSEMBLE_BASES[2::3], ids=repr)
    def test_zero_and_repeated_atoms(self, base, chunk_floats):
        # 6 atoms of small integers over 6 paths: atoms 2 and 5 are zero and
        # atom 4 repeats atom 1, so many set partitions tie exactly.  Dropping
        # a zero atom that ends its block would win the lexicographic tie, so
        # the reference searches the set partitions, as the search does.
        rng = np.random.default_rng(96)
        contributions = rng.integers(-2, 3, size=(6, 6, base.dim)).astype(float)
        contributions[[2, 5]] = 0.0
        contributions[4] = contributions[1]
        partitions = ref.set_partitions_reference(range(6))
        _assert_ensemble_search_matches_the_reference(
            contributions, base, chunk_floats, partitions
        )

    @pytest.mark.parametrize("base", [NormedSpace.l2(2), NormedSpace.l1(2)], ids=repr)
    def test_exact_sums_over_paths_are_decided_again(self, base, monkeypatch):
        # small integers make every signed sum exact, but the screen takes
        # the path means before the block or subgroup sums, in another order
        # than the per-path statistics: the bound is not 0, also in a Hilbert base,
        # and the partitions near the top take their per-path statistics
        contributions = np.random.default_rng(97).integers(-2, 3, size=(5, 12, 2)).astype(float)
        assert random_sums._ensemble_screen(lambda: [contributions], base, 5)[1] > 0.0
        calls = []
        path_stats = random_sums._rademacher_path_stats

        def counted(*args):
            calls.append(args)
            return path_stats(*args)

        monkeypatch.setattr(random_sums, "_rademacher_path_stats", counted)
        _assert_ensemble_search_matches_the_reference(contributions, base)
        assert calls


class TestEnsembleLabelSearch:
    """The label search over ensembles against the one-grouping-at-a-time
    search, and the Groupings it makes."""

    @pytest.mark.parametrize(
        "base",
        [NormedSpace.l2(1), NormedSpace.l1(2), NormedSpace.linf(2), NormedSpace(3, 1.5)],
        ids=repr,
    )
    @pytest.mark.parametrize("n_paths", [1, 2, 9])
    def test_tie_heavy_ensembles_match_the_per_grouping_search(self, base, n_paths):
        # small integers with a zero atom and a repeated atom make many
        # partitions tie; the rows near the top are decided from their
        # per-path statistics, as the reference takes them (its std error
        # of one path is nan, the search's 0)
        rng = np.random.default_rng(98)
        for n_atoms in range(2, 7):
            values = rng.integers(-2, 3, size=(n_atoms, n_paths, base.dim)).astype(float)
            values[0] = 0.0
            values[-1] = values[1]
            partitions = ref.set_partitions_reference(range(n_atoms))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = ref.ensemble_randomized_search_reference(
                    values, base.norm_sq, base.is_hilbert, candidates=partitions
                )
            if n_paths == 1:
                want["moment"]["std_error"] = 0.0
            grouping, moment = _ensemble_search(values, base)
            assert (grouping.to_lists(), dataclasses.asdict(moment)) == (want["grouping"], want["moment"])
            assert moment.samples == n_paths

    def test_a_nine_atom_search_makes_groupings_of_the_near_rows_only(self, monkeypatch):
        # listing every set partition as a Grouping makes Bell(9) = 21147
        # of them
        made = []
        from_labels, init = norms.grouping_from_labels, Grouping.__init__

        def counted_labels(labels):
            made.append(labels)
            return from_labels(labels)

        def counted_init(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        def refused(*args, **kwargs):
            pytest.fail("enumerated the groupings")

        monkeypatch.setattr(norms, "grouping_from_labels", counted_labels)
        monkeypatch.setattr(Grouping, "__init__", counted_init)
        monkeypatch.setattr(norms, "enumerate_groupings", refused)
        values = np.random.default_rng(99).standard_normal((9, 2, 1))
        _ensemble_search(values, NormedSpace.l2(1))
        assert 0 < len(made) < 100


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * abs(want)


_FLOATS = st.floats(-1e3, 1e3, allow_subnormal=False)


class TestCoveringGroupingsReachTheSupremum:
    """The searches see set partitions only; their values equal the brute
    force over every disjoint block collection, covering or not."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.integers(1, 6).flatmap(
                lambda n: arrays(float, (n, d), elements=st.integers(-3, 3).map(float))
            )
        ),
        st.sampled_from([1.0, math.inf]),
    )
    def test_small_integer_values_equal_the_full_search(self, values, p):
        # small integers keep every sum and sign average exact
        report = randomized_variation_norm(values, NormedSpace(values.shape[1], p))
        assert report.moment.value == ref.randomized_variation_search_reference(values, p)[0]

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        st.integers(1, 5).flatmap(lambda n: arrays(float, (n, 2), elements=_FLOATS)),
        st.sampled_from([1.5, 2.0]),
    )
    def test_l2_and_lp_values_equal_the_full_search(self, values, p):
        report = randomized_variation_norm(values, NormedSpace(2, p))
        want, _ = ref.randomized_variation_search_reference(values, p)
        assert _close(report.moment.value, want)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        st.integers(1, 4).flatmap(lambda n: arrays(float, (n, 3, 2), elements=_FLOATS)),
        st.sampled_from(["l1", "l2", "linf", {"lp": 1.5}]),
    )
    def test_ensembles_equal_the_full_search(self, contributions, tag):
        base = NormedSpace.from_tag(2, tag)
        _, moment = _ensemble_search(contributions, base)
        want = ref.ensemble_randomized_search_reference(
            contributions, base.norm_sq, base.is_hilbert
        )["moment"]["value"]
        assert _close(moment.value, want)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(1, 20), min_size=n, max_size=n),
                arrays(float, (n, 2), elements=_FLOATS),
            )
        )
    )
    def test_gamma_variation_equals_the_full_search(self, case):
        counts, values = case
        weights = np.array(counts) / sum(counts)
        measure = VectorMeasure(AtomPartition(weights), NormedSpace.l2(2), values)
        report = gamma_variation_norm(measure)
        assert _close(report.norm, ref.gamma_variation_hilbert_reference(weights, values))


_SCALES = st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


class TestHomogeneityAndAtomOrder:
    """norm(cF) = |c| norm(F) for the randomized and the total variation, and
    the randomized value does not depend on the order of the atoms."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.integers(1, 5).flatmap(lambda n: arrays(float, (n, 2), elements=_SCALES)),
        st.sampled_from([1.0, 1.5, 2.0, math.inf]),
        _SCALES,
    )
    def test_norms_scale_with_the_absolute_factor(self, values, p, c):
        space = NormedSpace(2, p)
        measure = VectorMeasure(AtomPartition.uniform(len(values)), space, values)
        scaled = VectorMeasure(measure.partition, space, c * values)
        for norm in (
            total_variation_norm,
            lambda m: randomized_variation_norm(m.values, m.space).norm,
        ):
            want = abs(c) * norm(measure)
            assert abs(norm(scaled) - want) <= 1e-12 * want

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.integers(1, 6).flatmap(
                lambda n: arrays(float, (n, d), elements=st.integers(-3, 3).map(float))
            )
        ),
        st.sampled_from([1.0, 2.0, math.inf]),
        st.randoms(use_true_random=False),
    )
    def test_the_randomized_value_does_not_depend_on_the_atom_order(self, values, p, random):
        # small integers keep every sum and sign average exact, so the
        # values agree bit for bit; the tie-broken grouping may differ
        order = list(range(len(values)))
        random.shuffle(order)
        space = NormedSpace(values.shape[1], p)
        base = randomized_variation_norm(values, space)
        permuted = randomized_variation_norm(values[order], space)
        assert permuted.moment.value == base.moment.value


class TestDualOperatorRoundTrip:
    def test_operator_norm_bounds_its_measure_norm(self):
        # building a measure from any operator cannot increase the norm: the
        # two are equal here because the same columns realize both objects
        rng = np.random.default_rng(68)
        operator = DiscreteOperator(
            AtomPartition(rng.dirichlet(np.ones(4))),
            NormedSpace.l2(2),
            rng.standard_normal((4, 2)),
        )
        measure = VectorMeasure(
            operator.partition,
            operator.space,
            np.sqrt(operator.partition.weights)[:, None] * operator.columns,
        )
        measure_norm = gamma_variation_norm(measure).norm
        operator_norm = gamma_summing_norm(operator).norm
        assert measure_norm <= operator_norm + 1e-12


def test_label_chunks_are_sized_by_the_bytes_of_a_row():
    # 12 atoms in l2(1) on 2 paths: label chunks of _CHUNK_FLOATS / (N d)
    # = 699k rows, counting neither the int8 labels nor the masks nor the
    # walk's temporaries, peaked at 71.2 MiB traced
    values = np.random.default_rng(12).standard_normal((12, 2, 1))
    tracemalloc.start()
    try:
        _ensemble_search(values, NormedSpace.l2(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
