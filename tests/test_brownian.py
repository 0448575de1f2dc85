import itertools
import json
import math
import tracemalloc

import _reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gammavar.brownian as brownian
import gammavar.groupings as groupings
import gammavar.random_sums as random_sums

from gammavar import (
    AtomPartition,
    BrownianEnsemble,
    Grouping,
    NormedSpace,
    PartitionMasks,
    RandomStream,
    SizeLimitError,
    StepFunction,
    compare_estimates,
    enumerate_groupings,
    induced_randomized_measure,
    integral_moment,
    measure_from_density,
    rademacher_sum_sq,
    randomisation_identity_sweep,
    sample_brownian,
    stochastic_integral,
    verify_integral_identity,
)
from gammavar.brownian import EmpiricalVectorMeasure, ensemble_search
from gammavar.cli import main
from gammavar.groupings import block_sums
from gammavar.norms import randomized_variation_norm
from gammavar.spaces import EmpiricalL2Space


def _sweep(measure, groupings, z=3.0):
    """The randomisation sweep over the groupings' block masks."""
    masks = ref.block_masks_reference([g.blocks for g in groupings], groupings[0].n_atoms)
    return randomisation_identity_sweep(measure, PartitionMasks(masks), z=z)


def _scalar_density(weights, values):
    return StepFunction(
        AtomPartition(weights), NormedSpace.l2(1), np.asarray(values)[:, None]
    )


class TestSampling:
    def test_shape_and_determinism(self):
        partition = AtomPartition([0.2, 0.3, 0.5])
        a = sample_brownian(partition, 50, RandomStream(7, (0,)))
        b = sample_brownian(partition, 50, RandomStream(7, (0,)))
        assert a.paths.shape == (50, 3)
        np.testing.assert_array_equal(a.paths, b.paths)
        c = sample_brownian(partition, 50, RandomStream(7, (1,)))
        assert not np.array_equal(a.paths, c.paths)

    def test_increment_variances_match_the_atom_masses(self):
        partition = AtomPartition.uniform(4)
        m = 20_000
        ensemble = sample_brownian(partition, m, RandomStream(11, (0,)))
        variances = ensemble.paths.var(axis=0)
        # sample variance of N(0, w) has std error about w * sqrt(2 / m)
        np.testing.assert_allclose(
            variances, partition.weights, atol=5.0 * 0.25 * math.sqrt(2.0 / m)
        )

    def test_disjoint_increments_are_uncorrelated(self):
        partition = AtomPartition.uniform(4)
        m = 20_000
        paths = sample_brownian(partition, m, RandomStream(12, (0,))).paths
        for i in range(4):
            for j in range(i + 1, 4):
                cov = float(np.mean(paths[:, i] * paths[:, j]))
                assert abs(cov) <= 5.0 / math.sqrt(m)

    def test_two_paths_minimum(self):
        with pytest.raises(ValueError):
            sample_brownian(AtomPartition.uniform(2), 1, RandomStream(0, (0,)))

    def test_sampled_paths_are_the_scaled_draws_read_only(self):
        partition = AtomPartition([0.2, 0.3, 0.5])
        stream = RandomStream(13, (0,))
        ensemble = sample_brownian(partition, 40, stream)
        raw = stream.generator().standard_normal((40, 3))
        assert np.array_equal(ensemble.paths, raw * np.sqrt(partition.weights)[None, :])
        assert not ensemble.paths.flags.writeable

    def test_sampling_allocates_the_paths_once(self):
        # the draws are scaled in place and kept; a scaled copy and a
        # defensive copy each took one more array
        n_paths, n_atoms = 20_000, 10
        tracemalloc.start()
        try:
            ensemble = sample_brownian(AtomPartition.uniform(n_atoms), n_paths, RandomStream(14, (0,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ensemble.paths.nbytes == n_paths * n_atoms * 8
        assert peak < 1.25 * ensemble.paths.nbytes

    @pytest.mark.parametrize(
        "chunk, sizes", [(1, [1] * 48 + [2]), (7, [7] * 6 + [8]), (49, [50]), (50, [50])]
    )
    def test_increment_blocks_stack_to_the_sampled_paths(self, chunk, sizes):
        # 50 paths would end on a block of 1 path at chunks of 1, 7 and 49;
        # that path joins the block before it
        partition = AtomPartition([0.1, 0.2, 0.3, 0.4])
        stream = RandomStream(15, (0,))
        pairs = list(brownian._increment_blocks(partition, 50, stream, chunk))
        assert [span.stop - span.start for span, _ in pairs] == sizes
        assert [span.start for span, _ in pairs] == [0, *np.cumsum(sizes)[:-1].tolist()]
        assert all(block.shape == (span.stop - span.start, 4) for span, block in pairs)
        stacked = np.concatenate([block for _, block in pairs])
        assert np.array_equal(stacked, sample_brownian(partition, 50, stream).paths)

    def test_the_ensemble_copies_the_callers_paths(self):
        paths = np.arange(12.0).reshape(4, 3)
        ensemble = BrownianEnsemble(AtomPartition.uniform(3), paths)
        paths[0, 0] = 99.0
        assert ensemble.paths[0, 0] == 0.0
        assert paths.flags.writeable
        assert not ensemble.paths.flags.writeable

    def test_ensemble_validation_and_read_only(self):
        partition = AtomPartition.uniform(3)
        with pytest.raises(ValueError):
            BrownianEnsemble(partition, np.zeros((5, 2)))
        ensemble = BrownianEnsemble(partition, np.zeros((5, 3)))
        with pytest.raises(ValueError):
            ensemble.paths[0, 0] = 1.0


class TestStochasticIntegral:
    def test_zero_density_integrates_to_zero(self):
        density = _scalar_density([0.5, 0.5], [0.0, 0.0])
        ensemble = sample_brownian(density.partition, 20, RandomStream(30, (0,)))
        np.testing.assert_array_equal(
            stochastic_integral(density, ensemble), np.zeros((20, 1))
        )

    def test_unit_density_reproduces_the_brownian_value(self):
        density = _scalar_density([0.2, 0.3, 0.5], [1.0, 1.0, 1.0])
        ensemble = sample_brownian(density.partition, 25, RandomStream(31, (0,)))
        np.testing.assert_allclose(
            stochastic_integral(density, ensemble)[:, 0],
            ensemble.paths.sum(axis=1),
            atol=1e-12,
        )

    def test_second_moment_matches_the_weighted_density_norm(self):
        density = _scalar_density([0.5, 0.5], [1.0, 2.0])
        m = 20_000
        ensemble = sample_brownian(density.partition, m, RandomStream(32, (0,)))
        integral = stochastic_integral(density, ensemble)
        moment = float(np.mean(integral**2))
        # E of the square is 0.5 * 1 + 0.5 * 4 = 2.5
        assert abs(moment - 2.5) <= 3.0 * float(np.std(integral**2)) / math.sqrt(m)

    def test_atom_subsets_add_exactly(self):
        rng = np.random.default_rng(33)
        density = StepFunction(
            AtomPartition([0.1, 0.2, 0.3, 0.4]),
            NormedSpace.l2(2),
            rng.standard_normal((4, 2)),
        )
        ensemble = sample_brownian(density.partition, 8, RandomStream(33, (0,)))
        whole = stochastic_integral(density, ensemble)
        part = stochastic_integral(density, ensemble, {0, 3}) + stochastic_integral(
            density, ensemble, {1, 2}
        )
        np.testing.assert_allclose(part, whole, atol=1e-12)

    def test_partition_mismatch_is_rejected(self):
        density = _scalar_density([0.5, 0.5], [1.0, 1.0])
        other = sample_brownian(AtomPartition([0.4, 0.6]), 8, RandomStream(34, (0,)))
        with pytest.raises(ValueError):
            stochastic_integral(density, other)


class TestInducedMeasure:
    def test_total_value_collects_the_full_integral(self):
        rng = np.random.default_rng(40)
        density = StepFunction(
            AtomPartition([0.25, 0.25, 0.5]),
            NormedSpace.l2(2),
            rng.standard_normal((3, 2)),
        )
        ensemble = sample_brownian(density.partition, 12, RandomStream(40, (0,)))
        induced = induced_randomized_measure(density, ensemble)
        np.testing.assert_allclose(
            induced.contributions.sum(axis=0),
            stochastic_integral(density, ensemble),
            atol=1e-12,
        )

    def test_block_values_add_over_atoms(self):
        rng = np.random.default_rng(41)
        density = StepFunction(
            AtomPartition.uniform(4), NormedSpace.l2(2), rng.standard_normal((4, 2))
        )
        ensemble = sample_brownian(density.partition, 6, RandomStream(41, (0,)))
        induced = induced_randomized_measure(density, ensemble)
        merged = block_sums(induced.contributions, Grouping([[0, 2]], 4))[0]
        np.testing.assert_allclose(
            merged, induced.contributions[0] + induced.contributions[2], atol=1e-12
        )

    def test_atom_magnitudes_concentrate_at_root_mass(self):
        # |phi| = 1 everywhere, so each atom value has norm sqrt(w) on average
        n = 4
        density = _scalar_density([0.25] * n, [1.0] * n)
        m = 20_000
        ensemble = sample_brownian(density.partition, m, RandomStream(42, (0,)))
        induced = induced_randomized_measure(density, ensemble)
        for atom in range(n):
            magnitude_sq = float(np.mean(induced.contributions[atom] ** 2))
            assert abs(magnitude_sq - 0.25) <= 5.0 * 0.25 * math.sqrt(2.0 / m)

    def test_zero_density_induces_the_zero_measure(self):
        density = _scalar_density([0.5, 0.5], [0.0, 0.0])
        ensemble = sample_brownian(density.partition, 6, RandomStream(43, (0,)))
        induced = induced_randomized_measure(density, ensemble)
        np.testing.assert_array_equal(
            induced.contributions.sum(axis=0), np.zeros((6, 1))
        )


class TestIntegralMoment:
    def test_averages_the_path_statistics(self):
        density = _scalar_density([0.5, 0.5], [1.0, 2.0])
        ensemble = sample_brownian(density.partition, 5000, RandomStream(44, (0,)))
        estimate = integral_moment(density, ensemble)
        assert estimate.samples == 5000
        assert estimate.method == "monte_carlo"
        assert estimate.std_error > 0.0
        by_hand = float(np.mean(stochastic_integral(density, ensemble) ** 2))
        assert abs(estimate.value - by_hand) <= 1e-12


    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_atoms", range(1, 13))
    def test_keeps_the_bits_of_the_streamed_integral(self, n_atoms, dim):
        # the whole C-ordered paths take the product route of
        # ensemble_search's chunks; a gathered copy of every atom, laid out
        # in Fortran order, moved the last bit in R^1
        rng = np.random.default_rng(100 * n_atoms + dim)
        partition = AtomPartition(rng.dirichlet(np.ones(n_atoms)))
        density = StepFunction(partition, NormedSpace.l2(dim), rng.standard_normal((n_atoms, dim)))
        for n_paths in (2, 3, 41, 1001, 4001):
            stream = RandomStream(n_atoms, (dim, n_paths))
            *_, integral = ensemble_search(density, n_paths, stream, [Grouping.finest(n_atoms)])
            ensemble = sample_brownian(partition, n_paths, stream)
            assert integral_moment(density, ensemble) == integral


class TestIntegralIdentity:
    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "contiguous", "greedy"])
    def test_every_mode_streams_its_ensemble(self, mode, monkeypatch):
        def refused(*args):
            raise AssertionError("the ensemble was held")

        monkeypatch.setattr(brownian, "sample_brownian", refused)
        monkeypatch.setattr(brownian, "induced_randomized_measure", refused)
        rng = np.random.default_rng(45)
        density = StepFunction(
            AtomPartition.uniform(5), NormedSpace.l1(2), rng.standard_normal((5, 2))
        )
        report = verify_integral_identity(
            density, 2000, RandomStream(45, (0,)), 2000, search_mode=mode
        )
        assert report.consistent
        assert report.randomized.mode == ("exhaustive" if mode == "auto" else mode)

    def test_euclidean_identity_holds(self):
        rng = np.random.default_rng(46)
        density = StepFunction(
            AtomPartition.uniform(4), NormedSpace.l2(2), rng.standard_normal((4, 2))
        )
        report = verify_integral_identity(density, 20_000, RandomStream(46, (0,)))
        assert report.consistent
        assert report.variation.moment.is_exact
        assert set(report.comparisons) == {
            "variation_vs_randomized",
            "variation_vs_integral",
            "randomized_vs_integral",
        }

    def test_constant_density_recovers_the_vector_norm(self):
        density = StepFunction(
            AtomPartition.uniform(4), NormedSpace.l2(2), [[3.0, 4.0]] * 4
        )
        report = verify_integral_identity(density, 20_000, RandomStream(47, (0,)))
        assert report.consistent
        assert abs(report.variation.norm - 5.0) <= 1e-12
        assert abs(report.integral.value - 25.0) <= 3.0 * report.integral.std_error

    def test_scalar_density_hand_value(self):
        density = _scalar_density([0.5, 0.5], [1.0, 2.0])
        report = verify_integral_identity(density, 20_000, RandomStream(48, (0,)))
        assert report.consistent
        assert abs(report.variation.norm - math.sqrt(2.5)) <= 1e-12

    def test_zero_density_is_exactly_zero(self):
        density = _scalar_density([0.5, 0.5], [0.0, 0.0])
        report = verify_integral_identity(density, 100, RandomStream(49, (0,)))
        assert report.consistent
        assert report.variation.norm == 0.0
        assert report.integral.value == 0.0

    def test_document_shape(self):
        density = _scalar_density([0.5, 0.5], [1.0, 1.0])
        doc = verify_integral_identity(
            density, 200, RandomStream(50, (0,))
        ).to_document()
        assert set(doc) == {"variation", "randomized", "integral", "comparisons"}


class TestRandomisationIdentity:
    def _measure(self, seed=51, n_atoms=4, dim=2, space=None, n_paths=20_000):
        rng = np.random.default_rng(seed)
        density = StepFunction(
            AtomPartition(rng.dirichlet(np.ones(n_atoms))),
            space or NormedSpace.l2(dim),
            rng.standard_normal((n_atoms, dim)),
        )
        ensemble = sample_brownian(density.partition, n_paths, RandomStream(seed, (0,)))
        return induced_randomized_measure(density, ensemble)

    def test_single_block_is_exactly_invariant(self):
        # one sign factors out of the norm, so both sides coincide path-wise
        measure = self._measure(n_paths=200)
        check = _sweep(measure, [Grouping([[0, 1, 2, 3]], 4)]).check(0)
        assert check.comparison.consistent
        assert abs(check.signed.value - check.plain.value) <= 1e-12

    def test_finest_grouping_keeps_the_euclidean_moment(self):
        measure = self._measure(seed=52)
        check = _sweep(measure, [Grouping.finest(4)]).check(0)
        assert check.comparison.consistent

    def test_two_block_covering_grouping_is_consistent(self):
        measure = self._measure(seed=53, space=NormedSpace.l1(2))
        check = _sweep(measure, [Grouping([[0, 2], [1, 3]], 4)]).check(0)
        assert check.comparison.consistent
        assert check.grouping == Grouping([[0, 2], [1, 3]], 4)

    def test_sweep_preserves_order_and_shares_the_plain_moment(self):
        measure = self._measure(seed=54, n_paths=500)
        groupings = [
            Grouping([[0, 1], [2, 3]], 4),
            Grouping([[0, 2], [1, 3]], 4),
            Grouping.finest(4),
        ]
        sweep = _sweep(measure, groupings)
        assert list(sweep.groupings) == groupings
        assert [sweep.check(i).grouping for i in range(3)] == groupings
        # every set partition sums to the whole measure: one unsigned side
        assert sweep.check(0).plain is sweep.check(2).plain is sweep.plain

    @pytest.mark.parametrize("chunk_floats", [None, 1200])
    @pytest.mark.parametrize("space", [NormedSpace.linf(2), NormedSpace.l1(2)])
    def test_sweep_matches_the_exact_sign_enumeration(self, space, chunk_floats, monkeypatch):
        # the sweep's atom-sign table against rademacher_sum_sq's own
        # enumeration over the block sums, one grouping at a time, within
        # the table's rounding bound; with 1200 floats the table of 300
        # paths in R^2 is built 2 patterns at a time
        if chunk_floats is not None:
            monkeypatch.setattr(random_sums, "_CHUNK_FLOATS", chunk_floats)
        measure = self._measure(seed=57, n_atoms=5, space=space, n_paths=300)
        covering = list(enumerate_groupings(5))
        picks = np.random.default_rng(57).choice(len(covering), size=15, replace=False)
        groupings = [covering[i] for i in picks]
        sweep = _sweep(measure, groupings)
        bound = random_sums._table_rounding_bound(measure.contributions, space)
        for grouping, signed in zip(groupings, sweep.signed_value, strict=True):
            exact = rademacher_sum_sq(
                block_sums(measure.contributions, grouping), measure.empirical_space
            )
            assert abs(signed - exact.value) <= bound <= 1e-9 * exact.value

    def test_sign_enumeration_cap(self):
        # a Hilbert base needs no sign enumeration, and takes any grouping
        measure = self._measure(seed=55, n_atoms=21, dim=1, n_paths=10)
        _sweep(measure, [Grouping.finest(21)])
        measure = self._measure(seed=55, n_atoms=21, space=NormedSpace.l1(2), n_paths=10)
        with pytest.raises(ValueError, match="capped at 20 blocks, got 21"):
            _sweep(measure, [Grouping.finest(21)])

    @pytest.mark.parametrize("space", [NormedSpace.linf(2), NormedSpace.l2(2)], ids=repr)
    def test_groupings_must_be_set_partitions(self, space):
        # a grouping that leaves atoms out, or that belongs to fewer atoms
        measure = self._measure(seed=56, space=space, n_paths=50)
        for grouping in (Grouping([[0], [2]], 4), Grouping.finest(3)):
            with pytest.raises(ValueError, match="set partitions of the 4 atoms"):
                _sweep(measure, [Grouping.finest(4), grouping])
        # set partitions of 3 atoms, in the layout
        with pytest.raises(ValueError, match="set partitions of the 4 atoms"):
            _sweep(measure, [Grouping.finest(3)])


def _sampled_measure(rng, space, n_atoms, n_paths, density=None):
    if density is None:
        density = rng.standard_normal((n_atoms, space.dim))
    partition = AtomPartition(rng.dirichlet(np.ones(n_atoms)))
    ensemble = sample_brownian(partition, n_paths, RandomStream(int(rng.integers(1 << 30)), (0,)))
    return induced_randomized_measure(StepFunction(partition, space, density), ensemble)


def _tie_heavy_measures(rng, space):
    """A zero atom and two equal atoms: small-integer densities under a
    sampled ensemble, and small-integer contributions outright."""
    density = rng.integers(-2, 3, size=(5, space.dim)).astype(float)
    density[0] = 0.0
    density[2] = density[1]
    contributions = rng.integers(-2, 3, size=(5, 40, space.dim)).astype(float)
    contributions[0] = 0.0
    contributions[2] = contributions[1]
    return [
        _sampled_measure(rng, space, 5, 40, density),
        EmpiricalVectorMeasure(AtomPartition.uniform(5), space, contributions),
    ]


def _mixed_groupings(rng, n_atoms, count):
    """Set partitions in a random order with repeats, then the finest and
    the coarsest."""
    every = [Grouping(blocks, n_atoms) for blocks in ref.set_partitions_reference(range(n_atoms))]
    picks = [every[i] for i in rng.choice(len(every), size=count)]
    return picks + [Grouping.finest(n_atoms), Grouping([range(n_atoms)], n_atoms)]


def _assert_matches_the_reference(measure, groupings):
    """The sweep's check documents against the reference's: the signed
    side, from a table's path means and covariance (the atom-sign table's,
    or every block's norms in a Hilbert base), lies within the table's
    rounding bound, and so do the gap and the tolerance computed from it,
    while every other field and each verdict stay =="""
    sweep = _sweep(measure, groupings)
    want = ref.randomisation_sweep_reference(
        measure.contributions,
        measure.space.norm_sq,
        measure.space.is_hilbert,
        [g.blocks for g in groupings],
    )
    got = [sweep.check(i).to_document() for i in range(len(groupings))]
    bound = random_sums._table_rounding_bound(measure.contributions, measure.space)
    assert bound <= 1e-9 * max(w["signed"]["value"] for w in want)
    for g, w in zip(got, want, strict=True):
        signed, comparison = g.pop("signed"), g.pop("comparison")
        want_signed, want_comparison = w.pop("signed"), w.pop("comparison")
        assert g == w
        for key in ("value", "std_error"):
            assert abs(signed.pop(key) - want_signed.pop(key)) <= bound
        assert signed == want_signed
        assert abs(comparison.pop("gap") - want_comparison.pop("gap")) <= bound
        # z times a hypot, which moves no more than its arguments
        tolerance = want_comparison.pop("tolerance")
        assert abs(comparison.pop("tolerance") - tolerance) <= 3.0 * bound + 1e-15 * tolerance
        assert comparison == want_comparison


SWEEP_SPACES = [
    NormedSpace.from_tag(dim, tag)
    for tag in ("l1", "l2", "linf", {"lp": 1.5})
    for dim in (1, 2, 3)
]


class TestSweepAgainstTheReference:
    """The batched sweep against the one-grouping-at-a-time loop, field by
    field, for every chunk size (_assert_matches_the_reference)."""

    @pytest.fixture(params=["default", "one-float", "few-rows"])
    def chunk(self, request, monkeypatch):
        # one float gives one grouping per chunk; the few-rows size gives
        # 6, 3 and 1 rows per chunk at 1, 2 and 4+ blocks of 40 paths in R^3
        sizes = {"one-float": 1, "few-rows": 6 * 40 * 3}
        if request.param in sizes:
            monkeypatch.setattr(random_sums, "_ENSEMBLE_CHUNK_FLOATS", sizes[request.param])
        return request.param

    @pytest.mark.parametrize("space", SWEEP_SPACES, ids=repr)
    def test_random_measures(self, space, chunk):
        rng = np.random.default_rng(71)
        measure = _sampled_measure(rng, space, 5, 40)
        _assert_matches_the_reference(measure, _mixed_groupings(rng, 5, 60))

    @pytest.mark.parametrize("space", SWEEP_SPACES[::3] + SWEEP_SPACES[2::3], ids=repr)
    def test_tie_heavy_measures(self, space, chunk):
        rng = np.random.default_rng(72)
        for measure in _tie_heavy_measures(rng, space):
            _assert_matches_the_reference(measure, _mixed_groupings(rng, 5, 40))

    @pytest.mark.parametrize("space", SWEEP_SPACES, ids=repr)
    def test_the_signed_side_is_the_ensemble_kernel(self, space):
        # the randomized variation norm's kernel, estimate for estimate
        rng = np.random.default_rng(75)
        measures = [_sampled_measure(rng, space, 5, 40)] + _tie_heavy_measures(rng, space)
        for measure in measures:
            groupings = _mixed_groupings(rng, 5, 40)
            sweep = _sweep(measure, groupings)
            masks = ref.block_masks_reference([g.blocks for g in groupings], 5)
            value, error = random_sums._ensemble_moments(
                measure.contributions, masks, measure.empirical_space
            )
            assert np.array_equal(sweep.signed_value, value)
            assert np.array_equal(sweep.signed_error, error)

    @pytest.mark.parametrize("space", SWEEP_SPACES, ids=repr)
    @pytest.mark.parametrize("z", [0.3, 3.0])
    def test_the_flags_are_compare_estimates(self, space, z):
        # the whole-array z-test against compare_estimates of each
        # grouping's estimates; at z = 0.3 some groupings fail
        rng = np.random.default_rng(76)
        measures = [_sampled_measure(rng, space, 5, 40)] + _tie_heavy_measures(rng, space)
        flags = []
        for measure in measures:
            groupings = _mixed_groupings(rng, 5, 40)
            sweep = _sweep(measure, groupings, z=z)
            for i in range(len(groupings)):
                check = sweep.check(i)
                want = compare_estimates(check.signed, check.plain, z=z)
                assert check.comparison == want
                assert (sweep.consistent[i], sweep.gap[i], sweep.tolerance[i]) == (
                    want.consistent,
                    want.gap,
                    want.tolerance,
                )
                flags.append(want.consistent)
        assert any(flags) and (z == 3.0 or not all(flags))

    def test_a_wide_measure_sums_only_its_blocks(self, monkeypatch):
        # 20 atoms in 2 blocks: a table per subset would hold 2^20 rows
        measure = _sampled_measure(np.random.default_rng(73), NormedSpace.l1(1), 20, 8)
        grouping = Grouping([range(0, 20, 2), range(1, 20, 2)], 20)
        summed = []
        block_sum = random_sums._block_sum

        def recorded(values, atoms):
            summed.append(atoms)
            return block_sum(values, atoms)

        # the signed side's block sums in the ensemble kernel, then the
        # plain side
        monkeypatch.setattr(random_sums, "_block_sum", recorded)
        monkeypatch.setattr(groupings, "_block_sum", recorded)
        monkeypatch.setattr(brownian, "_block_sum", recorded)
        tracemalloc.start()
        try:
            check = _sweep(measure, [grouping]).check(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two blocks, then every atom
        assert summed == [list(range(0, 20, 2)), list(range(1, 20, 2)), list(range(20))]
        # a 2^20-row table of 8 paths would take 64 MiB
        assert peak < 1 << 20
        assert [check.to_document()] == ref.randomisation_sweep_reference(
            measure.contributions, measure.space.norm_sq, True, [grouping.blocks]
        )

    @pytest.mark.parametrize("space", [NormedSpace.l2(1), NormedSpace.l1(2)], ids=repr)
    def test_a_measure_past_64_atoms_takes_python_int_masks(self, space):
        # 70 atoms need masks of 70 bits, wider than any numpy integer
        measure = _sampled_measure(np.random.default_rng(77), space, 70, 6)
        groupings = [
            Grouping([range(0, 70, 2), range(1, 70, 2)], 70),
            Grouping([range(70)], 70),
            Grouping([range(10), range(10, 70)], 70),
        ]
        sweep = _sweep(measure, groupings)
        for i, grouping in enumerate(groupings):
            values = block_sums(measure.contributions, grouping)
            assert sweep.check(i).signed == rademacher_sum_sq(values, measure.empirical_space)

    def test_the_block_cap_is_checked_before_any_sum(self, monkeypatch):
        measure = _sampled_measure(np.random.default_rng(74), NormedSpace.l1(2), 21, 10)

        def refused(*args, **kwargs):
            pytest.fail("summed blocks of a grouping over the enumeration cap")

        for name in ("_block_sum", "_atom_sign_table"):
            monkeypatch.setattr(random_sums, name, refused)
        monkeypatch.setattr(brownian, "_block_sum", refused)
        groupings = [Grouping([range(20), [20]], 21), Grouping.finest(21)]
        with pytest.raises(ValueError, match="capped at 20 blocks, got 21"):
            _sweep(measure, groupings)


@st.composite
def _hilbert_sweeps(draw):
    n_atoms = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    n_paths = draw(st.integers(2, 12))
    magnitude = st.floats(1e-3, 1e3) | st.just(0.0)
    values = draw(arrays(float, (n_atoms, n_paths, dim), elements=magnitude))
    signs = draw(arrays(bool, (n_atoms, n_paths, dim)))
    contributions = np.where(signs, -values, values)
    groupings = []
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(st.integers(0, n_atoms - 1), min_size=n_atoms, max_size=n_atoms))
        blocks = [[a for a in range(n_atoms) if labels[a] == m] for m in range(n_atoms)]
        groupings.append(Grouping([b for b in blocks if b], n_atoms))
    measure = EmpiricalVectorMeasure(
        AtomPartition.uniform(n_atoms), NormedSpace.l2(dim), contributions
    )
    return measure, groupings


class TestHilbertSweep:
    @settings(derandomize=True, deadline=None)
    @given(_hilbert_sweeps())
    def test_signs_average_to_the_sum_of_block_norms(self, case):
        # over the sign patterns every cross term <B_i, B_j> cancels, so the
        # sweep's l2 closed form sum_m ||B_m||^2 is the average of
        # ||sum_m e_m B_m||^2 over every sign pattern e, enumerated here
        measure, groupings = case
        sweep = _sweep(measure, groupings)
        for grouping, signed in zip(groupings, sweep.signed_value, strict=True):
            blocks = np.stack(
                [np.sum(measure.contributions[list(b)], axis=0) for b in grouping.blocks]
            )
            per_path = np.mean(
                [
                    np.sum(np.einsum("k,kpd->pd", np.array(signs), blocks) ** 2, axis=-1)
                    for signs in itertools.product([1.0, -1.0], repeat=grouping.n_blocks)
                ],
                axis=0,
            )
            want = float(np.mean(per_path))
            assert abs(signed - want) <= 1e-12 * want


# The CLI's default integrate density, and the default shapes of thm-3-3
# (4 atoms in l2, l1 and linf, in R^2 and R^3) and example-3-4 (4 atoms
# searched, 16 atoms over the fixed family), on 3001 paths: chunks of 2
# would leave one path over
_STREAMED_RUNS = {
    "integrate": (
        ["integrate"],
        {
            "partition": {"uniform": 4},
            "space": {"dim": 2, "norm": "l2"},
            "input": {"density": [[3.0, 4.0]] * 4},
            "engine": {"paths": 3001},
        },
    ),
    "integrate-l1": (
        ["integrate"],
        {
            "partition": {"weights": [0.1, 0.15, 0.2, 0.25, 0.3]},
            "space": {"dim": 3, "norm": "l1"},
            "input": {"density": [[1.0, -0.5, 2.0], [0.25, 1.5, -1.0], [-2.0, 0.5, 0.75],
                                  [1.25, -1.25, 0.5], [0.5, 2.0, -0.25]]},
            "engine": {"paths": 3001},
        },
    ),
    "thm-3-3": (
        ["verify", "thm-3-3"],
        {"engine": {"paths": 3001, "samples": 2000}, "suite": {"instances": 6}},
    ),
    "example-3-4": (["verify", "example-3-4"], {"engine": {"paths": 3001}, "suite": {"n_grid": [4, 16]}}),
}


def _in_mode(run, mode):
    argv, document = _STREAMED_RUNS[run]
    return argv, document | {"engine": document["engine"] | {"mode": mode, "paths": 1001}}


# the greedy and contiguous searches decide their groupings in batches of
# passes over the same streamed paths, here 1001 of them
_STREAMED_RUNS |= {
    f"{run}-{mode}": _in_mode(run, mode)
    for run in ("thm-3-3", "integrate-l1")
    for mode in ("greedy", "contiguous")
}


class TestStreamedEnsembles:
    """ensemble_search draws its paths in chunks, twice for a search, and
    keeps the bits of the search and the integral on the whole ensemble."""

    @staticmethod
    def _report(argv, document, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert main(argv + ["--config", str(config)]) in (0, 2)
        return capsys.readouterr().out

    @pytest.mark.parametrize("run", sorted(_STREAMED_RUNS))
    def test_reports_keep_their_bytes_at_any_chunk(self, run, tmp_path, capsys, monkeypatch):
        argv, document = _STREAMED_RUNS[run]
        whole = self._report(argv, document, tmp_path, capsys)
        for chunk in (2, 3, 7):
            monkeypatch.setattr(brownian, "_ensemble_chunk", lambda *args, c=chunk: c)
            assert self._report(argv, document, tmp_path, capsys) == whole

    @pytest.mark.parametrize("mode, rows", [("auto", 4), ("greedy", 14), ("contiguous", 14)])
    def test_integrate_memory_grows_by_a_few_path_rows(self, mode, rows):
        # the default integrate density: 10k and 100k paths take the same
        # chunks, and the larger run holds a few more (paths,) rows (the
        # integral's, the winner's and their path moments'; a greedy or
        # contiguous batch's N (d + 1) = 12 and two more), never the (paths,
        # atoms) draws or (atoms, paths, dim) contributions
        density = StepFunction(AtomPartition.uniform(4), NormedSpace.l2(2), [[3.0, 4.0]] * 4)
        peaks = {}
        for n_paths in (10_000, 100_000):
            tracemalloc.start()
            try:
                verify_integral_identity(density, n_paths, RandomStream(9, (0,)), search_mode=mode)
                peaks[n_paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100_000] - peaks[10_000] <= rows * 90_000 * 8

    @pytest.mark.parametrize(
        "space",
        [NormedSpace.l1(2), NormedSpace.l2(2), NormedSpace.linf(2), NormedSpace.l2(1),
         NormedSpace.from_tag(3, {"lp": 1.5})],
        ids=repr,
    )
    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("mode", ["exhaustive", "contiguous", "greedy"])
    def test_tie_heavy_ensembles_name_the_in_memory_winner(self, space, chunk, mode, monkeypatch):
        # small integers, a zero atom and a repeated atom: many set
        # partitions tie, some exactly
        rng = np.random.default_rng(58)
        density = rng.integers(-2, 3, size=(6, space.dim)).astype(float)
        density[1] = 0.0
        density[4] = density[2]
        density = StepFunction(AtomPartition.uniform(6), space, density)
        stream = RandomStream(58, (0,))
        if chunk is not None:
            monkeypatch.setattr(brownian, "_ensemble_chunk", lambda *args: chunk)
        grouping, moment, integral = ensemble_search(density, 41, stream, mode)
        ensemble = sample_brownian(density.partition, 41, stream)
        contributions = induced_randomized_measure(density, ensemble).contributions
        report = randomized_variation_norm(contributions, EmpiricalL2Space(space), mode=mode)
        assert (grouping, moment) == (report.grouping, report.moment)
        assert integral == integral_moment(density, ensemble)
        # a family of two groupings is decided in one pass, the higher
        # moment winning
        family = [Grouping.finest(6), Grouping([[0, 1, 2], [3, 4, 5]], 6)]
        moments = [
            rademacher_sum_sq(block_sums(contributions, g), EmpiricalL2Space(space))
            for g in family
        ]
        best = 1 if moments[1].value >= moments[0].value else 0
        assert ensemble_search(density, 41, stream, family)[:2] == (family[best], moments[best])
