import dataclasses
import itertools
import json
import math
import sys
import threading
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
    integral_moment,
    measure_from_density,
    randomisation_identity_sweep,
    sample_brownian,
    stochastic_integral,
    verify_integral_identity,
)
from gammavar.brownian import ensemble_search
from gammavar.cli import main
from gammavar.norms import _search
from gammavar.random_sums import SumEstimate, _path_spans


def _masks(groupings):
    return ref.block_masks_reference([g.blocks for g in groupings], groupings[0].n_atoms)


def _sweep(case, groupings, z=3.0):
    """The randomisation sweep of a sampled case over the groupings' block
    masks."""
    density, n_paths, stream = case
    masks = PartitionMasks(_masks(groupings))
    return randomisation_identity_sweep(density, masks, n_paths, stream, z=z)


def _contributions(case):
    """The (atoms, paths, dim) values phi_n dW_n of a sampled case, each
    one product of a sampled increment and a density value."""
    density, n_paths, stream = case
    paths = sample_brownian(density.partition, n_paths, stream).paths
    return paths.T[:, :, None] * density.values[:, None, :]


def _signed_kernel(contributions, groupings, base):
    """random_sums._ensemble_moments, the sweep's signed side, on held
    (atoms, paths, dim) contributions fed as one chunk."""
    return random_sums._ensemble_moments(
        lambda size: [contributions], _masks(groupings), base, contributions.shape[1]
    )


def _reference_moment(contributions, base, grouping) -> SumEstimate:
    """The reference's estimate of one grouping's Rademacher moment."""
    candidates = [grouping.blocks]
    found = ref.ensemble_randomized_search_reference(
        contributions, base.norm_sq, base.is_hilbert, candidates=candidates
    )
    return SumEstimate(**found["moment"])


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
        pairs = list(brownian._increment_blocks(partition, 50, stream.generator(), chunk))
        assert [span.stop - span.start for span, _ in pairs] == sizes
        assert [span.start for span, _ in pairs] == [0, *np.cumsum(sizes)[:-1].tolist()]
        assert all(block.shape == (span.stop - span.start, 4) for span, block in pairs)
        stacked = np.concatenate([block for _, block in pairs])
        assert np.array_equal(stacked, sample_brownian(partition, 50, stream).paths)

    @pytest.mark.parametrize("n_paths, chunk", [(50, 7), (17, 8), (16, 8), (9, 8)])
    def test_drawing_ahead_yields_the_same_blocks(self, monkeypatch, n_paths, chunk):
        # 17 and 9 paths at chunks of 8 end on one path, which joins the
        # block before it; 9 paths then make a single block
        monkeypatch.setattr(brownian, "_ENSEMBLE_CHUNK_FLOATS", 1)
        partition = AtomPartition([0.1, 0.2, 0.3, 0.4])
        stream = RandomStream(15, (0,))
        inline = list(brownian._increment_blocks(partition, n_paths, stream.generator(), chunk))
        ahead = list(brownian._increment_blocks(partition, n_paths, stream.generator(), chunk, threads=2))
        assert [span for span, _ in ahead] == [span for span, _ in inline]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(ahead, inline, strict=True))

    def test_one_thread_or_small_chunks_draw_without_a_helper(self, monkeypatch):
        # chunks of 7 paths of 4 atoms draw 28 floats: at a budget of 56
        # floats or less they are drawn ahead, past it inline
        partition, stream = AtomPartition.uniform(4), RandomStream(15, (1,))
        before = threading.active_count()
        for budget, threads, helpers in ((1, 1, 0), (57, 2, 0), (56, 2, 1)):
            monkeypatch.setattr(brownian, "_ENSEMBLE_CHUNK_FLOATS", budget)
            blocks = brownian._increment_blocks(partition, 50, stream.generator(), 7, threads)
            assert {threading.active_count() for _ in blocks} == {before + helpers}
            assert threading.active_count() == before

    def test_closing_a_pass_early_joins_its_helper(self, monkeypatch):
        monkeypatch.setattr(brownian, "_ENSEMBLE_CHUNK_FLOATS", 1)
        before = threading.active_count()
        blocks = brownian._increment_blocks(
            AtomPartition.uniform(4), 50, RandomStream(15, (2,)).generator(), 7, threads=2
        )
        next(blocks)
        blocks.close()
        assert threading.active_count() == before

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

    def test_partition_mismatch_is_rejected(self):
        density = _scalar_density([0.5, 0.5], [1.0, 1.0])
        other = sample_brownian(AtomPartition([0.4, 0.6]), 8, RandomStream(34, (0,)))
        with pytest.raises(ValueError):
            stochastic_integral(density, other)


class TestInducedMeasure:
    """The empirical measure G(A) = sum_{n in A} phi_n dW_n that a density
    induces on its streamed paths, as the search and the sweep see it."""

    def test_total_value_collects_the_full_integral(self):
        rng = np.random.default_rng(40)
        density = StepFunction(
            AtomPartition([0.25, 0.25, 0.5]),
            NormedSpace.l2(2),
            rng.standard_normal((3, 2)),
        )
        stream = RandomStream(40, (0,))
        whole = Grouping([[0, 1, 2]], 3)
        _, moment, integral = ensemble_search(density, 12, stream, [whole])
        ensemble = sample_brownian(density.partition, 12, stream)
        want = integral_moment(density, ensemble)
        assert integral == want
        # the search's moment is held out, on the last 6 paths
        held_out = float(np.mean(density.space.norm_sq(stochastic_integral(density, ensemble))[6:]))
        assert abs(moment.value - held_out) <= 1e-12 * held_out
        sweep = _sweep((density, 12, stream), [whole])
        for value in (sweep.plain.value, sweep.signed_value[0]):
            assert abs(value - want.value) <= 1e-12 * want.value

    def test_block_values_add_over_atoms(self):
        rng = np.random.default_rng(41)
        density = StepFunction(
            AtomPartition.uniform(4), NormedSpace.l2(2), rng.standard_normal((4, 2))
        )
        stream = RandomStream(41, (0,))
        grouping = Grouping([[0, 2], [1], [3]], 4)
        contributions = _contributions((density, 6, stream))
        blocks = [contributions[0] + contributions[2], contributions[1], contributions[3]]
        # in a Hilbert base the signs drop out: sum_m ||G(B_m)||^2 per path
        per_path = sum(np.sum(b**2, axis=-1) for b in blocks)
        by_hand, held_out = float(np.mean(per_path)), float(np.mean(per_path[3:]))
        _, moment, _ = ensemble_search(density, 6, stream, [grouping])
        sweep = _sweep((density, 6, stream), [grouping])
        assert abs(moment.value - held_out) <= 1e-12 * held_out
        assert abs(sweep.signed_value[0] - by_hand) <= 1e-12 * by_hand

    def test_atom_magnitudes_concentrate_at_root_mass(self):
        # |phi| = 1 on one atom and 0 elsewhere, so G(Omega) = dW_n and its
        # second moment is the atom's mass on average
        n, m = 4, 20_000
        partition = AtomPartition([0.25] * n)
        stream = RandomStream(42, (0,))
        for atom in range(n):
            density = StepFunction(partition, NormedSpace.l2(1), np.eye(n)[:, atom : atom + 1])
            *_, integral = ensemble_search(density, m, stream, [Grouping.finest(n)])
            assert abs(integral.value - 0.25) <= 5.0 * 0.25 * math.sqrt(2.0 / m)

    def test_zero_density_induces_the_zero_measure(self):
        density = _scalar_density([0.5, 0.5], [0.0, 0.0])
        stream = RandomStream(43, (0,))
        sweep = _sweep((density, 6, stream), list(enumerate_groupings(2, "all")))
        np.testing.assert_array_equal(sweep.signed_value, np.zeros(2))
        assert sweep.plain.value == 0.0
        _, moment, integral = ensemble_search(density, 6, stream, "exhaustive")
        assert moment.value == integral.value == 0.0

    def test_the_same_stream_induces_the_same_measure(self):
        # outside a Hilbert base, so the signs are enumerated over each path
        rng = np.random.default_rng(44)
        density = StepFunction(
            AtomPartition(rng.dirichlet(np.ones(6))), NormedSpace.l1(2), rng.standard_normal((6, 2))
        )
        groupings = list(enumerate_groupings(6, "contiguous"))
        a, b, c = (RandomStream(9, (0,)), RandomStream(9, (0,)), RandomStream(9, (1,)))
        first = ensemble_search(density, 30, a, "greedy")
        assert first == ensemble_search(density, 30, b, "greedy")
        assert first != ensemble_search(density, 30, c, "greedy")
        first, again = (_sweep((density, 30, s), groupings) for s in (a, b))
        np.testing.assert_array_equal(first.signed_value, again.signed_value)
        np.testing.assert_array_equal(first.signed_error, again.signed_error)
        assert first.plain == again.plain


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
        # in Fortran order, moved the last bit in R^1.  A greedy search
        # takes a pass per batch of merges, and its first pass alone
        # writes the integral's row
        rng = np.random.default_rng(100 * n_atoms + dim)
        partition = AtomPartition(rng.dirichlet(np.ones(n_atoms)))
        density = StepFunction(partition, NormedSpace.l2(dim), rng.standard_normal((n_atoms, dim)))
        # the search takes MIN_PATHS paths or more on each side of its split
        for n_paths in (4, 5, 41, 1001, 4001):
            stream = RandomStream(n_atoms, (dim, n_paths))
            ensemble = sample_brownian(partition, n_paths, stream)
            for search in ([Grouping.finest(n_atoms)], "greedy"):
                *_, integral = ensemble_search(density, n_paths, stream, search)
                assert integral_moment(density, ensemble) == integral


class TestIntegralIdentity:
    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "contiguous", "greedy"])
    def test_every_mode_streams_its_ensemble(self, mode, monkeypatch):
        def refused(*args):
            raise AssertionError("the ensemble was held")

        monkeypatch.setattr(brownian, "sample_brownian", refused)
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


def _ensemble_bound(contributions, base) -> float:
    """The rounding bound of a table over the contributions in one chunk."""
    screen = random_sums._ensemble_screen(lambda: [contributions], base, contributions.shape[0])
    return screen[1]


def _seeded_case(seed=51, n_atoms=4, dim=2, space=None, n_paths=20_000):
    """A random density with the paths it pairs with: (density, n_paths,
    stream)."""
    rng = np.random.default_rng(seed)
    density = StepFunction(
        AtomPartition(rng.dirichlet(np.ones(n_atoms))),
        space or NormedSpace.l2(dim),
        rng.standard_normal((n_atoms, dim)),
    )
    return density, n_paths, RandomStream(seed, (0,))


class TestRandomisationIdentity:
    def test_single_block_is_exactly_invariant(self):
        # one sign factors out of the norm, so both sides coincide path-wise
        sweep = _sweep(_seeded_case(n_paths=200), [Grouping([[0, 1, 2, 3]], 4)])
        assert sweep.consistent[0]
        assert abs(sweep.signed_value[0] - sweep.plain.value) <= 1e-12

    def test_finest_grouping_keeps_the_euclidean_moment(self):
        assert _sweep(_seeded_case(seed=52), [Grouping.finest(4)]).consistent[0]

    def test_two_block_covering_grouping_is_consistent(self):
        case = _seeded_case(seed=53, space=NormedSpace.l1(2))
        sweep = _sweep(case, [Grouping([[0, 2], [1, 3]], 4)])
        assert sweep.consistent[0]
        assert sweep.groupings[0] == Grouping([[0, 2], [1, 3]], 4)

    def test_sweep_preserves_order_and_shares_the_plain_moment(self):
        groupings = [
            Grouping([[0, 1], [2, 3]], 4),
            Grouping([[0, 2], [1, 3]], 4),
            Grouping.finest(4),
        ]
        sweep = _sweep(_seeded_case(seed=54, n_paths=500), groupings)
        assert list(sweep.groupings) == groupings
        # every set partition sums to the whole measure: one unsigned side
        assert sweep.tolerance.tolist() == [
            3.0 * float(np.hypot(error, sweep.plain.std_error)) for error in sweep.signed_error
        ]

    @pytest.mark.parametrize("chunk_floats", [None, 1200])
    @pytest.mark.parametrize("space", [NormedSpace.linf(2), NormedSpace.l1(2)])
    def test_sweep_matches_the_exact_sign_enumeration(self, space, chunk_floats, monkeypatch):
        # the sweep's atom-sign table against the reference's enumeration
        # over the block sums, one grouping at a time, within the table's
        # rounding bound; with 1200 floats the table of 300 paths in R^2 is
        # built 2 patterns at a time
        if chunk_floats is not None:
            monkeypatch.setattr(random_sums, "_CHUNK_FLOATS", chunk_floats)
        case = _seeded_case(seed=57, n_atoms=5, space=space, n_paths=300)
        covering = list(enumerate_groupings(5))
        picks = np.random.default_rng(57).choice(len(covering), size=15, replace=False)
        groupings = [covering[i] for i in picks]
        sweep = _sweep(case, groupings)
        contributions = _contributions(case)
        bound = _ensemble_bound(contributions, space)
        for grouping, signed in zip(groupings, sweep.signed_value, strict=True):
            exact = _reference_moment(contributions, space, grouping)
            assert abs(signed - exact.value) <= bound <= 1e-9 * exact.value

    def test_sign_enumeration_cap(self):
        # a Hilbert base needs no sign enumeration, and takes any grouping
        _sweep(_seeded_case(seed=55, n_atoms=21, dim=1, n_paths=10), [Grouping.finest(21)])
        case = _seeded_case(seed=55, n_atoms=21, space=NormedSpace.l1(2), n_paths=10)
        with pytest.raises(ValueError, match="capped at 20 blocks, got 21"):
            _sweep(case, [Grouping.finest(21)])

    @pytest.mark.parametrize("space", [NormedSpace.linf(2), NormedSpace.l2(2)], ids=repr)
    def test_groupings_must_be_set_partitions(self, space):
        # a grouping that leaves atoms out, or that belongs to fewer atoms
        case = _seeded_case(seed=56, space=space, n_paths=50)
        for grouping in (Grouping([[0], [2]], 4), Grouping.finest(3)):
            with pytest.raises(ValueError, match="set partitions of the 4 atoms"):
                _sweep(case, [Grouping.finest(4), grouping])
        # set partitions of 3 atoms, in the layout
        with pytest.raises(ValueError, match="set partitions of the 4 atoms"):
            _sweep(case, [Grouping.finest(3)])

    @pytest.mark.parametrize("space", [NormedSpace.l2(1), NormedSpace.l1(2)], ids=repr)
    def test_a_sweep_of_no_partitions_keeps_its_plain_side(self, space):
        # 12 atoms in l2(1) take no table, so no partition asks for a pass;
        # in l1(2) the atom-sign table takes one
        case = _seeded_case(seed=60, n_atoms=12, dim=space.dim, space=space, n_paths=50)
        density, n_paths, stream = case
        masks = PartitionMasks(np.zeros((0, 12), dtype=np.int16))
        empty = randomisation_identity_sweep(density, masks, n_paths, stream)
        assert len(empty.groupings) == empty.signed_value.size == 0
        assert empty.plain == _sweep(case, [Grouping.finest(12)]).plain

    def test_a_sweep_needs_two_paths(self):
        with pytest.raises(ValueError, match="at least 2 paths"):
            _sweep(_seeded_case(n_paths=1), [Grouping.finest(4)])


def _sampled_case(rng, space, n_atoms, n_paths, density=None):
    if density is None:
        density = rng.standard_normal((n_atoms, space.dim))
    partition = AtomPartition(rng.dirichlet(np.ones(n_atoms)))
    stream = RandomStream(int(rng.integers(1 << 30)), (0,))
    return StepFunction(partition, space, density), n_paths, stream


def _tie_heavy_inputs(rng, space):
    """A zero atom and two equal atoms: a sampled case of small-integer
    densities, and small-integer contributions outright."""
    density = rng.integers(-2, 3, size=(5, space.dim)).astype(float)
    density[0] = 0.0
    density[2] = density[1]
    contributions = rng.integers(-2, 3, size=(5, 40, space.dim)).astype(float)
    contributions[0] = 0.0
    contributions[2] = contributions[1]
    return _sampled_case(rng, space, 5, 40, density), contributions


def _mixed_groupings(rng, n_atoms, count):
    """Set partitions in a random order with repeats, then the finest and
    the coarsest."""
    every = [Grouping(blocks, n_atoms) for blocks in ref.set_partitions_reference(range(n_atoms))]
    picks = [every[i] for i in rng.choice(len(every), size=count)]
    return picks + [Grouping.finest(n_atoms), Grouping([range(n_atoms)], n_atoms)]


def _check_document(sweep, i, z=3.0):
    """Partition i of a sweep, read from its arrays, in the layout of
    ref.randomisation_sweep_reference's documents."""
    plain = dataclasses.asdict(sweep.plain)
    signed = dict(plain, value=float(sweep.signed_value[i]), std_error=float(sweep.signed_error[i]))
    comparison = {
        "consistent": bool(sweep.consistent[i]),
        "gap": float(sweep.gap[i]),
        "tolerance": float(sweep.tolerance[i]),
        "z": z,
    }
    return {
        "grouping": sweep.groupings[i].to_lists(),
        "signed": signed,
        "plain": plain,
        "comparison": comparison,
    }


def _assert_within_the_bound(signed, want, bound):
    """A signed side against the reference's: value and std error within
    the table's rounding bound, every other field =="""
    signed, want = dict(signed), dict(want)
    for key in ("value", "std_error"):
        assert abs(signed.pop(key) - want.pop(key)) <= bound
    assert signed == want


def _assert_matches_the_reference(case, groupings):
    """The sweep's check documents against the reference's: the signed
    side, from a table's path means and covariance (the atom-sign table's,
    or every block's norms in a Hilbert base), lies within the table's
    rounding bound, and so do the gap and the tolerance computed from it,
    while every other field and each verdict stay =="""
    sweep = _sweep(case, groupings)
    space = case[0].space
    contributions = _contributions(case)
    want = ref.randomisation_sweep_reference(
        contributions, space.norm_sq, space.is_hilbert, [g.blocks for g in groupings]
    )
    got = [_check_document(sweep, i) for i in range(len(groupings))]
    bound = _ensemble_bound(contributions, space)
    assert bound <= 1e-9 * max(w["signed"]["value"] for w in want)
    for g, w in zip(got, want, strict=True):
        signed, comparison = g.pop("signed"), g.pop("comparison")
        want_signed, want_comparison = w.pop("signed"), w.pop("comparison")
        assert g == w
        _assert_within_the_bound(signed, want_signed, bound)
        assert abs(comparison.pop("gap") - want_comparison.pop("gap")) <= bound
        # z times a hypot, which moves no more than its arguments
        tolerance = want_comparison.pop("tolerance")
        assert abs(comparison.pop("tolerance") - tolerance) <= 3.0 * bound + 1e-15 * tolerance
        assert comparison == want_comparison


def _assert_the_kernel_matches_the_reference(contributions, base, groupings):
    """The sweep's signed side on hand-made contributions against the
    reference's, within the table's rounding bound."""
    value, error = _signed_kernel(contributions, groupings, base)
    want = ref.randomisation_sweep_reference(
        contributions, base.norm_sq, base.is_hilbert, [g.blocks for g in groupings]
    )
    bound = _ensemble_bound(contributions, base)
    assert bound <= 1e-9 * max(w["signed"]["value"] for w in want)
    n_paths = contributions.shape[1]
    for v, e, w in zip(value.tolist(), error.tolist(), want, strict=True):
        got = dataclasses.asdict(SumEstimate(v, e, n_paths, "monte_carlo"))
        _assert_within_the_bound(got, w["signed"], bound)


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
        case = _sampled_case(rng, space, 5, 40)
        _assert_matches_the_reference(case, _mixed_groupings(rng, 5, 60))

    @pytest.mark.parametrize("space", SWEEP_SPACES[::3] + SWEEP_SPACES[2::3], ids=repr)
    def test_tie_heavy_measures(self, space, chunk):
        rng = np.random.default_rng(72)
        case, contributions = _tie_heavy_inputs(rng, space)
        _assert_matches_the_reference(case, _mixed_groupings(rng, 5, 40))
        _assert_the_kernel_matches_the_reference(contributions, space, _mixed_groupings(rng, 5, 40))

    @pytest.mark.parametrize("space", SWEEP_SPACES, ids=repr)
    def test_the_signed_side_is_the_ensemble_kernel(self, space):
        # the streamed sweep's signed side against the kernel on the held
        # contributions of the same paths, estimate for estimate
        rng = np.random.default_rng(75)
        cases = [_sampled_case(rng, space, 5, 40), _tie_heavy_inputs(rng, space)[0]]
        for case in cases:
            groupings = _mixed_groupings(rng, 5, 40)
            sweep = _sweep(case, groupings)
            value, error = _signed_kernel(_contributions(case), groupings, space)
            assert np.array_equal(sweep.signed_value, value)
            assert np.array_equal(sweep.signed_error, error)

    @pytest.mark.parametrize("space", SWEEP_SPACES, ids=repr)
    @pytest.mark.parametrize("z", [0.3, 3.0])
    def test_the_flags_are_compare_estimates(self, space, z):
        # the whole-array z-test against compare_estimates of each
        # grouping's estimates; at z = 0.3 some groupings fail
        rng = np.random.default_rng(76)
        cases = [_sampled_case(rng, space, 5, 40), _tie_heavy_inputs(rng, space)[0]]
        cases.append(_sampled_case(rng, space, 5, 40))
        flags = []
        for case in cases:
            groupings = _mixed_groupings(rng, 5, 40)
            sweep = _sweep(case, groupings, z=z)
            for i in range(len(groupings)):
                signed = SumEstimate(**_check_document(sweep, i, z)["signed"])
                want = compare_estimates(signed, sweep.plain, z=z)
                assert (sweep.consistent[i], sweep.gap[i], sweep.tolerance[i]) == (
                    want.consistent,
                    want.gap,
                    want.tolerance,
                )
                flags.append(want.consistent)
        assert any(flags) and (z == 3.0 or not all(flags))

    def test_a_wide_measure_sums_only_its_blocks(self, monkeypatch):
        # 20 atoms in 2 blocks: a table per subset would hold 2^20 rows
        case = _sampled_case(np.random.default_rng(73), NormedSpace.l1(1), 20, 8)
        grouping = Grouping([range(0, 20, 2), range(1, 20, 2)], 20)
        summed = []
        block_sum = random_sums._block_sum

        def recorded(values, atoms):
            summed.append(atoms)
            return block_sum(values, atoms)

        # the plain side's sum as the chunk comes, then the signed side's
        # block sums in the ensemble kernel
        monkeypatch.setattr(random_sums, "_block_sum", recorded)
        monkeypatch.setattr(groupings, "_block_sum", recorded)
        monkeypatch.setattr(brownian, "_block_sum", recorded)
        tracemalloc.start()
        try:
            sweep = _sweep(case, [grouping])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every atom, then the two blocks
        assert summed == [list(range(20)), list(range(0, 20, 2)), list(range(1, 20, 2))]
        # a 2^20-row table of 8 paths would take 64 MiB
        assert peak < 1 << 20
        assert [_check_document(sweep, 0)] == ref.randomisation_sweep_reference(
            _contributions(case), case[0].space.norm_sq, True, [grouping.blocks]
        )

    @pytest.mark.parametrize("space", [NormedSpace.l2(1), NormedSpace.l1(2)], ids=repr)
    def test_a_measure_past_64_atoms_takes_python_int_masks(self, space):
        # 70 atoms need masks of 70 bits, wider than any numpy integer
        case = _sampled_case(np.random.default_rng(77), space, 70, 6)
        groupings = [
            Grouping([range(0, 70, 2), range(1, 70, 2)], 70),
            Grouping([range(70)], 70),
            Grouping([range(10), range(10, 70)], 70),
        ]
        sweep = _sweep(case, groupings)
        contributions = _contributions(case)
        for i, grouping in enumerate(groupings):
            signed = SumEstimate(**_check_document(sweep, i)["signed"])
            assert signed == _reference_moment(contributions, space, grouping)

    def test_the_block_cap_is_checked_before_any_sum(self, monkeypatch):
        case = _sampled_case(np.random.default_rng(74), NormedSpace.l1(2), 21, 10)

        def refused(*args, **kwargs):
            pytest.fail("drew paths or summed blocks of a grouping over the enumeration cap")

        for name in ("_block_sum", "_atom_sign_table"):
            monkeypatch.setattr(random_sums, name, refused)
        monkeypatch.setattr(brownian, "_block_sum", refused)
        monkeypatch.setattr(brownian, "_increment_blocks", refused)
        groupings = [Grouping([range(20), [20]], 21), Grouping.finest(21)]
        with pytest.raises(ValueError, match="capped at 20 blocks, got 21"):
            _sweep(case, groupings)


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
    return contributions, NormedSpace.l2(dim), groupings


class TestHilbertSweep:
    @settings(derandomize=True, deadline=None)
    @given(_hilbert_sweeps())
    def test_signs_average_to_the_sum_of_block_norms(self, case):
        # over the sign patterns every cross term <B_i, B_j> cancels, so the
        # sweep's l2 closed form sum_m ||B_m||^2 is the average of
        # ||sum_m e_m B_m||^2 over every sign pattern e, enumerated here
        contributions, base, groupings = case
        signed_values, _ = _signed_kernel(contributions, groupings, base)
        for grouping, signed in zip(groupings, signed_values, strict=True):
            blocks = np.stack(
                [np.sum(contributions[list(b)], axis=0) for b in grouping.blocks]
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


class TestStreamedSweep:
    """The sweep draws its paths in chunks and holds no (atoms, paths,
    dim) ensemble."""

    def test_a_randomisation_run_samples_no_ensemble(self, monkeypatch, tmp_path, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("the ensemble was held")

        sampled = brownian.sample_brownian
        for name, module in list(sys.modules.items()):
            if name.startswith("gammavar") and getattr(module, "sample_brownian", None) is sampled:
                monkeypatch.setattr(module, "sample_brownian", refused)
        config = tmp_path / "config.json"
        document = {"engine": {"paths": 200}, "suite": {"measures": 3, "n_atoms": 5}}
        config.write_text(json.dumps(document), encoding="utf-8")
        assert main(["verify", "randomisation", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["overall_pass"]

    def test_a_many_path_sweep_peaks_below_the_held_contributions(self):
        # 4 atoms in l2(3) on 2e5 paths: the held contributions took
        # 4 x 2e5 x 3 floats (18.3 MiB); the sweep keeps the plain side's
        # (paths,) row and a chunk of paths at a time
        n_atoms, n_paths, dim = 4, 200_000, 3
        density, _, stream = _seeded_case(seed=59, n_atoms=n_atoms, dim=dim)
        ((_, masks),) = groupings.grouping_labels(n_atoms)
        masks = PartitionMasks(masks)
        tracemalloc.start()
        try:
            sweep = randomisation_identity_sweep(density, masks, n_paths, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sweep.groupings) == 15
        assert peak < n_atoms * n_paths * dim * 8


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


class TestHeldOutWinner:
    """ensemble_search selects on the first half of its paths and takes the
    winner's moment from one pass over the rest, drawn on from the
    generator where the selection's first pass stopped."""

    def test_each_half_takes_at_least_min_paths(self):
        density = _scalar_density([0.5, 0.5], [1.0, 2.0])
        stream = RandomStream(59, (0,))
        with pytest.raises(ValueError, match="at least 4 paths, got 3"):
            ensemble_search(density, 3, stream, "exhaustive")
        _, moment, integral = ensemble_search(density, 4, stream, "exhaustive")
        assert (moment.samples, integral.samples) == (2, 4)

    @pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_held_out_pass_resumes_the_generator(self, mode, threads, monkeypatch):
        rng = np.random.default_rng(60)
        density = StepFunction(AtomPartition.uniform(4), NormedSpace.l1(2), rng.standard_normal((4, 2)))
        stream, passes = RandomStream(60, (0,)), []
        paths = sample_brownian(density.partition, 37, stream).paths
        draw = brownian._increment_blocks

        def recorded(partition, n_paths, generator, chunk, threads=1):
            blocks = [block for _, block in draw(partition, n_paths, generator, chunk, threads)]
            passes.append(np.concatenate(blocks))
            yield from zip(_path_spans(n_paths, chunk), blocks)

        monkeypatch.setattr(brownian, "_ENSEMBLE_CHUNK_FLOATS", 1)
        monkeypatch.setattr(brownian, "_increment_blocks", recorded)
        *_, integral = ensemble_search(density, 37, stream, mode, threads)
        *selection, held_out = passes
        assert len(selection) >= 1 and all(np.array_equal(p, paths[:18]) for p in selection)
        assert np.array_equal(held_out, paths[18:])
        assert integral == integral_moment(density, BrownianEnsemble(density.partition, paths))


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
        # at two threads, and a chunk budget of 1 float, every pass of
        # many chunks draws one chunk ahead
        for chunk, threads in ((2, "1"), (3, "1"), (7, "1"), (7, "2")):
            monkeypatch.setattr(brownian, "_ensemble_chunk", lambda *args, c=chunk: c)
            monkeypatch.setattr(brownian, "_ENSEMBLE_CHUNK_FLOATS", 1)
            report = self._report(argv + ["--threads", threads], document, tmp_path, capsys)
            assert report == whole

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
    def test_tie_heavy_ensembles_name_the_reference_winner(self, space, chunk, mode, monkeypatch):
        # small integers, a zero atom and a repeated atom: many set
        # partitions tie, some exactly.  The search driver, given the
        # reference's estimate on the first 20 paths of each grouping it
        # decides, names the streamed search's winner, whose estimate is the
        # reference's on the other 21
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
        contributions = _contributions((density, 41, stream))
        selection, held_out = contributions[:, :20], contributions[:, 20:]

        def decide(candidates):
            return [_reference_moment(selection, space, g) for g in candidates]

        if mode == "exhaustive":
            want = ref.ensemble_randomized_search_reference(
                selection, space.norm_sq, space.is_hilbert,
                candidates=ref.set_partitions_reference(range(6)),
            )
            assert grouping.to_lists() == want["grouping"]
        else:
            assert grouping == _search(6, mode, decide, None)[0]
        assert moment == _reference_moment(held_out, space, grouping)
        assert integral == integral_moment(density, ensemble)
        # a family of two groupings is decided in one pass, the higher
        # moment winning
        family = [Grouping.finest(6), Grouping([[0, 1, 2], [3, 4, 5]], 6)]
        moments = decide(family)
        best = family[1 if moments[1].value >= moments[0].value else 0]
        want = (best, _reference_moment(held_out, space, best))
        assert ensemble_search(density, 41, stream, family)[:2] == want
