import itertools
import math
import struct
import tracemalloc

import _reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gammavar.brownian as brownian
import gammavar.random_sums as random_sums

from gammavar import (
    AtomPartition,
    BrownianEnsemble,
    Grouping,
    NormedSpace,
    RandomStream,
    SizeLimitError,
    StepFunction,
    check_randomisation_identity,
    dump_ensemble,
    enumerate_groupings,
    induced_randomized_measure,
    integral_moment,
    load_ensemble_paths,
    measure_from_density,
    rademacher_sum_sq,
    randomisation_identity_sweep,
    sample_brownian,
    stochastic_integral,
    verify_integral_identity,
)
from gammavar.brownian import BINARY_MAGIC, BINARY_VERSION, EmpiricalVectorMeasure
from gammavar.groupings import block_sums


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


class TestBinaryDumps:
    def test_round_trip(self, tmp_path):
        partition = AtomPartition([0.25, 0.75])
        ensemble = sample_brownian(partition, 32, RandomStream(21, (0,)))
        target = tmp_path / "paths.gvlb"
        dump_ensemble(ensemble, target)
        np.testing.assert_array_equal(load_ensemble_paths(target), ensemble.paths)

    def test_header_fields(self, tmp_path):
        ensemble = BrownianEnsemble(AtomPartition.uniform(3), np.zeros((4, 3)))
        target = tmp_path / "paths.gvlb"
        dump_ensemble(ensemble, target)
        raw = target.read_bytes()
        magic, version, n_paths, n_atoms = struct.unpack("<4sIII", raw[:16])
        assert magic == BINARY_MAGIC
        assert version == BINARY_VERSION
        assert (n_paths, n_atoms) == (4, 3)
        assert len(raw) == 16 + 4 * 3 * 8

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda raw: raw[:10],
            lambda raw: b"XXXX" + raw[4:],
            lambda raw: raw[:4] + struct.pack("<I", 99) + raw[8:],
            lambda raw: raw[:-8],
            lambda raw: raw + b"\x00" * 8,
        ],
        ids=["short-header", "bad-magic", "bad-version", "truncated", "oversized"],
    )
    def test_corrupt_dumps_are_rejected(self, tmp_path, mangle):
        ensemble = BrownianEnsemble(AtomPartition.uniform(3), np.ones((4, 3)))
        target = tmp_path / "paths.gvlb"
        dump_ensemble(ensemble, target)
        target.write_bytes(mangle(target.read_bytes()))
        with pytest.raises(ValueError):
            load_ensemble_paths(target)


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


class TestIntegralIdentity:
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
        check = check_randomisation_identity(measure, Grouping([[0, 1, 2, 3]], 4))
        assert check.comparison.consistent
        assert abs(check.signed.value - check.plain.value) <= 1e-12

    def test_finest_grouping_keeps_the_euclidean_moment(self):
        measure = self._measure(seed=52)
        check = check_randomisation_identity(measure, Grouping.finest(4))
        assert check.comparison.consistent

    def test_two_block_covering_grouping_is_consistent(self):
        measure = self._measure(seed=53, space=NormedSpace.l1(2))
        check = check_randomisation_identity(measure, Grouping([[0, 2], [1, 3]], 4))
        assert check.comparison.consistent
        assert check.grouping == Grouping([[0, 2], [1, 3]], 4)

    def test_sweep_preserves_order_and_caches_plain_moments(self):
        measure = self._measure(seed=54, n_paths=500)
        groupings = [
            Grouping([[0, 1], [2, 3]], 4),
            Grouping([[0, 2], [1, 3]], 4),
            Grouping.finest(4),
        ]
        checks = randomisation_identity_sweep(measure, groupings)
        assert [c.grouping for c in checks] == groupings
        # same covered atom set: the unsigned side is shared across groupings
        assert checks[0].plain == checks[1].plain

    @pytest.mark.parametrize("chunk_floats", [None, 1200])
    @pytest.mark.parametrize("space", [NormedSpace.linf(2), NormedSpace.l1(2)])
    def test_sweep_matches_the_exact_sign_enumeration(self, space, chunk_floats, monkeypatch):
        # the sweep's batched matmul against rademacher_sum_sq's own
        # enumeration over the same block sums, one grouping at a time; with
        # 1200 floats a grouping of 3 or more blocks of 300 paths in R^2
        # passes the cap and is swept alone, 2 patterns at a time
        if chunk_floats is not None:
            monkeypatch.setattr(random_sums, "_CHUNK_FLOATS", chunk_floats)
        measure = self._measure(seed=57, n_atoms=5, space=space, n_paths=300)
        covering = list(enumerate_groupings(5))
        picks = np.random.default_rng(57).choice(len(covering), size=15, replace=False)
        groupings = [covering[i] for i in picks]
        checks = randomisation_identity_sweep(measure, groupings)
        for grouping, check in zip(groupings, checks):
            exact = rademacher_sum_sq(
                block_sums(measure.contributions, grouping), measure.empirical_space
            )
            assert check.signed.value == exact.value

    def test_sign_enumeration_cap(self):
        measure = self._measure(seed=55, n_atoms=21, dim=1, n_paths=10)
        with pytest.raises(ValueError, match="21"):
            check_randomisation_identity(measure, Grouping.finest(21))

    def test_non_covering_groupings_compare_against_their_own_restriction(self):
        measure = self._measure(seed=56, space=NormedSpace.linf(2))
        partial = Grouping([[0], [2]], 4)
        full = check_randomisation_identity(measure, Grouping.finest(4))
        restricted = check_randomisation_identity(measure, partial)
        assert restricted.comparison.consistent
        assert restricted.plain.value != full.plain.value


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
    """Covering and non-covering groupings, in a random order with repeats."""
    every = [Grouping(blocks, n_atoms) for blocks in ref.groupings_reference(n_atoms)]
    picks = [every[i] for i in rng.choice(len(every), size=count)]
    return picks + [Grouping.finest(n_atoms), Grouping([range(n_atoms)], n_atoms)]


def _assert_matches_the_reference(measure, groupings):
    checks = randomisation_identity_sweep(measure, groupings)
    want = ref.randomisation_sweep_reference(
        measure.contributions,
        measure.space.norm_sq,
        measure.space.is_hilbert,
        [g.blocks for g in groupings],
    )
    assert [c.to_document() for c in checks] == want


SWEEP_SPACES = [
    NormedSpace.from_tag(dim, tag)
    for tag in ("l1", "l2", "linf", {"lp": 1.5})
    for dim in (1, 2, 3)
]


class TestSweepAgainstTheReference:
    """The batched sweep against the one-grouping-at-a-time loop, field by
    field with ==, for every chunk size."""

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
            checks = randomisation_identity_sweep(measure, groupings)
            kernel = random_sums.ensemble_rademacher_moments(
                measure.contributions, groupings, measure.empirical_space
            )
            assert [check.signed for check in checks] == kernel

    def test_a_wide_measure_sums_only_its_blocks(self, monkeypatch):
        # 20 atoms in 2 blocks: a table per subset would hold 2^20 rows
        measure = _sampled_measure(np.random.default_rng(73), NormedSpace.l1(1), 20, 8)
        grouping = Grouping([range(0, 20, 2), range(1, 20, 2)], 20)
        rows = []
        distinct_sums = brownian._distinct_sums

        def recorded(values, atom_sets, reduce=None):
            table, index = distinct_sums(values, atom_sets, reduce)
            rows.append(table.shape[0])
            return table, index

        # the signed side's table in the ensemble kernel, then the plain side's
        monkeypatch.setattr(random_sums, "_distinct_sums", recorded)
        monkeypatch.setattr(brownian, "_distinct_sums", recorded)
        tracemalloc.start()
        try:
            check = check_randomisation_identity(measure, grouping)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two blocks, then the one covered set
        assert rows == [2, 1]
        # a 2^20-row table of 8 paths would take 64 MiB
        assert peak < 1 << 20
        assert [check.to_document()] == ref.randomisation_sweep_reference(
            measure.contributions, measure.space.norm_sq, True, [grouping.blocks]
        )

    def test_the_block_cap_is_checked_before_any_sum(self, monkeypatch):
        measure = _sampled_measure(np.random.default_rng(74), NormedSpace.l1(1), 21, 10)

        def refused(values, atom_sets, reduce=None):
            pytest.fail("summed blocks of a grouping over the enumeration cap")

        monkeypatch.setattr(random_sums, "_distinct_sums", refused)
        monkeypatch.setattr(brownian, "_distinct_sums", refused)
        groupings = [Grouping([[0], [1]], 21), Grouping.finest(21)]
        with pytest.raises(ValueError, match="21"):
            randomisation_identity_sweep(measure, groupings)


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
        labels = draw(
            st.lists(st.integers(0, n_atoms), min_size=n_atoms, max_size=n_atoms).filter(any)
        )
        blocks = [
            [a for a in range(n_atoms) if labels[a] == m] for m in range(1, n_atoms + 1)
        ]
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
        for grouping, check in zip(groupings, randomisation_identity_sweep(measure, groupings)):
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
            assert abs(check.signed.value - want) <= 1e-12 * want
