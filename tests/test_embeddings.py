import math
import tracemalloc
import weakref

import numpy as np
import pytest

import _reference as ref
from gammavar import (
    AtomPartition,
    NormedSpace,
    RandomStream,
    StepFunction,
    embedding_ratio,
    run_embedding_trials,
    sup_norm_witness,
)
from gammavar import random_sums
from gammavar.embeddings import l2_bochner_norm


def _density(weights, space, values):
    return StepFunction(AtomPartition(weights), space, values)


class TestBochnerNorm:
    def test_constant_density_gives_the_vector_norm(self):
        density = _density([0.2, 0.8], NormedSpace.l2(2), [[3.0, 4.0]] * 2)
        assert abs(l2_bochner_norm(density) - 5.0) <= 1e-12

    def test_scalar_hand_value(self):
        density = _density([0.5, 0.5], NormedSpace.l2(1), [[1.0], [2.0]])
        assert abs(l2_bochner_norm(density) - math.sqrt(2.5)) <= 1e-12

    def test_zero_density(self):
        density = _density([0.5, 0.5], NormedSpace.l1(2), np.zeros((2, 2)))
        assert l2_bochner_norm(density) == 0.0


class TestEmbeddingRatio:
    def test_euclidean_targets_give_ratio_one_exactly(self):
        rng = np.random.default_rng(70)
        for _ in range(5):
            density = _density(
                rng.dirichlet(np.ones(4)), NormedSpace.l2(3), rng.standard_normal((4, 3))
            )
            ratio, std_error = embedding_ratio(density)
            assert abs(ratio - 1.0) <= 1e-9
            assert std_error == 0.0

    def test_zero_density_is_rejected(self):
        density = _density([0.5, 0.5], NormedSpace.linf(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="vanishing"):
            embedding_ratio(density)

    def test_witness_density_matches_the_quadrature_ratio(self):
        ratio, std_error = embedding_ratio(
            sup_norm_witness(), RandomStream(0, (920,)), 100_000
        )
        assert abs(ratio - ref.WITNESS_RATIO) <= 3.0 * std_error

    def test_coordinate_density_in_l1_matches_the_quadrature_ratio(self):
        # |g1| + |g2| for independent gaussians has the same second moment
        # profile as the sup-norm witness, scaled into the l1 norm
        density = _density(
            [0.5, 0.5], NormedSpace.l1(2), [[1.0, 0.0], [0.0, 1.0]]
        )
        ratio, std_error = embedding_ratio(density, RandomStream(0, (921,)), 100_000)
        assert abs(ratio - ref.WITNESS_RATIO) <= 3.0 * std_error

    def test_ratio_is_scale_invariant(self):
        density = _density(
            [0.25, 0.75], NormedSpace.linf(2), [[1.0, 2.0], [-1.0, 0.5]]
        )
        scaled = _density(
            [0.25, 0.75], NormedSpace.linf(2), 7.0 * np.asarray(density.values)
        )
        a, _ = embedding_ratio(density, RandomStream(5, (0,)), 5000)
        b, _ = embedding_ratio(scaled, RandomStream(5, (0,)), 5000)
        assert abs(a - b) <= 1e-12


class TestEmbeddingTrials:
    def test_direction_validation(self):
        stream = RandomStream(0, (0,))
        with pytest.raises(ValueError):
            run_embedding_trials("type2", NormedSpace.l1(2), 3, 2, stream)
        with pytest.raises(ValueError):
            run_embedding_trials("cotype2", NormedSpace.linf(2), 3, 2, stream)
        with pytest.raises(ValueError):
            run_embedding_trials("sideways", NormedSpace.l2(2), 3, 2, stream)
        with pytest.raises(ValueError):
            run_embedding_trials("type2", NormedSpace.linf(2), 3, 0, stream)

    def test_euclidean_trials_are_isometric(self):
        report = run_embedding_trials(
            "type2", NormedSpace.l2(2), 4, 50, RandomStream(8, (0,))
        )
        assert report.trials == 50
        assert len(report.ratios) == 50
        assert max(abs(r - 1.0) for r in report.ratios) <= 1e-9
        assert abs(report.worst_ratio - 1.0) <= 1e-9

    def test_worst_index_follows_the_direction(self):
        up = run_embedding_trials(
            "type2", NormedSpace.linf(2), 3, 20, RandomStream(9, (0,)), samples=2000
        )
        assert up.worst_index == int(np.argmax(up.ratios))
        down = run_embedding_trials(
            "cotype2", NormedSpace.l1(2), 3, 20, RandomStream(9, (0,)), samples=2000
        )
        assert down.worst_index == int(np.argmin(down.ratios))
        assert down.worst_ratio == down.ratios[down.worst_index]
        assert down.worst_std_error == down.std_errors[down.worst_index]

    def test_trials_are_deterministic_and_prefix_stable(self):
        a = run_embedding_trials(
            "type2", NormedSpace.linf(2), 3, 10, RandomStream(10, (0,)), samples=2000
        )
        b = run_embedding_trials(
            "type2", NormedSpace.linf(2), 3, 10, RandomStream(10, (0,)), samples=2000
        )
        np.testing.assert_array_equal(a.ratios, b.ratios)
        # per-trial substreams: a longer run replays the shorter one verbatim
        longer = run_embedding_trials(
            "type2", NormedSpace.linf(2), 3, 20, RandomStream(10, (0,)), samples=2000
        )
        np.testing.assert_array_equal(longer.ratios[:10], a.ratios)

    def test_plane_trials_stay_inside_the_equivalence_band(self):
        # in the plane both norms are within sqrt(2) of euclidean, which caps
        # how far any gaussian average can drift from the plain second moment
        up = run_embedding_trials(
            "type2", NormedSpace.linf(2), 4, 20, RandomStream(11, (0,)), samples=20_000
        )
        for r, se in zip(up.ratios, up.std_errors):
            assert r - 3.0 * se <= math.sqrt(2.0)
        down = run_embedding_trials(
            "cotype2", NormedSpace.l1(2), 4, 20, RandomStream(11, (1,)), samples=20_000
        )
        for r, se in zip(down.ratios, down.std_errors):
            assert r + 3.0 * se >= 1.0 / math.sqrt(2.0)

    def test_the_report_lists_every_trial(self):
        report = run_embedding_trials(
            "cotype2", NormedSpace.l2(2), 3, 5, RandomStream(12, (0,))
        )
        assert report.direction == "cotype2"
        assert report.trials == 5
        assert report.ratios.shape == report.std_errors.shape == (5,)
        assert report.worst_ratio == report.ratios.min()


class TestEmbeddingKernel:
    """The blocked trial kernel against the per-trial loop of
    _reference.embedding_trials_reference."""

    @pytest.mark.parametrize(
        "space",
        [NormedSpace.l1(2), NormedSpace(2, 1.5), NormedSpace.linf(2), NormedSpace(3, 1.5),
         NormedSpace.l2(2)],
        ids=repr,
    )
    @pytest.mark.parametrize("samples", [2, 5, 8, 1001])
    @pytest.mark.parametrize("chunk_floats", [1, 1 << 30])
    def test_blocks_keep_the_bits_of_one_trial_at_a_time(
        self, monkeypatch, space, samples, chunk_floats
    ):
        # a chunk of 1 float takes one trial a block, 2^30 every trial
        monkeypatch.setattr(random_sums, "_ENSEMBLE_CHUNK_FLOATS", chunk_floats)
        direction = "cotype2" if space.p <= 2 else "type2"
        report = run_embedding_trials(
            direction, space, 3, 7, RandomStream(21, (4,)), samples=samples
        )
        ratios, errors = ref.embedding_trials_reference(21, (4,), space.p, space.dim, 3, 7, samples)
        assert np.array_equal(report.ratios, ratios)
        assert np.array_equal(report.std_errors, errors)

    @pytest.mark.parametrize("chunk_floats", [10000, 1000])
    def test_one_block_of_coefficients_is_held_at_a_time(self, monkeypatch, chunk_floats):
        # 801 samples of 3 atoms draw 2403 floats a trial, in batches of 101
        # and 100 draws (303 floats a trial's batch): 4 trials a block of
        # 10000 floats, and 1 trial a block of 1000
        draw, live, held = random_sums._coefficient_batches, set(), []

        def track(block):
            live.add(id(block))
            weakref.finalize(block, live.discard, id(block))
            held.append((len(live), block.size))
            return block

        def tracked(streams, samples, k, kind):
            return map(track, draw(streams, samples, k, kind))

        monkeypatch.setattr(random_sums, "_coefficient_batches", tracked)
        monkeypatch.setattr(random_sums, "_ENSEMBLE_CHUNK_FLOATS", chunk_floats)
        stream = RandomStream(4, (0,))
        run_embedding_trials("cotype2", NormedSpace.l1(2), 3, 10, stream, samples=801)
        assert {count for count, _ in held} == {1}
        assert max(size for _, size in held) == (1212 if chunk_floats == 10000 else 303)

    def test_a_run_holds_one_block_of_trials(self, monkeypatch):
        # blocks of 16 trials; a run that drew every trial's atoms and
        # streams first grew by about 300 bytes a trial, its results by 16
        monkeypatch.setattr(random_sums, "_ENSEMBLE_CHUNK_FLOATS", 64)

        def peak(trials):
            tracemalloc.start()
            try:
                run_embedding_trials(
                    "cotype2", NormedSpace.l1(2), 2, trials, RandomStream(6, (0,)), samples=2
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # the first call fills caches
        assert peak(2000) - peak(200) < 1800 * 100

    def test_the_ratio_is_the_one_trial_case(self):
        space = NormedSpace(2, 1.5)
        report = run_embedding_trials("cotype2", space, 3, 4, RandomStream(5, (2,)), samples=999)
        ratios, errors = ref.embedding_trials_reference(5, (2,), 1.5, 2, 3, 4, 999)
        assert np.array_equal(report.ratios, ratios)
        assert np.array_equal(report.std_errors, errors)
        rng = RandomStream(5, (2, 3, 0)).generator()
        weights = np.maximum(rng.dirichlet(np.ones(3)), 1e-9)
        density = _density(weights / weights.sum(), space, rng.standard_normal((3, 2)))
        assert embedding_ratio(density, RandomStream(5, (2, 3, 1)), 999) == (ratios[3], errors[3])


class TestSupNormWitness:
    def test_structure(self):
        witness = sup_norm_witness()
        assert witness.partition.n_atoms == 2
        np.testing.assert_array_equal(witness.partition.weights, [0.5, 0.5])
        assert witness.space.norm_tag() == "linf"
        np.testing.assert_array_equal(witness.values, [[1.0, 1.0], [1.0, -1.0]])
