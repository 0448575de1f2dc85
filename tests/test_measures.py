import math

import numpy as np
import pytest

from gammavar import (
    AtomPartition,
    DiscreteOperator,
    Grouping,
    NormedSpace,
    RandomStream,
    StepFunction,
    VectorMeasure,
    density_from_document,
    density_from_measure,
    measure_from_density,
    measure_from_document,
    measure_from_operator,
    operator_from_measure,
    sample_brownian,
    stochastic_integral,
    to_document,
)
from gammavar.groupings import block_sums


def _measure(weights, values, space=None):
    values = np.atleast_2d(np.asarray(values, dtype=float).T).T
    space = space or NormedSpace.l2(values.shape[1])
    return VectorMeasure(AtomPartition(weights), space, values)


class TestVectorMeasure:
    def test_block_sums_are_additive_on_unit_vectors(self):
        measure = _measure([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        blocks = block_sums(measure.values, Grouping([[0, 1]], 2))
        np.testing.assert_allclose(blocks, [[1.0, 1.0]])
        blocks = block_sums(measure.values, Grouping([[0]], 2))
        np.testing.assert_allclose(blocks, [[1.0, 0.0]])

    def test_block_sums_of_scalar_values(self):
        measure = _measure([0.2, 0.3, 0.5], [[2.0], [3.0], [-1.0]])
        np.testing.assert_allclose(
            block_sums(measure.values, Grouping([[0, 2]], 3)), [[1.0]]
        )

    def test_empty_atom_set_is_rejected(self):
        density = StepFunction(AtomPartition([0.5, 0.5]), NormedSpace.l2(1), [1.0, 2.0])
        ensemble = sample_brownian(density.partition, 4, RandomStream(0, (0,)))
        with pytest.raises(ValueError):
            stochastic_integral(density, ensemble, [])

    def test_total_sums_all_atoms(self):
        measure = _measure([0.25, 0.75], [[1.0, 2.0], [3.0, -2.0]])
        total = block_sums(measure.values, Grouping([[0, 1]], 2))
        np.testing.assert_allclose(total, [[4.0, 0.0]])

    def test_block_values_follow_the_grouping(self):
        measure = _measure([0.2, 0.3, 0.5], [[1.0], [2.0], [4.0]])
        blocks = block_sums(measure.values, Grouping([[0, 2], [1]], 3))
        np.testing.assert_allclose(blocks, [[5.0], [2.0]])

    def test_one_dimensional_values_are_promoted(self):
        measure = VectorMeasure(
            AtomPartition([0.5, 0.5]), NormedSpace.l2(1), [1.0, -1.0]
        )
        assert measure.values.shape == (2, 1)

    def test_shape_and_finiteness_validation(self):
        partition = AtomPartition([0.5, 0.5])
        with pytest.raises(ValueError):
            VectorMeasure(partition, NormedSpace.l2(2), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            VectorMeasure(partition, NormedSpace.l2(1), [[np.inf], [0.0]])

    def test_values_are_read_only(self):
        measure = _measure([0.5, 0.5], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            measure.values[0, 0] = 9.0


class TestConversions:
    def test_operator_columns_divide_by_root_mass(self):
        measure = _measure([0.25, 0.75], [[1.0, 0.0], [0.0, 1.0]])
        operator = operator_from_measure(measure)
        np.testing.assert_allclose(
            operator.columns, [[2.0, 0.0], [0.0, 2.0 / math.sqrt(3.0)]], atol=1e-15
        )

    def test_measure_from_identity_operator(self):
        operator = DiscreteOperator(
            AtomPartition([0.5, 0.5]), NormedSpace.l2(2), [[1.0, 0.0], [0.0, 1.0]]
        )
        measure = measure_from_operator(operator)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(measure.values, [[s, 0.0], [0.0, s]], atol=1e-15)

    def test_density_scales_by_mass(self):
        density = StepFunction(
            AtomPartition([0.25, 0.75]), NormedSpace.l2(1), [[4.0], [2.0]]
        )
        measure = measure_from_density(density)
        np.testing.assert_allclose(measure.values, [[1.0], [1.5]], atol=1e-15)

    def test_round_trips_are_exact_to_float_precision(self):
        rng = np.random.default_rng(11)
        weights = rng.dirichlet(np.ones(5))
        measure = VectorMeasure(
            AtomPartition(weights), NormedSpace.l1(3), rng.standard_normal((5, 3))
        )
        back = measure_from_operator(operator_from_measure(measure))
        np.testing.assert_allclose(back.values, measure.values, atol=1e-12)
        back = measure_from_density(density_from_measure(measure))
        np.testing.assert_allclose(back.values, measure.values, atol=1e-12)

    def test_indicator_image_recovers_the_measure(self):
        # T applied to the plain indicator 1_{A_n} = sqrt(mu(A_n)) e_n is F(A_n)
        measure = _measure([0.25, 0.75], [[1.0, 2.0], [3.0, -1.0]])
        operator = operator_from_measure(measure)
        images = np.sqrt(operator.partition.weights)[:, None] * operator.columns
        np.testing.assert_allclose(images, measure.values, atol=1e-15)


class TestDocuments:
    def test_measure_document_round_trip(self):
        measure = VectorMeasure(
            AtomPartition([0.25, 0.75], boundaries=[0.0, 0.25, 1.0]),
            NormedSpace(2, 1.5),
            [[1.0, 2.0], [3.0, 4.0]],
        )
        doc = to_document(measure)
        assert doc["norm"] == {"lp": 1.5}
        assert doc["boundaries"] == [0.0, 0.25, 1.0]
        back = measure_from_document(doc)
        np.testing.assert_allclose(back.values, measure.values, atol=1e-15)
        np.testing.assert_allclose(
            back.partition.weights, measure.partition.weights, atol=1e-15
        )
        assert back.space.p == 1.5

    def test_density_document_round_trip(self):
        density = StepFunction(
            AtomPartition([0.5, 0.5]), NormedSpace.linf(2), [[1.0, 1.0], [1.0, -1.0]]
        )
        back = density_from_document(to_document(density))
        np.testing.assert_allclose(back.values, density.values, atol=1e-15)
        assert math.isinf(back.space.p)

    def test_boundaries_are_optional_in_documents(self):
        measure = _measure([0.5, 0.5], [[1.0], [2.0]])
        assert "boundaries" not in to_document(measure)

    def test_missing_keys_are_named(self):
        doc = to_document(_measure([0.5, 0.5], [[1.0], [2.0]]))
        del doc["values"]
        with pytest.raises(ValueError, match="values"):
            measure_from_document(doc)
