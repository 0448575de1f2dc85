import math

import numpy as np
import pytest

import _reference as ref
from gammavar import AtomPartition, NormedSpace


class TestAtomPartition:
    def test_uniform_weights_and_boundaries(self):
        partition = AtomPartition.uniform(4)
        np.testing.assert_allclose(partition.weights, [0.25] * 4, atol=1e-15)
        np.testing.assert_allclose(partition.boundaries, np.linspace(0, 1, 5), atol=1e-15)
        assert partition.n_atoms == 4

    def test_uniform_single_atom(self):
        partition = AtomPartition.uniform(1)
        assert partition.n_atoms == 1
        np.testing.assert_array_equal(partition.weights, [1.0])

    def test_from_boundaries_derives_weights(self):
        partition = AtomPartition.from_boundaries([0.0, 0.25, 1.0])
        np.testing.assert_allclose(partition.weights, [0.25, 0.75], atol=1e-15)

    def test_weights_must_be_a_probability_vector(self):
        with pytest.raises(ValueError):
            AtomPartition([0.5, 0.4])
        with pytest.raises(ValueError):
            AtomPartition([0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            AtomPartition([1.5, -0.5])
        with pytest.raises(ValueError):
            AtomPartition([])

    def test_boundaries_validation(self):
        with pytest.raises(ValueError):
            AtomPartition([0.5, 0.5], boundaries=[0.0, 0.5])  # wrong length
        with pytest.raises(ValueError):
            AtomPartition([0.5, 0.5], boundaries=[0.1, 0.6, 1.1])  # not 0..1
        with pytest.raises(ValueError):
            AtomPartition([0.5, 0.5], boundaries=[0.0, 0.7, 1.0])  # gap mismatch

    def test_uniform_needs_a_positive_count(self):
        with pytest.raises(ValueError):
            AtomPartition.uniform(0)

    def test_weights_are_read_only(self):
        partition = AtomPartition.uniform(2)
        with pytest.raises(ValueError):
            partition.weights[0] = 0.7


class TestNormedSpace:
    def test_named_norms_on_a_fixed_vector(self):
        v = [3.0, -4.0]
        assert NormedSpace.l1(2).norm(v) == 7.0
        assert NormedSpace.l2(2).norm(v) == 5.0
        assert NormedSpace.linf(2).norm(v) == 4.0

    def test_general_p_matches_the_reference(self):
        space = NormedSpace(3, 1.5)
        v = [1.0, -2.0, 0.5]
        assert abs(space.norm(v) - ref.lp_norm_reference(v, 1.5)) <= 1e-12

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_homogeneity_and_triangle_inequality(self, p):
        space = NormedSpace(4, p)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            c = float(rng.standard_normal())
            assert abs(space.norm(c * x) - abs(c) * space.norm(x)) <= 1e-12
            assert space.norm(x + y) <= space.norm(x) + space.norm(y) + 1e-12

    def test_norm_sq_is_the_squared_norm(self):
        space = NormedSpace(3, 1.5)
        v = [1.0, 2.0, -3.0]
        assert abs(space.norm_sq(v) - space.norm(v) ** 2) <= 1e-12

    def test_norms_broadcast_over_leading_axes(self):
        space = NormedSpace.linf(2)
        values = np.arange(12.0).reshape(2, 3, 2)
        assert space.norm(values).shape == (2, 3)
        np.testing.assert_allclose(space.norm(values), values.max(axis=-1))

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    @pytest.mark.parametrize("dim", range(1, 10))
    @pytest.mark.parametrize("lead", [(), (0,), (5,), (3, 4)])
    def test_column_kernels_match_axis_reductions_bitwise(self, p, dim, lead):
        space = NormedSpace(dim, p)
        values = np.random.default_rng(dim).standard_normal(lead + (dim,)) * 10.0
        before = values.copy()
        got = space.norm(values)
        assert np.array_equal(got, ref.lp_norm_axis_reference(values, p))
        assert np.array_equal(values, before)
        if lead == ():
            assert type(got) is np.float64

    def test_hilbert_detection(self):
        assert NormedSpace.l2(5).is_hilbert
        assert NormedSpace(1, math.inf).is_hilbert  # every norm on R^1
        assert not NormedSpace.linf(2).is_hilbert
        assert not NormedSpace.l1(2).is_hilbert
        assert not NormedSpace(2, 1.5).is_hilbert

    def test_norm_tag_round_trip(self):
        for space in (
            NormedSpace.l1(2),
            NormedSpace.l2(3),
            NormedSpace.linf(4),
            NormedSpace(2, 1.5),
        ):
            back = NormedSpace.from_tag(space.dim, space.norm_tag())
            assert back.dim == space.dim and back.p == space.p
        assert NormedSpace(2, 1.5).norm_tag() == {"lp": 1.5}

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            NormedSpace(0, 2.0)
        with pytest.raises(ValueError):
            NormedSpace(2, 0.5)
        with pytest.raises(ValueError):
            NormedSpace.from_tag(2, "l3")
        with pytest.raises(ValueError):
            NormedSpace.from_tag(2, {"lp": 1.5, "extra": 1})

