"""The reference computations must reproduce their own frozen constants.

Every other test trusts these constants, so the chain quadrature -> constant
and recurrence -> constant is pinned here, together with hand-checkable
spot values for the brute-force enumerators.
"""

import math

import _reference as ref


def test_max_sq_constant_comes_from_the_quadrature():
    value = ref.expected_max_sq_two_gaussians()
    assert abs(value - ref.MAX_SQ_TWO_GAUSSIANS) <= 1e-13
    # the closed form it should agree with
    assert abs(value - (1.0 + 2.0 / math.pi)) <= 1e-13


def test_abs_sum_sq_constant_comes_from_the_quadrature():
    value = ref.expected_abs_sum_sq_two_gaussians()
    assert abs(value - ref.ABS_SUM_SQ_TWO_GAUSSIANS) <= 1e-13
    assert abs(value - (2.0 + 4.0 / math.pi)) <= 1e-13


def test_plane_quadrature_reproduces_the_identity_constants():
    identity = [[1.0, 0.0], [0.0, 1.0]]
    l1 = ref.gaussian_norm_sq_plane_reference(identity, 1.0)
    linf = ref.gaussian_norm_sq_plane_reference(identity, math.inf)
    assert abs(l1 - ref.ABS_SUM_SQ_TWO_GAUSSIANS) <= 1e-13
    assert abs(linf - ref.MAX_SQ_TWO_GAUSSIANS) <= 1e-13
    # a rank-one covariance: Y = (g, g), so ||Y||_1^2 = 4 g^2, ||Y||_inf^2 = g^2
    ones = [[1.0, 1.0], [1.0, 1.0]]
    assert abs(ref.gaussian_norm_sq_plane_reference(ones, 1.0) - 4.0) <= 1e-13
    assert abs(ref.gaussian_norm_sq_plane_reference(ones, math.inf) - 1.0) <= 1e-13


def test_witness_ratio_is_the_root_of_the_max_sq_constant():
    assert abs(ref.WITNESS_RATIO - math.sqrt(ref.MAX_SQ_TWO_GAUSSIANS)) <= 1e-15


def test_bell_reference_matches_the_known_table():
    table = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    assert [ref.bell_reference(n) for n in range(11)] == table
    assert ref.bell_reference(12) == 4213597
    assert ref.bell_reference(13) == 27644437


def test_partition_enumerator_counts_match_bell():
    for n in range(8):
        count = sum(1 for _ in ref.set_partitions_reference(range(n)))
        assert count == ref.bell_reference(n)


def test_partition_enumerator_yields_distinct_partitions():
    seen = set()
    for blocks in ref.set_partitions_reference(range(5)):
        assert sorted(a for b in blocks for a in b) == list(range(5))
        key = ref.canonical_blocks(blocks)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 52


def test_grouping_enumerator_counts_partial_partitions():
    # partitions of nonempty subsets: sum_k C(n,k) Bell(k) = Bell(n+1) - 1
    for n in range(1, 7):
        count = sum(1 for _ in ref.groupings_reference(n))
        assert count == ref.bell_reference(n + 1) - 1


def test_sign_moment_spot_values():
    assert ref.rademacher_moment_reference([[1.0], [1.0]], 2.0) == 2.0
    assert ref.rademacher_moment_reference([[1.0, 0.0], [0.0, 1.0]], math.inf) == 1.0
    # (r1 - r2) x: patterns give 0, 2x, -2x, 0, so the mean square is 2 ||x||^2
    assert ref.rademacher_moment_reference([[1.0, 2.0], [-1.0, -2.0]], 1.0) == 18.0


def test_randomized_variation_reference_spot_values():
    assert ref.randomized_variation_reference([[1.0], [1.0]], 2.0) == 2.0
    assert ref.randomized_variation_reference(
        [[1.0, 2.0], [-1.0, -2.0]], math.inf
    ) == math.sqrt(8.0)


def test_gamma_variation_reference_spot_value():
    # two orthogonal unit increments at mass 1/2 each: finest gives 1/.5 + 1/.5
    value = ref.gamma_variation_hilbert_reference([0.5, 0.5], [[1, 0], [0, 1]])
    assert abs(value - 2.0) <= 1e-15


def test_gaussian_abs_moment_matches_closed_forms():
    # E|g| = sqrt(2/pi), E g^2 = 1, E|g|^3 = 2 sqrt(2/pi), E g^4 = 3
    assert abs(ref.gaussian_abs_moment(1.0) - math.sqrt(2.0 / math.pi)) <= 1e-14
    assert abs(ref.gaussian_abs_moment(2.0) - 1.0) <= 1e-14
    assert abs(ref.gaussian_abs_moment(3.0) - 2.0 * math.sqrt(2.0 / math.pi)) <= 1e-14
    assert abs(ref.gaussian_abs_moment(4.0) - 3.0) <= 1e-14


def test_l1_plane_cotype2_floor_is_the_root_of_the_witness_moment():
    floor = math.sqrt(ref.ABS_SUM_SQ_TWO_GAUSSIANS / 4.0)
    assert abs(ref.COTYPE2_FLOOR_L1_PLANE - floor) <= 1e-15
    assert abs(ref.COTYPE2_FLOOR_L1_PLANE - math.sqrt(0.5 + 1.0 / math.pi)) <= 1e-15


def test_lp15_cotype2_floor_comes_from_the_quadrature():
    value = ref.lp_cotype2_floor_reference(1.5)
    assert abs(value - ref.COTYPE2_FLOOR_LP15) <= 1e-13
    # the closed form (2^(p/2) Gamma((p+1)/2) / sqrt(pi))^(1/p) at p = 1.5
    closed = (2.0**0.75 * math.gamma(1.25) / math.sqrt(math.pi)) ** (1.0 / 1.5)
    assert abs(value - closed) <= 1e-13
