"""Independent reference computations backing the test expectations.

Nothing in this module imports the package under test.  Expected values come
from composite Gauss-Legendre quadrature, brute-force enumeration, or direct
combinatorial recurrences, so a test failure indicts the implementation and
never a shared formula.  The frozen constants below were produced by the
functions next to them and are asserted against them in
test_reference_values.py.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# E max(g1^2, g2^2) for independent standard Gaussians; equals 1 + 2/pi.
MAX_SQ_TWO_GAUSSIANS = 1.6366197723675815
# E (|g1| + |g2|)^2 for independent standard Gaussians; equals 2 + 4/pi.
ABS_SUM_SQ_TWO_GAUSSIANS = 3.2732395447351617
# sqrt(MAX_SQ_TWO_GAUSSIANS): the sup-norm witness ratio.
WITNESS_RATIO = 1.2793044095787294
# sqrt(ABS_SUM_SQ_TWO_GAUSSIANS / 4): the cotype-2 floor of l1 in the plane,
# attained by the density ((1, 1), (1, -1)) with uniform masses.
COTYPE2_FLOOR_L1_PLANE = 0.9046048232149718
# (E|g|^1.5)^(1/1.5): the cotype-2 floor of l_1.5 in any dimension.
COTYPE2_FLOOR_LP15 = 0.9043691990366205


def composite_gauss_legendre(a: float, b: float, segments: int, order: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, segments + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2.0
        xs.append((lo + hi) / 2.0 + half * nodes)
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


def _standard_normal_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def expected_max_sq_two_gaussians() -> float:
    """E max(g1^2, g2^2) by quadrature of a smooth one-dimensional reduction.

    Conditioning on the larger coordinate gives
    E max = 2 E[x^2 P(|g| < |x|)] = 8 int_0^inf x^2 phi(x) (Phi(x) - 1/2) dx,
    and Phi(x) - 1/2 = erf(x / sqrt(2)) / 2.  The integrand is smooth and
    decays like exp(-x^2/2), so [0, 12] holds the mass to far below 1e-15.
    """
    xs, ws = composite_gauss_legendre(0.0, 12.0, segments=24, order=64)
    erf_half = np.array([math.erf(x / math.sqrt(2.0)) / 2.0 for x in xs])
    return float(np.sum(ws * 8.0 * xs * xs * _standard_normal_pdf(xs) * erf_half))


def expected_abs_sum_sq_two_gaussians() -> float:
    """E (|g1| + |g2|)^2 by two-dimensional product quadrature on one quadrant."""
    xs, ws = composite_gauss_legendre(0.0, 12.0, segments=12, order=48)
    fx = ws * _standard_normal_pdf(xs)
    grid = (xs[:, None] + xs[None, :]) ** 2
    return float(4.0 * fx @ grid @ fx)


def gaussian_abs_moment(p: float) -> float:
    """E|g|^p for a standard Gaussian g, p >= 1, by quadrature.

    Substituting x = t^2 in 2 int_0^inf x^p phi(x) dx gives
    4 int_0^inf t^(2p+1) phi(t^2) dt, whose integrand has no root singularity
    at 0 and decays like exp(-t^4/2), so [0, 4] holds the mass far below 1e-15.
    """
    ts, ws = composite_gauss_legendre(0.0, 4.0, segments=16, order=64)
    integrand = ts ** (2.0 * p + 1.0) * _standard_normal_pdf(ts * ts)
    return float(4.0 * np.sum(ws * integrand))


def lp_cotype2_floor_reference(p: float) -> float:
    """The cotype-2 floor (E|g|^p)^(1/p) of l_p, 1 <= p <= 2."""
    return gaussian_abs_moment(p) ** (1.0 / p)


def gaussian_norm_sq_plane_reference(cov, p: float) -> float:
    """E ||Y||_p^2 for a centred Gaussian Y in R^2 with covariance cov, by
    two-dimensional Gauss-Legendre quadrature over the bivariate normal.

    Y = L z with L = V sqrt(Lambda) from the eigendecomposition of cov, so a
    singular covariance needs no special case.  In polar coordinates
    z = r (cos t, sin t) the standard normal density is
    r exp(-r^2/2) / (2 pi) dr dt, and ||L z||^2 = r^2 ||L u(t)||^2.  The
    radial integrand is smooth and [0, 12] holds its mass far below 1e-15;
    the angular one is smooth between the angles where a coordinate of
    L u(t), or their sum or difference, vanishes (the kinks of the l1 and
    sup norms), so [0, 2 pi] is split there.  The moment is linear in cov,
    so cov is scaled by a power of two to unit size first: eigh loses
    digits on a subnormal covariance.
    """
    cov = np.asarray(cov, dtype=float)
    peak = float(np.max(np.abs(cov)))
    shift = math.frexp(peak)[1] if peak > 0.0 else 0
    eigenvalues, eigenvectors = np.linalg.eigh(np.ldexp(cov, -shift))
    factor = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    cuts = {0.0, 2.0 * math.pi}
    for form in (factor[0], factor[1], factor[0] - factor[1], factor[0] + factor[1]):
        # form . (cos t, sin t) vanishes at t0 and t0 + pi
        t0 = math.atan2(-form[0], form[1]) % math.pi
        cuts.update((t0, t0 + math.pi))
    edges = sorted(cuts)
    angle_nodes, angle_weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            ts, ws = composite_gauss_legendre(lo, hi, segments=1, order=32)
            angle_nodes.append(ts)
            angle_weights.append(ws)
    ts, tw = np.concatenate(angle_nodes), np.concatenate(angle_weights)
    rs, rw = composite_gauss_legendre(0.0, 12.0, segments=12, order=32)
    # points of the product grid, radius on axis 0 and angle on axis 1
    ys = factor @ np.stack((np.cos(ts), np.sin(ts)))
    ys = rs[:, None, None] * ys.T[None, :, :]
    if math.isinf(p):
        norm_sq = np.max(np.abs(ys), axis=-1) ** 2
    else:
        norm_sq = np.sum(np.abs(ys) ** p, axis=-1) ** (2.0 / p)
    density = rs * np.exp(-0.5 * rs * rs) / (2.0 * math.pi)
    return math.ldexp(float(np.sum((rw * density)[:, None] * tw[None, :] * norm_sq)), shift)


def covariance_moment_reference(cov, p: float) -> float:
    """E ||Y||_p^2 of a centred Gaussian Y in R^d with covariance cov, for
    p = 1, or p = inf in the plane, from the closed form of one matrix.

    l1: sum_i S_ii + 2 sum_{i<j} E|Y_i Y_j|; the plane's sup norm:
    (S_00 + S_11)/2 + E|U V|/2 with U = Y_0 - Y_1, V = Y_0 + Y_1.  E|U V| =
    (2/pi) sqrt(var_u var_v) (sqrt(1 - r^2) + r asin r) with correlation r
    (Nabeya 1951), taken with numpy's arcsin, whose bits math.asin does not
    share.  A covariance whose largest variance lies outside [2^-400,
    2^400] is scaled to unit size by a power of two first, and an infinite
    variance gives an infinite moment."""
    cov = np.asarray(cov, dtype=float)
    peak = float(np.max(np.abs(np.diagonal(cov))))
    if peak == math.inf:
        return math.inf
    if peak > 0.0 and not 2.0**-400 <= peak <= 2.0**400:
        shift = math.frexp(peak)[1]
        try:
            return math.ldexp(covariance_moment_reference(np.ldexp(cov, -shift), p), shift)
        except OverflowError:
            return math.inf

    def abs_product(var_u, var_v, cov_uv):
        scale = np.sqrt(np.multiply(var_u, var_v))
        r = np.divide(cov_uv, scale, out=np.zeros_like(scale), where=scale > 0.0)
        r = np.clip(r, -1.0, 1.0)
        return (2.0 / math.pi) * scale * (np.sqrt(1.0 - r * r) + r * np.arcsin(r))

    if p == 1.0:
        diag = np.diagonal(cov)
        i, j = np.triu_indices(cov.shape[0], 1)
        return float(np.sum(diag) + 2.0 * np.sum(abs_product(diag[i], diag[j], cov[i, j])))
    s00, s01, s11 = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])
    trace = s00 + s11
    var_u, var_v = max(trace - 2.0 * s01, 0.0), max(trace + 2.0 * s01, 0.0)
    return float(trace / 2.0 + abs_product(var_u, var_v, s00 - s11) / 2.0)


def sup_norm_sq_diagonal_reference(variances) -> float:
    """E max_i Y_i^2 for independent centred Gaussians Y_i with the given
    variances: E M^2 = int_0^inf 2 s P(M > s) ds, where P(M <= s) is the
    product of erf(s / sqrt(2 v_i)) over the nonzero variances, by composite
    Gauss-Legendre on [0, 12 sqrt(max v)], which holds the mass far below
    1e-15.  The integrand is smooth."""
    scales = [math.sqrt(v) for v in variances if v > 0.0]
    if not scales:
        return 0.0
    xs, ws = composite_gauss_legendre(0.0, 12.0 * max(scales), segments=24, order=32)
    below = np.ones_like(xs)
    for scale in scales:
        below *= np.array([math.erf(x / (math.sqrt(2.0) * scale)) for x in xs])
    return float(np.sum(ws * 2.0 * xs * (1.0 - below)))


def sup_norm_sq_sphere_reference(cov, n_z: int = 600, n_phi: int = 1200) -> float:
    """E ||Y||_inf^2 for a centred Gaussian Y in R^3 with covariance cov, by
    a plain product rule on the unit sphere, with no splitting at the kinks.

    Y = L z with L = V sqrt(Lambda) from the eigendecomposition of cov, and
    |z|^2, of mean 3, is independent of u = z / |z|, so E ||Y||^2 = 3 * the
    mean over u of max_i (L_i . u)^2.  The uniform measure on the sphere is
    dz dphi / (4 pi) in the height z = cos(theta): Gauss-Legendre in z, the
    midpoint rule in phi.  The kinks of the maximum slow both rules to
    about h^2, which leaves some 1e-8 relative at the default nodes."""
    eigenvalues, eigenvectors = np.linalg.eigh(np.asarray(cov, dtype=float))
    factor = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    heights, weights = np.polynomial.legendre.leggauss(n_z)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    total = 0.0
    for start in range(0, n_z, 100):
        z, w = heights[start : start + 100, None], weights[start : start + 100, None]
        r = np.sqrt(1.0 - z * z)
        u = np.stack((r * np.cos(phi), r * np.sin(phi), np.broadcast_to(z, r.shape[:1] + phi.shape)), axis=-1)
        y = u @ factor.T
        total += float(np.sum(w * np.max(y * y, axis=-1)))
    return 3.0 * total * (2.0 * math.pi / n_phi) / (4.0 * math.pi)


def gaussian_grouping_moment_reference(weights, values, blocks, p: float) -> float:
    """E || sum_B g_B F(B)/sqrt(mu(B)) ||_p^2 of one grouping of an atomic
    measure, with standard Gaussian g_B, for p = 2 (or d = 1), p = 1, or
    p = inf in the plane.  Each block's mass and value are np.sum of its
    gathered atoms' [mu, F] rows; the rows F(B)/sqrt(mu(B)) give the sum of
    their squared Euclidean norms (p = 2 or d = 1) or
    covariance_moment_reference of their covariance rows^T rows."""
    masses_values = np.column_stack((weights, values))
    sums = np.stack([np.sum(masses_values[list(block)], axis=0) for block in blocks])
    rows = sums[:, 1:] / np.sqrt(sums[:, :1])
    if p == 2.0 or rows.shape[1] == 1:
        return float(np.sum(np.einsum("ij,ij->i", rows, rows)))
    return covariance_moment_reference(rows.T @ rows, p)


def grouping_matrix_reference(weights, values, blocks) -> np.ndarray:
    """Atom-coefficient matrix of one grouping's Gaussian sum, block by
    block: row n is sqrt(w_n) F(B)/mu(B) for the block B that holds atom n,
    so standard Gaussian draws g times it are sum_B g_B F(B)/sqrt(mu(B)) in
    distribution.  F(B) is np.sum of the block's gathered value rows, mu(B)
    np.sum of its 1-D weights (pairwise from 8 atoms on)."""
    mat = np.zeros_like(values)
    for block in blocks:
        atoms = list(block)
        mat[atoms] = np.sum(values[atoms], axis=0) / np.sum(weights[atoms])
    return np.sqrt(weights)[:, None] * mat


@lru_cache(maxsize=None)
def bell_reference(n: int) -> int:
    """Bell numbers by the binomial convolution B(n) = sum C(n-1, k) B(k)."""
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * bell_reference(k) for k in range(n))


def set_partitions_reference(elements):
    """Set partitions of the given elements, iterated as restricted growth strings.

    Position i gets a block label a_i with a_0 = 0 and
    a_i <= max(a_0..a_{i-1}) + 1; each admissible string is one partition.
    """
    elements = list(elements)
    n = len(elements)
    if n == 0:
        yield []
        return
    labels = [0] * n
    while True:
        blocks: dict[int, list] = {}
        for element, label in zip(elements, labels):
            blocks.setdefault(label, []).append(element)
        yield [blocks[label] for label in sorted(blocks)]
        i = n - 1
        while i > 0 and labels[i] > max(labels[:i]):
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        for j in range(i + 1, n):
            labels[j] = 0


def groupings_reference(n: int):
    """Every collection of disjoint nonempty blocks of {0..n-1}: all partitions
    of all nonempty subsets."""
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            yield from set_partitions_reference(subset)


def block_sums_reference(values, blocks) -> np.ndarray:
    """Per-block sums of atom-indexed values (any trailing shape), one Python
    float addition at a time in block order."""
    arr = np.asarray(values, dtype=float)
    tail = arr.shape[1:]
    out = np.empty((len(blocks),) + tail)
    for m, block in enumerate(blocks):
        for pos in np.ndindex(*tail):
            total = 0.0
            for atom in block:
                total += float(arr[(atom,) + pos])
            out[(m,) + pos] = total
    return out


def label_masks_reference(labels) -> np.ndarray:
    """Atom bitmask of every label in every row of a label array, one scatter
    per atom: column m of the (rows, atoms) result sets bit a for each atom a
    labelled m (labels[:, a] == m)."""
    rows, n_atoms = labels.shape
    masks = np.zeros(rows * n_atoms, dtype=np.int64)
    offsets = np.arange(0, rows * n_atoms, n_atoms)
    for atom in range(n_atoms):
        masks[offsets + labels[:, atom]] += 1 << atom
    return masks.reshape(rows, n_atoms)


def block_masks_reference(block_lists, n_atoms: int) -> np.ndarray:
    """One row of atom bitmasks per collection of blocks, in the order the
    blocks are listed and 0 past the last, as grouping_labels lays out its
    masks: bit a of a mask is set for each atom a of the block."""
    masks = np.zeros((len(block_lists), n_atoms), dtype=np.min_scalar_type((1 << n_atoms) - 1))
    for row, blocks in zip(masks, block_lists):
        for m, block in enumerate(blocks):
            row[m] = sum(1 << int(a) for a in block)
    return masks


def canonical_blocks(blocks) -> frozenset:
    """Order-free form of a block collection, for set comparisons."""
    return frozenset(frozenset(b) for b in blocks)


def lp_norm_reference(vector, p: float) -> float:
    if math.isinf(p):
        return max(abs(float(v)) for v in vector)
    return sum(abs(float(v)) ** p for v in vector) ** (1.0 / p)


def lp_norm_axis_reference(values, p: float) -> np.ndarray:
    """l_p norm (p != 2) over the last axis by numpy's axis reductions, the
    formulas NormedSpace.norm uses from dimension 8 on."""
    arr = np.asarray(values, dtype=float)
    if p == 1.0:
        return np.sum(np.abs(arr), axis=-1)
    if math.isinf(p):
        return np.max(np.abs(arr), axis=-1)
    return np.sum(np.abs(arr) ** p, axis=-1) ** (1.0 / p)


def rademacher_moment_reference(vectors, p: float) -> float:
    """Mean of ||sum_n s_n x_n||_p^2 over all 2^k sign assignments, brute force."""
    vectors = [[float(v) for v in vec] for vec in vectors]
    dim = len(vectors[0])
    total = 0.0
    count = 0
    for signs in itertools.product((1.0, -1.0), repeat=len(vectors)):
        summed = [
            sum(s * vec[j] for s, vec in zip(signs, vectors)) for j in range(dim)
        ]
        total += lp_norm_reference(summed, p) ** 2
        count += 1
    return total / count


def randomized_variation_search_reference(values, p: float, candidates=None):
    """Brute-force randomized variation search: the largest sign moment over
    the candidate block collections (by default every disjoint one), no
    weight normalization, and the block collection attaining it.  Ties go to
    fewer blocks, then to the lexicographically smallest blocks (sorted by
    first atom, each ascending).  Returns (moment, blocks)."""
    values = [[float(v) for v in vec] for vec in values]
    dim = len(values[0])
    best = None
    if candidates is None:
        candidates = groupings_reference(len(values))
    for blocks in candidates:
        sums = [
            [sum(values[i][j] for i in block) for j in range(dim)]
            for block in blocks
        ]
        moment = rademacher_moment_reference(sums, p)
        key = (-moment, len(blocks), [list(b) for b in blocks])
        if best is None or key < best:
            best = key
    return -best[0], best[2]


def randomized_variation_reference(values, p: float) -> float:
    """Brute-force randomized variation: the square root of the search's
    largest sign moment."""
    return math.sqrt(randomized_variation_search_reference(values, p)[0])


def gamma_variation_hilbert_reference(weights, values) -> float:
    """Brute-force Euclidean gamma-variation: max over every disjoint block
    collection of sum_B ||F(B)||_2^2 / mu(B), computed without shortcuts."""
    weights = [float(w) for w in weights]
    values = [[float(v) for v in vec] for vec in values]
    dim = len(values[0])
    best = 0.0
    for blocks in groupings_reference(len(values)):
        moment = 0.0
        for block in blocks:
            mass = sum(weights[i] for i in block)
            summed = [sum(values[i][j] for i in block) for j in range(dim)]
            moment += sum(v * v for v in summed) / mass
        best = max(best, moment)
    return math.sqrt(best)


def sign_patterns_reference(k: int) -> np.ndarray:
    """The 2^(k-1) sign patterns on k coefficients with the first sign +1:
    sign j is flipped in row r where bit j - 1 of r is set."""
    patterns = np.ones((1 << (k - 1), k))
    for row in range(patterns.shape[0]):
        for j in range(1, k):
            if row >> (j - 1) & 1:
                patterns[row, j] = -1.0
    return patterns


def randomisation_sweep_reference(
    contributions, norm_sq, hilbert: bool, groupings, z: float = 3.0
):
    """The randomisation sweep one grouping at a time, as check documents.

    contributions has shape (atoms, paths, dim); groupings holds each
    grouping's blocks, each ascending, ordered by first atom.  A grouping's
    block sums are stacked.  With hilbert, the signed side's path statistic
    is sum_m norm_sq(B_m), added in block order.  Otherwise the stack is met
    by its 2^(k-1) sign patterns (first sign +1, sign j flipped where bit
    j - 1 of the row index is set) in one matmul, and the signed side
    averages norm_sq over patterns.  The plain side norms the covered atoms'
    sum.  Each side's value is the path mean, its std error the ddof-1 path
    std over sqrt(paths).  norm_sq, the space's squared norm over the last
    axis, is passed in: the two share the norm and nothing else.
    """
    arr = np.asarray(contributions, dtype=float)
    n_atoms, n_paths, dim = arr.shape
    flat = arr.reshape(n_atoms, n_paths * dim)

    def estimate(path_stats):
        return {
            "value": float(np.mean(path_stats)),
            "std_error": float(np.std(path_stats, ddof=1) / np.sqrt(n_paths)),
            "samples": n_paths,
            "method": "monte_carlo",
        }

    documents = []
    for blocks in groupings:
        stacked = np.stack([np.sum(flat[list(block)], axis=0) for block in blocks])
        if hilbert:
            signed = estimate(np.sum(norm_sq(stacked.reshape(-1, n_paths, dim)), axis=0))
        else:
            patterns = sign_patterns_reference(len(blocks))
            combos = (patterns @ stacked).reshape(patterns.shape[0], n_paths, dim)
            signed = estimate(np.mean(norm_sq(combos), axis=0))
        covered = sorted(atom for block in blocks for atom in block)
        plain = estimate(norm_sq(np.sum(flat[covered], axis=0).reshape(n_paths, dim)))
        gap = abs(signed["value"] - plain["value"])
        tolerance = z * float(np.hypot(signed["std_error"], plain["std_error"]))
        documents.append(
            {
                "grouping": [list(block) for block in blocks],
                "signed": signed,
                "plain": plain,
                "comparison": {
                    "consistent": gap <= tolerance,
                    "gap": gap,
                    "tolerance": tolerance,
                    "z": z,
                },
            }
        )
    return documents


def ensemble_randomized_search_reference(
    contributions, norm_sq, hilbert: bool, chunk_floats: int = 1 << 23, candidates=None
):
    """The exhaustive randomized variation search over ensemble values, one
    block collection at a time, as a report document without the mode.

    contributions has shape (atoms, paths, dim).  Each candidate block
    collection (by default every disjoint one; blocks ascending, ordered by
    first atom) has its block sums
    stacked.  With hilbert, a path's statistic is sum_m norm_sq(B_m), added
    in block order.  Otherwise it is the mean of norm_sq over the sign
    patterns, met chunk_floats // (paths * dim) patterns at a time, with the
    chunk sums added in pattern order.  The value is the path mean and the
    std error the ddof-1 path std over sqrt(paths).  The winner has the
    largest value, then the fewest blocks, then the lexicographically
    smallest blocks.  norm_sq, the base space's squared norm over the last
    axis, is passed in: the search shares the norm and nothing else.
    """
    arr = np.asarray(contributions, dtype=float)
    n_atoms, n_paths, dim = arr.shape
    best = None
    if candidates is None:
        candidates = groupings_reference(n_atoms)
    for blocks in candidates:
        stacked = np.stack([np.sum(arr[list(block)], axis=0) for block in blocks])
        if hilbert:
            path_stats = np.sum(norm_sq(stacked), axis=0)
        else:
            patterns = sign_patterns_reference(len(blocks))
            flat = stacked.reshape(len(blocks), n_paths * dim)
            step = max(1, chunk_floats // (n_paths * dim))
            total = 0.0
            for start in range(0, patterns.shape[0], step):
                combos = patterns[start : start + step] @ flat
                total += np.sum(norm_sq(combos.reshape(-1, n_paths, dim)), axis=0)
            path_stats = total / patterns.shape[0]
        moment = {
            "value": float(np.mean(path_stats)),
            "std_error": float(np.std(path_stats, ddof=1) / np.sqrt(n_paths)),
            "samples": n_paths,
            "method": "monte_carlo",
        }
        key = (-moment["value"], len(blocks), [list(b) for b in blocks])
        if best is None or key < best[0]:
            best = (key, moment)
    (_, _, grouping), moment = best
    return {"norm": math.sqrt(moment["value"]), "moment": moment, "grouping": grouping}


def embedding_trials_reference(
    seed: int, stream_id, p: float, dim: int, n_atoms: int, trials: int, samples: int
):
    """Embedding ratios and std errors of seeded random step densities,
    one trial at a time.

    Trial t draws from the PCG64 generators of SeedSequence(seed) with
    spawn keys stream_id + (t, 0) for its atoms (flat Dirichlet weights
    floored at 1e-9 and renormalised, then (N, dim) standard normal values)
    and stream_id + (t, 1, b) for coefficient batch b of 8.  The ratio is
    sqrt(E||sum_n g_n sqrt(w_n) x_n||_p^2) / sqrt(sum_n w_n ||x_n||_p^2),
    the moment exact in a Hilbert space, else the batch statistics summed
    batch by batch at the power of two of the first batch's largest, with
    the delta-method std error.  ||.||_p^2 is einsum for p = 2, else
    lp_norm_axis_reference squared.
    """

    def generator(*key):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream_id) + key)
        return np.random.Generator(np.random.PCG64(seq))

    def norm_sq(x):
        return np.einsum("...i,...i->...", x, x) if p == 2.0 else lp_norm_axis_reference(x, p) ** 2

    ratios, errors = [], []
    base, extra = divmod(samples, 8)
    for t in range(trials):
        rng = generator(t, 0)
        weights = np.maximum(rng.dirichlet(np.ones(n_atoms)), 1e-9)
        weights = weights / weights.sum()
        values = rng.standard_normal((n_atoms, dim))
        denominator = float(np.sqrt(np.sum(weights * norm_sq(values))))
        rows = np.sqrt(weights)[:, None] * values
        if p == 2.0 or dim == 1:
            ratios.append(math.sqrt(float(np.sum(norm_sq(rows)))) / denominator)
            errors.append(0.0)
            continue
        n, total, total_sq = 0, 0.0, 0.0
        for b in range(min(samples, 8)):
            coefficients = generator(t, 1, b).standard_normal((base + (b < extra), n_atoms))
            stats = norm_sq(coefficients @ rows)
            if b == 0:
                shift = min(max(int(np.frexp(np.max(stats))[1]), -1020), 1020)
            stats = stats * 2.0**-shift
            n += stats.size
            total += float(np.sum(stats))
            total_sq += float(np.sum(stats * stats))
        mean = total / n
        moment = mean * 2.0**shift
        error = math.sqrt(max(total_sq - n * mean * mean, 0.0) / (n - 1) / n) * 2.0**shift
        ratios.append(math.sqrt(moment) / denominator)
        errors.append(error / (2.0 * math.sqrt(moment) * denominator))
    return np.array(ratios), np.array(errors)
