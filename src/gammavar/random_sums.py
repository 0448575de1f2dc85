"""Second moments of random signed sums: exact paths and seeded Monte Carlo.

The quantity of interest is E || sum_n c_n x_n ||^2 where the coefficients are
either independent standard Gaussians or independent Rademacher signs and the
x_n live in a normed space.  Exact routes: the Hilbert closed form
sum_n ||x_n||_2^2, full sign enumeration for small families, and the closed
form of a Gaussian sum's moment in its covariance for l1 and the plane's
linf (covariance_moment).  Everything else is Monte Carlo with a
reproducible substream layout: an estimate is a deterministic function of
(seed, stream_id, samples), independent of thread count, because draws are
generated in a fixed number of batches with one substream per batch and
combined in batch order, at unit scale (_unit_shift).

Batched Rademacher moments take set partitions as rows of block masks, in
the layout of groupings.grouping_labels (_ensemble_moments).  Outside
Hilbert bases they come from one table per measure: a partition's sign
patterns are the atom sign vectors constant on its blocks, a subgroup H_G of
{+-1}^N, so its moment is the mean over H_G of T[e] = ||sum_n e_n x_n||^2,
within _table_rounding_bound of rademacher_sum_sq of the block sums.  On a
path ensemble that mean's path mean and variance are forms in the path mean
and centred path covariance of T (_sign_table_moments); (N, d) values are
one path.  In a Hilbert base a table of the blocks' squared norms gives
the closed form (_hilbert_moments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groupings import _block_sum, _mask_atoms
from .spaces import EmpiricalL2Space

# Monte Carlo estimates need at least this many samples for a std error.
MIN_SAMPLES = 2
# Exact sign enumeration is capped at 2^20 patterns.
ENUMERATION_LIMIT = 20
# Fixed Monte Carlo batch structure (thread-count independent determinism).
N_BATCHES = 8
# Two exact estimates of the same quantity must agree to this tolerance,
# relative to the larger value once that exceeds 1.
EXACT_AGREEMENT_TOL = 1e-9
# covariance_moment rescales a covariance by a power of two when its size lies
# outside this range, so that the products of two variances stay normal.
_SAFE_SCALE_MIN, _SAFE_SCALE_MAX = 2.0**-400, 2.0**400
# Cap on floats materialized at once when sweeping sign patterns.
_CHUNK_FLOATS = 1 << 23
# Cap on floats per gather of table rows: 1 MB, which stays in a 2 MB
# per-core L2 cache until the sums read it.
_ENSEMBLE_CHUNK_FLOATS = 1 << 17
# Cap on floats in a table (32 MB): the atom-sign table's 2^(N-1) x paths
# statistics, or a Hilbert base's distinct block norms.
_ENSEMBLE_TABLE_FLOATS = 1 << 22

METHOD_EXACT_HILBERT = "exact_hilbert"
METHOD_EXACT_ENUMERATION = "exact_enumeration"
METHOD_EXACT_COVARIANCE = "exact_covariance"
METHOD_MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class RandomStream:
    """Addressable randomness: (seed, stream_id) pins every draw bit-exactly.

    stream_id may be an int or a tuple of ints; substream(k) appends k, so a
    tree of fan-outs never collides.
    """

    seed: int
    stream_id: tuple[int, ...] = (0,)

    def __post_init__(self):
        sid = self.stream_id
        if isinstance(sid, int):
            sid = (sid,)
        object.__setattr__(self, "stream_id", tuple(int(s) for s in sid))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream_id)
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, k: int) -> "RandomStream":
        return RandomStream(self.seed, self.stream_id + (int(k),))


@dataclass(frozen=True)
class SumEstimate:
    """A second-moment estimate; std_error is 0 exactly when the method is exact."""

    value: float
    std_error: float
    samples: int
    method: str

    @property
    def is_exact(self) -> bool:
        return self.method in (
            METHOD_EXACT_HILBERT,
            METHOD_EXACT_ENUMERATION,
            METHOD_EXACT_COVARIANCE,
        )

    def to_document(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "samples": self.samples,
            "method": self.method,
        }


@dataclass(frozen=True)
class Comparison:
    """Outcome of a z-test between two estimates of the same quantity."""

    consistent: bool
    gap: float
    tolerance: float
    z: float

    def to_document(self) -> dict:
        return {
            "consistent": self.consistent,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "z": self.z,
        }


def compare_estimates(a: SumEstimate, b: SumEstimate, z: float = 3.0) -> Comparison:
    """Consistency of two estimates: |gap| <= z * sqrt(se_a^2 + se_b^2).

    Two exact estimates must agree to EXACT_AGREEMENT_TOL * max(1, |a|, |b|)
    instead: absolute up to 1, relative beyond, since rounding grows with
    the values.
    """
    gap = abs(a.value - b.value)
    if a.is_exact and b.is_exact:
        tol = EXACT_AGREEMENT_TOL * max(1.0, abs(a.value), abs(b.value))
    else:
        tol = z * float(np.hypot(a.std_error, b.std_error))
    return Comparison(consistent=bool(gap <= tol), gap=gap, tolerance=tol, z=z)


def _check_values(values, space) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    want = 3 if isinstance(space, EmpiricalL2Space) else 2
    if arr.ndim != want or arr.shape[0] < 1:
        raise ValueError(
            f"values must be a nonempty array with {want} axes, got shape {arr.shape}"
        )
    if arr.shape[-1] != space.dim:
        raise ValueError(
            f"value dimension {arr.shape[-1]} does not match space dim {space.dim}"
        )
    return arr


def _coefficient_batches(
    stream, samples: int, k: int, kind: str
) -> Iterator[np.ndarray]:
    """Coefficient draws of shape (size, k), "gaussian" or "rademacher", in
    the N_BATCHES fixed batches, each drawn from its own substream."""
    if stream is None or samples < MIN_SAMPLES:
        raise ValueError(
            "Monte Carlo estimation requires a RandomStream and at least "
            f"{MIN_SAMPLES} samples"
        )
    base, extra = divmod(samples, N_BATCHES)
    # batches past the sample count are empty and get no substream
    for batch in range(min(samples, N_BATCHES)):
        size = base + (1 if batch < extra else 0)
        rng = stream.substream(batch).generator()
        if kind == "gaussian":
            yield rng.standard_normal((size, k))
        else:
            yield rng.integers(0, 2, size=(size, k)).astype(float) * 2.0 - 1.0


def _unit_shift(stats: np.ndarray) -> np.ndarray:
    """The binary exponent of the largest statistic in each row of the last
    axis, within +-1020 so that 2^shift is a normal float.  Every Monte Carlo
    moment sums its squared statistics (squared norms, so >= 0) divided by
    2^shift, near 1, where near 1e-150 they do not underflow, and scales
    back by _scale_back.  A power of two scales sums, products and square
    roots exactly, so moments whose unscaled sums stay normal keep their
    bits."""
    return np.minimum(np.maximum(np.frexp(np.max(stats, axis=-1))[1], -1020), 1020)


def _scale_back(shift, mean, error) -> tuple[np.ndarray, np.ndarray]:
    """mean and error at the scale of the statistics: inf where that
    overflows, and a mean that is inf (an infinite statistic, whose
    exponent is 0) has an infinite error, not nan."""
    with np.errstate(over="ignore"):
        scale = np.exp2(shift)
        mean, error = mean * scale, error * scale
    return mean, np.where(np.isposinf(mean), np.inf, error)


def _estimate_from_moments(batches: Iterable[np.ndarray]) -> SumEstimate:
    """Monte Carlo estimate from the (size,) statistics of draw batches: their
    sum and sum of squares, added up batch by batch in batch order at the
    first batch's unit shift."""
    n = total = total_sq = 0
    for stats in batches:
        if n == 0:
            shift = _unit_shift(stats)
            unit = np.exp2(-shift)
        stats = stats * unit
        n += stats.size
        total += float(np.sum(stats))
        total_sq += float(np.sum(stats * stats))
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    value, error = _scale_back(shift, mean, np.sqrt(var / n))
    return SumEstimate(float(value), float(error), n, METHOD_MONTE_CARLO)


def _path_moments(path_stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Path mean and ddof-1 std error over the last axis, for each row of a
    (..., paths) array, at unit shift; the error is 0 for a single path.
    numpy reduces a contiguous last axis row by row, so every row gets the
    bits of a one-row call."""
    m = path_stats.shape[-1]
    if m < 2:  # the mean of one path is its statistic, exactly
        return path_stats[..., 0].copy(), np.zeros(path_stats.shape[:-1])
    shift = _unit_shift(path_stats)
    scaled = path_stats * np.exp2(-shift)[..., None]
    mean = np.mean(scaled, axis=-1)
    return _scale_back(shift, mean, np.std(scaled, axis=-1, ddof=1) / np.sqrt(m))


def _estimate_from_path_stats(path_stats: np.ndarray) -> SumEstimate:
    value, se = _path_moments(path_stats)
    return SumEstimate(
        value=float(value),
        std_error=float(se),
        samples=int(path_stats.size),
        method=METHOD_MONTE_CARLO,
    )


def _monte_carlo_moment(
    values: np.ndarray, space, stream: RandomStream, samples: int, kind: str
) -> SumEstimate:
    """Plain-space MC estimate of E||sum_n c_n x_n||^2 with batched substreams."""
    batches = _coefficient_batches(stream, samples, values.shape[0], kind)
    return _estimate_from_moments(space.norm_sq(coeffs @ values) for coeffs in batches)


def _path_norm_sq(base, n_paths: int, dim: int):
    """base.norm_sq of ensemble values flattened to (..., n_paths * dim)
    rows, as (..., n_paths) path statistics."""
    return lambda rows: base.norm_sq(rows.reshape(rows.shape[:-1] + (n_paths, dim)))


def _empirical_moment(
    values: np.ndarray, space: EmpiricalL2Space, stream, samples: int, kind: str
) -> SumEstimate:
    """Ensemble-valued estimate: exact over signs where possible, std error over paths."""
    k, n_paths, dim = values.shape
    base = space.base
    if base.is_hilbert:
        # coefficient cross terms vanish in the Hilbert case, for Gaussian and
        # Rademacher coefficients alike
        path_stats = np.sum(base.norm_sq(values), axis=0)
        return _estimate_from_path_stats(path_stats)
    flat = values.reshape(k, n_paths * dim)
    path_norm_sq = _path_norm_sq(base, n_paths, dim)
    if kind == "rademacher" and k <= ENUMERATION_LIMIT:
        return _estimate_from_path_stats(_sign_average(flat, path_norm_sq))
    # Monte Carlo over coefficients, still paired over paths
    path_sums = np.zeros(n_paths)
    drawn = 0
    for coeffs in _coefficient_batches(stream, samples, k, kind):
        path_sums += np.sum(path_norm_sq(coeffs @ flat), axis=0)
        drawn += coeffs.shape[0]
    return _estimate_from_path_stats(path_sums / drawn)


@lru_cache(maxsize=64)
def _sign_patterns(k: int) -> np.ndarray:
    """All sign patterns on k coefficients up to global flip: 2^(k-1) rows with
    the first sign +1.  Averages of ||sum e_m x_m||^2 over these rows equal the
    average over all 2^k patterns."""
    if k > ENUMERATION_LIMIT:
        raise ValueError(f"sign enumeration is capped at {ENUMERATION_LIMIT} coefficients")
    half = 1 << (k - 1)
    idx = np.arange(half, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(k - 1, dtype=np.int64)[None, :]) & 1
    patterns = np.empty((half, k))
    patterns[:, 0] = 1.0
    patterns[:, 1:] = 1.0 - 2.0 * bits
    patterns.setflags(write=False)
    return patterns


def _sign_sweep(values: np.ndarray, norm_sq) -> Iterator[np.ndarray]:
    """norm_sq(sum_m e_m x_m) for the sign patterns e of _sign_patterns, in
    pattern order.  values holds one flattened x_m per row; norm_sq maps the
    (patterns, m) combinations to statistics indexed by pattern on axis 0.
    Patterns are met in chunks of at most _CHUNK_FLOATS combined floats."""
    patterns = _sign_patterns(values.shape[0])
    chunk = max(1, _CHUNK_FLOATS // max(1, values.shape[1]))
    for start in range(0, patterns.shape[0], chunk):
        yield norm_sq(patterns[start : start + chunk] @ values)


def _sign_average(values: np.ndarray, norm_sq):
    """Average over all sign patterns e of norm_sq(sum_m e_m x_m), the chunk
    sums of _sign_sweep added in pattern order at the unit shift
    (_unit_shift) of the largest statistic so far, the total so far scaled
    down exactly when a chunk raises it, and scaled back, so that a finite
    average does not overflow in its sum."""
    shift, total = -1020, 0.0
    for stats in _sign_sweep(values, norm_sq):
        top = max(shift, int(_unit_shift(np.ravel(stats))))
        total, shift = np.ldexp(total, shift - top), top
        total += np.sum(np.ldexp(stats, -shift), axis=0)
    return np.ldexp(total / (1 << (values.shape[0] - 1)), shift)


def _atom_sign_table(values: np.ndarray, norm_sq) -> np.ndarray:
    """T[e] = norm_sq(sum_n e_n x_n) over the atom sign patterns of
    _sign_patterns(N): atom n > 0 is flipped where bit n - 1 of e is set."""
    return np.concatenate(list(_sign_sweep(values, norm_sq)))


def _subgroup_rows(masks: np.ndarray, floats: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The atom-sign table rows of the sign subgroup H_G of each mask row:
    the patterns that flip whole blocks other than block 0, which holds atom
    0, flipping a set of blocks being row (sum of their masks) >> 1.  Yields
    (mask rows, table rows) pairs whose gathers of floats per table row
    hold at most _ENSEMBLE_CHUNK_FLOATS."""
    k = masks.shape[1]
    step = max(1, _ENSEMBLE_CHUNK_FLOATS // (floats << (k - 1)))
    shifted = masks[:, 1:] >> 1
    for start in range(0, masks.shape[0], step):
        part = shifted[start : start + step]
        rows = np.zeros((part.shape[0], 1), dtype=masks.dtype)
        for m in range(k - 1):
            rows = np.concatenate((rows, rows + part[:, m, None]), axis=1)
        yield slice(start, start + step), rows


def _table_rounding_bound(values: np.ndarray, base) -> float:
    """A bound on |table mean - rademacher_sum_sq value| over the groupings
    of (N, d) values, or of their path means for (N, paths, d) values; 0 in
    a Hilbert base, where both routes take the same closed form.

    With A = sum_n ||x_n|| on a path and u = 2^-53: both routes add each
    coordinate of a signed sum Y in at most N - 1 steps, so ||Y' - Y|| <=
    N u A in these lattice norms.  The norm rounds by (d + 2) u relative
    plus nu = (d 2^-1074)^(1/p) where p-th powers underflow (0 for l1 and
    linf), the square by u and 2^-1074: ||Y||^2 is off by at most
    (2N + 2d + 7) u B^2 + 3 nu B, B = A + nu.  The mean over <= 2^(N-1)
    patterns adds 2^(N-1) u B^2, the pairwise mean over paths
    (log2(paths) + 20) u B^2.  c = 4 doubles this for the two routes, and
    again for second-order terms.

    The means may come in either order: rademacher_sum_sq averages each
    path's patterns first, the ensemble kernel (_sign_table_moments) each
    pattern's paths.  Both sum the same statistics, each in [0, B^2], by a
    pattern sum and a pairwise path sum, and a sum of nonnegative terms
    errs by at most its depth times u times its value, so the same two
    terms bound either order.  Unit shifts (_unit_shift) are exact on
    normal floats.

    The bound is 0 for (N, d) values where every signed sum of atoms is
    exact: each value column holds one nonzero value at most (disjoint
    supports), or only integers whose absolute sum is below 2^53.  Both
    routes then norm the same vectors and add the same statistics in the
    same order, as long as rademacher_sum_sq sweeps its patterns in one
    chunk (_sign_sweep).  The ensemble kernel's means come in the other
    order, so ensembles outside a Hilbert base never get 0."""
    if base.is_hilbert:
        return 0.0
    n_atoms, dim = values.shape[0], values.shape[-1]
    flat = values.reshape(n_atoms, -1)
    single = np.count_nonzero(flat, axis=0) <= 1
    integral = np.all(flat == np.round(flat), axis=0) & (np.sum(np.abs(flat), axis=0) < 2.0**53)
    exact = values.ndim == 2 and np.all(single | integral)
    if exact and flat.shape[1] << (n_atoms - 1) <= _CHUNK_FLOATS:
        return 0.0
    paths = values.shape[1] if values.ndim == 3 else 1
    tiny = np.finfo(float).smallest_subnormal
    nu = 0.0 if base.p == 1.0 or math.isinf(base.p) else (dim * tiny) ** (1.0 / base.p)
    terms = 2 * n_atoms + 2 * dim + (1 << (n_atoms - 1)) + math.log2(paths) + 28
    with np.errstate(over="ignore"):
        reach = np.sum(base.norm(values), axis=0) + nu
        # B^2 at unit scale: a bound past the largest float where the
        # moments stay finite would keep every partition near the top
        shift = int(_unit_shift(np.ravel(reach)))
        unit = reach * 2.0**-shift
        error = np.ldexp(terms * 2.0**-53 * np.mean(unit * unit), 2 * shift)
        error += 3.0 * nu * np.mean(reach) + tiny
    return 4.0 * float(error)


def _block_counts(masks: np.ndarray) -> np.ndarray:
    """Nonzero blocks per mask row, thrice as fast as count_nonzero."""
    return (masks != 0) @ np.ones(masks.shape[1], dtype=np.int16)


def _ensemble_moments(
    arr: np.ndarray, masks: np.ndarray, space: EmpiricalL2Space
) -> tuple[np.ndarray, np.ndarray]:
    """E || sum_m r_m G(B_m) ||^2 with Rademacher r_m and block sums G(B),
    for each row of block masks over (N, paths, d) ensemble values in an
    EmpiricalL2Space: the path means and their std errors.

    masks has the layout of groupings.grouping_labels: a row of N atom
    bitmasks per set partition, block m in column m, 0 past the last.  A
    row of more than ENUMERATION_LIMIT blocks outside a Hilbert base raises
    ValueError before any sum.  A Hilbert base gives rademacher_sum_sq's
    bits (_hilbert_moments), others lie within _table_rounding_bound of it
    (_sign_table_moments)."""
    n_blocks = _block_counts(masks)
    if not space.is_hilbert and np.any(n_blocks > ENUMERATION_LIMIT):
        raise ValueError(
            f"sign enumeration is capped at {ENUMERATION_LIMIT} blocks, got {n_blocks.max()}"
        )
    return _ensemble_screen(arr, space)(masks)


def _ensemble_screen(arr: np.ndarray, space):
    """_ensemble_moments of one measure as a function of the masks, with
    what every row shares built once: block norms in a Hilbert base
    (_hilbert_moments), else the atom-sign table's statistics
    (_sign_table_moments), or one rademacher_sum_sq per row where T or C
    would not fit.  (N, d) values with a NormedSpace are one path."""
    if not isinstance(space, EmpiricalL2Space):
        arr, space = arr[:, None], EmpiricalL2Space(space)
    n_atoms, n_paths = arr.shape[:2]
    if space.is_hilbert:
        return _hilbert_moments(arr, space.base.norm_sq)
    half = 1 << (n_atoms - 1)
    if n_atoms <= ENUMERATION_LIMIT and half * max(half, n_paths) <= _ENSEMBLE_TABLE_FLOATS:
        return _sign_table_moments(arr, space)

    def one_row_at_a_time(masks):
        found = [
            rademacher_sum_sq(np.stack([_block_sum(arr, _mask_atoms(m)) for m in row if m]), space)
            for row in masks.tolist()
        ]
        return np.array([e.value for e in found]), np.array([e.std_error for e in found])

    return one_row_at_a_time


def _block_norms(arr: np.ndarray, blocks: Sequence[int], norm_sq) -> np.ndarray:
    """Per-path squared norms of each nonzero block mask, a row each."""
    table = np.empty((len(blocks), arr.shape[1]))
    for row, block in enumerate(blocks):
        table[row] = norm_sq(_block_sum(arr, _mask_atoms(block)))
    return table


def _summed_moments(table: np.ndarray, masks: np.ndarray, blocks=None):
    """Path moments of each mask row's sum over its blocks of their table
    rows: row i holds sorted blocks[i], or mask value i + 1 without blocks.
    Gathers hold at most _ENSEMBLE_CHUNK_FLOATS, or one row's blocks."""
    n_blocks = _block_counts(masks)
    value, error = np.empty(masks.shape[0]), np.empty(masks.shape[0])
    for k in np.flatnonzero(np.bincount(n_blocks)).tolist():
        members = np.flatnonzero(n_blocks == k)
        step = max(1, _ENSEMBLE_CHUNK_FLOATS // (k * table.shape[1]))
        for start in range(0, members.size, step):
            piece = members[start : start + step]
            part = masks[piece, :k]
            index = part - 1 if blocks is None else np.searchsorted(blocks, part)
            value[piece], error[piece] = _path_moments(np.sum(table[index], axis=1))
    return value, error


def _hilbert_moments(arr: np.ndarray, norm_sq):
    """_ensemble_moments in a Hilbert base as a function of the masks: each
    row's per-path statistics sum_m ||G(B_m)||^2, summed as the closed form
    of rademacher_sum_sq sums them, in block order over two or more paths
    and pairwise, as contiguous norms, on one.  Tables of block norms hold
    at most _ENSEMBLE_TABLE_FLOATS and norm each block once.  Where all
    2^N - 1 blocks fit (searches up to 12 atoms on up to 1024 paths) one
    table is built up front; else runs of rows, halved until their distinct
    blocks fit, take one each, and a lone row past the budget norms and
    adds its blocks one at a time."""
    n_atoms, n_paths = arr.shape[:2]
    max_rows = max(1, _ENSEMBLE_TABLE_FLOATS // n_paths)
    if (1 << n_atoms) - 1 <= max_rows:
        return partial(_summed_moments, _block_norms(arr, range(1, 1 << n_atoms), norm_sq))

    def moments(masks):
        value, error = np.empty(masks.shape[0]), np.empty(masks.shape[0])
        pending = [slice(0, masks.shape[0])]
        while pending:
            rows = pending.pop()
            part = masks[rows]
            blocks = np.unique(part[part != 0])
            if blocks.size <= max_rows:
                table = _block_norms(arr, blocks.tolist(), norm_sq)
                value[rows], error[rows] = _summed_moments(table, part, blocks)
            elif rows.stop - rows.start > 1:
                middle = (rows.start + rows.stop) // 2
                pending += [slice(middle, rows.stop), slice(rows.start, middle)]
            else:
                norms = (norm_sq(_block_sum(arr, _mask_atoms(b))) for b in part[0].tolist() if b)
                # in the order in which np.sum adds a gathered row's blocks
                total = reduce(np.add, norms) if n_paths > 1 else np.sum(list(norms), axis=0)
                value[rows], error[rows] = _path_moments(total[None])
        return value, error

    return moments


def _sign_table_moments(arr: np.ndarray, space: EmpiricalL2Space):
    """_ensemble_moments outside a Hilbert base as a function of the masks,
    from the atom-sign table T of all N atoms, (2^(N-1), paths), built once:
    scaled to unit size (_unit_shift) and centred in place.  A row's
    per-path statistic is the mean of T over its subgroup rows H
    (_subgroup_rows), so its path mean is the mean over H of T's path mean
    m, and its path variance sum C[H, H] / |H|^2 with C = T_c T_c^T /
    (paths - 1); gathers hold <= _ENSEMBLE_CHUNK_FLOATS.  One path, as the
    search sees (N, d) values, has no variance and gathers m alone."""
    n_atoms, n_paths, dim = arr.shape
    norm_sq = _path_norm_sq(space.base, n_paths, dim)
    table = _atom_sign_table(arr.reshape(n_atoms, n_paths * dim), norm_sq)
    shift = _unit_shift(np.ravel(table))
    table *= np.exp2(-shift)
    mean = np.mean(table, axis=1)
    cov = None
    if n_paths > 1:
        table -= mean[:, None]
        # einsum runs numpy's own loops, as a BLAS product's packing buffers
        # raised the peak memory of a run
        cov = np.einsum("ip,jp->ij", table, table) / (n_paths - 1)
    del table

    def moments(masks):
        n_blocks = _block_counts(masks)
        value, var = np.empty(masks.shape[0]), np.zeros(masks.shape[0])
        for k in np.flatnonzero(np.bincount(n_blocks)).tolist():
            members = np.flatnonzero(n_blocks == k)
            floats = 1 if cov is None else 1 << (k - 1)
            for piece, rows in _subgroup_rows(masks[members, :k], floats):
                value[members[piece]] = np.sum(mean[rows], axis=1) / rows.shape[1]
                if cov is not None:
                    gathered = cov[rows[:, :, None], rows[:, None, :]]
                    var[members[piece]] = np.sum(gathered, axis=(1, 2)) / rows.shape[1] ** 2
        return _scale_back(shift, value, np.sqrt(np.maximum(var, 0.0) / n_paths))

    return moments


def _hilbert_moment(arr: np.ndarray, space) -> SumEstimate:
    """The exact Hilbert-space moment sum_n ||x_n||_2^2."""
    return SumEstimate(
        value=float(np.sum(space.norm_sq(arr))),
        std_error=0.0,
        samples=0,
        method=METHOD_EXACT_HILBERT,
    )


def has_covariance_moment(space) -> bool:
    """Whether covariance_moment has a closed form for the space: l1 in any
    dimension, linf in the plane."""
    return space.p == 1.0 or (math.isinf(space.p) and space.dim == 2)


def _abs_product_moments(var_u, var_v, cov_uv) -> np.ndarray:
    """E|U V| of centred Gaussian pairs with the given variances and
    covariances (Nabeya 1951): (2/pi) sqrt(var_u var_v) (sqrt(1 - r^2) +
    r asin r) with correlation r, clipped to [-1, 1] against rounding; 0 when
    either variance is 0."""
    scale = np.sqrt(np.multiply(var_u, var_v))
    r = np.divide(cov_uv, scale, out=np.zeros_like(scale), where=scale > 0.0)
    r = np.clip(r, -1.0, 1.0)
    return (2.0 / math.pi) * scale * (np.sqrt(1.0 - r * r) + r * np.arcsin(r))


def covariance_moment(cov: np.ndarray, space) -> float:
    """E ||Y||^2 of a centred Gaussian Y in R^d with covariance cov (d x d),
    exactly, where has_covariance_moment(space) holds.

    l1: (sum_i |Y_i|)^2 has mean sum_i S_ii + 2 sum_{i<j} E|Y_i Y_j|.
    linf, d = 2: max(a^2, b^2) = (a^2 + b^2)/2 + |(a - b)(a + b)|/2, and
    U = Y_0 - Y_1, V = Y_0 + Y_1 are again a centred Gaussian pair.
    """
    if not has_covariance_moment(space):
        raise ValueError(f"no covariance closed form for {space!r}")
    peak = float(np.max(np.abs(np.diagonal(cov))))
    if peak == math.inf:
        # an infinite variance (an overflowed cov) makes the moment infinite
        return math.inf
    # the moment is linear in cov; far from 1 the products of two variances
    # would under- or overflow, so scale cov by an exact power of two first
    if peak > 0.0 and not _SAFE_SCALE_MIN <= peak <= _SAFE_SCALE_MAX:
        shift = math.frexp(peak)[1]
        moment = covariance_moment(np.ldexp(cov, -shift), space)
        try:
            return math.ldexp(moment, shift)
        except OverflowError:
            return math.inf
    if space.p == 1.0:
        diag = np.diagonal(cov)
        i, j = np.triu_indices(space.dim, 1)
        cross = _abs_product_moments(diag[i], diag[j], cov[i, j])
        return float(np.sum(diag) + 2.0 * np.sum(cross))
    s00, s01, s11 = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])
    trace = s00 + s11
    # rounding can leave a degenerate direction's variance slightly negative
    var_u, var_v = max(trace - 2.0 * s01, 0.0), max(trace + 2.0 * s01, 0.0)
    return float(trace / 2.0 + _abs_product_moments(var_u, var_v, s00 - s11) / 2.0)


def gaussian_sum_sq(
    values, space, stream: RandomStream | None = None, samples: int = 0
) -> SumEstimate:
    """E || sum_n g_n x_n ||^2 for independent standard Gaussian g_n.

    Hilbert spaces use the exact closed form sum_n ||x_n||_2^2; everything else
    is Monte Carlo and requires a stream and samples >= 2.  Ensemble values
    (EmpiricalL2Space) always carry a path-level std error.
    """
    arr = _check_values(values, space)
    if isinstance(space, EmpiricalL2Space):
        return _empirical_moment(arr, space, stream, samples, "gaussian")
    if space.is_hilbert:
        return _hilbert_moment(arr, space)
    return _monte_carlo_moment(arr, space, stream, samples, "gaussian")


def rademacher_sum_sq(
    values, space, stream: RandomStream | None = None, samples: int = 0
) -> SumEstimate:
    """E || sum_n r_n x_n ||^2 for independent Rademacher signs r_n.

    Hilbert closed form when available; exact enumeration of all sign patterns
    for at most ENUMERATION_LIMIT coefficients; Monte Carlo otherwise.
    """
    arr = _check_values(values, space)
    if isinstance(space, EmpiricalL2Space):
        return _empirical_moment(arr, space, stream, samples, "rademacher")
    if space.is_hilbert:
        return _hilbert_moment(arr, space)
    if arr.shape[0] <= ENUMERATION_LIMIT:
        return SumEstimate(
            value=float(_sign_average(arr, space.norm_sq)),
            std_error=0.0,
            samples=0,
            method=METHOD_EXACT_ENUMERATION,
        )
    return _monte_carlo_moment(arr, space, stream, samples, "rademacher")
