"""Second moments of random signed sums: exact paths and seeded Monte Carlo.

The quantity of interest is E || sum_n c_n x_n ||^2 where the coefficients are
either independent standard Gaussians or independent Rademacher signs and the
x_n live in a normed space.  Exact routes: the Hilbert closed form
sum_n ||x_n||_2^2, full sign enumeration for small families, and a Gaussian
sum's moment from its covariance (covariance_moment): a closed form in l1
and the plane's linf, an angular quadrature in linf(3).  Everything else
is Monte Carlo with a reproducible substream layout: an estimate is a deterministic function of
(seed, stream_id, samples), independent of thread count, because draws are
generated in a fixed number of batches with one substream per batch and
combined in batch order, at unit scale (_unit_shift).  A stream's generator
is PCG64 on numpy's SeedSequence(seed, spawn_key=stream_id), its hashing
computed incrementally along substream chains, bit for bit.

Batched Rademacher moments take set partitions as rows of block masks, in
the layout of groupings.grouping_labels (_ensemble_moments).  Outside
Hilbert bases they come from one table per measure: a partition's sign
patterns are the atom sign vectors constant on its blocks, a subgroup H_G of
{+-1}^N, so its moment is the mean over H_G of T[e] = ||sum_n e_n x_n||^2,
within _table_screen's bound of rademacher_sum_sq of the block sums.  In a
Hilbert base a table of every block's squared norms gives the closed form.
On a path ensemble a moment's path mean and variance are forms in the path
sums and centred path covariance of its table, which come chunk by chunk
of paths (_ensemble_screen); (N, d) values are one path.  The partitions
near the top of a search are decided from their per-path statistics
(_ensemble_decide).  Every ensemble kernel reads its paths from a chunk
source, so no (N, paths, d) ensemble is ever held.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator

import numpy as np

from .groupings import Grouping, _block_sum, _mask_atoms, block_sums

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
# Gauss-Legendre nodes per polar piece of the linf(3) quadrature.
_POLAR_NODES = 20
# The polar cuts of every linf(3) quadrature: the pole, multiples of pi/8
# and the equator.
_POLAR_CUTS = np.arange(5) * (math.pi / 8.0)
_KINK_SIGNS = np.array([1.0] * 3 + [-1.0] * 3)[:, None]
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
METHOD_EXACT_QUADRATURE = "exact_quadrature"
METHOD_MONTE_CARLO = "monte_carlo"


# numpy's SeedSequence hashing (NEP 19): the start and multiplier of the
# hash constant of its pool and of generate_state, and its mix multipliers
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _uint32_words(n) -> list[int]:
    """An entropy integer as SeedSequence's 32-bit words, lowest first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_pool(seed) -> tuple[list[int], int]:
    """SeedSequence(seed)'s pool and hash constant, 4 hashes per seed word
    and at least 16: numpy hashes zeros into the slots a short seed leaves
    with or without a spawn key."""
    hash_const = _INIT_A * pow(_MULT_A, 4 * max(4, len(_uint32_words(seed))), 1 << 32)
    return np.random.SeedSequence(seed).pool.tolist(), hash_const & _MASK32


def _mix_in(pool: list[int], hash_const: int, words: list[int]) -> tuple[list[int], int]:
    """SeedSequence's pool past its first four entropy words: each further
    word, hashed anew for each pool word, is mixed into it in turn."""
    for word in words:
        mixed = []
        for x in pool:
            value = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            x = _MIX_L * x - _MIX_R * (value ^ value >> 16) & _MASK32
            mixed.append(x ^ x >> 16)
        pool = mixed
    return pool, hash_const


@lru_cache(maxsize=1)
def _pool_seed_class():
    """numpy's ISeedSequence on a SeedSequence pool, defined at the first
    draw, where numpy.random is first imported."""
    from numpy.random.bit_generator import ISeedSequence

    class PoolSeed(ISeedSequence):
        def __init__(self, pool: list[int]):
            self.pool = pool

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            """SeedSequence.generate_state: the pool's words in turn, each
            hashed with the next constant; a uint64 word is a little-endian
            pair of them."""
            wide = np.dtype(dtype) == np.uint64
            hash_const, words = _INIT_B, []
            for i in range(n_words << wide):
                value = self.pool[i & 3] ^ hash_const
                hash_const = hash_const * _MULT_B & _MASK32
                value = value * hash_const & _MASK32
                words.append(value ^ value >> 16)
            state = np.array(words, "<u4").view("<u8" if wide else "<u4")
            return state.astype(dtype, copy=False)

    return PoolSeed


@dataclass(frozen=True)
class RandomStream:
    """Addressable randomness: (seed, stream_id) pins every draw bit-exactly.

    stream_id may be an int or a tuple of ints; substream(k) appends k, so a
    tree of fan-outs never collides.  The generator is PCG64 seeded by
    numpy's SeedSequence(seed, spawn_key=stream_id), bit for bit, from the
    same hashing computed incrementally: SeedSequence mixes the spawn key's
    words into its pool one at a time, so a substream mixes its k into its
    parent's pool, once, at its first draw, and builds no SeedSequence.
    """

    seed: int
    stream_id: tuple[int, ...] = (0,)

    def __post_init__(self):
        sid = self.stream_id
        if isinstance(sid, int):
            sid = (sid,)
        object.__setattr__(self, "stream_id", tuple(int(s) for s in sid))

    def _pool(self) -> tuple[list[int], int]:
        """The stream's SeedSequence pool and hash constant, mixed once."""
        if "_mixed" not in self.__dict__:
            parent = self.__dict__.get("_parent")
            if parent is None:
                pool, ids = _seed_pool(self.seed), self.stream_id
            else:
                pool, ids = parent._pool(), self.stream_id[-1:]
            words = [w for k in ids for w in _uint32_words(k)]
            object.__setattr__(self, "_mixed", _mix_in(*pool, words))
        return self._mixed

    def generator(self) -> np.random.Generator:
        seed_sequence = _pool_seed_class()(self._pool()[0])
        return np.random.Generator(np.random.PCG64(seed_sequence))

    def substream(self, k: int) -> "RandomStream":
        # the parent's fields are normalized already: skip __init__
        child = object.__new__(RandomStream)
        child.__dict__.update(seed=self.seed, stream_id=self.stream_id + (int(k),), _parent=self)
        return child


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
            METHOD_EXACT_QUADRATURE,
        )


@dataclass(frozen=True)
class Comparison:
    """Outcome of a z-test between two estimates of the same quantity."""

    consistent: bool
    gap: float
    tolerance: float
    z: float


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
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"values must be a nonempty (N, d) array, got shape {arr.shape}")
    if arr.shape[-1] != space.dim:
        raise ValueError(
            f"value dimension {arr.shape[-1]} does not match space dim {space.dim}"
        )
    return arr


def _coefficient_batches(
    streams: list, samples: int, k: int, kind: str
) -> Iterator[np.ndarray]:
    """Coefficient draws of shape (len(streams), size, k), "gaussian" or
    "rademacher", in the N_BATCHES fixed batches, row t of a batch drawn in
    place from streams[t]'s substream of the batch; no batch is held past
    its yield."""
    if samples < MIN_SAMPLES or any(stream is None for stream in streams):
        raise ValueError(
            "Monte Carlo estimation requires a RandomStream and at least "
            f"{MIN_SAMPLES} samples"
        )
    base, extra = divmod(samples, N_BATCHES)
    # batches past the sample count are empty and get no substream
    for batch in range(min(samples, N_BATCHES)):
        block = np.empty((len(streams), base + (1 if batch < extra else 0), k))
        for t, stream in enumerate(streams):
            rng = stream.substream(batch).generator()
            if kind == "gaussian":
                rng.standard_normal(out=block[t])
            else:
                block[t] = rng.integers(0, 2, size=block.shape[1:]) * 2.0 - 1.0
        yield block
        del block


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


def _estimate_from_moments(batches: Iterable[np.ndarray]):
    """Monte Carlo means and std errors of each row of the (..., size)
    statistics of draw batches, with the sample count: their sums and sums
    of squares, added up batch by batch in batch order at the first
    batch's unit shift of the row."""
    n = total = total_sq = 0
    for stats in batches:
        if n == 0:
            shift = _unit_shift(stats)
            unit = np.exp2(-shift)[..., None]
        stats = stats * unit
        n += stats.shape[-1]
        total = total + np.sum(stats, axis=-1)
        total_sq = total_sq + np.sum(stats * stats, axis=-1)
    mean = total / n
    var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
    return _scale_back(shift, mean, np.sqrt(var / n)) + (n,)


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
    return SumEstimate(*map(float, _path_moments(path_stats)), path_stats.size, METHOD_MONTE_CARLO)


def _draw_blocks(count: int, samples: int, k: int) -> Iterator[slice]:
    """Consecutive blocks of count items, trials or groupings, whose samples
    x k floats each fit _ENSEMBLE_CHUNK_FLOATS, one item at least (blocks
    whose one batch filled it ran lp sums 30 % slower)."""
    step = max(1, _ENSEMBLE_CHUNK_FLOATS // (max(1, samples) * k))
    return (slice(start, start + step) for start in range(0, count, step))


def _monte_carlo_moments(values: np.ndarray, space, streams: list, samples: int, kind: str):
    """Plain-space MC means, std errors and sample count of E||sum_n c_n x_n||^2
    for each (N, d) family of a (trials, N, d) stack, trial t drawing the
    batches of streams[t].  Each block of _draw_blocks takes one stacked
    product a batch, matrix by matrix, so each trial keeps its own
    estimate's bits."""
    trials, k = values.shape[:2]
    means, errors = np.empty(trials), np.empty(trials)
    for block in _draw_blocks(trials, samples, k):
        batches = _coefficient_batches(streams[block], samples, k, kind)
        # map holds no batch while the next one is drawn
        stats = map(lambda coeffs, rows=values[block]: space.norm_sq(coeffs @ rows), batches)
        means[block], errors[block], n = _estimate_from_moments(stats)
    return means, errors, n


def _path_norm_sq(base, n_paths: int, dim: int):
    """base.norm_sq of ensemble values flattened to (..., n_paths * dim)
    rows, as (..., n_paths) path statistics."""
    return lambda rows: base.norm_sq(rows.reshape(rows.shape[:-1] + (n_paths, dim)))


def _path_spans(n_paths: int, chunk: int) -> Iterator[slice]:
    """Consecutive spans of at most chunk paths, except that a span that
    would leave one path over takes it too: numpy adds the atoms and the
    blocks of a lone path in another order than those of two or more, so
    per-path statistics of every span keep the bits of the whole
    ensemble's."""
    start = 0
    while start < n_paths:
        stop = start + chunk
        stop = n_paths if n_paths - stop <= 1 else stop
        yield slice(start, stop)
        start = stop


def _rademacher_path_stats(values: np.ndarray, base, width: int) -> np.ndarray:
    """The per-path statistics of (k, paths, d) block values whose path
    mean is their Rademacher moment: the sum of the blocks' squared norms
    in a Hilbert base, else the average over the sign patterns
    (_sign_average), met in chunks of _CHUNK_FLOATS over width floats a
    pattern.  Every statistic is elementwise over paths, so a chunk of two
    or more paths that passes its ensemble's width keeps the bits of the
    whole ensemble's, as far as its products do."""
    if base.is_hilbert:
        return np.sum(base.norm_sq(values), axis=0)
    k, n_paths, dim = values.shape
    return _sign_average(values.reshape(k, -1), _path_norm_sq(base, n_paths, dim), width)


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


def _sign_sweep(values: np.ndarray, norm_sq, width: int | None = None) -> Iterator[np.ndarray]:
    """norm_sq(sum_m e_m x_m) for the sign patterns e of _sign_patterns, in
    pattern order.  values holds one flattened x_m per row; norm_sq maps the
    (patterns, m) combinations to statistics indexed by pattern on axis 0.
    Patterns are met in chunks of at most _CHUNK_FLOATS over width floats,
    a row's by default."""
    patterns = _sign_patterns(values.shape[0])
    chunk = max(1, _CHUNK_FLOATS // max(1, width or values.shape[1]))
    for start in range(0, patterns.shape[0], chunk):
        yield norm_sq(patterns[start : start + chunk] @ values)


def _sign_average(values: np.ndarray, norm_sq, width: int | None = None):
    """Average over all sign patterns e of norm_sq(sum_m e_m x_m), the chunk
    sums of _sign_sweep added in pattern order at the unit shift
    (_unit_shift) of the largest statistic so far, the total so far scaled
    down exactly when a chunk raises it, and scaled back, so that a finite
    average does not overflow in its sum."""
    shift, total = -1020, 0.0
    for stats in _sign_sweep(values, norm_sq, width):
        top = max(shift, int(_unit_shift(np.ravel(stats))))
        total, shift = np.ldexp(total, shift - top), top
        total += np.sum(np.ldexp(stats, -shift), axis=0)
    return np.ldexp(total / (1 << (values.shape[0] - 1)), shift)


def _atom_sign_table(values: np.ndarray, norm_sq) -> np.ndarray:
    """T[e] = norm_sq(sum_n e_n x_n) over the atom sign patterns of
    _sign_patterns(N): atom n > 0 is flipped where bit n - 1 of e is set."""
    return np.concatenate(list(_sign_sweep(values, norm_sq)))


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums of values (atom-indexed on axis 0) over every subset of the
    atoms, (2^N, ...), row mask, the empty subset's row 0.  Each subset adds
    its atoms in ascending order from 0, as _block_sum does, one atom at a
    time over the subsets of the atoms before it; one float per atom, which
    numpy sums pairwise, takes _block_sum itself."""
    n_atoms = values.shape[0]
    sums = np.zeros((1 << n_atoms,) + values.shape[1:])
    if values[0].size < 2:
        for m in range(1, 1 << n_atoms):
            sums[m] = _block_sum(values, _mask_atoms(m))
        return sums
    for atom in range(n_atoms):
        np.add(sums[: 1 << atom], values[atom], out=sums[1 << atom : 2 << atom])
    return sums


def _block_table(chunk: np.ndarray, base) -> np.ndarray:
    """Squared norms of the sums of every nonempty block of the chunk's
    atoms, (2^N - 1, paths), row mask - 1 (_subset_sums)."""
    return base.norm_sq(_subset_sums(chunk)[1:])


def _table_size(n_atoms: int, hilbert: bool) -> int:
    """Rows of a measure's table: every nonempty block in a Hilbert base,
    else the atom sign patterns."""
    return (1 << n_atoms) - 1 if hilbert else 1 << (n_atoms - 1)


def _ensemble_chunk(n_atoms: int, dim: int, table_rows: int) -> int:
    """Paths per chunk of an ensemble pass: about _ENSEMBLE_CHUNK_FLOATS
    floats a chunk for the larger of its values and its table's block
    sums or sign combinations, in a multiple of 8 paths.  OpenBLAS takes
    the rows of a matrix-vector product in groups, so a chunk of any
    other size can move the bits of a one-column integral (N >= 8)."""
    return 8 * max(1, _ENSEMBLE_CHUNK_FLOATS // (8 * max(n_atoms, table_rows) * dim))


def _reach(values: np.ndarray, base) -> float:
    """The largest sum over atoms of their norms on one path."""
    with np.errstate(over="ignore"):
        return float(np.max(np.sum(base.norm(values), axis=0)))


def _rounding_bound(reach: float, n_atoms: int, dim: int, base, paths: int, chunks: int) -> float:
    """A bound on |table moment - per-path moment| over the set
    partitions of N atoms in R^d, the per-path moment being the path mean
    of _rademacher_path_stats (rademacher_sum_sq's value on one path), for
    a table's path sums taken over paths in chunks, sequentially from
    chunk to chunk, where no sum of atom norms on a path passes reach.

    With A <= reach on a path and u = 2^-53: both routes add each
    coordinate of a signed sum Y in at most N - 1 steps, so ||Y' - Y|| <=
    N u A in these lattice norms.  The norm rounds by (d + 2) u relative
    plus nu = (d 2^-1074)^(1/p) where p-th powers underflow (0 for l1 and
    linf), the square by u and 2^-1074: ||Y||^2 is off by at most
    (2N + 2d + 7) u B^2 + 3 nu B, B = A + nu.  The mean over <= 2^(N-1)
    patterns or N blocks adds 2^(N-1) u B^2, the pairwise mean over the
    paths of a chunk (log2(paths) + 20) u B^2, and the chunks one u B^2
    each.  c = 4 doubles this for the two routes, and again for
    second-order terms.

    The means may come in either order: the per-path route averages each
    path's patterns or adds its blocks first, the tables (_ensemble_screen)
    take each pattern's or block's path mean first.  Both sum the same
    statistics, each in [0, B^2], by a pattern or block sum and a path
    sum, and a sum of nonnegative terms errs by at most its depth times u
    times its value, so the same terms bound either order.  Unit shifts
    (_unit_shift) are exact on normal floats."""
    tiny = np.finfo(float).smallest_subnormal
    nu = 0.0 if base.p == 1.0 or math.isinf(base.p) else (dim * tiny) ** (1.0 / base.p)
    terms = 2 * n_atoms + 2 * dim + (1 << (n_atoms - 1)) + math.log2(paths) + chunks + 28
    reach += nu
    # B^2 at unit scale: a bound past the largest float where the moments
    # stay finite would keep every partition near the top
    shift = min(max(math.frexp(reach)[1], -1020), 1020)
    unit = reach * 2.0**-shift
    with np.errstate(over="ignore"):
        error = np.ldexp(terms * 2.0**-53 * unit * unit, 2 * shift) + 3.0 * nu * reach + tiny
    return 4.0 * float(error)


def _table_screen(values: np.ndarray, base):
    """_ensemble_screen of (N, d) values, one path in one chunk: the
    moments of set partitions given as mask rows, and their rounding
    bound (_rounding_bound) to rademacher_sum_sq of the block sums.

    The bound is 0 in a Hilbert base, where the table and
    rademacher_sum_sq add the same block norms in the same order, and
    where every signed sum of atoms is exact: each value column holds one
    nonzero value at most (disjoint supports), or only integers whose
    absolute sum is below 2^53.  Both routes then norm the same vectors
    and add the same statistics in the same order, as long as
    rademacher_sum_sq sweeps its patterns in one chunk (_sign_sweep)."""
    n_atoms, dim = values.shape
    moments, bound = _ensemble_screen(lambda: [values[:, None]], base, n_atoms)
    single = np.count_nonzero(values, axis=0) <= 1
    integral = np.all(values == np.round(values), axis=0) & (
        np.sum(np.abs(values), axis=0) < 2.0**53
    )
    exact = np.all(single | integral) and dim << (n_atoms - 1) <= _CHUNK_FLOATS
    return moments, 0.0 if base.is_hilbert or exact else bound


def _block_counts(masks: np.ndarray) -> np.ndarray:
    """Nonzero blocks per mask row, thrice as fast as count_nonzero."""
    return (masks != 0) @ np.ones(masks.shape[1], dtype=np.int16)


class _TableStats:
    """Path sums of the rows of a table of nonnegative path statistics that
    comes in chunks of (rows, paths), and with cross the centred
    cross-products of its rows: each chunk is scaled to the running unit
    shift (_unit_shift), the sums so far scaled down exactly when a chunk
    raises it, and centred on its own mean, its cross-products merged as
    Chan, Golub and LeVeque (1983) merge sample variances.  One chunk
    takes np.mean's path means and the covariance of its centred rows."""

    def __init__(self, cross: bool):
        self.cross, self.paths, self.shift = cross, 0, -1020
        self.sums = self.products = None

    def add(self, table: np.ndarray) -> None:
        """Fold in a (rows, paths) chunk, scaled and centred in place."""
        top = max(self.shift, int(_unit_shift(np.ravel(table))))
        if self.paths and top > self.shift:
            self.sums = np.ldexp(self.sums, self.shift - top)
            if self.products is not None:
                self.products = np.ldexp(self.products, 2 * (self.shift - top))
        self.shift = top
        table *= np.exp2(-top)
        n, before = table.shape[1], self.paths
        sums = np.sum(table, axis=1)
        if self.cross:
            mean = sums / n
            table -= mean[:, None]
            # einsum runs numpy's own loops, as a BLAS product's packing
            # buffers raised the peak memory of a run
            products = np.einsum("ip,jp->ij", table, table)
            if before:
                delta = mean - self.sums / before
                products += np.multiply.outer(delta, delta * (before * n / (before + n)))
                products += self.products
            self.products = products
        self.sums = sums if not before else self.sums + sums
        self.paths += n


def _table_rows(masks: np.ndarray, hilbert: bool, floats: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The table rows of each mask row of k blocks: its blocks' rows (mask
    - 1) in a Hilbert base, else the atom-sign table rows of its sign
    subgroup H_G, the patterns that flip whole blocks other than block 0,
    which holds atom 0, flipping a set of blocks being row (sum of their
    masks) >> 1.  Yields (mask rows, table rows) pairs whose gathers of
    floats per table row hold at most _ENSEMBLE_CHUNK_FLOATS."""
    k = masks.shape[1]
    width = k if hilbert else 1 << (k - 1)
    step = max(1, _ENSEMBLE_CHUNK_FLOATS // (floats * width))
    for start in range(0, masks.shape[0], step):
        if hilbert:
            yield slice(start, start + step), masks[start : start + step].astype(np.intp) - 1
            continue
        part = masks[start : start + step, 1:] >> 1
        rows = np.zeros((part.shape[0], 1), dtype=masks.dtype)
        for m in range(k - 1):
            rows = np.concatenate((rows, rows + part[:, m, None]), axis=1)
        yield slice(start, start + step), rows


def _ensemble_screen(chunks, base, n_atoms: int, cross: bool = False):
    """Moments of set partitions, given as rows of block masks in the
    layout of groupings.grouping_labels, over the ensemble chunks that
    chunks() yields, (N, paths, d) each, as a function of the masks; and a
    bound on their distance to the per-path moments (_rounding_bound).

    One pass folds a table per chunk into _TableStats: in a Hilbert base
    the squared norms of every block (_block_table), whose path means a
    row adds over its blocks, else the atom-sign table T
    (_atom_sign_table), whose path means a row averages over its sign
    subgroup (_table_rows).  With cross the std errors come from the
    table's path covariance C, as sqrt(sum C[H, H] / w^2 / paths) over
    the row's table rows H, its blocks (w = 1) or its subgroup (w = |H|);
    they are 0 without it or on one path.  Gathers hold <=
    _ENSEMBLE_CHUNK_FLOATS, and moments are taken at unit scale and
    scaled back."""
    hilbert = base.is_hilbert
    stats, reach, count = _TableStats(cross), 0.0, 0
    for chunk in chunks():
        n_paths, dim = chunk.shape[1:]
        if hilbert:
            table = _block_table(chunk, base)
        else:
            flat = chunk.reshape(n_atoms, n_paths * dim)
            table = _atom_sign_table(flat, _path_norm_sq(base, n_paths, dim))
        stats.add(table)
        reach, count = max(reach, _reach(chunk, base)), count + 1
    mean = stats.sums / stats.paths
    cov = None
    if cross and stats.paths > 1:
        cov = stats.products / (stats.paths - 1)

    def moments(masks):
        n_blocks = _block_counts(masks)
        value, var = np.empty(masks.shape[0]), np.zeros(masks.shape[0])
        for k in np.flatnonzero(np.bincount(n_blocks)).tolist():
            members = np.flatnonzero(n_blocks == k)
            floats = 1 if cov is None else (k if hilbert else 1 << (k - 1))
            for piece, rows in _table_rows(masks[members, :k], hilbert, floats):
                weight = 1 if hilbert else rows.shape[1]
                value[members[piece]] = np.sum(mean[rows], axis=1) / weight
                if cov is not None:
                    gathered = cov[rows[:, :, None], rows[:, None, :]]
                    var[members[piece]] = np.sum(gathered, axis=(1, 2)) / weight**2
        return _scale_back(stats.shift, value, np.sqrt(np.maximum(var, 0.0) / stats.paths))

    return moments, _rounding_bound(reach, n_atoms, dim, base, stats.paths, count)


def _ensemble_decide(chunks, base, n_atoms: int, n_paths: int):
    """decide(groupings): the Rademacher moment of the block sums of each
    grouping over the ensemble chunks that chunks() yields, (N, paths, d)
    each, as the path mean and std error of its per-path statistics
    (_rademacher_path_stats).  Each pass over the chunks fills the
    statistics of at most N (d + 1) groupings, as many (paths,) rows as
    the paths and contributions of the ensemble, and takes their path
    moments one row at a time; a pass's rows are released before the
    next pass."""

    def decide_batch(part):
        stats, at = np.empty((len(part), n_paths)), 0
        for chunk in chunks():
            span, at = slice(at, at + chunk.shape[1]), at + chunk.shape[1]
            width = n_paths * chunk.shape[2]
            for i, grouping in enumerate(part):
                stats[i, span] = _rademacher_path_stats(block_sums(chunk, grouping), base, width)
        return list(map(_estimate_from_path_stats, stats))

    def decide(groupings):
        step = n_atoms * (base.dim + 1)
        batches = (decide_batch(groupings[at : at + step]) for at in range(0, len(groupings), step))
        return [estimate for batch in batches for estimate in batch]

    return decide


def _ensemble_moments(
    chunks, masks: np.ndarray, base, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """E || sum_m r_m G(B_m) ||^2 with Rademacher r_m and block sums G(B),
    for each row of block masks over an ensemble of n_paths paths of
    values in the base space: the path means and their std errors.
    chunks(size) yields the ensemble's (N, paths, d) values in chunks of
    the spans of _path_spans(n_paths, size), and may be called again for
    another pass.

    masks has the layout of groupings.grouping_labels: a row of N atom
    bitmasks per set partition, block m in column m, 0 past the last.  A
    row of more than ENUMERATION_LIMIT blocks outside a Hilbert base raises
    ValueError before chunks is called.  Where the table's covariance fits
    _ENSEMBLE_TABLE_FLOATS the rows read one table (_ensemble_screen),
    within its rounding bound of their per-path moments; else each row
    takes its per-path moment (_ensemble_decide)."""
    n_blocks = _block_counts(masks)
    if not base.is_hilbert and np.any(n_blocks > ENUMERATION_LIMIT):
        raise ValueError(
            f"sign enumeration is capped at {ENUMERATION_LIMIT} blocks, got {n_blocks.max()}"
        )
    n_atoms = masks.shape[1]
    rows = _table_size(n_atoms, base.is_hilbert)
    fits = rows * rows <= _ENSEMBLE_TABLE_FLOATS
    if base.is_hilbert:
        # block norms need no product: chunks bound their block sums
        size = _ensemble_chunk(n_atoms, base.dim, rows if fits else n_atoms)
    else:
        # an atom-sign table in one chunk where it fits, and each row on
        # the whole ensemble, keep the bits of the products
        size = max(2, _ENSEMBLE_TABLE_FLOATS // rows) if fits else n_paths
    source = partial(chunks, size)
    if fits:
        moments, _ = _ensemble_screen(source, base, n_atoms, cross=True)
        return moments(masks)
    groupings = [Grouping([_mask_atoms(m) for m in row if m], n_atoms) for row in masks.tolist()]
    found = _ensemble_decide(source, base, n_atoms, n_paths)(groupings)
    return np.array([e.value for e in found]), np.array([e.std_error for e in found])


def _hilbert_moment(arr: np.ndarray, space) -> SumEstimate:
    """The exact Hilbert-space moment sum_n ||x_n||_2^2."""
    return SumEstimate(float(np.sum(space.norm_sq(arr))), 0.0, 0, METHOD_EXACT_HILBERT)


def has_covariance_moment(space) -> bool:
    """Whether covariance_moment has an exact route for the space: a closed
    form in l1 in any dimension and in the plane's linf, a quadrature in
    linf in R^3."""
    return space.p == 1.0 or (math.isinf(space.p) and space.dim in (2, 3))


def _covariance_method(space) -> str:
    """The method tag of covariance_moment's values in the space."""
    quadrature = space.dim == 3 and math.isinf(space.p)
    return METHOD_EXACT_QUADRATURE if quadrature else METHOD_EXACT_COVARIANCE


@lru_cache(maxsize=None)
def _polar_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, 1] through theta = a + (b - a)(1 - cos pi t)/2:
    the fractions (1 - cos pi t)/2 of a piece, and the weights of dtheta
    per unit of b - a."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t = (t + 1.0) / 2.0
    rule = (1.0 - np.cos(math.pi * t)) / 2.0, math.pi / 4.0 * np.sin(math.pi * t) * w
    for x in rule:
        x.setflags(write=False)
    return rule


def _sup_moments_3d(cov: np.ndarray, nodes: int = _POLAR_NODES) -> np.ndarray:
    """E ||Y||_inf^2 of each (3, 3) covariance of a (k, 3, 3) stack, matrix
    by matrix: Y = L z with L L^T = cov (eigh, eigenvalues clamped at 0), so
    E ||Y||_inf^2 = 3 * the mean over the unit sphere of max_i (L_i . u)^2,
    an even function of u: the mean over the upper half, polar angle theta
    in [0, pi/2] and azimuth phi.

    There L_i . u = A_i cos phi + B_i sin phi + C_i.  On a circle of fixed
    theta the kinks, where two |L_i . u| tie, are the roots of (L_i +- L_j)
    . u in closed form.  Between two of them one square is the largest
    throughout, so the integral of the largest square is the largest of the
    three squares' integrals, each in closed form.  The integral in theta is
    Gauss-Legendre on the pieces between the latitudes where a kink circle
    is tangent or two of them cross, and multiples of pi/8, mapped by theta
    = a + (b - a)(1 - cos pi t)/2 against the square roots at the tangents.
    Work is elementwise or along an axis of one matrix's arrays, so each
    matrix of a stack gets the bits of a lone call."""
    k = len(cov)
    lam, vec = np.linalg.eigh(cov)
    rows = vec * np.sqrt(np.maximum(lam, 0.0))[:, None, :]
    # the kink normals L_i + L_j, then L_i - L_j, over the pairs i < j
    normals = rows[:, [0, 0, 1] * 2] + _KINK_SIGNS * rows[:, [1, 2, 2] * 2]
    nx, ny, nz = normals[..., 0], normals[..., 1], normals[..., 2]
    plane = np.hypot(nx, ny)
    # kink circles p and q cross along n_p x n_q
    p, q = _upper_pairs(6)
    cx = ny[:, p] * nz[:, q] - nz[:, p] * ny[:, q]
    cy = nz[:, p] * nx[:, q] - nx[:, p] * nz[:, q]
    cz = nx[:, p] * ny[:, q] - ny[:, p] * nx[:, q]
    cuts = (np.broadcast_to(_POLAR_CUTS, (k, 5)), np.arctan2(np.abs(nz), plane))
    edges = np.sort(np.concatenate(cuts + (np.arctan2(np.hypot(cx, cy), np.abs(cz)),), axis=1))
    fraction, weight = _polar_rule(nodes)
    width = (edges[:, 1:] - edges[:, :-1])[..., None]
    theta = (edges[:, :-1, None] + width * fraction).reshape(k, -1)
    weight = (width * weight).reshape(k, -1) * np.sin(theta)
    sin, cos = np.sin(theta)[:, None], np.cos(theta)[:, None]
    nx, ny, nz, plane = (x[..., None] for x in (nx, ny, nz, plane))
    with np.errstate(divide="ignore", invalid="ignore"):
        # n . u = |n_xy| sin(theta) cos(phi - alpha) + n_z cos(theta)
        ratio = -nz * cos / (plane * sin)
    half = np.arccos(np.where(np.abs(ratio) <= 1.0, ratio, np.nan))
    alpha = np.arctan2(ny, nx)
    roots = np.concatenate((alpha - half, alpha + half), axis=1)
    roots += np.where(roots < 0.0, 2.0 * math.pi, 0.0)
    # a missing root sits at 2 pi, and the pieces past it are empty
    ends = np.zeros(sin.shape)
    roots = np.sort(np.fmin(roots, 2.0 * math.pi), axis=1)
    phi = np.concatenate((ends, roots, ends + 2.0 * math.pi), axis=1)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    double = (2.0 * sin_phi * cos_phi, cos_phi * cos_phi - sin_phi * sin_phi)
    steps = [x[:, None, 1:] - x[:, None, :-1] for x in (phi, sin_phi, cos_phi, *double)]
    # the integral of (A cos phi + B sin phi + C)^2 over each piece, row by
    # row: its coefficients of the steps of phi, sin, cos, sin 2 phi, cos 2 phi
    a, b, c = (rows[:, :, j, None] * x for j, x in enumerate((sin, sin, cos)))
    terms = ((a * a + b * b) / 2.0 + c * c, 2.0 * a * c, -2.0 * b * c)
    terms += ((a * a - b * b) / 4.0, -a * b / 2.0)
    pieces = terms[0][:, :, None] * steps[0]
    for term, step in zip(terms[1:], steps[1:]):
        pieces += term[:, :, None] * step
    largest = np.maximum(np.maximum(pieces[:, 0], pieces[:, 1]), pieces[:, 2])
    return 3.0 / (2.0 * math.pi) * np.sum(np.sum(largest, axis=1) * weight, axis=-1)


def _abs_product_moments(var_u, var_v, cov_uv) -> np.ndarray:
    """E|U V| of centred Gaussian pairs with the given variances and
    covariances (Nabeya 1951): (2/pi) sqrt(var_u var_v) (sqrt(1 - r^2) +
    r asin r) with correlation r, clipped to [-1, 1] against rounding; 0 when
    either variance is 0."""
    scale = np.sqrt(np.multiply(var_u, var_v))
    r = np.divide(cov_uv, scale, out=np.zeros_like(scale), where=scale > 0.0)
    r = np.clip(r, -1.0, 1.0)
    return (2.0 / math.pi) * scale * (np.sqrt(1.0 - r * r) + r * np.arcsin(r))


@lru_cache(maxsize=None)
def _upper_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate pairs i < j of R^dim, np.triu_indices(dim, 1)."""
    return np.triu_indices(dim, 1)


def covariance_moment(cov: np.ndarray, space):
    """E ||Y||^2 of a centred Gaussian Y in R^d with covariance cov, exactly,
    where has_covariance_moment(space) holds: a float for one (d, d) matrix,
    an array of the moments of a (..., d, d) stack, matrix by matrix.

    l1: (sum_i |Y_i|)^2 has mean sum_i S_ii + 2 sum_{i<j} E|Y_i Y_j|.
    linf, d = 2: max(a^2, b^2) = (a^2 + b^2)/2 + |(a - b)(a + b)|/2, and
    U = Y_0 - Y_1, V = Y_0 + Y_1 are again a centred Gaussian pair.
    linf, d = 3: _sup_moments_3d's quadrature, exact to rounding (1e-12
    relative against doubled nodes), tagged exact_quadrature.
    """
    if not has_covariance_moment(space):
        raise ValueError(f"no exact covariance route for {space!r}")
    peak = np.max(np.abs(np.diagonal(cov, 0, -2, -1)), axis=-1)
    # the moment is linear in cov; far from 1 the products of two variances
    # would under- or overflow, so such a matrix is scaled by an exact power
    # of two first (frexp gives an infinite peak the exponent 0).  The
    # quadrature's eigendecomposition does not scale exactly, so it always
    # takes the unit scale
    quadrature = _covariance_method(space) == METHOD_EXACT_QUADRATURE
    far = (peak > 0.0) & ((peak < _SAFE_SCALE_MIN) | (peak > _SAFE_SCALE_MAX) | quadrature)
    shift = np.where(far, np.frexp(peak)[1], 0)
    cov = np.ldexp(cov, -shift[..., None, None])
    with np.errstate(over="ignore", invalid="ignore"):
        if space.p == 1.0:
            diag = np.diagonal(cov, 0, -2, -1)
            i, j = _upper_pairs(space.dim)
            cross = _abs_product_moments(diag[..., i], diag[..., j], cov[..., i, j])
            moment = np.sum(diag, axis=-1) + 2.0 * np.sum(cross, axis=-1)
        elif quadrature:
            # a matrix's pieces take 3 rows x 13 azimuth pieces x 25 polar
            # pieces of nodes floats, so stacks of a few bound the arrays; a
            # non-finite matrix gets no eigendecomposition
            flat = cov.reshape(-1, 3, 3)
            finite = np.all(np.isfinite(flat), axis=(1, 2))
            flat = np.where(finite[:, None, None], flat, 0.0)
            step = max(1, _ENSEMBLE_CHUNK_FLOATS // (3 * 13 * 25 * _POLAR_NODES))
            parts = [_sup_moments_3d(flat[at : at + step]) for at in range(0, len(flat), step)]
            moment = np.where(finite, np.concatenate([np.empty(0), *parts]), np.nan)
            moment = moment.reshape(cov.shape[:-2])
        else:
            s00, s01, s11 = cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 1]
            trace = s00 + s11
            # rounding can leave a degenerate direction's variance slightly
            # negative
            var_u = np.maximum(trace - 2.0 * s01, 0.0)
            var_v = np.maximum(trace + 2.0 * s01, 0.0)
            moment = trace / 2.0 + _abs_product_moments(var_u, var_v, s00 - s11) / 2.0
        # an infinite variance (an overflowed cov) makes the moment infinite
        moment = np.where(peak == math.inf, math.inf, np.ldexp(moment, shift))
    return float(moment) if moment.ndim == 0 else moment


def gaussian_sum_sq(
    values, space, stream: RandomStream | None = None, samples: int = 0
) -> SumEstimate:
    """E || sum_n g_n x_n ||^2 for independent standard Gaussian g_n.

    Hilbert spaces use the exact closed form sum_n ||x_n||_2^2; everything else
    is Monte Carlo and requires a stream and samples >= 2.
    """
    arr = _check_values(values, space)
    if space.is_hilbert:
        return _hilbert_moment(arr, space)
    (mean,), (error,), n = _monte_carlo_moments(arr[None], space, [stream], samples, "gaussian")
    return SumEstimate(float(mean), float(error), n, METHOD_MONTE_CARLO)


def rademacher_sum_sq(
    values, space, stream: RandomStream | None = None, samples: int = 0
) -> SumEstimate:
    """E || sum_n r_n x_n ||^2 for independent Rademacher signs r_n.

    Hilbert closed form when available; exact enumeration of all sign patterns
    for at most ENUMERATION_LIMIT coefficients; Monte Carlo otherwise.
    """
    arr = _check_values(values, space)
    if space.is_hilbert:
        return _hilbert_moment(arr, space)
    if arr.shape[0] <= ENUMERATION_LIMIT:
        moment = float(_sign_average(arr, space.norm_sq))
        return SumEstimate(moment, 0.0, 0, METHOD_EXACT_ENUMERATION)
    (mean,), (error,), n = _monte_carlo_moments(arr[None], space, [stream], samples, "rademacher")
    return SumEstimate(float(mean), float(error), n, METHOD_MONTE_CARLO)
