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
combined in batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .groupings import Grouping, _distinct_sums
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
# Cap on combined floats per batch of ensemble groupings: 1 MB of sign
# products, which stays in a 2 MB per-core L2 cache until the norms read it.
_ENSEMBLE_CHUNK_FLOATS = 1 << 17
# Cap on floats in the ensemble kernel's table of distinct block rows (32 MB).
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


def _estimate_from_moments(n: int, total: float, total_sq: float) -> SumEstimate:
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return SumEstimate(
        value=float(mean),
        std_error=float(np.sqrt(var / n)),
        samples=n,
        method=METHOD_MONTE_CARLO,
    )


def _path_moments(path_stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Path mean and ddof-1 std error over the last axis, for each row of a
    (..., paths) array; the error is 0 for a single path.  numpy reduces a
    contiguous last axis row by row, so every row gets the bits of a
    one-row call."""
    m = path_stats.shape[-1]
    mean = np.mean(path_stats, axis=-1)
    if m < 2:
        return mean, np.zeros_like(mean)
    return mean, np.std(path_stats, axis=-1, ddof=1) / np.sqrt(m)


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
    n = total = total_sq = 0
    for coeffs in _coefficient_batches(stream, samples, values.shape[0], kind):
        stats = space.norm_sq(coeffs @ values)
        n += coeffs.shape[0]
        total += float(np.sum(stats))
        total_sq += float(np.sum(stats * stats))
    return _estimate_from_moments(n, total, total_sq)


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


def _sign_average(values: np.ndarray, norm_sq):
    """Average over all sign patterns e of norm_sq(sum_m e_m x_m).

    values holds one flattened x_m per row; norm_sq maps the (patterns, m)
    combinations to statistics indexed by pattern on axis 0.  Patterns are
    swept in chunks of at most _CHUNK_FLOATS combined floats, and the chunk
    sums are added in pattern order."""
    patterns = _sign_patterns(values.shape[0])
    total = 0.0
    chunk = max(1, _CHUNK_FLOATS // max(1, values.shape[1]))
    for start in range(0, patterns.shape[0], chunk):
        total += np.sum(norm_sq(patterns[start : start + chunk] @ values), axis=0)
    return total / patterns.shape[0]


def rademacher_moments(table: np.ndarray, rows: np.ndarray, space) -> np.ndarray:
    """Exact E || sum_m r_m x_m ||^2 over a NormedSpace of each family
    table[rows[i]], where rows is a (families, k) index array into a table of
    (dim,) vectors and k <= ENUMERATION_LIMIT.

    Item i equals rademacher_sum_sq(table[rows[i]], space).value bit for bit:
    the same Hilbert closed form, or the same sign matmul, norm and sum over
    patterns, batched over families in chunks of at most _CHUNK_FLOATS
    combined floats (_sign_means).
    """
    if space.is_hilbert:
        return np.sum(space.norm_sq(table[rows]), axis=-1)
    chunks = _sign_means(table, rows, space.norm_sq, _CHUNK_FLOATS)
    return np.concatenate([means for _, means in chunks])


def ensemble_rademacher_moments(
    values, groupings: Sequence[Grouping], space: EmpiricalL2Space
) -> list[SumEstimate]:
    """E || sum_m r_m G(B_m) ||^2 with Rademacher r_m for each grouping
    {B_m} of (N, paths, d) ensemble values over an EmpiricalL2Space, where
    G(B) is the block's sum.

    Item i equals rademacher_sum_sq(block_sums(values, groupings[i]), space)
    bit for bit.  Each distinct block is summed once (groupings._distinct_sums)
    into a table of at most _ENSEMBLE_TABLE_FLOATS floats; a candidate list
    whose distinct blocks do not fit gets one table per run of candidates
    that do, and a grouping with more blocks than the budget holds gets one
    of its own.  A Hilbert base keeps only each block's (paths,) squared
    norms and adds a grouping's rows in block order, as the closed form's sum
    over blocks does.  Any other base meets the 2^(k-1) sign patterns of
    the k-block groupings in one matmul per chunk of at most
    _ENSEMBLE_CHUNK_FLOATS combined floats, which splits only the grouping
    axis; a grouping whose own sweep passes _CHUNK_FLOATS keeps
    _sign_average's chunk order.  Path means and errors are taken per chunk.

    Callers: the exhaustive randomized variation search over ensembles
    (norms.randomized_variation_norm), example-3-4's fixed grouping families
    and the signed side of the randomisation sweep
    (brownian.randomisation_identity_sweep).
    """
    arr = _check_values(values, space)
    groupings = list(groupings)
    _, n_paths, dim = arr.shape
    hilbert = space.is_hilbert
    too_many = [g.n_blocks for g in groupings if g.n_blocks > ENUMERATION_LIMIT]
    if too_many and not hilbert:
        raise ValueError(
            f"sign enumeration is capped at {ENUMERATION_LIMIT} blocks, got {too_many[0]}"
        )
    max_rows = max(1, _ENSEMBLE_TABLE_FLOATS // (n_paths if hilbert else n_paths * dim))
    value = np.empty(len(groupings))
    error = np.empty(len(groupings))
    for part in _table_parts(groupings, max_rows):
        value[part], error[part] = _table_part_moments(arr, groupings[part], space)
    return [
        SumEstimate(v, e, n_paths, METHOD_MONTE_CARLO)
        for v, e in zip(value.tolist(), error.tolist())
    ]


def _table_part_moments(
    arr: np.ndarray, groupings: list[Grouping], space: EmpiricalL2Space
) -> tuple[np.ndarray, np.ndarray]:
    """Path means and std errors for ensemble_rademacher_moments, from one
    table of the groupings' distinct blocks, freed on return."""
    _, n_paths, dim = arr.shape
    hilbert = space.is_hilbert
    blocks = [b for g in groupings for b in g.blocks]
    table, block_rows = _distinct_sums(arr, blocks, space.base.norm_sq if hilbert else None)
    # (blocks, paths) squared norms, or (blocks, paths * dim) sums
    table = table.reshape(table.shape[0], -1)
    n_blocks = np.array([g.n_blocks for g in groupings], dtype=np.int64)
    first_block = np.cumsum(n_blocks) - n_blocks
    value = np.empty(len(groupings))
    error = np.empty(len(groupings))
    for k in np.unique(n_blocks).tolist():
        members = np.flatnonzero(n_blocks == k)
        rows = block_rows[first_block[members, None] + np.arange(k)]  # (g, k)
        if hilbert:
            chunks = _block_order_sums(table, rows)
        else:
            norm_sq = _path_norm_sq(space.base, n_paths, dim)
            chunks = _sign_means(table, rows, norm_sq, _ENSEMBLE_CHUNK_FLOATS)
        for chunk, path_stats in chunks:
            value[members[chunk]], error[members[chunk]] = _path_moments(path_stats)
    return value, error


def _table_parts(groupings: list[Grouping], max_rows: int) -> Iterator[slice]:
    """Consecutive runs of groupings with at most max_rows distinct blocks
    between them; a grouping with more blocks than that runs alone."""
    start, seen = 0, set()
    for i, grouping in enumerate(groupings):
        seen.update(grouping.blocks)
        if len(seen) > max_rows and i > start:
            yield slice(start, i)
            start, seen = i, set(grouping.blocks)
    yield slice(start, len(groupings))


def _block_order_sums(table: np.ndarray, rows: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """For each family rows[i], the sum of its table rows, added in block
    order as np.sum adds a (blocks, paths) array over its first axis, as
    (families, sums) pairs in chunks of at most _ENSEMBLE_CHUNK_FLOATS
    floats."""
    step = max(1, _ENSEMBLE_CHUNK_FLOATS // table.shape[1])
    for start in range(0, rows.shape[0], step):
        part = rows[start : start + step]
        total = table[part[:, 0]]
        for j in range(1, part.shape[1]):
            total += table[part[:, j]]
        yield slice(start, start + step), total


def _sign_means(
    table: np.ndarray, rows: np.ndarray, norm_sq, chunk_floats: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """_sign_average of each family table[rows[i]] (k = rows.shape[1] rows
    of the table), as (families, stats) pairs: norm_sq maps (..., width)
    combinations to statistics, and a chunk of families meets the sign
    patterns in one matmul of at most chunk_floats combined floats.  Chunks
    split only the family axis.  A family whose own sweep passes
    _CHUNK_FLOATS keeps _sign_average's chunk order."""
    patterns = _sign_patterns(rows.shape[1])
    per_family = patterns.shape[0] * table.shape[1]
    if per_family > _CHUNK_FLOATS:
        for i in range(rows.shape[0]):
            yield slice(i, i + 1), _sign_average(table[rows[i]], norm_sq)[None]
        return
    step = max(1, chunk_floats // per_family)
    for start in range(0, rows.shape[0], step):
        combos = np.matmul(patterns, table[rows[start : start + step]])
        yield slice(start, start + step), np.sum(norm_sq(combos), axis=1) / patterns.shape[0]


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
