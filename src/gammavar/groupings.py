"""Groupings of atoms and their enumeration.

A grouping is a finite collection of disjoint nonempty blocks of atom indices.
It is *covering* when the blocks exhaust all atoms, i.e. when it is a set
partition.  The enumerations yield covering groupings only: adding the
uncovered atoms as one more block never lowers a grouping's moment (for
Rademacher signs E_r ||S + r X||^2 >= ||S||^2 by convexity; for Gaussians the
block covariance grows in Loewner order, and Anderson's inequality applies),
so the set partitions reach every supremum over groupings.  Enumeration sizes
grow as Bell numbers, so the exhaustive mode is capped; the caps are named in
the errors.

A set partition has one representation that the enumeration, the exhaustive
searches and the batched ensemble kernels share: a label row of
grouping_labels with its block masks.  A Grouping is made from a row only
where a caller needs its blocks (grouping_from_labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

# Exhaustive enumeration walks Bell(N)-many covering groupings; contiguous
# enumeration walks 2^(N-1) interval partitions.
MAX_ATOMS_ALL = 12
MAX_ATOMS_CONTIGUOUS = 20


class SizeLimitError(ValueError):
    """Raised when an enumeration request exceeds the supported atom count."""


@dataclass(frozen=True)
class Grouping:
    """Disjoint nonempty blocks of atom indices (0-based), canonically ordered.

    Blocks are stored sorted by their smallest element with each block sorted
    ascending, so equal groupings compare and hash equal.
    """

    blocks: tuple[tuple[int, ...], ...]
    n_atoms: int

    def __init__(self, blocks, n_atoms: int):
        canon = []
        seen: set[int] = set()
        for block in blocks:
            b = tuple(sorted(int(a) for a in block))
            if not b:
                raise ValueError("blocks must be nonempty")
            if b[0] < 0 or b[-1] >= n_atoms:
                raise ValueError(
                    f"atom indices must lie in [0, {n_atoms - 1}], got {b}"
                )
            if seen.intersection(b):
                raise ValueError(f"blocks must be disjoint, {b} overlaps")
            seen.update(b)
            canon.append(b)
        if not canon:
            raise ValueError("a grouping must have at least one block")
        canon.sort(key=lambda b: b[0])
        object.__setattr__(self, "blocks", tuple(canon))
        object.__setattr__(self, "n_atoms", int(n_atoms))

    @classmethod
    def finest(cls, n_atoms: int) -> "Grouping":
        """The finest covering grouping: one singleton block per atom."""
        return cls(tuple((i,) for i in range(n_atoms)), n_atoms)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def sort_key(self):
        """Tie-break key for searches: fewer blocks first, then lexicographic."""
        return (self.n_blocks, self.blocks)

    def to_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Grouping([{inner}], n_atoms={self.n_atoms})"


def _block_sum(values: np.ndarray, atoms: list[int]) -> np.ndarray:
    """Sum of values over the given atoms (ascending) on axis 0.  A run of
    consecutive atoms of a C-contiguous array sums from a slice view, which
    is laid out as the gathered copy would be and so gives its bits."""
    first, last = atoms[0], atoms[-1]
    if last - first + 1 == len(atoms) and values.flags.c_contiguous:
        return np.sum(values[first : last + 1], axis=0)
    return np.sum(values[atoms], axis=0)


def block_sums(values: np.ndarray, grouping: Grouping) -> np.ndarray:
    """Sum values (atom-indexed on axis 0) over each block of the grouping,
    as a C-contiguous stack.  Singleton blocks alone add each atom to 0.0,
    as np.sum over one atom does (so -0.0 becomes 0.0)."""
    if grouping.n_blocks == grouping.n_atoms == values.shape[0]:
        return np.add(values, 0.0, order="C")
    return np.stack([_block_sum(values, list(b)) for b in grouping.blocks])


def _mask_atoms(mask: int) -> list[int]:
    """The atoms, ascending, whose bits an atom bitmask sets."""
    return [a for a in range(mask.bit_length()) if mask >> a & 1]


def grouping_from_labels(labels: list[int]) -> Grouping:
    """The set partition one label row (grouping_labels, as a list of ints)
    encodes: atom a sits in block labels[a].  A restricted-growth row lists
    each block's atoms ascending and numbers blocks by their smallest atom,
    so the blocks are canonical as they stand and skip Grouping's checks."""
    blocks: list[list[int]] = []
    for atom, label in enumerate(labels):
        if label == len(blocks):
            blocks.append([atom])
        else:
            blocks[label].append(atom)
    grouping = object.__new__(Grouping)
    object.__setattr__(grouping, "blocks", tuple(map(tuple, blocks)))
    object.__setattr__(grouping, "n_atoms", len(labels))
    return grouping


@lru_cache(maxsize=None)
def _partition_count(n: int, max_blocks: int) -> int:
    """Number of set partitions of an n-element set into at most max_blocks
    blocks: a sum of Stirling numbers of the second kind, S(n, k) =
    k S(n - 1, k) + S(n - 1, k - 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
    return sum(row[: max_blocks + 1])


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set."""
    return _partition_count(n, n)


def check_enumeration_size(n_atoms: int, mode: str, field: str | None = None) -> None:
    """Raise SizeLimitError if enumerating the groupings of n_atoms atoms in
    mode "all" or "contiguous" passes its cap.  field, the config field that
    asked for the enumeration, starts the message."""
    if mode == "all" and n_atoms > MAX_ATOMS_ALL:
        message = (
            f"exhaustive enumeration is capped at {MAX_ATOMS_ALL} atoms "
            f"(Bell({n_atoms}) = {bell_number(n_atoms)} covering groupings); "
            f"got {n_atoms}"
        )
    elif mode == "contiguous" and n_atoms > MAX_ATOMS_CONTIGUOUS:
        message = (
            f"contiguous enumeration is capped at {MAX_ATOMS_CONTIGUOUS} atoms "
            f"(2^({n_atoms}-1) = {2 ** (n_atoms - 1)} interval partitions); "
            f"got {n_atoms}"
        )
    else:
        return
    raise SizeLimitError(f"{field}: {message}" if field else message)


def _interval_partitions(n_atoms: int) -> Iterator[list[list[int]]]:
    """Set partitions whose blocks are intervals of consecutive atom indices."""

    def extend(start: int, current: list[list[int]]) -> Iterator[list[list[int]]]:
        if start == n_atoms:
            yield list(current)
            return
        # start a new interval block at `start` with any admissible end
        for end in range(start + 1, n_atoms + 1):
            current.append(list(range(start, end)))
            yield from extend(end, current)
            current.pop()

    yield from extend(0, [])


def enumerate_groupings(n_atoms: int, mode: str = "all") -> Iterator[Grouping]:
    """Yield each covering grouping of ``n_atoms`` atoms exactly once.

    mode="all" enumerates the Bell(n)-many set partitions: the Grouping of
    each label row of grouping_labels, in its lexicographic
    restricted-growth order.  mode="contiguous" restricts blocks to
    intervals of consecutive indices; those partitions number 2^(n-1).
    Non-covering groupings are never yielded: they cannot beat the partition
    that adds their uncovered atoms as one more block.

    Raises SizeLimitError above MAX_ATOMS_ALL (=12) atoms for mode="all" and
    above MAX_ATOMS_CONTIGUOUS (=20) for mode="contiguous".
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    check_enumeration_size(n_atoms, mode)
    if mode == "all":
        # 4096 label rows at a time
        for labels, _ in grouping_labels(n_atoms, 1 << 12):
            yield from map(grouping_from_labels, labels.tolist())
    elif mode == "contiguous":
        for blocks in _interval_partitions(n_atoms):
            yield Grouping(blocks, n_atoms)
    else:
        raise ValueError(f"unknown enumeration mode {mode!r}")


def grouping_labels(
    n_atoms: int, max_rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every set partition of n_atoms atoms, as rows of int8 block labels
    with the atom bitmask of every label.

    A row is a restricted-growth string over n_atoms slots (Knuth, TAOCP 4A,
    7.2.1.5): atom 0 is labelled 0, and every later label is at most one more
    than the largest before it.  Atom a sits in block labels[a], and blocks
    0, 1, ... are numbered by their smallest atom, as Grouping orders them.
    The Bell(n_atoms) rows come in lexicographic order, in pairs (labels,
    masks) of at most max_rows rows.  Column m of masks, the smallest
    unsigned integer type that holds n_atoms bits, sets bit a for each atom a
    in block m; each label a row gains adds its atom's bit there.

    Raises SizeLimitError above MAX_ATOMS_ALL atoms.
    """
    check_enumeration_size(n_atoms, "all")
    # tails[r, m]: strings that complete a prefix with r slots left and
    # largest label m (labels 0..m keep m, label m + 1 raises it)
    tails = np.ones((n_atoms, n_atoms + 1), dtype=np.int64)
    for r in range(1, n_atoms):
        tails[r, :-1] = np.arange(1, n_atoms + 1) * tails[r - 1, :-1] + tails[r - 1, 1:]

    def extend(labels, masks, tops):
        counts = tops + 2
        rows = int(counts.sum())
        label = np.arange(rows) - np.repeat(np.cumsum(counts) - counts, counts)
        masks = np.repeat(masks, counts, axis=0)
        # the atom in the new slot adds its bit to the column of its label
        bit = 1 << labels.shape[1]
        masks.reshape(-1)[np.arange(0, rows * n_atoms, n_atoms) + label] += bit
        return (
            np.column_stack((np.repeat(labels, counts, axis=0), label.astype(np.int8))),
            masks,
            np.maximum(np.repeat(tops, counts), label),
        )

    def walk(labels, masks, tops):
        left = n_atoms - labels.shape[1]
        sizes = tails[left, tops]
        if sizes.sum() <= max_rows:
            for _ in range(left):
                labels, masks, tops = extend(labels, masks, tops)
            yield labels, masks
        elif labels.shape[0] == 1:
            yield from walk(*extend(labels, masks, tops))
        else:
            # consecutive runs of prefixes whose completions fit max_rows
            ends = np.cumsum(sizes)
            start = 0
            while start < labels.shape[0]:
                stop = int(np.searchsorted(ends, ends[start] - sizes[start] + max_rows, "right"))
                stop = max(stop, start + 1)
                part = slice(start, stop)
                yield from walk(labels[part], masks[part], tops[part])
                start = stop

    # atom 0 opens block 0
    masks = np.zeros((1, n_atoms), dtype=np.min_scalar_type((1 << n_atoms) - 1))
    masks[0, 0] = 1
    yield from walk(np.zeros((1, 1), dtype=np.int8), masks, np.zeros(1, dtype=np.int64))
