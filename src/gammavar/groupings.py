"""Groupings of atoms and their enumeration.

A grouping is a finite collection of disjoint nonempty blocks of atom indices.
It is *covering* when the blocks exhaust all atoms, i.e. when it is a set
partition.  Enumeration sizes grow as Bell numbers, so the exhaustive mode is
capped; the caps are named in the errors.
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

    @property
    def covered(self) -> tuple[int, ...]:
        return tuple(sorted(a for b in self.blocks for a in b))

    @property
    def is_covering(self) -> bool:
        return len(self.covered) == self.n_atoms

    def sort_key(self):
        """Tie-break key for searches: fewer blocks first, then lexicographic."""
        return (self.n_blocks, self.blocks)

    def to_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Grouping([{inner}], n_atoms={self.n_atoms})"


def block_sums(values: np.ndarray, grouping: Grouping) -> np.ndarray:
    """Sum values (atom-indexed on axis 0) over each block of the grouping."""
    return np.stack([np.sum(values[list(b)], axis=0) for b in grouping.blocks])


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle recurrence)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _partitions_of(elements: tuple[int, ...]) -> Iterator[list[list[int]]]:
    """Set partitions of the given elements, in restricted-growth order."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for partial in _partitions_of(rest):
        yield [[first]] + partial
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1:]


def _interval_groupings(n_atoms: int, covering: bool) -> Iterator[list[list[int]]]:
    """Groupings whose blocks are intervals of consecutive atom indices."""

    def extend(start: int, current: list[list[int]]) -> Iterator[list[list[int]]]:
        if start == n_atoms:
            if current:
                yield [list(b) for b in current]
            return
        # leave atom `start` uncovered
        if not covering:
            yield from extend(start + 1, current)
        # or start a new interval block at `start` with any admissible end
        for end in range(start + 1, n_atoms + 1):
            current.append(list(range(start, end)))
            yield from extend(end, current)
            current.pop()

    yield from extend(0, [])


def enumerate_groupings(
    n_atoms: int, mode: str = "all", covering_only: bool = False
) -> Iterator[Grouping]:
    """Yield each grouping of ``n_atoms`` atoms exactly once.

    mode="all" enumerates every grouping (all disjoint nonempty block
    collections); with covering_only=True this is the Bell(n)-many set
    partitions.  mode="contiguous" restricts blocks to intervals of
    consecutive indices; covering interval partitions number 2^(n-1).

    Raises SizeLimitError above MAX_ATOMS_ALL (=12) atoms for mode="all" and
    above MAX_ATOMS_CONTIGUOUS (=20) for mode="contiguous".
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    if mode == "all":
        if n_atoms > MAX_ATOMS_ALL:
            raise SizeLimitError(
                f"exhaustive enumeration is capped at {MAX_ATOMS_ALL} atoms "
                f"(Bell({n_atoms}) = {bell_number(n_atoms)} covering groupings); "
                f"got {n_atoms}"
            )
        if covering_only:
            for blocks in _partitions_of(tuple(range(n_atoms))):
                yield Grouping(blocks, n_atoms)
        else:
            # every grouping is a set partition of some nonempty covered subset
            for mask in range(1, 1 << n_atoms):
                covered = tuple(i for i in range(n_atoms) if (mask >> i) & 1)
                for blocks in _partitions_of(covered):
                    yield Grouping(blocks, n_atoms)
    elif mode == "contiguous":
        if n_atoms > MAX_ATOMS_CONTIGUOUS:
            raise SizeLimitError(
                f"contiguous enumeration is capped at {MAX_ATOMS_CONTIGUOUS} atoms "
                f"(2^({n_atoms}-1) = {2 ** (n_atoms - 1)} interval partitions); "
                f"got {n_atoms}"
            )
        for blocks in _interval_groupings(n_atoms, covering=covering_only):
            yield Grouping(blocks, n_atoms)
    else:
        raise ValueError(f"unknown enumeration mode {mode!r}")
