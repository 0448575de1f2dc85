"""Weighted atomic measure spaces and finite-dimensional normed value spaces.

Everything downstream works over a probability space with finitely many atoms
(an :class:`AtomPartition`) and takes values in R^d equipped with an l_p norm
(a :class:`NormedSpace`).  :class:`EmpiricalL2Space` wraps a normed space with
the empirical path average used for ensemble-valued measures.
"""

from __future__ import annotations

import math

import numpy as np

# Weight bookkeeping tolerance: weights must sum to 1 and match boundary gaps
# to this absolute precision.
WEIGHT_TOL = 1e-12

# NormedSpace folds l1/linf/lp norms across columns below this dimension; from
# 8 entries on numpy sums an axis pairwise, so the fold would change the bits.
_COLUMN_FOLD_DIM_LIMIT = 8


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


class AtomPartition:
    """A finite measure space: N atoms with strictly positive weights summing to 1.

    Optionally carries an increasing boundary grid 0 = t_0 < ... < t_N = 1 whose
    gaps reproduce the weights; the grid is the interval picture of the atoms
    and is purely descriptive.
    """

    def __init__(self, weights, boundaries=None):
        w = _as_float_array(weights, "weights", 1)
        if w.size == 0:
            raise ValueError("weights must contain at least one atom")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}"
            )
        self.weights = w
        self.weights.setflags(write=False)

        if boundaries is not None:
            b = _as_float_array(boundaries, "boundaries", 1)
            if b.size != w.size + 1:
                raise ValueError(
                    f"boundaries must have length N+1 = {w.size + 1}, got {b.size}"
                )
            if abs(b[0]) > WEIGHT_TOL or abs(b[-1] - 1.0) > WEIGHT_TOL:
                raise ValueError("boundaries must run from 0 to 1")
            gaps = np.diff(b)
            if np.any(gaps <= 0):
                raise ValueError("boundaries must be strictly increasing")
            if np.max(np.abs(gaps - w)) > WEIGHT_TOL:
                raise ValueError(
                    f"boundary gaps must match weights within {WEIGHT_TOL}"
                )
            b.setflags(write=False)
            self.boundaries = b
        else:
            self.boundaries = None

    @classmethod
    def uniform(cls, n_atoms: int) -> "AtomPartition":
        """Uniform partition of [0, 1] into n_atoms equal atoms, with boundaries."""
        if n_atoms < 1:
            raise ValueError("n_atoms must be at least 1")
        grid = np.linspace(0.0, 1.0, n_atoms + 1)
        return cls(np.full(n_atoms, 1.0 / n_atoms), boundaries=grid)

    @classmethod
    def from_boundaries(cls, boundaries) -> "AtomPartition":
        b = _as_float_array(boundaries, "boundaries", 1)
        return cls(np.diff(b), boundaries=b)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    def mass(self, atoms) -> float:
        """Measure of a union of atoms, given by their 0-based indices."""
        idx = self._indices(atoms)
        return float(np.sum(self.weights[idx]))

    def _indices(self, atoms) -> np.ndarray:
        idx = np.asarray(sorted(set(int(a) for a in atoms)), dtype=int)
        if idx.size == 0:
            raise ValueError("atom index set must be nonempty")
        if idx[0] < 0 or idx[-1] >= self.n_atoms:
            raise ValueError(
                f"atom indices must lie in [0, {self.n_atoms - 1}], got {idx.tolist()}"
            )
        return idx

    def __repr__(self) -> str:
        return f"AtomPartition(n_atoms={self.n_atoms})"


class NormedSpace:
    """R^d with the l_p norm, 1 <= p <= inf.

    A one-dimensional space is treated as Hilbert regardless of p: every l_p
    norm on R^1 is the absolute value.
    """

    def __init__(self, dim: int, p: float = 2.0):
        if int(dim) < 1:
            raise ValueError("dim must be at least 1")
        p = float(p)
        if not (p >= 1.0):
            raise ValueError("p must satisfy 1 <= p <= inf")
        self.dim = int(dim)
        self.p = p

    @classmethod
    def l1(cls, dim: int) -> "NormedSpace":
        return cls(dim, 1.0)

    @classmethod
    def l2(cls, dim: int) -> "NormedSpace":
        return cls(dim, 2.0)

    @classmethod
    def linf(cls, dim: int) -> "NormedSpace":
        return cls(dim, math.inf)

    @property
    def is_hilbert(self) -> bool:
        return self.p == 2.0 or self.dim == 1

    def check_vector(self, values) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if arr.shape[-1] != self.dim:
            raise ValueError(
                f"value dimension {arr.shape[-1]} does not match space dim {self.dim}"
            )
        return arr

    def norm(self, values) -> np.ndarray:
        """l_p norm over the last axis; leading axes broadcast."""
        arr = np.asarray(values, dtype=float)
        if self.p == 2.0:
            return np.sqrt(np.einsum("...i,...i->...", arr, arr))
        if arr.ndim and 0 < arr.shape[-1] < _COLUMN_FOLD_DIM_LIMIT:
            return self._column_norm(arr)
        if self.p == 1.0:
            return np.sum(np.abs(arr), axis=-1)
        if math.isinf(self.p):
            return np.max(np.abs(arr), axis=-1)
        return np.sum(np.abs(arr) ** self.p, axis=-1) ** (1.0 / self.p)

    def _column_norm(self, arr: np.ndarray) -> np.ndarray:
        """The l1, linf or lp reduction folded one column at a time.

        A reduction over a short last axis runs a tiny inner loop per vector;
        folding columns runs one vectorised pass per coordinate instead. Below
        _COLUMN_FOLD_DIM_LIMIT numpy adds a last axis left to right, as the
        fold does, so both give the same bits. The caller's array is never
        written.
        """
        lp = not (self.p == 1.0 or math.isinf(self.p))
        if lp:
            # the same elementwise power as the axis reduction, on the whole
            # array, so a vectorised pow loop sees the same contiguous input
            arr = np.abs(arr) ** self.p
        combine = np.maximum if math.isinf(self.p) else np.add
        out = np.abs(arr[..., 0])
        if out.ndim == 0:
            # 1-D input: np.float64 scalars throughout, no in-place ops
            for j in range(1, arr.shape[-1]):
                out = combine(out, np.abs(arr[..., j]))
        else:
            column = np.empty_like(out)
            for j in range(1, arr.shape[-1]):
                combine(out, np.abs(arr[..., j], out=column), out=out)
        return out ** (1.0 / self.p) if lp else out

    def norm_sq(self, values) -> np.ndarray:
        if self.p == 2.0:
            arr = np.asarray(values, dtype=float)
            return np.einsum("...i,...i->...", arr, arr)
        return self.norm(values) ** 2

    # --- JSON tag codec (external interface: "l1" | "l2" | "linf" | {"lp": p}) ---

    def norm_tag(self):
        if self.p == 1.0:
            return "l1"
        if self.p == 2.0:
            return "l2"
        if math.isinf(self.p):
            return "linf"
        return {"lp": self.p}

    @classmethod
    def from_tag(cls, dim: int, tag) -> "NormedSpace":
        if tag == "l1":
            return cls(dim, 1.0)
        if tag == "l2":
            return cls(dim, 2.0)
        if tag == "linf":
            return cls(dim, math.inf)
        if isinstance(tag, dict) and set(tag) == {"lp"}:
            return cls(dim, float(tag["lp"]))
        raise ValueError(f"unknown norm tag {tag!r}")

    def __repr__(self) -> str:
        return f"NormedSpace(dim={self.dim}, p={self.p})"


class EmpiricalL2Space:
    """L2 over an empirical path ensemble with values in a base normed space.

    Values are arrays of shape (..., n_paths, dim); the squared norm is the
    plain average over paths of the base squared norm (no bias correction).
    """

    def __init__(self, base: NormedSpace):
        self.base = base

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def is_hilbert(self) -> bool:
        return self.base.is_hilbert

    def norm_sq(self, values) -> np.ndarray:
        return np.mean(self.base.norm_sq(values), axis=-1)

    def norm(self, values) -> np.ndarray:
        return np.sqrt(self.norm_sq(values))

    def __repr__(self) -> str:
        return f"EmpiricalL2Space(base={self.base!r})"
