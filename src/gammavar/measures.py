"""Vector measures, step densities, and discrete operators on an atom partition.

The three objects carry the same data (one R^d vector per atom) under three
readings: F(A_n) for a measure, phi_n for a density, and T(e_n) for an
operator column, where e_n = 1_{A_n} / sqrt(mu(A_n)) is the n-th normalized
indicator.  The conversions below move between them:

    operator_from_measure:  column_n = F(A_n) / sqrt(mu(A_n))
    measure_from_operator:  F(A_n)   = sqrt(mu(A_n)) * column_n
    measure_from_density:   F(A_n)   = mu(A_n) * phi_n
"""

from __future__ import annotations

import numpy as np

from .spaces import AtomPartition, NormedSpace


def _check_values(partition: AtomPartition, space: NormedSpace, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape != (partition.n_atoms, space.dim):
        raise ValueError(
            f"values must have shape (n_atoms, dim) = "
            f"({partition.n_atoms}, {space.dim}), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class _AtomIndexed:
    """Shared plumbing for objects carrying one vector per atom."""

    def __init__(self, partition: AtomPartition, space: NormedSpace, values):
        self.partition = partition
        self.space = space
        self.values = _check_values(partition, space, values)

    @property
    def n_atoms(self) -> int:
        return self.partition.n_atoms


class VectorMeasure(_AtomIndexed):
    """An X-valued measure on the atoms: values[n] = F(A_n)."""


class StepFunction(_AtomIndexed):
    """A piecewise-constant X-valued density: values[n] = phi_n on atom A_n."""


class DiscreteOperator(_AtomIndexed):
    """Operator from L2 of the partition into X, by images of the normalized
    indicator basis: values[n] = T(e_n)."""

    @property
    def columns(self) -> np.ndarray:
        return self.values


def operator_from_measure(measure: VectorMeasure) -> DiscreteOperator:
    scale = 1.0 / np.sqrt(measure.partition.weights)
    return DiscreteOperator(
        measure.partition, measure.space, scale[:, None] * measure.values
    )


def measure_from_operator(operator: DiscreteOperator) -> VectorMeasure:
    scale = np.sqrt(operator.partition.weights)
    return VectorMeasure(
        operator.partition, operator.space, scale[:, None] * operator.values
    )


def measure_from_density(density: StepFunction) -> VectorMeasure:
    return VectorMeasure(
        density.partition,
        density.space,
        density.partition.weights[:, None] * density.values,
    )


def density_from_measure(measure: VectorMeasure) -> StepFunction:
    return StepFunction(
        measure.partition,
        measure.space,
        measure.values / measure.partition.weights[:, None],
    )


# --- JSON document codec (external interface) ---------------------------------
#
# {"weights": [...], "boundaries": [...]?, "dim": d,
#  "norm": "l2" | "l1" | "linf" | {"lp": p}, "values": [[...], ...]}


def to_document(obj: _AtomIndexed) -> dict:
    doc = {
        "weights": obj.partition.weights.tolist(),
        "dim": obj.space.dim,
        "norm": obj.space.norm_tag(),
        "values": obj.values.tolist(),
    }
    if obj.partition.boundaries is not None:
        doc["boundaries"] = obj.partition.boundaries.tolist()
    return doc


def _from_document(cls, doc: dict):
    for key in ("weights", "dim", "norm", "values"):
        if key not in doc:
            raise ValueError(f"document is missing required key {key!r}")
    partition = AtomPartition(doc["weights"], boundaries=doc.get("boundaries"))
    space = NormedSpace.from_tag(int(doc["dim"]), doc["norm"])
    return cls(partition, space, doc["values"])


def measure_from_document(doc: dict) -> VectorMeasure:
    return _from_document(VectorMeasure, doc)


def density_from_document(doc: dict) -> StepFunction:
    return _from_document(StepFunction, doc)
