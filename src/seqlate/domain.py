"""Potential-outcome bookkeeping for two-period randomized designs.

Units are randomized twice (z1, z2) and may refuse or seek treatment in each
period (w1, w2).  Compliance behaviour is a single latent label per unit that
does not change between periods: nevertakers never take treatment,
alwaystakers always do, compliers follow their assignment.  The defier
pattern is ruled out by assumption and is not representable.

Potential-outcome cells that an assumption says cannot exist (for example a
nevertaker's outcome under treatment receipt) are undefined.  Units live as
columns: a Dataset holds the observed record of every unit, and the
simulator's GroundTruth holds the labels and the potential cells, NaN where
a cell is undefined.  Reading an undefined cell where a value is needed
raises UndefinedCell.  The scalar functions below state the compliance
rules one unit at a time; the tests hold the column code to them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, MonotonicityViolation


class ComplianceType(enum.Enum):
    NEVERTAKER = "nt"
    COMPLIER = "co"
    ALWAYSTAKER = "at"
    # no defier member: ruled out by the monotonicity assumption


# fixed order used for categorical draws, array codes and serialization
COMPLIANCE_ORDER: Tuple[ComplianceType, ...] = (
    ComplianceType.NEVERTAKER,
    ComplianceType.COMPLIER,
    ComplianceType.ALWAYSTAKER,
)

COMPLIANCE_CODE: Dict[ComplianceType, int] = {c: i for i, c in enumerate(COMPLIANCE_ORDER)}
# the int8 array codes of the three labels
NT, CO, AT = (COMPLIANCE_CODE[c] for c in (ComplianceType.NEVERTAKER, ComplianceType.COMPLIER,
                                           ComplianceType.ALWAYSTAKER))

# a complier contrast: its treated arm, then its control arm, each a
# (period 1, period 2) pair of treatments
Contrast = Tuple[Tuple[int, int], Tuple[int, int]]
# treatment in both periods versus in neither
DEFAULT_CONTRAST: Contrast = ((1, 1), (0, 0))

# y cells in fixed column order (w1, w2); index = 2*w1 + w2
Y_CELLS: Tuple[Tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


def y_cell_index(w1: int, w2: int) -> int:
    return 2 * w1 + w2


def classify_compliance(w_at_z0: int, w_at_z1: int) -> ComplianceType:
    """Map the receipt-under-assignment pair to a compliance label.

    (0,0) nevertaker, (0,1) complier, (1,1) alwaystaker.  The pair (1,0)
    would be a defier and raises MonotonicityViolation.
    """
    pair = (_as_binary(w_at_z0, "w_at_z0"), _as_binary(w_at_z1, "w_at_z1"))
    if pair == (0, 0):
        return ComplianceType.NEVERTAKER
    if pair == (0, 1):
        return ComplianceType.COMPLIER
    if pair == (1, 1):
        return ComplianceType.ALWAYSTAKER
    raise MonotonicityViolation(
        "receipt pattern (w_at_z0=1, w_at_z1=0) is a defier, which is excluded"
    )


def realized_treatment(c: ComplianceType, z: int) -> int:
    """Treatment actually received by a unit of type c assigned z."""
    z = _as_binary(z, "z")
    if c is ComplianceType.NEVERTAKER:
        return 0
    if c is ComplianceType.ALWAYSTAKER:
        return 1
    return z


def consistent_types(z1: int, w1: int, z2: int, w2: int) -> frozenset:
    """Set of compliance types that could have produced this history.

    An empty set marks corrupted data: no type reproduces the observed
    receipts in both periods.
    """
    z1 = _as_binary(z1, "z1")
    w1 = _as_binary(w1, "w1")
    z2 = _as_binary(z2, "z2")
    w2 = _as_binary(w2, "w2")
    out = []
    for c in COMPLIANCE_ORDER:
        if realized_treatment(c, z1) == w1 and realized_treatment(c, z2) == w2:
            out.append(c)
    return frozenset(out)


def _as_binary(v, name: str) -> int:
    iv = int(v)
    if iv != v or iv not in (0, 1):
        raise InvariantViolation(f"{name} must be 0 or 1, got {v!r}")
    return iv


# cells each compliance type's canonical table defines, one row per label in
# COMPLIANCE_ORDER: x2 cells by first-period receipt, y cells in Y_CELLS order
CANONICAL_X2_MASK = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
CANONICAL_Y_MASK = np.array([[1, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 1]], dtype=bool)


# a table's defined cells as bits: x2 cells in bits 0-1, y cells in bits 2-5
_X2_BITS, _Y_BITS = np.array([1, 2]), np.array([4, 8, 16, 32])
_CANONICAL_BITS = CANONICAL_X2_MASK @ _X2_BITS + CANONICAL_Y_MASK @ _Y_BITS
_FULL_BITS = 63


def invalid_tables(codes: np.ndarray, x2_cells: np.ndarray, y_cells: np.ndarray) -> np.ndarray:
    """Per row: whether its defined (non-NaN) cells are neither the canonical
    nor the full table for its label code."""
    defined = ~np.isnan(x2_cells) @ _X2_BITS + ~np.isnan(y_cells) @ _Y_BITS
    return (defined != _CANONICAL_BITS[codes]) & (defined != _FULL_BITS)


_COLUMNS = ("X1", "z1", "w1", "x2", "z2", "w2", "y")
_BINARY_COLUMNS = ("z1", "w1", "z2", "w2")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed units as validated, read-only columns of one length n.

    X1 is (n, p) float, z1/w1/z2/w2 are int8 with values 0 and 1, x2 and y
    are float.  The constructor copies its inputs.  A column of the wrong
    shape raises DimensionMismatch; a binary value other than 0 or 1, or a
    float that is not finite, raises InvariantViolation naming the 0-based
    unit.
    """

    X1: np.ndarray
    z1: np.ndarray
    w1: np.ndarray
    x2: np.ndarray
    z2: np.ndarray
    w2: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.X1)
        if len(shape) != 2:
            raise DimensionMismatch("X1 must be a 2-d array (n, p)")
        for name in _COLUMNS:
            v = np.asarray(getattr(self, name))
            if v.shape != (shape if name == "X1" else shape[:1]):
                raise DimensionMismatch(f"{name} has shape {v.shape}, X1 has {shape}")
            binary = name in _BINARY_COLUMNS
            bad = ((v != 0) & (v != 1)) if binary else ~np.isfinite(v)
            if bad.any():
                i = int(np.argmax(bad.reshape(shape[0], -1).any(axis=1)))
                raise InvariantViolation(
                    f"unit {i}: {name.lower()} must be {'0 or 1' if binary else 'finite'}")
            v = v.astype(np.int8 if binary else float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def covariate_dim(self) -> int:
        return self.X1.shape[1]

    def __len__(self) -> int:
        return self.X1.shape[0]

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """The read-only columns by name, not copied."""
        return {k: getattr(self, k) for k in _COLUMNS}

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _COLUMNS)
