"""Potential-outcome bookkeeping for two-period randomized designs.

Units are randomized twice (z1, z2) and may refuse or seek treatment in each
period (w1, w2).  Compliance behaviour is a single latent label per unit that
does not change between periods: nevertakers never take treatment,
alwaystakers always do, compliers follow their assignment.  The defier
pattern is ruled out by assumption and is not representable.

Potential-outcome cells that an assumption says cannot exist (for example a
nevertaker's outcome under treatment receipt) are represented explicitly as
undefined; reading one raises UndefinedCell rather than returning a sentinel.

A Dataset stores its units as columns, and so does the simulator's
GroundTruth; the sampler, the baselines and the file readers and writers
work on those columns.  ObservedUnit and PotentialTable are value types
built from them on demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    MonotonicityViolation,
    UndefinedCell,
)


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


def _as_finite(v, name: str) -> float:
    fv = float(v)
    if not np.isfinite(fv):
        raise InvariantViolation(f"{name} must be finite, got {v!r}")
    return fv


# cells each compliance type's canonical table defines, one row per label in
# COMPLIANCE_ORDER: x2 cells by first-period receipt, y cells in Y_CELLS order
CANONICAL_X2_MASK = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
CANONICAL_Y_MASK = np.array([[1, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 1]], dtype=bool)
_CANONICAL_CELLS = [tuple(row) for row in np.hstack([CANONICAL_X2_MASK, CANONICAL_Y_MASK]).tolist()]


def invalid_tables(codes: np.ndarray, x2_cells: np.ndarray, y_cells: np.ndarray) -> np.ndarray:
    """Per row: whether its defined (non-NaN) cells are neither the canonical
    nor the full table for its label code."""
    def_x2, def_y = ~np.isnan(x2_cells), ~np.isnan(y_cells)
    canonical = ((def_x2 == CANONICAL_X2_MASK[codes]).all(axis=-1)
                 & (def_y == CANONICAL_Y_MASK[codes]).all(axis=-1))
    return ~(canonical | (def_x2.all(axis=-1) & def_y.all(axis=-1)))


@dataclass(frozen=True, eq=False)
class PotentialTable:
    """Full potential-outcome table for one unit.

    x2_cells holds the intermediate outcome under each first-period receipt,
    y_cells the final outcome under each receipt pair in Y_CELLS order.
    Undefined cells are None.  Two shapes are legal for a given compliance
    label: the canonical one (exactly the cells the assumptions define) and
    the full one (every cell present), which the simulator produces in its
    all-cells diagnostic mode.
    """

    compliance: ComplianceType
    x2_cells: Tuple[Optional[float], Optional[float]]
    y_cells: Tuple[Optional[float], Optional[float], Optional[float], Optional[float]]

    def __post_init__(self):
        if not isinstance(self.compliance, ComplianceType):
            raise InvariantViolation(f"compliance must be a ComplianceType, got {self.compliance!r}")
        x2 = tuple(None if v is None else _as_finite(v, "x2 cell") for v in self.x2_cells)
        y = tuple(None if v is None else _as_finite(v, "y cell") for v in self.y_cells)
        if len(x2) != 2 or len(y) != 4:
            raise InvariantViolation("x2_cells must have 2 entries and y_cells 4")
        object.__setattr__(self, "x2_cells", x2)
        object.__setattr__(self, "y_cells", y)
        defined = tuple(v is not None for v in x2 + y)
        if not (all(defined) or defined == _CANONICAL_CELLS[COMPLIANCE_CODE[self.compliance]]):
            defined_x2 = tuple(w for w in (0, 1) if x2[w] is not None)
            defined_y = tuple(cell for cell in Y_CELLS if y[y_cell_index(*cell)] is not None)
            raise InvariantViolation(
                f"cell pattern x2={defined_x2} y={defined_y} is not the canonical or "
                f"full table for {self.compliance.value}"
            )

    def x2(self, w1: int) -> float:
        w1 = _as_binary(w1, "w1")
        v = self.x2_cells[w1]
        if v is None:
            raise UndefinedCell(
                f"x2 cell w1={w1} is undefined for a {self.compliance.value} unit"
            )
        return v

    def y(self, w1: int, w2: int) -> float:
        w1 = _as_binary(w1, "w1")
        w2 = _as_binary(w2, "w2")
        v = self.y_cells[y_cell_index(w1, w2)]
        if v is None:
            raise UndefinedCell(
                f"y cell (w1={w1}, w2={w2}) is undefined for a {self.compliance.value} unit"
            )
        return v

    def __eq__(self, other):
        if not isinstance(other, PotentialTable):
            return NotImplemented
        return (self.compliance is other.compliance
                and self.x2_cells == other.x2_cells
                and self.y_cells == other.y_cells)

    def __hash__(self):
        return hash((self.compliance, self.x2_cells, self.y_cells))


@dataclass(frozen=True, eq=False)
class ObservedUnit:
    """One unit's observed record: covariates, assignments, receipts, outcomes."""

    x1: np.ndarray
    z1: int
    w1: int
    x2: float
    z2: int
    w2: int
    y: float

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=float).reshape(-1)
        if not np.all(np.isfinite(x1)):
            raise InvariantViolation("x1 must be finite")
        x1.flags.writeable = False
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "z1", _as_binary(self.z1, "z1"))
        object.__setattr__(self, "w1", _as_binary(self.w1, "w1"))
        object.__setattr__(self, "z2", _as_binary(self.z2, "z2"))
        object.__setattr__(self, "w2", _as_binary(self.w2, "w2"))
        object.__setattr__(self, "x2", _as_finite(self.x2, "x2"))
        object.__setattr__(self, "y", _as_finite(self.y, "y"))

    def consistent_types(self) -> frozenset:
        return consistent_types(self.z1, self.w1, self.z2, self.w2)

    def __eq__(self, other):
        if not isinstance(other, ObservedUnit):
            return NotImplemented
        return (np.array_equal(self.x1, other.x1)
                and (self.z1, self.w1, self.x2, self.z2, self.w2, self.y)
                == (other.z1, other.w1, other.x2, other.z2, other.w2, other.y))

    def __hash__(self):
        return hash((self.x1.tobytes(), self.z1, self.w1, self.x2, self.z2, self.w2, self.y))


_COLUMNS = ("X1", "z1", "w1", "x2", "z2", "w2", "y")
_BINARY_COLUMNS = ("z1", "w1", "z2", "w2")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed units as validated, read-only columns of one length n.

    X1 is (n, p) float, z1/w1/z2/w2 are int8 with values 0 and 1, x2 and y
    are float.  The constructor copies its inputs; a value that an
    ObservedUnit would refuse raises InvariantViolation naming the 0-based
    unit.  Units are built on demand by unit(i) and by iteration.
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

    @classmethod
    def from_units(cls, units: Iterable[ObservedUnit], covariate_dim: int) -> "Dataset":
        units = tuple(units)
        p = int(covariate_dim)
        if p < 0:
            raise InvariantViolation(f"covariate_dim must be >= 0, got {p}")
        for i, u in enumerate(units):
            if u.x1.shape != (p,):
                raise DimensionMismatch(
                    f"unit {i} has covariate dimension {u.x1.shape[0]}, expected {p}"
                )
        return cls(np.array([u.x1 for u in units]).reshape(len(units), p),
                   *(np.array([getattr(u, k) for u in units]) for k in _COLUMNS[1:]))

    @property
    def covariate_dim(self) -> int:
        return self.X1.shape[1]

    def __len__(self) -> int:
        return self.X1.shape[0]

    def unit(self, i: int) -> ObservedUnit:
        return ObservedUnit(self.X1[i], self.z1[i], self.w1[i], self.x2[i],
                            self.z2[i], self.w2[i], self.y[i])

    def __iter__(self):
        return map(self.unit, range(len(self)))

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """The read-only columns by name, not copied."""
        return {k: getattr(self, k) for k in _COLUMNS}

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _COLUMNS)
