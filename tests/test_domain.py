"""Compliance classification, potential tables, and dataset containers."""

import numpy as np
import pytest

from seqlate.domain import (
    COMPLIANCE_ORDER,
    ComplianceType,
    Dataset,
    ObservedUnit,
    PotentialTable,
    Y_CELLS,
    classify_compliance,
    consistent_types,
    realized_treatment,
    y_cell_index,
)
from seqlate.errors import (
    DimensionMismatch,
    InvariantViolation,
    MonotonicityViolation,
    UndefinedCell,
)

NT = ComplianceType.NEVERTAKER
CO = ComplianceType.COMPLIER
AT = ComplianceType.ALWAYSTAKER


def test_classify_compliance_maps_receipt_pairs():
    # arguments are the receipts under assignment 0 and assignment 1
    assert classify_compliance(0, 0) is NT
    assert classify_compliance(0, 1) is CO
    assert classify_compliance(1, 1) is AT
    with pytest.raises(MonotonicityViolation):
        classify_compliance(1, 0)


@pytest.mark.parametrize("c,z,expected", [
    (NT, 0, 0), (NT, 1, 0),
    (CO, 0, 0), (CO, 1, 1),
    (AT, 0, 1), (AT, 1, 1),
])
def test_realized_treatment(c, z, expected):
    assert realized_treatment(c, z) == expected


def test_classify_round_trips_realized_treatment():
    for c in COMPLIANCE_ORDER:
        assert classify_compliance(realized_treatment(c, 0), realized_treatment(c, 1)) is c


# every (z1, w1, z2, w2) combination, checked against direct simulation
_ALL_CASES = [
    (z1, w1, z2, w2)
    for z1 in (0, 1) for w1 in (0, 1) for z2 in (0, 1) for w2 in (0, 1)
]


@pytest.mark.parametrize("z1,w1,z2,w2", _ALL_CASES)
def test_consistent_types_exhaustive(z1, w1, z2, w2):
    expected = frozenset(
        c for c in COMPLIANCE_ORDER
        if realized_treatment(c, z1) == w1 and realized_treatment(c, z2) == w2
    )
    assert consistent_types(z1, w1, z2, w2) == expected


def test_consistent_types_known_cells():
    assert consistent_types(0, 0, 0, 0) == frozenset({NT, CO})
    assert consistent_types(1, 1, 1, 1) == frozenset({CO, AT})
    assert consistent_types(0, 1, 1, 1) == frozenset({AT})
    assert consistent_types(1, 0, 0, 0) == frozenset({NT})
    # a unit that takes treatment unassigned in period 1 but refuses it
    # assigned in period 2 fits no stratum
    assert consistent_types(0, 1, 1, 0) == frozenset()


def test_y_cell_index_order():
    assert [y_cell_index(w1, w2) for (w1, w2) in Y_CELLS] == [0, 1, 2, 3]


def test_potential_table_canonical_shapes():
    nt_tab = PotentialTable(NT, (0.1, None), (0.2, None, None, None))
    at_tab = PotentialTable(AT, (None, 0.3), (None, None, None, 0.4))
    co_tab = PotentialTable(CO, (0.1, 0.2), (1.0, 2.0, 3.0, 4.0))
    assert nt_tab.x2(0) == 0.1
    assert at_tab.y(1, 1) == 0.4
    assert co_tab.y(0, 1) == 2.0


def test_potential_table_full_shape_allowed():
    tab = PotentialTable(NT, (0.1, 0.2), (1.0, 2.0, 3.0, 4.0))
    assert tab.x2(1) == 0.2
    assert tab.y(1, 0) == 3.0


@pytest.mark.parametrize("c,x2,y", [
    (NT, (0.1, 0.2), (0.2, None, None, None)),   # partial beyond canonical
    (NT, (None, 0.2), (0.2, None, None, None)),  # wrong x2 cell present
    (AT, (0.1, None), (None, None, None, 0.4)),
    (CO, (0.1, None), (1.0, 2.0, 3.0, 4.0)),
    (CO, (0.1, 0.2), (1.0, None, 3.0, 4.0)),
])
def test_potential_table_rejects_misshapen_cells(c, x2, y):
    with pytest.raises(InvariantViolation):
        PotentialTable(c, x2, y)


def test_potential_table_undefined_cell_raises():
    tab = PotentialTable(NT, (0.1, None), (0.2, None, None, None))
    with pytest.raises(UndefinedCell):
        tab.x2(1)
    with pytest.raises(UndefinedCell):
        tab.y(1, 1)


def test_observed_unit_validates_binaries():
    with pytest.raises(InvariantViolation):
        ObservedUnit(np.array([0.0]), 2, 0, 0.5, 0, 0, 1.0)
    with pytest.raises(InvariantViolation):
        ObservedUnit(np.array([0.0]), 0, 0, np.inf, 0, 0, 1.0)


def test_observed_unit_consistent_types():
    unit = ObservedUnit(np.array([0.3]), 0, 0, 0.5, 0, 0, 1.0)
    assert unit.consistent_types() == frozenset({NT, CO})


def test_observed_unit_covariates_read_only():
    unit = ObservedUnit(np.array([0.3]), 0, 0, 0.5, 0, 0, 1.0)
    with pytest.raises(ValueError):
        unit.x1[0] = 9.0


def test_dataset_as_arrays_round_trip():
    units = (
        ObservedUnit(np.array([0.1, -0.2]), 0, 0, 0.5, 0, 0, 1.0),
        ObservedUnit(np.array([0.2, -0.4]), 1, 1, 1.5, 1, 1, 2.0),
        ObservedUnit(np.array([0.3, -0.6]), 0, 1, 2.5, 1, 1, 3.0),
        ObservedUnit(np.array([0.4, -0.8]), 1, 0, 3.5, 0, 0, 4.0),
    )
    data = Dataset.from_units(units, 2)
    arr = data.as_arrays()
    assert arr["X1"].shape == (4, 2)
    assert np.array_equal(arr["y"], np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(arr["z1"], np.array([0, 1, 0, 1]))
    back = Dataset(**arr)
    assert back == data


def test_dataset_rejects_wrong_covariate_dim():
    unit = ObservedUnit(np.array([0.1]), 0, 0, 0.5, 0, 0, 1.0)
    with pytest.raises(DimensionMismatch):
        Dataset.from_units((unit,), 2)


def test_dataset_equality_is_by_value():
    u1 = ObservedUnit(np.array([0.1]), 0, 0, 0.5, 0, 0, 1.0)
    u2 = ObservedUnit(np.array([0.1]), 0, 0, 0.5, 0, 0, 1.0)
    assert Dataset.from_units((u1,), 1) == Dataset.from_units((u2,), 1)
    u3 = ObservedUnit(np.array([0.1]), 0, 0, 0.5, 0, 0, 1.5)
    assert Dataset.from_units((u1,), 1) != Dataset.from_units((u3,), 1)
