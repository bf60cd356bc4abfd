"""Compliance classification, potential-table shapes, and dataset columns."""

import numpy as np
import pytest

from seqlate.domain import (
    COMPLIANCE_CODE,
    COMPLIANCE_ORDER,
    ComplianceType,
    Dataset,
    Y_CELLS,
    classify_compliance,
    consistent_types,
    invalid_tables,
    realized_treatment,
    y_cell_index,
)
from seqlate.errors import DimensionMismatch, InvariantViolation, MonotonicityViolation

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


def _invalid(c, x2, y):
    """invalid_tables on one table, None marking an undefined cell."""
    cells = np.array(x2 + y, dtype=float)
    return bool(invalid_tables(np.int8(COMPLIANCE_CODE[c]), cells[:2], cells[2:]))


def test_potential_table_canonical_shapes():
    assert not _invalid(NT, (0.1, None), (0.2, None, None, None))
    assert not _invalid(AT, (None, 0.3), (None, None, None, 0.4))
    assert not _invalid(CO, (0.1, 0.2), (1.0, 2.0, 3.0, 4.0))


def test_potential_table_full_shape_allowed():
    for c in COMPLIANCE_ORDER:
        assert not _invalid(c, (0.1, 0.2), (1.0, 2.0, 3.0, 4.0))


@pytest.mark.parametrize("c,x2,y", [
    (NT, (0.1, 0.2), (0.2, None, None, None)),   # partial beyond canonical
    (NT, (None, 0.2), (0.2, None, None, None)),  # wrong x2 cell present
    (AT, (0.1, None), (None, None, None, 0.4)),
    (CO, (0.1, None), (1.0, 2.0, 3.0, 4.0)),
    (CO, (0.1, 0.2), (1.0, None, 3.0, 4.0)),
])
def test_potential_table_rejects_misshapen_cells(c, x2, y):
    assert _invalid(c, x2, y)


def _dataset(**columns):
    cols = dict(X1=np.array([[0.1, -0.2], [0.2, -0.4]]), z1=[0, 1], w1=[0, 1],
                x2=[0.5, 1.5], z2=[0, 1], w2=[0, 1], y=[1.0, 2.0])
    return Dataset(**{**cols, **columns})


def test_dataset_validates_binaries_and_finite_values():
    with pytest.raises(InvariantViolation, match="unit 0: z1 must be 0 or 1"):
        _dataset(z1=[2, 1])
    with pytest.raises(InvariantViolation, match="unit 0: x2 must be finite"):
        _dataset(x2=[np.inf, 1.5])


def test_dataset_columns_read_only():
    data = _dataset()
    for name, column in data.as_arrays().items():
        with pytest.raises(ValueError):
            column[0] = 1
        assert getattr(data, name) is column


def test_dataset_as_arrays_round_trip():
    data = Dataset(np.array([[0.1, -0.2], [0.2, -0.4], [0.3, -0.6], [0.4, -0.8]]),
                   [0, 1, 0, 1], [0, 1, 1, 0], [0.5, 1.5, 2.5, 3.5], [0, 1, 1, 0],
                   [0, 1, 1, 0], [1.0, 2.0, 3.0, 4.0])
    arr = data.as_arrays()
    assert arr["X1"].shape == (4, 2)
    assert np.array_equal(arr["y"], np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(arr["z1"], np.array([0, 1, 0, 1]))
    assert arr["z1"].dtype == np.int8 and arr["x2"].dtype == float
    back = Dataset(**arr)
    assert back == data


def test_dataset_rejects_wrong_covariate_dim():
    # X1 of one dimension, of too many rows, of three dimensions
    for X1 in (np.zeros(2), np.zeros((3, 1)), np.zeros((2, 1, 1))):
        with pytest.raises(DimensionMismatch):
            _dataset(X1=X1)


def test_dataset_equality_is_by_value():
    assert _dataset() == _dataset()
    assert _dataset() != _dataset(y=[1.0, 2.5])
    assert _dataset() != _dataset(X1=np.array([[0.1, -0.2], [0.2, -0.5]]))
