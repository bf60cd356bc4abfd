"""Reading and writing datasets, ground-truth sidecars, and draw tables.

The CSV contract: header ``x1_0,...,x1_{p-1},z1,w1,x2,z2,w2,y``, one row per
unit, floats rendered with repr so a write/read/write cycle is
byte-identical.  JSON mirrors use the same flat field names.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .domain import ComplianceType, Dataset, ObservedUnit, PotentialTable
from .errors import DataError, InvariantViolation, SchemaError
from .simulate import GroundTruth

PathLike = Union[str, Path]

_FIXED_COLUMNS = ("z1", "w1", "x2", "z2", "w2", "y")


def dataset_header(covariate_dim: int) -> List[str]:
    return [f"x1_{j}" for j in range(covariate_dim)] + list(_FIXED_COLUMNS)


def _fmt(v: float) -> str:
    return repr(float(v))


def write_dataset_csv(data: Dataset, path: PathLike) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset_header(data.covariate_dim))
        for unit in data:
            row = [_fmt(v) for v in unit.x1]
            row += [str(unit.z1), str(unit.w1), _fmt(unit.x2),
                    str(unit.z2), str(unit.w2), _fmt(unit.y)]
            writer.writerow(row)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not a text file: {e}") from None


def _load_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or an integer literal too long to convert
        raise SchemaError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def _parse_binary(text: str, column: str, row: int) -> int:
    if text not in ("0", "1"):
        raise DataError(f"row {row}: column {column} must be 0 or 1, got {text!r}")
    return int(text)


def _parse_float(text: str, column: str, row: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"row {row}: column {column} is not a number: {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"row {row}: column {column} must be finite, got {text!r}")
    return v


def read_dataset_csv(path: PathLike) -> Dataset:
    """Parse a dataset table; malformed structure raises SchemaError and
    malformed values raise DataError naming the 1-based data row."""
    path = Path(path)
    text = _read_text(path)
    if not text.strip():
        raise SchemaError(f"{path} is empty")
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    header = [h.strip() for h in header]
    fixed = list(_FIXED_COLUMNS)
    p = len(header) - len(fixed)
    if p < 0 or header != dataset_header(p):
        raise SchemaError(
            f"{path}: header {header!r} does not match x1_0..x1_{{p-1}},"
            + ",".join(fixed))
    units = []
    for row_num, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}")
        x1 = np.array([_parse_float(row[j], header[j], row_num) for j in range(p)])
        z1 = _parse_binary(row[p + 0], "z1", row_num)
        w1 = _parse_binary(row[p + 1], "w1", row_num)
        x2 = _parse_float(row[p + 2], "x2", row_num)
        z2 = _parse_binary(row[p + 3], "z2", row_num)
        w2 = _parse_binary(row[p + 4], "w2", row_num)
        y = _parse_float(row[p + 5], "y", row_num)
        units.append(ObservedUnit(x1, z1, w1, x2, z2, w2, y))
    if not units:
        raise SchemaError(f"{path} has a header but no data rows")
    return Dataset(tuple(units), p)


def write_dataset_json(data: Dataset, path: PathLike) -> None:
    rows = []
    for unit in data:
        row = {f"x1_{j}": float(v) for j, v in enumerate(unit.x1)}
        row.update(z1=unit.z1, w1=unit.w1, x2=float(unit.x2),
                   z2=unit.z2, w2=unit.w2, y=float(unit.y))
        rows.append(row)
    Path(path).write_text(json.dumps(
        {"covariate_dim": data.covariate_dim, "units": rows}, indent=2) + "\n")


def read_dataset_json(path: PathLike) -> Dataset:
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, dict) or "units" not in doc or "covariate_dim" not in doc:
        raise SchemaError(f"{path}: expected an object with covariate_dim and units")
    p = doc["covariate_dim"]
    units = []
    for row_num, row in enumerate(doc["units"], start=1):
        missing = [k for k in dataset_header(p) if k not in row]
        if missing:
            raise SchemaError(f"{path}: unit {row_num} is missing {missing}")
        x1 = np.array([_parse_float(str(row[f"x1_{j}"]), f"x1_{j}", row_num)
                       for j in range(p)])
        z1 = _parse_binary(str(row["z1"]), "z1", row_num)
        w1 = _parse_binary(str(row["w1"]), "w1", row_num)
        x2 = _parse_float(str(row["x2"]), "x2", row_num)
        z2 = _parse_binary(str(row["z2"]), "z2", row_num)
        w2 = _parse_binary(str(row["w2"]), "w2", row_num)
        y = _parse_float(str(row["y"]), "y", row_num)
        units.append(ObservedUnit(x1, z1, w1, x2, z2, w2, y))
    if not units:
        raise SchemaError(f"{path} contains no units")
    return Dataset(tuple(units), p)


# ---------------------------------------------------------------------------
# ground-truth sidecar
# ---------------------------------------------------------------------------

def _cells_or_null(cells: Sequence[Optional[float]]) -> list:
    return [None if v is None else float(v) for v in cells]


def write_truth_json(truth: GroundTruth, path: PathLike) -> None:
    """Persist latent labels and potential cells next to a simulated dataset."""
    tables = []
    for tab in truth.tables:
        tables.append({"x2": _cells_or_null(tab.x2_cells),
                       "y": _cells_or_null(tab.y_cells)})
    doc = {
        "compliance": [c.value for c in truth.compliance],
        "tables": tables,
        "true_late": None if math.isnan(truth.true_late) else truth.true_late,
        "n_co": truth.n_co,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


_LABELS = {c.value: c for c in ComplianceType}


def _truth_number(value, what: str, path: Path) -> Optional[float]:
    """A JSON number as a finite float, or None for null."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: {what} must be a number or null, got {value!r:.40}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(f"{path}: {what} must be finite, got {value!r:.40}")
    return v


def _truth_cells(rec, key: str, size: int, unit: int, path: Path) -> tuple:
    cells = rec.get(key) if isinstance(rec, dict) else None
    if not isinstance(cells, list) or len(cells) != size:
        raise SchemaError(f"{path}: unit {unit}: {key} must be a list of {size} cells")
    return tuple(_truth_number(v, f"unit {unit} {key} cell", path) for v in cells)


def read_truth_json(path: PathLike) -> GroundTruth:
    """Parse a ground-truth sidecar.  A sidecar that is not the shape
    write_truth_json produces, or whose labels, tables and complier count
    disagree with each other, raises SchemaError."""
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key in ("compliance", "tables", "true_late", "n_co"):
        if key not in doc:
            raise SchemaError(f"{path}: missing key {key!r}")
    labels, recs, n_co = doc["compliance"], doc["tables"], doc["n_co"]
    if not isinstance(labels, list) or not isinstance(recs, list):
        raise SchemaError(f"{path}: compliance and tables must be lists")
    if len(recs) != len(labels):
        raise SchemaError(f"{path}: {len(recs)} tables for {len(labels)} compliance labels")
    compliance = []
    for unit, v in enumerate(labels, start=1):
        c = _LABELS.get(v) if isinstance(v, str) else None
        if c is None:
            raise SchemaError(f"{path}: unit {unit}: unknown compliance label {v!r:.40}")
        compliance.append(c)
    n_labelled = compliance.count(ComplianceType.COMPLIER)
    if isinstance(n_co, bool) or not isinstance(n_co, int) or n_co != n_labelled:
        raise SchemaError(f"{path}: n_co is {n_co!r:.40} but {n_labelled} units carry "
                          f"the complier label")
    tables = []
    for unit, (rec, c) in enumerate(zip(recs, compliance), start=1):
        x2 = _truth_cells(rec, "x2", 2, unit, path)
        y = _truth_cells(rec, "y", 4, unit, path)
        try:
            tables.append(PotentialTable(c, x2, y))
        except InvariantViolation as e:
            raise SchemaError(f"{path}: unit {unit}: {e}") from None
    late = _truth_number(doc["true_late"], "true_late", path)
    return GroundTruth(tuple(compliance), tuple(tables),
                       float("nan") if late is None else late, n_co)


def truth_sidecar_path(dataset_path: PathLike) -> Path:
    """dataset.csv -> dataset.truth.json, the convention the CLI uses."""
    p = Path(dataset_path)
    return p.with_name(p.stem + ".truth.json")


# ---------------------------------------------------------------------------
# posterior draw tables
# ---------------------------------------------------------------------------

def write_draws_csv(path: PathLike, theta_names: Sequence[str],
                    rows: Sequence[Tuple[int, int, float, np.ndarray]]) -> None:
    """Rows: (iteration, chain, contrast draw or NaN, parameter vector).

    A NaN contrast is rendered as an empty field so the column stays
    numeric for every reader.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "chain", "late"] + list(theta_names))
        for it, chain, late, vec in rows:
            late_txt = "" if math.isnan(late) else _fmt(late)
            writer.writerow([str(it), str(chain), late_txt] + [_fmt(v) for v in vec])


def _parse_int(text: str, column: str, row: int, path: Path) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(
            f"{path}: row {row}: column {column} is not an integer: {text!r:.40}") from None


def read_draws_csv(path: PathLike) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
    """Returns (theta_names, chain ids, contrast draws with NaN gaps, theta matrix)."""
    path = Path(path)
    text = _read_text(path)
    if not text.strip():
        raise SchemaError(f"{path} is empty")
    reader = csv.reader(io.StringIO(text))
    chains, lates, thetas = [], [], []
    try:
        header = next(reader)
        if header[:3] != ["iter", "chain", "late"]:
            raise SchemaError(f"{path}: header must start with iter,chain,late")
        names = header[3:]
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}")
            _parse_int(row[0], "iter", row_num, path)
            chains.append(_parse_int(row[1], "chain", row_num, path))
            lates.append(float("nan") if row[2] == ""
                         else _parse_float(row[2], "late", row_num))
            thetas.append([_parse_float(v, names[j], row_num) for j, v in enumerate(row[3:])])
    except csv.Error as e:
        raise SchemaError(f"{path}: {e}") from None
    return names, np.asarray(chains), np.asarray(lates), np.asarray(thetas)
