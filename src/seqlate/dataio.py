"""Reading and writing datasets, ground-truth sidecars, and draw tables.

The CSV contract: header ``x1_0,...,x1_{p-1},z1,w1,x2,z2,w2,y``, one row per
unit, floats rendered with repr so a write/read/write cycle is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .domain import (
    CO,
    COMPLIANCE_ORDER,
    DEFAULT_CONTRAST,
    Contrast,
    Dataset,
    invalid_tables,
)
from .errors import DataError, SchemaError
from .simulate import GroundTruth

PathLike = Union[str, Path]

_FIXED_COLUMNS = ("z1", "w1", "x2", "z2", "w2", "y")


def dataset_header(covariate_dim: int) -> List[str]:
    return [f"x1_{j}" for j in range(covariate_dim)] + list(_FIXED_COLUMNS)


def _columns(data: Dataset) -> List[np.ndarray]:
    """The dataset's columns in header order."""
    return ([data.X1[:, j] for j in range(data.covariate_dim)]
            + [getattr(data, k) for k in _FIXED_COLUMNS])


def write_dataset_csv(data: Dataset, path: PathLike) -> None:
    # repr of each float, str of each 0/1
    text = [list(map(repr if c.dtype.kind == "f" else str, c.tolist())) for c in _columns(data)]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset_header(data.covariate_dim))
        writer.writerows(zip(*text))


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not a text file: {e}") from None
    except ValueError as e:
        # JSONDecodeError, or an integer literal too long to convert
        raise SchemaError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


_BINARY = ("0", "1")


def _parse_binary(text: str, column: str, row: int) -> int:
    if text not in _BINARY:
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


def _dataset_row(row: List[str], header: List[str], row_num: int) -> List[float]:
    """The fields of one dataset row as floats; DataError names the first
    field that is not a 0/1 text in a binary column or a finite number."""
    p = len(row) - len(_FIXED_COLUMNS)
    try:
        parsed = list(map(float, row))
        # a non-finite sum may also be an overflow of finite fields
        ok = (row[p] in _BINARY and row[p + 1] in _BINARY and row[p + 3] in _BINARY
              and row[p + 4] in _BINARY and math.isfinite(sum(parsed)))
    except ValueError:
        ok = False
    if not ok:
        for j, text in enumerate(row):
            if j in (p, p + 1, p + 3, p + 4):
                _parse_binary(text, header[j], row_num)
            else:
                _parse_float(text, header[j], row_num)
    return parsed


def _csv_table(path: Path):
    """Stream a CSV file: first its header, then (1-based row number,
    fields) for each non-empty row, whose field count must match the
    header's.  A file that is not text or not CSV raises SchemaError."""
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # a file of whitespace only is empty
            if _blank_row(header) and all(_blank_row(row) for row in reader):
                raise SchemaError(f"{path} is empty")
            yield header
            for row_num, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != len(header):
                    raise SchemaError(
                        f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}")
                yield row_num, row
    except csv.Error as e:
        raise SchemaError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not a text file: {e}") from None


def read_dataset_csv(path: PathLike) -> Dataset:
    """Parse a dataset table; malformed structure raises SchemaError and
    malformed values raise DataError naming the 1-based data row.

    Fields are parsed as they are read into one typed buffer, so memory
    stays near the size of the returned columns.
    """
    path = Path(path)
    table = _csv_table(path)
    header = [h.strip() for h in next(table)]
    p = len(header) - len(_FIXED_COLUMNS)
    if p < 0 or header != dataset_header(p):
        raise SchemaError(f"{path}: header {header!r} does not match x1_0..x1_{{p-1}},"
                          + ",".join(_FIXED_COLUMNS))
    values = array("d")
    for row_num, row in table:
        values.extend(_dataset_row(row, header, row_num))
    if not values:
        raise SchemaError(f"{path} has a header but no data rows")
    M = np.frombuffer(values, dtype=np.float64).reshape(-1, p + len(_FIXED_COLUMNS))
    return Dataset(M[:, :p], *(M[:, p + j] for j in range(len(_FIXED_COLUMNS))))


# ---------------------------------------------------------------------------
# ground-truth sidecar
# ---------------------------------------------------------------------------

_TABLE_JSON = ('{\n      "x2": [\n        %s,\n        %s\n      ],\n'
               '      "y": [\n        %s,\n        %s,\n        %s,\n        %s\n      ]\n    }')


def _json_list(items: List[str]) -> str:
    """A list of rendered JSON values as json.dumps(..., indent=2) lays it
    out as the value of a top-level key."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def write_truth_json(truth: GroundTruth, path: PathLike) -> None:
    """Persist latent labels and potential cells next to a simulated dataset.

    The text is the one json.dumps(doc, indent=2) gives for
    {"compliance": [label, ...], "tables": [{"x2": [...], "y": [...]}, ...],
    "true_late": float or null, "n_co": int}, with null for undefined cells,
    rendered straight from the columns.
    """
    labels = [f'"{c.value}"' for c in COMPLIANCE_ORDER]
    cells = np.concatenate([truth.x2_cells, truth.y_cells], axis=1).ravel().tolist()
    cells = [repr(v) if v == v else "null" for v in cells]
    tables = [_TABLE_JSON % tuple(cells[k:k + 6]) for k in range(0, len(cells), 6)]
    late = "null" if math.isnan(truth.true_late) else repr(truth.true_late)
    Path(path).write_text(
        '{\n  "compliance": ' + _json_list([labels[c] for c in truth.codes.tolist()])
        + ',\n  "tables": ' + _json_list(tables)
        + f',\n  "true_late": {late},\n  "n_co": {truth.n_co}\n}}\n')


_LABEL_CODES = {c.value: k for k, c in enumerate(COMPLIANCE_ORDER)}


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


def _truth_cells(rec, key: str, size: int, unit: int, path: Path) -> list:
    cells = rec.get(key) if isinstance(rec, dict) else None
    if not isinstance(cells, list) or len(cells) != size:
        raise SchemaError(f"{path}: unit {unit}: {key} must be a list of {size} cells")
    return [_truth_number(v, f"unit {unit} {key} cell", path) for v in cells]


def read_truth_json(path: PathLike) -> GroundTruth:
    """Parse a ground-truth sidecar.  A sidecar that is not the shape
    write_truth_json produces, or whose labels, tables and complier count
    disagree with each other, raises SchemaError naming the first bad unit."""
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
    codes = [_LABEL_CODES.get(v) if isinstance(v, str) else None for v in labels]
    if None in codes:
        unit = codes.index(None)
        raise SchemaError(f"{path}: unit {unit + 1}: unknown compliance label "
                          f"{labels[unit]!r:.40}")
    codes = np.array(codes, dtype=np.int8)
    n_labelled = int((codes == CO).sum())
    if isinstance(n_co, bool) or not isinstance(n_co, int) or n_co != n_labelled:
        raise SchemaError(f"{path}: n_co is {n_co!r:.40} but {n_labelled} units carry "
                          f"the complier label")
    try:
        # all cells at once, NaN for null; any fault falls through to the unit-by-unit check
        x2, y = [rec["x2"] for rec in recs], [rec["y"] for rec in recs]
        flat = [v for cells in x2 + y for v in cells]
        x2 = np.array(x2, dtype=float).reshape(len(recs), 2)
        y = np.array(y, dtype=float).reshape(len(recs), 4)
        if (not set(map(type, flat)) <= {float, int, type(None)}
                or np.isfinite(x2).sum() + np.isfinite(y).sum() + flat.count(None) != len(flat)
                or invalid_tables(codes, x2, y).any()):
            raise ValueError("a cell or a table is malformed")
        late = _truth_number(doc["true_late"], "true_late", path)
        return GroundTruth(codes, x2, y, float("nan") if late is None else late, n_co)
    except (ValueError, LookupError, TypeError, OverflowError) as e:
        error = e
    # name the first bad unit; a bad table is reported before a bad true_late
    for unit, (code, rec) in enumerate(zip(codes, recs), start=1):
        cells = _truth_cells(rec, "x2", 2, unit, path) + _truth_cells(rec, "y", 4, unit, path)
        cells = np.array(cells, dtype=float)     # None becomes NaN
        if invalid_tables(code, cells[:2], cells[2:]):
            raise SchemaError(f"{path}: unit {unit}: cells are not the canonical or full "
                              f"table for {COMPLIANCE_ORDER[code].value}")
    raise error if isinstance(error, SchemaError) else SchemaError(f"{path}: malformed tables")


def read_summary_contrast(path: PathLike) -> Contrast:
    """The (treated, control) arms a fit's summary.json records; the
    default (1,1) versus (0,0) for a summary without the contrast key."""
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    if "contrast" not in doc:
        return DEFAULT_CONTRAST
    arms = doc["contrast"]
    ok = (isinstance(arms, list) and len(arms) == 2
          and all(isinstance(arm, list) and len(arm) == 2
                  and all(v in (0, 1) and type(v) is int for v in arm) for arm in arms))
    if not ok:
        raise SchemaError(f"{path}: contrast must be two pairs of 0/1 integers, "
                          f"got {arms!r:.60}")
    return (arms[0][0], arms[0][1]), (arms[1][0], arms[1][1])


def truth_sidecar_path(dataset_path: PathLike) -> Path:
    """dataset.csv -> dataset.truth.json, the convention the CLI uses."""
    p = Path(dataset_path)
    return p.with_name(p.stem + ".truth.json")


# ---------------------------------------------------------------------------
# posterior draw tables
# ---------------------------------------------------------------------------

def write_draws_csv(path: PathLike, theta_names: Sequence[str], late: np.ndarray,
                    theta: np.ndarray) -> None:
    """One row per draw, chain by chain: its iteration (1-based), chain
    index, contrast draw and parameter vector, from the (chains, draws)
    contrast draws late and the (chains, draws, d) parameter vectors theta.

    Floats are written with repr, and a NaN contrast as an empty field so
    the column stays numeric for every reader.  No field needs quoting, so
    the rows are csv.writer's: fields joined by "," and ended by "\r\n".
    """
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(["iter", "chain", "late", *theta_names]) + "\r\n")
        for chain, (lates, vecs) in enumerate(zip(late, theta)):
            for j, (v, vec) in enumerate(zip(lates.tolist(), vecs.tolist()), start=1):
                late_txt = "" if v != v else repr(v)
                fh.write(",".join([str(j), str(chain), late_txt, *map(repr, vec)]) + "\r\n")


def _parse_int(text: str, column: str, row: int, path: Path) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(
            f"{path}: row {row}: column {column} is not an integer: {text!r:.40}") from None


def _blank_row(row: List[str]) -> bool:
    return len(row) <= 1 and not "".join(row).strip()


def read_draws_csv(path: PathLike) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
    """Returns (theta_names, chain ids, contrast draws with NaN gaps, theta matrix).

    Rows are parsed as they are read into typed buffers, so memory stays
    near the size of the returned arrays.
    """
    path = Path(path)
    chains, lates, thetas = array("q"), array("d"), array("d")
    table = _csv_table(path)
    header = next(table)
    if header[:3] != ["iter", "chain", "late"]:
        raise SchemaError(f"{path}: header must start with iter,chain,late")
    names = header[3:]
    for row_num, row in table:
        _parse_int(row[0], "iter", row_num, path)
        chain = _parse_int(row[1], "chain", row_num, path)
        if not -2 ** 63 <= chain < 2 ** 63:
            raise SchemaError(f"{path}: row {row_num}: chain id out of range: {row[1]!r:.40}")
        chains.append(chain)
        lates.append(float("nan") if row[2] == "" else _parse_float(row[2], "late", row_num))
        thetas.extend([_parse_float(v, names[j], row_num) for j, v in enumerate(row[3:])])
    theta = np.frombuffer(thetas, dtype=np.float64)
    return (names, np.frombuffer(chains, dtype=np.int64), np.frombuffer(lates, dtype=np.float64),
            theta.reshape(len(chains), len(names)) if chains else theta)
