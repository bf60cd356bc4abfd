"""Reading and writing datasets, ground-truth sidecars, and draw tables.

The CSV contract: header ``x1_0,...,x1_{p-1},z1,w1,x2,z2,w2,y``, one row per
unit, floats rendered with repr so a write/read/write cycle is
byte-identical.

The simulator's two files are written _CHUNK units at a time, so writing
holds one chunk's text, not the whole file's.  The truth sidecar's tables
are decoded into two buffers of cells, _TABLE_QUEUE tables at a time, so
reading holds the text, those buffers and a queue's cell objects, not an
object per cell of the file.  The CSV readers check and convert rows of
_PARSE_FIELDS fields in all at once, and parse a chunk that fails a check
again row by row, so an error names the same row and column as a row-by-row
reader.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from itertools import chain
from operator import itemgetter
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

# units rendered per write; each file's text is written one chunk at a time
_CHUNK = 2048
# tables whose cells the truth reader checks and writes at once
_TABLE_QUEUE = 256
# fields of the CSV rows the readers check and convert at once: 256 rows of
# the large-n dataset, 104 of the readme's draws table
_PARSE_FIELDS = 2304


def dataset_header(covariate_dim: int) -> List[str]:
    return [f"x1_{j}" for j in range(covariate_dim)] + list(_FIXED_COLUMNS)


def _columns(data: Dataset) -> List[np.ndarray]:
    """The dataset's columns in header order."""
    return ([data.X1[:, j] for j in range(data.covariate_dim)]
            + [getattr(data, k) for k in _FIXED_COLUMNS])


def write_dataset_csv(data: Dataset, path: PathLike) -> None:
    """Rows of repr of each float and %d of each 0/1, joined by "," and ended
    by "\\r\\n": csv.writer's bytes, as no field needs quoting."""
    columns = _columns(data)
    row = ",".join(["%r" if c.dtype.kind == "f" else "%d" for c in columns]) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(dataset_header(data.covariate_dim)) + "\r\n")
        for start in range(0, len(data), _CHUNK):
            chunk = np.column_stack([c[start:start + _CHUNK] for c in columns])
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _load_json(path: Path, object_pairs_hook=None, parse_constant=None):
    try:
        return json.loads(path.read_text(), object_pairs_hook=object_pairs_hook,
                          parse_constant=parse_constant)
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not a text file: {e}") from None
    except ValueError as e:
        # JSONDecodeError, or an integer literal too long to convert
        raise SchemaError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


_BINARY = frozenset({"0", "1"})


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


def _csv_table(path: Path):
    """Stream a CSV file: first its header, then lists of (1-based row
    number, fields) pairs for the non-empty rows, of up to _PARSE_FIELDS
    fields in all.  A file that is not text or not CSV, or a row whose field
    count is not the header's, raises SchemaError after the rows before it,
    to be checked first."""
    rows, error = [], None
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # a file of whitespace only is empty
            if _blank_row(header) and all(_blank_row(row) for row in reader):
                raise SchemaError(f"{path} is empty")
            yield header
            chunk_rows = max(1, _PARSE_FIELDS // (len(header) or 1))
            for row_num, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != len(header):
                    error = SchemaError(
                        f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}")
                    break
                rows.append((row_num, row))
                if len(rows) == chunk_rows:
                    yield rows
                    rows = []
    except csv.Error as e:
        error = SchemaError(f"{path}: {e}")
    except UnicodeDecodeError as e:
        error = SchemaError(f"{path}: not a text file: {e}")
    if rows:
        yield rows
    if error is not None:
        raise error


def read_dataset_csv(path: PathLike) -> Dataset:
    """Parse a dataset table; malformed structure raises SchemaError and
    malformed values raise DataError naming the 1-based data row.

    Fields are parsed _PARSE_FIELDS at a time into one typed buffer, so
    memory stays near the size of the returned columns.
    """
    path = Path(path)
    table = _csv_table(path)
    header = [h.strip() for h in next(table)]
    p = len(header) - len(_FIXED_COLUMNS)
    if p < 0 or header != dataset_header(p):
        raise SchemaError(f"{path}: header {header!r} does not match x1_0..x1_{{p-1}},"
                          + ",".join(_FIXED_COLUMNS))
    binary = (p, p + 1, p + 3, p + 4)
    values = array("d")
    for rows in table:
        fields = list(chain.from_iterable(map(itemgetter(1), rows)))
        try:
            chunk = array("d", map(float, fields))
            ok = ({*chain.from_iterable(fields[j::len(header)] for j in binary)} <= _BINARY
                  and np.isfinite(chunk).all())
        except ValueError:
            ok = False
        if not ok:      # parsed row by row, so DataError names the first bad field
            chunk = [_parse_binary(text, header[j], row_num) if j in binary
                     else _parse_float(text, header[j], row_num)
                     for row_num, row in rows for j, text in enumerate(row)]
        values.extend(chunk)
    if not values:
        raise SchemaError(f"{path} has a header but no data rows")
    M = np.frombuffer(values, dtype=np.float64).reshape(-1, len(header))
    return Dataset(M[:, :p], *(M[:, p + j] for j in range(len(_FIXED_COLUMNS))))


# ---------------------------------------------------------------------------
# ground-truth sidecar
# ---------------------------------------------------------------------------

_TABLE_JSON = ('{\n      "x2": [\n        %s,\n        %s\n      ],\n'
               '      "y": [\n        %s,\n        %s,\n        %s,\n        %s\n      ]\n    }')
_ITEM_SEP = ",\n    "


def _write_json_list(fh, n: int, render) -> None:
    """Write a list of n items as json.dumps(..., indent=2) lays it out as
    the value of a top-level key.  render(start, stop) gives the JSON text
    of items start..stop-1 joined by the item separator; it is called for
    one chunk of items at a time."""
    if not n:
        fh.write("[]")
        return
    fh.write("[\n    ")
    for start in range(0, n, _CHUNK):
        if start:
            fh.write(_ITEM_SEP)
        fh.write(render(start, min(start + _CHUNK, n)))
    fh.write("\n  ]")


def write_truth_json(truth: GroundTruth, path: PathLike) -> None:
    """Persist latent labels and potential cells next to a simulated dataset.

    The text is the one json.dumps(doc, indent=2) gives for
    {"compliance": [label, ...], "tables": [{"x2": [...], "y": [...]}, ...],
    "true_late": float or null, "n_co": int}, with null for undefined cells.
    It is rendered straight from the columns and written _CHUNK units at a
    time, so memory stays near one chunk's text whatever the unit count.
    """
    labels = [f'"{c.value}"' for c in COMPLIANCE_ORDER]

    def label_text(start: int, stop: int) -> str:
        return _ITEM_SEP.join([labels[c] for c in truth.codes[start:stop].tolist()])

    def table_text(start: int, stop: int) -> str:
        cells = np.concatenate([truth.x2_cells[start:stop], truth.y_cells[start:stop]], axis=1)
        cells = [repr(v) if v == v else "null" for v in cells.ravel().tolist()]
        return _ITEM_SEP.join([_TABLE_JSON] * (stop - start)) % tuple(cells)

    late = "null" if math.isnan(truth.true_late) else repr(truth.true_late)
    with Path(path).open("w") as fh:
        fh.write('{\n  "compliance": ')
        _write_json_list(fh, len(truth), label_text)
        fh.write(',\n  "tables": ')
        _write_json_list(fh, len(truth), table_text)
        fh.write(f',\n  "true_late": {late},\n  "n_co": {truth.n_co}\n}}\n')


_LABEL_CODES = {c.value: k for k, c in enumerate(COMPLIANCE_ORDER)}
_NAN = float("nan")


class _Table:
    """An object with exactly the keys x2 and y, decoded into a row of the
    cell buffers.  No JSON value has this type, so no field but a table
    accepts it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "{'x2': [...], 'y': [...]}"


class _NonFinite(float):
    """NaN or an infinity written as a JSON literal.  Being no plain float,
    it keeps a table that holds one out of the cell buffers."""

    __slots__ = ()


_CELL_TYPES = frozenset({float, int, type(None)})


def _flat_cells(lists: list, size: int) -> Optional[array]:
    """The cells of lists, each a list of size finite numbers or nulls, in
    one array with NaN for null; None if any is not such a list."""
    if set(map(type, lists)) != {list} or set(map(len, lists)) != {size}:
        return None
    cells = list(chain.from_iterable(lists))
    if not _CELL_TYPES.issuperset(map(type, cells)):
        return None
    try:
        cells = array("d", [_NAN if v is None else v for v in cells])
    except OverflowError:       # an integer beyond the float range
        return None
    # a number literal beyond the float range (1e999) decodes to infinity
    return None if np.isinf(cells).any() else cells


def _table_decoder():
    """A json.loads object_pairs_hook, and a function that returns what it
    decoded once json.loads is done.

    The hook decodes each object with exactly the keys x2 and y, in either
    order, as a _Table, and every other object as a dict.  Each table gets
    the next row of two cell buffers: its cells are checked and written
    _TABLE_QUEUE tables at a time, NaN for null.  A table whose cells are not a
    list of 2 and a list of 4 finite numbers or nulls gets a row of NaN and
    is kept, keyed by its row, as the dict to check cell by cell in its
    place.  The function returns the (rows, 2) and (rows, 4) cells, the
    _Tables in row order and those dicts.
    """
    x2_cells, y_cells, tables, loose = array("d"), array("d"), [], {}
    x2s, ys = [], []    # the cell lists of the tables not yet written

    def write(x2_lists: list, y_lists: list) -> bool:
        x2, y = _flat_cells(x2_lists, 2), _flat_cells(y_lists, 4)
        if x2 is None or y is None:
            return False
        x2_cells.extend(x2)
        y_cells.extend(y)
        return True

    def flush() -> None:
        if not write(x2s, ys):
            for row, (x2, y) in enumerate(zip(x2s, ys), start=len(tables) - len(x2s)):
                if not write([x2], [y]):
                    x2_cells.fromlist([_NAN] * 2)
                    y_cells.fromlist([_NAN] * 4)
                    loose[row] = {"x2": x2, "y": y}
        x2s.clear()
        ys.clear()

    def hook(pairs):
        if len(pairs) == 2:
            (k0, v0), (k1, v1) = pairs
            if k0 == "x2" and k1 == "y":
                x2s.append(v0)
                ys.append(v1)
            elif k0 == "y" and k1 == "x2":
                x2s.append(v1)
                ys.append(v0)
            else:
                return dict(pairs)
            table = _Table()
            tables.append(table)
            if len(x2s) == _TABLE_QUEUE:
                flush()
            return table
        return dict(pairs)

    def finish():
        if x2s:
            flush()
        return (np.frombuffer(x2_cells, dtype=np.float64).reshape(-1, 2),
                np.frombuffer(y_cells, dtype=np.float64).reshape(-1, 4), tables, loose)

    return hook, finish


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
    disagree with each other, raises SchemaError naming the first bad unit.

    The decoder keeps no per-cell objects beyond _TABLE_QUEUE tables: it
    writes their cells into two buffers that many tables at a time, and
    decodes each table as a marker.  A table that is not in the buffers (an
    extra key, say, or a cell that is no number) is checked cell by cell.
    """
    path = Path(path)
    hook, finish = _table_decoder()
    doc = _load_json(path, hook, _NonFinite)
    x2_cells, y_cells, tables, loose = finish()
    if type(doc) is _Table:     # an object, but without the sidecar's keys
        doc = {}
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
    try:    # get gives None for an unknown label, which array rejects, and raises for a list
        codes = np.frombuffer(array("b", map(_LABEL_CODES.get, labels)), dtype=np.int8)
    except TypeError:
        unit = [isinstance(v, str) and v in _LABEL_CODES for v in labels].index(False)
        raise SchemaError(f"{path}: unit {unit + 1}: unknown compliance label "
                          f"{labels[unit]!r:.40}") from None
    n_labelled = int((codes == CO).sum())
    if isinstance(n_co, bool) or not isinstance(n_co, int) or n_co != n_labelled:
        raise SchemaError(f"{path}: n_co is {n_co!r:.40} but {n_labelled} units carry "
                          f"the complier label")
    error = None
    # write_truth_json's tables are the buffers' rows in order; otherwise
    # gather each unit's row, up to the first unit whose cells are malformed
    if loose or recs != tables:
        row_of = {table: row for row, table in enumerate(tables)}
        rows, dicts = [], []
        for unit, rec in enumerate(recs, start=1):
            if type(rec) is _Table:
                if row_of[rec] not in loose:
                    rows.append(row_of[rec])
                    continue
                rec = loose[row_of[rec]]
            try:
                dicts.append(_truth_cells(rec, "x2", 2, unit, path)
                             + _truth_cells(rec, "y", 4, unit, path))
            except SchemaError as e:
                error = e
                break
            rows.append(len(x2_cells) + len(dicts) - 1)
        dicts = np.array(dicts, dtype=np.float64).reshape(-1, 6)     # NaN for None
        x2_cells = np.concatenate([x2_cells, dicts[:, :2]])[rows]
        y_cells = np.concatenate([y_cells, dicts[:, 2:]])[rows]
    # a misshapen table is reported before a later unit's malformed cells
    # or a bad true_late
    bad = invalid_tables(codes[:len(x2_cells)], x2_cells, y_cells)
    if bad.any():
        unit = int(bad.argmax())
        raise SchemaError(f"{path}: unit {unit + 1}: cells are not the canonical or full "
                          f"table for {COMPLIANCE_ORDER[codes[unit]].value}")
    if error is not None:
        raise error
    late = _truth_number(doc["true_late"], "true_late", path)
    return GroundTruth(codes, x2_cells, y_cells, _NAN if late is None else late, n_co)


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

    Rows are parsed _PARSE_FIELDS fields at a time into typed buffers, so
    memory stays near the size of the returned arrays.
    """
    path = Path(path)
    chains, lates, thetas = array("q"), array("d"), array("d")
    table = _csv_table(path)
    header = next(table)
    if header[:3] != ["iter", "chain", "late"]:
        raise SchemaError(f"{path}: header must start with iter,chain,late")
    names = header[3:]
    k = 1 + len(names)      # the late and parameter fields of a row
    for rows in table:
        fields = list(chain.from_iterable(map(itemgetter(1), rows)))
        iters, ids = fields[0::k + 2], fields[1::k + 2]
        del fields[0::k + 2], fields[0::k + 1]      # the iter fields, then the chain fields
        late_texts = fields[0::k]
        fields[0::k] = [text or "nan" for text in late_texts]
        try:
            set(map(int, iters))                # ValueError for a field int() rejects
            ids = array("q", map(int, ids))     # OverflowError for an id out of range
            M = np.frombuffer(array("d", map(float, fields))).reshape(-1, k)
            # the only non-finite values are those of empty late fields
            ok = M.size - np.count_nonzero(np.isfinite(M)) == late_texts.count("")
        except (ValueError, OverflowError):
            ok = False
        if ok:
            chains.extend(ids)
            lates.frombytes(M[:, 0].tobytes())
            thetas.frombytes(M[:, 1:].tobytes())
            continue
        for row_num, row in rows:   # row by row, so the error names the first bad field
            _parse_int(row[0], "iter", row_num, path)
            chain_id = _parse_int(row[1], "chain", row_num, path)
            if not -2 ** 63 <= chain_id < 2 ** 63:
                raise SchemaError(f"{path}: row {row_num}: chain id out of range: {row[1]!r:.40}")
            chains.append(chain_id)
            lates.append(_NAN if row[2] == "" else _parse_float(row[2], "late", row_num))
            thetas.extend([_parse_float(v, names[j], row_num) for j, v in enumerate(row[3:])])
    theta = np.frombuffer(thetas, dtype=np.float64)
    return (names, np.frombuffer(chains, dtype=np.int64), np.frombuffer(lates, dtype=np.float64),
            theta.reshape(len(chains), len(names)) if chains else theta)
