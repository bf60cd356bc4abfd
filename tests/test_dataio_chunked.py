"""The simulator's files in chunks, the truth reader's cell buffer and the
CSV readers' parse chunks: byte layout of the chunked writers, agreement of
each reader with the reader it replaced, and the memory each step takes."""

import csv
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlate.dataio import (
    _CHUNK,
    _FIXED_COLUMNS,
    _LABEL_CODES,
    _PARSE_FIELDS,
    _TABLE_QUEUE,
    _blank_row,
    _load_json,
    _parse_binary,
    _parse_float,
    _parse_int,
    _truth_cells,
    _truth_number,
    dataset_header,
    read_dataset_csv,
    read_draws_csv,
    read_truth_json,
    write_dataset_csv,
    write_draws_csv,
    write_truth_json,
)
from seqlate.domain import (
    CANONICAL_X2_MASK,
    CANONICAL_Y_MASK,
    CO,
    COMPLIANCE_ORDER,
    Dataset,
    invalid_tables,
)
from seqlate.errors import DataError, SchemaError, SeqlateError
from seqlate.simulate import ConstantCompliance, DgpConfig, GroundTruth, simulate_dataset


# ---------------------------------------------------------------------------
# chunked writers: the bytes of a one-shot rendering
# ---------------------------------------------------------------------------

def _one_shot_truth_text(truth):
    """The sidecar text its docstring promises: json.dumps(doc, indent=2) + newline."""
    def cells(row):
        return [None if math.isnan(v) else v for v in row]
    doc = {"compliance": [COMPLIANCE_ORDER[c].value for c in truth.codes.tolist()],
           "tables": [{"x2": cells(a), "y": cells(b)}
                      for a, b in zip(truth.x2_cells.tolist(), truth.y_cells.tolist())],
           "true_late": None if math.isnan(truth.true_late) else truth.true_late,
           "n_co": truth.n_co}
    return json.dumps(doc, indent=2) + "\n"


def _one_shot_csv_text(data):
    """csv.writer over every row at once: repr of each float, str of each 0/1."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(dataset_header(data.covariate_dim))
    for i in range(len(data)):
        writer.writerow([repr(float(v)) for v in data.X1[i]]
                        + [str(int(data.z1[i])), str(int(data.w1[i])), repr(float(data.x2[i])),
                           str(int(data.z2[i])), str(int(data.w2[i])), repr(float(data.y[i]))])
    return buf.getvalue()


@pytest.mark.parametrize("cfg", [
    DgpConfig(n=1, seed=95),
    DgpConfig(n=_CHUNK, seed=96, p=2),
    DgpConfig(n=_CHUNK + 1, seed=97, p=0),
    DgpConfig(n=40, seed=98, p=3, all_cells=True),
    DgpConfig(n=30, seed=99, compliance_probs=ConstantCompliance((0.5, 0.0, 0.5))),
], ids=["n=1", "n=chunk", "n=chunk+1", "all_cells", "no_compliers"])
def test_chunked_writers_match_one_shot_rendering(tmp_path, cfg):
    data, truth = simulate_dataset(cfg)
    write_dataset_csv(data, tmp_path / "dataset.csv")
    write_truth_json(truth, tmp_path / "dataset.truth.json")
    assert (tmp_path / "dataset.csv").read_bytes() == _one_shot_csv_text(data).encode()
    assert (tmp_path / "dataset.truth.json").read_text() == _one_shot_truth_text(truth)
    if cfg.all_cells:
        assert not np.isnan(truth.y_cells).any()
    if cfg.compliance_probs.probs[1] == 0.0:
        assert truth.n_co == 0 and math.isnan(truth.true_late)


# ---------------------------------------------------------------------------
# truth reader: differential check against the whole-document reader
# ---------------------------------------------------------------------------

def _reference_read_truth_json(path):
    """read_truth_json as it was before the table hook: decode the whole
    document into dicts, convert every cell at once, and on any fault name
    the first bad unit with a unit-by-unit check."""
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
    for unit, (code, rec) in enumerate(zip(codes, recs), start=1):
        cells = _truth_cells(rec, "x2", 2, unit, path) + _truth_cells(rec, "y", 4, unit, path)
        cells = np.array(cells, dtype=float)
        if invalid_tables(code, cells[:2], cells[2:]):
            raise SchemaError(f"{path}: unit {unit}: cells are not the canonical or full "
                              f"table for {COMPLIANCE_ORDER[code].value}")
    raise error if isinstance(error, SchemaError) else SchemaError(f"{path}: malformed tables")


# the repr of a table-shaped object in a message, up to the message's end or
# the rest of the n_co message: the reader prints a fixed text for a table
# it decoded as a marker, where the reference printed the object's cells
_TABLE_REPR = re.compile(r"\{'(?:x2|y)'.*?(?= but \d+ units carry|$)")


def _read_outcome(reader, path):
    """The GroundTruth a reader returns, or its SchemaError's message with
    any table-shaped object's repr masked."""
    try:
        return reader(path)
    except SchemaError as e:
        return ("SchemaError", _TABLE_REPR.sub("<table>", str(e)))


def _assert_readers_agree(path):
    got, want = _read_outcome(read_truth_json, path), _read_outcome(_reference_read_truth_json, path)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.codes.dtype == np.int8 and np.array_equal(got.codes, want.codes)
    assert got.x2_cells.shape == want.x2_cells.shape and got.y_cells.shape == want.y_cells.shape
    assert np.array_equal(got.x2_cells, want.x2_cells, equal_nan=True)
    assert np.array_equal(got.y_cells, want.y_cells, equal_nan=True)
    assert got.true_late == want.true_late or (math.isnan(got.true_late)
                                               and math.isnan(want.true_late))
    assert got.n_co == want.n_co


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10 ** 6, 10 ** 6)
_ODD_CELL = (st.floats() | st.booleans() | st.text(max_size=2)
             | st.sampled_from([10 ** 400, -10 ** 400, 2 ** 70, [1.0], {}]))


@st.composite
def _table_like(draw, label=None):
    """An object shaped like a table: the canonical or full cells of label,
    or one cell off them (any cells when label is None), sometimes with an
    odd cell or a list of the wrong length, with its keys in either order and
    sometimes an extra key."""
    if label is None:
        x2_mask = draw(st.lists(st.booleans(), min_size=2, max_size=2))
        y_mask = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    else:
        code = _LABEL_CODES[label]
        shape = draw(st.sampled_from(["canonical", "canonical", "full", "misshapen"]))
        mask = [shape == "full" or m for m in CANONICAL_X2_MASK[code].tolist()
                + CANONICAL_Y_MASK[code].tolist()]
        if shape == "misshapen":
            flip = draw(st.integers(0, 5))
            mask[flip] = not mask[flip]
        x2_mask, y_mask = mask[:2], mask[2:]
    cells = [draw(_FINITE) if m else None for m in x2_mask + y_mask]
    fault = draw(st.sampled_from(["none"] * 4 + ["cell", "length"]))
    if fault == "cell":
        cells[draw(st.integers(0, 5))] = draw(_ODD_CELL)
    x2, y = cells[:2], cells[2:]
    if fault == "length":
        y = y[:draw(st.integers(0, 3))]
    form = draw(st.sampled_from(["x2 y", "y x2", "extra key"]))
    if form == "y x2":
        return {"y": y, "x2": x2}
    return {"x2": x2, "y": y, **({"z": 0} if form == "extra key" else {})}


# the JSON shapes of test_dataio's reader fuzz tests, with table-shaped leaves
_JSON_WITH_TABLES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _table_like(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(["compliance", "tables", "true_late", "n_co", "x2", "y"]),
        inner, max_size=6),
    max_leaves=20)


@st.composite
def _sidecars(draw):
    """A sidecar in write_truth_json's shape with a table-shaped object
    sometimes placed where no table belongs, its keys in any order."""
    labels = draw(st.lists(st.sampled_from(["nt", "co", "at"]), max_size=5))
    doc = {"compliance": labels,
           "tables": [draw(_table_like(label)) for label in labels],
           "true_late": draw(st.none() | _FINITE),
           "n_co": labels.count("co")}
    stray = draw(_table_like())
    place = draw(st.sampled_from(["nowhere", "label", "true_late", "n_co", "nested label",
                                  "cell", "extra key"]))
    if place == "label" and labels:
        labels[draw(st.integers(0, len(labels) - 1))] = stray
    elif place == "nested label" and labels:
        labels[draw(st.integers(0, len(labels) - 1))] = [1, [stray]]
    elif place in ("true_late", "n_co"):
        doc[place] = stray
    elif place == "cell" and labels:
        doc["tables"][draw(st.integers(0, len(labels) - 1))]["x2"][0] = stray
    elif place == "extra key":
        doc["other"] = [stray, {"x2": stray}]
    keys = draw(st.permutations(list(doc)))
    return {k: doc[k] for k in keys}


@given(_sidecars() | st.fixed_dictionaries({
    "compliance": st.lists(st.sampled_from(["nt", "co", "at", "xx"]), max_size=3)
    | _JSON_WITH_TABLES,
    "tables": st.lists(_table_like(), max_size=3) | _JSON_WITH_TABLES,
    "true_late": _JSON_WITH_TABLES,
    "n_co": st.integers(-1, 4) | _JSON_WITH_TABLES,
}) | _JSON_WITH_TABLES)
@settings(max_examples=400, deadline=None)
def test_truth_reader_agrees_with_whole_document_reader(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("truth") / "dataset.truth.json"
    path.write_text(json.dumps(doc))
    _assert_readers_agree(path)


@pytest.mark.parametrize("cell", ["1e999", "-1e999", "NaN", "-Infinity", "1" + "0" * 400,
                                  "true", '"1.0"', "1", "-0.0", "null"])
@pytest.mark.parametrize("position", [0, 1, 2, 5])
def test_truth_reader_agrees_on_literal_cells(tmp_path, cell, position):
    # literals json.dumps never writes, in a nevertaker's table, where its
    # cells are defined (positions 0 and 2) or left null (1 and 5)
    cells = ["1.5", "null", "0.5", "null", "null", "null"]
    cells[position] = cell
    path = tmp_path / "dataset.truth.json"
    path.write_text('{"compliance": ["co", "nt"], "tables": [{"x2": [1.0, 2.0], '
                    '"y": [1.0, 2.0, 3.0, 4.0]}, {"x2": [%s], "y": [%s]}], '
                    '"true_late": 1e999, "n_co": 1}'
                    % (", ".join(cells[:2]), ", ".join(cells[2:])))
    with pytest.raises(SchemaError) as got:
        read_truth_json(path)   # true_late is infinite, if no table is bad before it
    with pytest.raises(SchemaError) as want:
        _reference_read_truth_json(path)
    assert str(got.value) == str(want.value)


_NT_FAULTS = {
    "misshapen": '{"x2": [1.0, 2.0], "y": [0.5, null, null, null]}',
    "misshapen dict": '{"x2": [1.0, 2.0], "y": [0.5, null, null, null], "z": 0}',
    "string cell": '{"x2": [1.0, null], "y": ["a", null, null, null]}',
    "short list": '{"y": [0.5, null, null, null], "x2": [1.0]}',
    "infinite cell": '{"x2": [1e999, null], "y": [0.5, null, null, null]}',
}


@pytest.mark.parametrize("second", sorted(_NT_FAULTS))
@pytest.mark.parametrize("first", sorted(_NT_FAULTS))
def test_truth_reader_names_the_first_bad_unit(tmp_path, first, second):
    tables = ['{"x2": [1.0, null], "y": [0.5, null, null, null]}'] * 5
    tables[1], tables[3] = _NT_FAULTS[first], _NT_FAULTS[second]
    path = tmp_path / "dataset.truth.json"
    path.write_text('{"compliance": ["nt", "nt", "nt", "nt", "nt"], "tables": [%s], '
                    '"true_late": null, "n_co": 0}' % ", ".join(tables))
    with pytest.raises(SchemaError, match=r": unit 2\b") as got:
        read_truth_json(path)
    with pytest.raises(SchemaError) as want:
        _reference_read_truth_json(path)
    assert str(got.value) == str(want.value)


def test_truth_reader_takes_extra_keys_reversed_keys_and_integer_cells(tmp_path):
    _, truth = simulate_dataset(DgpConfig(n=6, seed=100))
    path = tmp_path / "dataset.truth.json"
    write_truth_json(truth, path)
    doc = json.loads(path.read_text())
    doc["tables"][1]["extra"] = 1
    doc["tables"][3] = {"y": doc["tables"][3]["y"], "x2": doc["tables"][3]["x2"]}
    doc["tables"][4]["x2"] = [None if v is None else 7 for v in doc["tables"][4]["x2"]]
    path.write_text(json.dumps(doc))
    back = read_truth_json(path)
    assert np.array_equal(back.codes, truth.codes)
    assert np.array_equal(back.y_cells, truth.y_cells, equal_nan=True)
    want_x2 = truth.x2_cells.copy()
    want_x2[4][~np.isnan(want_x2[4])] = 7.0
    assert np.array_equal(back.x2_cells, want_x2, equal_nan=True)
    _assert_readers_agree(path)


def _stray_first(doc):
    """A table under an extra key before the tables: every table row after it shifts."""
    return {"other": {"x2": [1.0, 2.0], "y": [1.0, 2.0, 3.0, 4.0]}, **doc}


def _set_cell(unit, key, k, value):
    def fault(doc):
        doc["tables"][unit - 1][key][k] = value
        return doc
    return fault


def _set_table(unit, table):
    def fault(doc):
        doc["tables"][unit - 1] = table(doc["tables"][unit - 1])
        return doc
    return fault


_QUEUE_FAULTS = {
    "none": [],
    "stray table first": [_stray_first],
    "extra key, then stray": [_set_table(5, lambda t: {**t, "z": t}), _stray_first],
    "reversed keys": [_set_table(_TABLE_QUEUE + 2, lambda t: {"y": t["y"], "x2": t["x2"]})],
    "string cell in chunk 2": [_set_cell(_TABLE_QUEUE + 10, "x2", 0, "1.0")],
    "bool cell in chunk 1, misshapen in chunk 2": [
        _set_cell(3, "y", 0, True),
        _set_table(_TABLE_QUEUE + 1, lambda t: {"x2": [None, None], "y": t["y"]})],
    "misshapen in chunk 1, bool cell in chunk 2": [
        _set_table(3, lambda t: {"x2": [None, None], "y": t["y"]}),
        _set_cell(_TABLE_QUEUE + 1, "y", 0, True)],
    "huge int in chunk 3, extra key in chunk 1": [
        _set_cell(2 * _TABLE_QUEUE + 2, "y", 0, 10 ** 400),
        _set_table(9, lambda t: {**t, "z": 0})],
    "infinite cell in chunk 2, short list in chunk 3": [
        _set_cell(_TABLE_QUEUE + 7, "y", 0, "<1e999>"),
        _set_table(2 * _TABLE_QUEUE + 1, lambda t: {"x2": t["x2"], "y": t["y"][:3]})],
}


@pytest.mark.parametrize("faults", list(_QUEUE_FAULTS.values()), ids=list(_QUEUE_FAULTS))
def test_truth_reader_agrees_across_chunks(tmp_path, faults):
    # three of the reader's chunks of _TABLE_QUEUE tables, the last one short,
    # with faults and stray tables placed so that rows are counted and
    # chunks written across their edges
    _, truth = simulate_dataset(DgpConfig(n=2 * _TABLE_QUEUE + 5, seed=102, p=0))
    path = tmp_path / "dataset.truth.json"
    write_truth_json(truth, path)
    doc = json.loads(path.read_text())
    for fault in faults:
        doc = fault(doc)
    # a number literal beyond the float range, which json.dumps never writes
    path.write_text(json.dumps(doc).replace('"<1e999>"', "1e999"))
    _assert_readers_agree(path)
    if not faults:
        assert np.array_equal(read_truth_json(path).y_cells, truth.y_cells, equal_nan=True)


# ---------------------------------------------------------------------------
# CSV readers: differential check against the row-by-row readers
# ---------------------------------------------------------------------------

def _reference_csv_table(path):
    """_csv_table as it was before the parse chunks: the header, then each
    (row number, fields) pair as it is read."""
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
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


def _reference_dataset_row(row, header, row_num):
    p = len(row) - len(_FIXED_COLUMNS)
    try:
        parsed = list(map(float, row))
        # a non-finite sum may also be an overflow of finite fields
        ok = (row[p] in ("0", "1") and row[p + 1] in ("0", "1") and row[p + 3] in ("0", "1")
              and row[p + 4] in ("0", "1") and math.isfinite(sum(parsed)))
    except ValueError:
        ok = False
    if not ok:
        for j, text in enumerate(row):
            if j in (p, p + 1, p + 3, p + 4):
                _parse_binary(text, header[j], row_num)
            else:
                _parse_float(text, header[j], row_num)
    return parsed


def _reference_read_dataset_csv(path):
    """read_dataset_csv as it was before the parse chunks: each row parsed
    as it is read, with a check of the whole row first."""
    table = _reference_csv_table(path)
    header = [h.strip() for h in next(table)]
    p = len(header) - len(_FIXED_COLUMNS)
    if p < 0 or header != dataset_header(p):
        raise SchemaError(f"{path}: header {header!r} does not match x1_0..x1_{{p-1}},"
                          + ",".join(_FIXED_COLUMNS))
    values = []
    for row_num, row in table:
        values.extend(_reference_dataset_row(row, header, row_num))
    if not values:
        raise SchemaError(f"{path} has a header but no data rows")
    M = np.array(values, dtype=np.float64).reshape(-1, p + len(_FIXED_COLUMNS))
    return Dataset(M[:, :p], *(M[:, p + j] for j in range(len(_FIXED_COLUMNS))))


def _reference_read_draws_csv(path):
    """read_draws_csv as it was before the parse chunks: each row parsed
    as it is read."""
    chains, lates, thetas = [], [], []
    table = _reference_csv_table(path)
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
    theta = np.array(thetas, dtype=np.float64)
    return (names, np.array(chains, dtype=np.int64), np.array(lates, dtype=np.float64),
            theta.reshape(len(chains), len(names)) if chains else theta)


def _csv_outcome(reader, path):
    """What a reader returns, or its error's type and message."""
    try:
        return reader(path)
    except SeqlateError as e:
        return type(e), str(e)


def _assert_csv_readers_agree(path, reader, reference):
    got, want = _csv_outcome(reader, path), _csv_outcome(reference, path)
    if isinstance(want, Dataset) or isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
    else:
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)


# field texts a parse chunk must judge as float() and int() do, one kind per
# column; "1e308" is finite, but two in a row overflow a row's sum
_BINARY_TEXTS = ["1.0", "01", " 1", "1 ", "2", "", '"1"', "1_0", "１", "true"]
_FLOAT_TEXTS = ["nan", "NaN", "1e999", "-inf", "abc", "", " ", " 1.5", "2.5 ", "1_0", "1__0",
                "١٢.٥", "1e308", "-1e308", '"0.25"', '"1,5"', "0x10"]
_INT_TEXTS = ["1.5", " 7", "1_0", "٣", "", "x", "+4", "9" * 400, "9" * 5000, '"3"']
_CHAIN_TEXTS = _INT_TEXTS + ["99999999999999999999", "9223372036854775808",
                             "-9223372036854775808", "-1"]
# faults of a whole row
_ROW_FAULTS = ["short", "long", "blank", "not utf-8"]


def _render(rows, faults):
    """The bytes of a CSV file of rows (lists of field texts, the first the
    header) with each (row, column, text) fault applied to a data row, the
    text a field's or one of _ROW_FAULTS."""
    rows = [list(row) for row in rows]
    blank_before = set()
    for row, column, text in faults:
        fields = rows[row + 1]
        if text == "short":
            del fields[column % len(fields)]
        elif text == "long":
            fields.append("0")
        elif text == "blank":
            blank_before.add(row + 1)
        elif text == "not utf-8":
            fields[column % len(fields)] = "\udcff"
        else:
            fields[column % len(fields)] = text
    lines = [("\r\n" if i in blank_before else "") + ",".join(fields) + "\r\n"
             for i, fields in enumerate(rows)]
    return "".join(lines).encode("utf-8", "surrogateescape")


@st.composite
def _faults(draw, n_rows, column_texts):
    """Up to three faults at random rows of a file of n_rows data rows, each
    a text from its column's kinds or a row fault."""
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, n_rows - 1))
        column = draw(st.integers(0, len(column_texts) - 1))
        kinds = column_texts[column] + _ROW_FAULTS
        faults.append((row, column, draw(st.sampled_from(kinds))))
    return faults


def _chunk_rows(width):
    """The rows of a parse chunk of a CSV file of width fields per row."""
    return _PARSE_FIELDS // width


@st.composite
def _dataset_files(draw):
    """A dataset CSV of 1 to 3 parse chunks, with faults."""
    p = draw(st.integers(0, 2))
    n = draw(st.integers(1, 3 * _chunk_rows(p + len(_FIXED_COLUMNS))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    binary = {p, p + 1, p + 3, p + 4}
    k = p + len(_FIXED_COLUMNS)
    columns = [rng.integers(0, 2, n).astype(str).tolist() if j in binary
               else list(map(repr, rng.normal(size=n).tolist())) for j in range(k)]
    texts = [_BINARY_TEXTS if j in binary else _FLOAT_TEXTS for j in range(k)]
    return _render([dataset_header(p)] + [list(r) for r in zip(*columns)],
                   draw(_faults(n, texts)))


@st.composite
def _draws_files(draw):
    """A draws CSV of 1 to 3 parse chunks, with faults; a few late fields
    empty."""
    d = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3 * _chunk_rows(3 + d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lates = [repr(v) if v > -1.5 else "" for v in rng.normal(size=n).tolist()]
    columns = ([list(map(str, range(1, n + 1))), rng.integers(0, 4, n).astype(str).tolist(),
                lates] + [list(map(repr, rng.normal(size=n).tolist())) for _ in range(d)])
    texts = [_INT_TEXTS, _CHAIN_TEXTS, _FLOAT_TEXTS] + [_FLOAT_TEXTS] * d
    header = ["iter", "chain", "late"] + [f"theta_{j}" for j in range(d)]
    return _render([header] + [list(r) for r in zip(*columns)], draw(_faults(n, texts)))


@given(_dataset_files())
@settings(max_examples=200, deadline=None)
def test_dataset_reader_agrees_with_row_by_row_reader(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("data") / "dataset.csv"
    path.write_bytes(blob)
    _assert_csv_readers_agree(path, read_dataset_csv, _reference_read_dataset_csv)


@given(_draws_files())
@settings(max_examples=200, deadline=None)
def test_draws_reader_agrees_with_row_by_row_reader(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("draws") / "draws.csv"
    path.write_bytes(blob)
    _assert_csv_readers_agree(path, read_draws_csv, _reference_read_draws_csv)


# per file kind: its header, a good and a bad row, its reader and the reference
_CSV_KINDS = {
    "dataset": (dataset_header(1), "0.5,1,0,0.25,1,1,-1.5", "0.5,1,0,oops,1,1,-1.5",
                read_dataset_csv, _reference_read_dataset_csv),
    "draws": (["iter", "chain", "late", "b"], "1,0,0.5,1.5", "1,0,0.5,oops",
              read_draws_csv, _reference_read_draws_csv),
}


@pytest.mark.parametrize("offset", [None, -5, -2, 3])
@pytest.mark.parametrize("kind", sorted(_CSV_KINDS))
def test_csv_readers_report_a_bad_value_before_a_later_rows_field_count(tmp_path, kind, offset):
    # row 1, or row offset from the end of the first parse chunk; row + 5 is
    # in row's chunk, or in the next one for offset -2
    header, good, bad, reader, reference = _CSV_KINDS[kind]
    rows = _chunk_rows(len(header))
    row = 1 if offset is None else rows + offset
    lines = [",".join(header)] + [good] * (2 * rows)
    lines[row], lines[row + 5] = bad, good + ",0"
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"^row {row}: column (x2|b) is not a number"):
        reader(path)
    _assert_csv_readers_agree(path, reader, reference)
    # the other way round, the field count comes first
    lines[row], lines[row + 5] = good + ",0", bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=rf"row {row} has {len(header) + 1} fields"):
        reader(path)


@pytest.mark.parametrize("rows", [
    ["1e308,1,0,1e308,1,1,1e308"],              # finite fields, an infinite row sum
    ["١.5,1,0,1_0,1,1, 2.5 "],
    ["0.5,1,0,0.25,1,1,-1.5"] * (_chunk_rows(7) - 1) + ["0.5,1,0,0.25,1,1,1e999"],
], ids=["overflowing sum", "float() texts", "inf at a chunk's end"])
def test_dataset_reader_agrees_on_float_texts(tmp_path, rows):
    path = tmp_path / "dataset.csv"
    path.write_text(",".join(dataset_header(1)) + "\n" + "\n".join(rows) + "\n")
    _assert_csv_readers_agree(path, read_dataset_csv, _reference_read_dataset_csv)


def test_dataset_reader_memory_stays_near_the_columns(tmp_path):
    # the row-by-row reader peaked at 2.29 MiB on this file; a parse chunk
    # may hold at most 0.5 MiB more
    data, _ = _large_sample()
    path = tmp_path / "dataset.csv"
    write_dataset_csv(data, path)
    back, peak = _traced_peak(read_dataset_csv, path)
    assert peak <= 2.29 * 2 ** 20 + 0.5 * 2 ** 20
    assert back == data


# ---------------------------------------------------------------------------
# memory of the simulator's files at n = 20,000, p = 3
# ---------------------------------------------------------------------------

def _large_sample(n=20_000, p=3, seed=101):
    """Columns of the benchmark's large-n size without simulating: canonical
    tables for random labels and random observed columns."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, n).astype(np.int8)
    cells = rng.normal(size=(n, 6))
    truth = GroundTruth(codes, np.where(CANONICAL_X2_MASK[codes], cells[:, :2], np.nan),
                        np.where(CANONICAL_Y_MASK[codes], cells[:, 2:], np.nan),
                        float(rng.normal()), int((codes == CO).sum()))
    binary = [rng.integers(0, 2, n) for _ in range(4)]
    data = Dataset(rng.normal(size=(n, p)), binary[0], binary[1], rng.normal(size=n),
                   binary[2], binary[3], rng.normal(size=n))
    return data, truth


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulator_files_take_memory_for_one_chunk(tmp_path):
    data, truth = _large_sample()
    _, peak = _traced_peak(write_dataset_csv, data, tmp_path / "dataset.csv")
    assert peak < 2 * 2 ** 20
    _, peak = _traced_peak(write_truth_json, truth, tmp_path / "dataset.truth.json")
    assert peak < 2 * 2 ** 20
    assert (tmp_path / "dataset.truth.json").stat().st_size > 3_500_000
    back, peak = _traced_peak(read_truth_json, tmp_path / "dataset.truth.json")
    assert peak < 9 * 2 ** 20
    assert np.array_equal(back.codes, truth.codes)
    assert np.array_equal(back.x2_cells, truth.x2_cells, equal_nan=True)
    assert np.array_equal(back.y_cells, truth.y_cells, equal_nan=True)


def test_draws_reader_memory_stays_near_the_arrays_at_the_readme_shape(tmp_path):
    # the benchmark's readme draws table, 4 chains x 750 draws of 19
    # parameters: the row-by-row reader peaked at 0.54 MiB on it, and a
    # parse chunk of 104 such rows may hold at most 0.4 MiB more
    rng = np.random.default_rng(18)
    path = tmp_path / "draws.csv"
    write_draws_csv(path, [f"theta_{j}" for j in range(19)], rng.normal(size=(4, 750)),
                    rng.normal(size=(4, 750, 19)))
    (_, chains, _, theta), peak = _traced_peak(read_draws_csv, path)
    assert peak <= 0.54 * 2 ** 20 + 0.4 * 2 ** 20
    assert theta.shape == (3000, 19) and np.array_equal(chains, np.repeat(np.arange(4), 750))
