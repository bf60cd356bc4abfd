"""File formats: dataset CSV, truth sidecars, draw tables."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlate.dataio import (
    dataset_header,
    read_dataset_csv,
    read_draws_csv,
    read_truth_json,
    truth_sidecar_path,
    write_dataset_csv,
    write_draws_csv,
    write_truth_json,
)
from seqlate.domain import Dataset
from seqlate.errors import DataError, SchemaError, SeqlateError
from seqlate.simulate import ConstantCompliance, DgpConfig, simulate_dataset


def sample_dataset(n=20, seed=90, p=2):
    data, _ = simulate_dataset(DgpConfig(n=n, seed=seed, p=p))
    return data


def test_header_layout():
    assert dataset_header(2) == ["x1_0", "x1_1", "z1", "w1", "x2", "z2", "w2", "y"]
    assert dataset_header(0) == ["z1", "w1", "x2", "z2", "w2", "y"]


def test_csv_round_trip_is_byte_identical(tmp_path):
    data = sample_dataset()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_dataset_csv(data, p1)
    back = read_dataset_csv(p1)
    assert back == data
    write_dataset_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_empty_file_is_schema_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        read_dataset_csv(path)


def test_csv_header_only_is_schema_error(tmp_path):
    path = tmp_path / "no_rows.csv"
    path.write_text("x1_0,z1,w1,x2,z2,w2,y\n")
    with pytest.raises(SchemaError):
        read_dataset_csv(path)


def test_csv_bad_header_is_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1_0,z1,w1,x3,z2,w2,y\n0.0,0,0,0.1,0,0,0.2\n")
    with pytest.raises(SchemaError):
        read_dataset_csv(path)


def test_csv_short_row_is_schema_error(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x1_0,z1,w1,x2,z2,w2,y\n0.0,0,0,0.1,0,0\n")
    with pytest.raises(SchemaError, match="row 1"):
        read_dataset_csv(path)


@pytest.mark.parametrize("row,column", [
    ("0.0,2,0,0.1,0,0,0.2", "z1"),
    ("0.0,0,0,oops,0,0,0.2", "x2"),
    ("0.0,0,0,inf,0,0,0.2", "x2"),
    ("0.0,0,0,0.1,0,0,nan", "y"),
    ("oops,0,0,0.1,0,0,0.2", "x1_0"),
])
def test_csv_bad_values_name_row_and_column(tmp_path, row, column):
    path = tmp_path / "vals.csv"
    path.write_text("x1_0,z1,w1,x2,z2,w2,y\n0.5,0,0,0.1,0,0,0.2\n" + row + "\n")
    with pytest.raises(DataError, match=f"row 2.*{column}"):
        read_dataset_csv(path)


def test_json_syntax_error_is_schema_error(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError, match="invalid JSON"):
        read_truth_json(path)


def test_truth_sidecar_round_trip(tmp_path):
    _, truth = simulate_dataset(DgpConfig(
        n=25, seed=92, compliance_probs=ConstantCompliance((0.3, 0.4, 0.3))))
    path = tmp_path / "dataset.truth.json"
    write_truth_json(truth, path)
    back = read_truth_json(path)
    assert np.array_equal(back.codes, truth.codes) and back.codes.dtype == np.int8
    assert back.n_co == truth.n_co
    assert back.true_late == pytest.approx(truth.true_late)
    # NaN marks the same undefined cells on both sides
    assert np.array_equal(back.x2_cells, truth.x2_cells, equal_nan=True)
    assert np.array_equal(back.y_cells, truth.y_cells, equal_nan=True)


def test_truth_sidecar_undefined_effect(tmp_path):
    _, truth = simulate_dataset(DgpConfig(
        n=10, seed=93, compliance_probs=ConstantCompliance((1.0, 0.0, 0.0))))
    path = tmp_path / "dataset.truth.json"
    write_truth_json(truth, path)
    back = read_truth_json(path)
    assert math.isnan(back.true_late)
    assert back.n_co == 0


def test_truth_sidecar_path_convention():
    assert str(truth_sidecar_path("/tmp/run/dataset.csv")).endswith("dataset.truth.json")


def test_draws_csv_round_trip(tmp_path):
    names = ["beta_0", "sigma_y"]
    lates = np.array([[0.25, float("nan")], [-0.75, 0.5]])
    thetas = np.array([[[1.5, 0.7], [-0.5, 1.2]], [[0.0, 2.0], [3.0, 0.1]]])
    path = tmp_path / "draws.csv"
    write_draws_csv(path, names, lates, thetas)
    text = path.read_text().splitlines()
    assert text[0] == "iter,chain,late,beta_0,sigma_y"
    assert text[2].split(",")[2] == ""   # NaN renders as the empty field
    assert [line.split(",")[:2] for line in text[1:]] == [["1", "0"], ["2", "0"],
                                                          ["1", "1"], ["2", "1"]]
    got_names, chains, late, theta = read_draws_csv(path)
    assert got_names == names
    assert chains.tolist() == [0, 0, 1, 1]
    assert np.array_equal(late, lates.ravel(), equal_nan=True)
    assert np.array_equal(theta, thetas.reshape(4, 2))


def test_draws_csv_bytes_match_per_value_repr(tmp_path):
    # whole rows are formatted from vec.tolist(); the bytes must equal
    # formatting each numpy scalar with repr(float(v)), NaN late as ""
    names = ["a", "b", "c", "d", "e"]
    vec = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5])
    rows = [(1, 0, float("nan"), vec), (2, 0, 0.1 + 0.2, vec[::-1]),
            (1, 1, -0.0, vec * 3.0), (2, 1, 1e300, -vec)]
    path = tmp_path / "draws.csv"
    write_draws_csv(path, names, np.array([r[2] for r in rows]).reshape(2, 2),
                    np.array([r[3] for r in rows]).reshape(2, 2, 5))
    lines = [",".join(["iter", "chain", "late"] + names)]
    for it, chain, late, v in rows:
        late_txt = "" if math.isnan(late) else repr(float(late))
        lines.append(",".join([str(it), str(chain), late_txt] + [repr(float(x)) for x in v]))
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
    assert "-0.0,5e-324,1e+16,0.30000000000000004" in path.read_text()


@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_csv_float_fields_survive_round_trip(tmp_path_factory, values):
    # repr of a double parses back to the identical double
    tmp = tmp_path_factory.mktemp("floats")
    zeros = np.zeros(len(values), dtype=np.int8)
    data = Dataset(np.array(values)[:, None], zeros, zeros, values, zeros, zeros, values)
    path = tmp / "f.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    for column in (back.X1[:, 0], back.x2, back.y):
        assert column.tolist() == values


def _truth_doc(tmp_path, n=12, seed=94):
    _, truth = simulate_dataset(DgpConfig(n=n, seed=seed))
    path = tmp_path / "dataset.truth.json"
    write_truth_json(truth, path)
    return path, json.loads(path.read_text())


def _rewrite(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_truth_sidecar_length_mismatch_is_schema_error(tmp_path):
    path, doc = _truth_doc(tmp_path)
    doc["tables"] = doc["tables"][:-1]
    with pytest.raises(SchemaError, match="11 tables for 12 compliance labels"):
        read_truth_json(_rewrite(path, doc))


def test_truth_sidecar_complier_count_mismatch_is_schema_error(tmp_path):
    path, doc = _truth_doc(tmp_path)
    doc["n_co"] += 1
    with pytest.raises(SchemaError, match="n_co"):
        read_truth_json(_rewrite(path, doc))


def test_truth_sidecar_unknown_label_is_schema_error(tmp_path):
    path, doc = _truth_doc(tmp_path)
    doc["compliance"][0] = "xx"
    with pytest.raises(SchemaError, match="unknown compliance label 'xx'"):
        read_truth_json(_rewrite(path, doc))


@pytest.mark.parametrize("cells", [[1.0], [1.0, "a", None], None, [True, None]])
def test_truth_sidecar_malformed_cells_are_schema_errors(tmp_path, cells):
    path, doc = _truth_doc(tmp_path)
    doc["tables"][0]["x2"] = cells
    with pytest.raises(SchemaError, match="unit 1"):
        read_truth_json(_rewrite(path, doc))


def test_truth_sidecar_misshapen_table_names_its_unit_and_label(tmp_path):
    path, doc = _truth_doc(tmp_path)
    # first-period cells of a nevertaker, final cell of an alwaystaker: no label's table
    doc["tables"][2] = {"x2": [1.0, None], "y": [None, None, None, 1.0]}
    with pytest.raises(SchemaError, match=f"unit 3: .* table for {doc['compliance'][2]}$"):
        read_truth_json(_rewrite(path, doc))


@pytest.mark.parametrize("field,value", [("chain", "a"), ("chain", "1.5"),
                                         ("iter", "x"), ("iter", "")])
def test_draws_csv_non_integer_index_is_schema_error(tmp_path, field, value):
    path = tmp_path / "draws.csv"
    write_draws_csv(path, ["beta_0"], np.array([[0.25, 0.5]]), np.array([[[1.5], [1.0]]]))
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[0 if field == "iter" else 1] = value
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=f"row 2: column {field}"):
        read_draws_csv(path)


def _reads_or_refuses(reader, path):
    try:
        reader(path)
    except SeqlateError:
        pass


@given(st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_truth_reader_fuzz_arbitrary_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("truth") / "dataset.truth.json"
    path.write_bytes(blob)
    _reads_or_refuses(read_truth_json, path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(["compliance", "tables", "true_late", "n_co", "x2", "y"]),
        inner, max_size=6),
    max_leaves=20)


@given(st.fixed_dictionaries({
    "compliance": st.lists(st.sampled_from(["nt", "co", "at", "xx"]), max_size=3) | _JSON,
    "tables": _JSON,
    "true_late": _JSON,
    "n_co": st.integers(-1, 4) | _JSON,
}))
@settings(max_examples=200, deadline=None)
def test_truth_reader_fuzz_json_shapes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("truth") / "dataset.truth.json"
    path.write_text(json.dumps(doc))
    _reads_or_refuses(read_truth_json, path)


@given(st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_draws_reader_fuzz_arbitrary_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("draws") / "draws.csv"
    path.write_bytes(blob)
    _reads_or_refuses(read_draws_csv, path)


@given(st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_draws_reader_fuzz_bytes_after_valid_header(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("draws") / "draws.csv"
    path.write_bytes(b"iter,chain,late,beta_0\n1,0,0.5,1.0\n" + blob)
    _reads_or_refuses(read_draws_csv, path)


@given(st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_dataset_csv_reader_fuzz_arbitrary_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("data") / "dataset.csv"
    path.write_bytes(blob)
    _reads_or_refuses(read_dataset_csv, path)


@given(st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_dataset_csv_reader_fuzz_bytes_after_valid_header(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("data") / "dataset.csv"
    path.write_bytes(b"x1_0,z1,w1,x2,z2,w2,y\n0.5,1,1,0.2,0,0,1.5\n" + blob)
    _reads_or_refuses(read_dataset_csv, path)


def test_draws_reader_memory_stays_near_the_arrays(tmp_path):
    # the README example's shape: 4 chains x 2000 draws, 19 parameters
    import tracemalloc

    names = [f"theta_{j}" for j in range(19)]
    rng = np.random.default_rng(17)
    rows = [(i % 2000 + 1, i // 2000, float(rng.normal()), rng.normal(size=19))
            for i in range(8000)]
    rows[5] = (6, 0, float("nan"), rows[5][3])
    path = tmp_path / "draws.csv"
    write_draws_csv(path, names, np.array([r[2] for r in rows]).reshape(4, 2000),
                    np.array([r[3] for r in rows]).reshape(4, 2000, 19))
    assert path.stat().st_size > 3_000_000
    tracemalloc.start()
    try:
        got_names, chains, late, theta = read_draws_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20
    assert got_names == names
    assert np.array_equal(chains, [r[1] for r in rows])
    assert np.array_equal(late, [r[2] for r in rows], equal_nan=True)
    assert np.array_equal(theta, np.array([r[3] for r in rows]))


@pytest.mark.parametrize("text,fragment", [
    ("", "is empty"),
    (" \n\t\n", "is empty"),
    ("\n\niter,chain,late\n", "header"),
    ("iter,chain,late,b\n1,0,0.5,oops\n", "column b"),
    ("iter,chain,late,b\n1,0,0.5,inf\n", "column b must be finite"),
    ("iter,chain,late,b\n1,99999999999999999999,0.5,1\n", "chain id out of range"),
])
def test_draws_reader_errors(tmp_path, text, fragment):
    path = tmp_path / "draws.csv"
    path.write_text(text)
    with pytest.raises(SeqlateError, match=fragment):
        read_draws_csv(path)


def test_draws_reader_without_rows_or_parameters(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("iter,chain,late\n")
    names, chains, late, theta = read_draws_csv(path)
    assert names == [] and chains.size == late.size == theta.size == 0
    path.write_text("iter,chain,late\n1,0,0.5\n2,1,\n")
    names, chains, late, theta = read_draws_csv(path)
    assert theta.shape == (2, 0)
    assert np.array_equal(chains, [0, 1])
    assert np.array_equal(late, [0.5, np.nan], equal_nan=True)
