"""Schema parsing, dataset validation, file round-trips, size histogram."""

import csv
import io
import struct
from dataclasses import fields

import numpy as np
import pytest

from hhsynth import data
from hhsynth.data import (
    Dataset,
    DatasetView,
    HouseholdRecord,
    Schema,
    SchemaError,
    VariableSpec,
    load_dataset,
    parse_schema,
    size_histogram,
    write_csv,
    write_dataset,
)

from conftest import build_dataset, build_schema
from oracles import records_of

TOY_SCHEMA_TEXT = """
household:
  - {name: own, cardinality: 2}
  - {name: hh_size, cardinality: 3, size: true}
individual:
  - {name: role, cardinality: 2, labels: [head, other]}
  - {name: color, cardinality: 4}
"""


def test_parse_schema_fields():
    schema = parse_schema(TOY_SCHEMA_TEXT)
    assert [v.name for v in schema.household_vars] == ["own", "hh_size"]
    assert [v.name for v in schema.individual_vars] == ["role", "color"]
    assert schema.size_index == 1
    assert schema.size_var.name == "hh_size"
    assert schema.max_size == 3
    assert schema.index_of("color") == ("individual", 1)
    assert schema.variable("own").cardinality == 2


def test_parse_schema_label_codes():
    schema = parse_schema(TOY_SCHEMA_TEXT)
    role = schema.variable("role")
    assert role.code_of("head") == 0
    assert role.code_of("other") == 1
    color = schema.variable("color")
    assert color.code_of("3") == 2


def test_parse_schema_shapes_scale():
    # four household vars with ten individual vars, then two with five
    text = "household:\n" + "".join(
        f"  - {{name: h{k}, cardinality: 3{', size: true' if k == 0 else ''}}}\n"
        for k in range(4)
    )
    text += "individual:\n" + "".join(
        f"  - {{name: v{k}, cardinality: 4}}\n" for k in range(10)
    )
    schema = parse_schema(text)
    assert len(schema.household_vars) == 4 and len(schema.individual_vars) == 10

    small = parse_schema(
        "household:\n  - {name: size, cardinality: 4, size: true}\n"
        "  - {name: own, cardinality: 2}\n"
        "individual:\n" + "".join(f"  - {{name: v{k}, cardinality: 2}}\n" for k in range(5))
    )
    assert len(small.household_vars) == 2 and len(small.individual_vars) == 5


def test_minimal_schema_is_legal():
    schema = parse_schema(
        "household:\n  - {name: n, cardinality: 2, size: true}\n"
        "individual:\n  - {name: x, cardinality: 2}\n"
    )
    assert schema.max_size == 2


@pytest.mark.parametrize(
    "text",
    [
        # no size variable
        "household:\n  - {name: a, cardinality: 2}\nindividual:\n  - {name: x, cardinality: 2}\n",
        # two size variables
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "  - {name: b, cardinality: 2, size: true}\n"
        "individual:\n  - {name: x, cardinality: 2}\n",
        # duplicate names across levels
        "household:\n  - {name: x, cardinality: 2, size: true}\n"
        "individual:\n  - {name: x, cardinality: 2}\n",
        # cardinality below 2
        "household:\n  - {name: a, cardinality: 1, size: true}\n"
        "individual:\n  - {name: x, cardinality: 2}\n",
        # no individual variables
        "household:\n  - {name: a, cardinality: 2, size: true}\nindividual: []\n",
        # a cardinality that is not a YAML integer
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "individual:\n  - {name: x, cardinality: 2.7}\n",
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "individual:\n  - {name: x, cardinality: '3'}\n",
        # a size flag that is not a YAML bool (the string 'false' is truthy)
        "household:\n  - {name: a, cardinality: 2, size: 'false'}\n"
        "individual:\n  - {name: x, cardinality: 2}\n",
        # labels that repeat
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "individual:\n  - {name: x, cardinality: 3, labels: [x, x, y]}\n",
        # names of the data CSV's own columns
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "individual:\n  - {name: person_index, cardinality: 2}\n",
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "  - {name: household_id, cardinality: 2}\n"
        "individual:\n  - {name: x, cardinality: 2}\n",
        # names that are not YAML strings
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "individual:\n  - {name: true, cardinality: 2}\n",
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "individual:\n  - {name: 5, cardinality: 2}\n",
        "household:\n  - {name: [a, b], cardinality: 2, size: true}\n"
        "individual:\n  - {name: x, cardinality: 2}\n",
        "household:\n  - {name: a, cardinality: 2, size: true}\n"
        "individual:\n  - {name: null, cardinality: 2}\n",
    ],
)
def test_parse_schema_rejects(text):
    with pytest.raises(SchemaError):
        parse_schema(text)


def test_variable_spec_label_length_checked():
    with pytest.raises(SchemaError):
        VariableSpec(name="x", cardinality=3, level="individual", labels=("a", "b"))


def test_dataset_validation_catches_size_mismatch(toy_schema):
    rec = HouseholdRecord(household_id="h1", hh_values=(0, 2), members=((0, 0), (1, 1)))
    ds = Dataset(schema=toy_schema, records=(rec,))
    with pytest.raises(SchemaError, match="size"):
        ds.validate()


def test_dataset_validation_catches_duplicate_ids(toy_schema):
    rec = HouseholdRecord(household_id="h1", hh_values=(0, 0), members=((0, 0),))
    ds = Dataset(schema=toy_schema, records=(rec, rec))
    with pytest.raises(SchemaError, match="duplicate"):
        ds.validate()


def test_dataset_validation_catches_out_of_range(toy_schema):
    rec = HouseholdRecord(household_id="h1", hh_values=(0, 0), members=((0, 4),))
    ds = Dataset(schema=toy_schema, records=(rec,))
    with pytest.raises(SchemaError):
        ds.validate()


def test_dataset_validation_catches_member_rows_that_do_not_match_sizes(toy_schema):
    # one household of size 2 holding three member rows
    hh = np.array([[0, 1]])
    three_member_rows = np.array([[0, 0], [1, 1], [1, 2]])
    ds = Dataset(toy_schema, view=DatasetView.from_arrays(hh, three_member_rows, [2]))
    with pytest.raises(SchemaError, match="codes per member"):
        ds.validate()


def test_view_round_trip(toy_dataset):
    view = toy_dataset.to_view()
    assert view.n_households == toy_dataset.n_households
    assert view.n_individuals == toy_dataset.n_individuals
    np.testing.assert_array_equal(view.sizes, [r.size for r in records_of(toy_dataset)])
    # segment starts line up with cumulative sizes
    np.testing.assert_array_equal(view.hh_start, np.r_[0, np.cumsum(view.sizes)[:-1]])
    back = Dataset(
        toy_dataset.schema,
        view=DatasetView.from_arrays(view.hh_codes, view.mem_codes, view.sizes),
        ids=toy_dataset.ids,
    )
    assert records_of(back) == records_of(toy_dataset)
    # a Dataset is its own view
    assert isinstance(toy_dataset, DatasetView) and view is toy_dataset


def test_view_from_arrays_matches_from_dataset(toy_dataset):
    view = toy_dataset.to_view()
    rebuilt = DatasetView.from_arrays(view.hh_codes, view.mem_codes, view.sizes)
    np.testing.assert_array_equal(rebuilt.mem_hh, view.mem_hh)
    np.testing.assert_array_equal(rebuilt.hh_start, view.hh_start)


def test_view_patterns_index_every_member(toy_dataset):
    view = toy_dataset.to_view()
    assert "mem_pattern" not in vars(view)  # computed on first use only
    np.testing.assert_array_equal(view.patterns[view.mem_pattern], view.mem_codes)
    want, inverse = np.unique(view.mem_codes, axis=0, return_inverse=True)
    np.testing.assert_array_equal(view.patterns, want)
    np.testing.assert_array_equal(view.mem_pattern, inverse)
    assert len(view.patterns) == 8 < view.n_individuals  # one repeated member row


def test_view_patterns_of_the_empty_view():
    view = DatasetView.from_arrays(np.zeros((0, 2)), np.zeros((0, 3)), [])
    assert view.patterns.shape == (0, 3) and view.mem_pattern.shape == (0,)


def test_view_patterns_when_the_radix_product_passes_int64():
    # 24 columns of 7 categories: 7**24 > 2**63 possible rows
    rng = np.random.default_rng(5)
    base = rng.integers(7, size=(40, 24))
    mem = base[rng.integers(40, size=300)]
    flip = rng.random(300) < 0.5  # rows that differ only in the last column
    mem[flip, -1] = (mem[flip, -1] + 1) % 7
    view = DatasetView.from_arrays(np.zeros((300, 1)), mem, np.ones(300))
    assert 7**24 > np.iinfo(np.int64).max
    want, inverse = np.unique(mem, axis=0, return_inverse=True)
    np.testing.assert_array_equal(view.patterns, want)
    np.testing.assert_array_equal(view.mem_pattern, inverse)
    np.testing.assert_array_equal(view.patterns[view.mem_pattern], mem)


def test_file_round_trip(tmp_path, toy_schema, toy_dataset):
    path = tmp_path / "data.csv"
    write_dataset(toy_dataset, path)
    back = load_dataset(path, toy_schema)
    assert records_of(back) == records_of(toy_dataset)
    # a second write is byte-identical
    path2 = tmp_path / "again.csv"
    write_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_dataset_accepts_any_column_order(tmp_path, toy_schema):
    path = tmp_path / "data.csv"
    path.write_text(
        "color,household_id,role,person_index,hh_size,own\n"
        "2,a,1,1,2,1\n"
        "4,a,2,2,2,1\n"
    )
    ds = load_dataset(path, toy_schema)
    assert records_of(ds)[0].hh_values == (0, 1)
    assert records_of(ds)[0].members == ((0, 1), (1, 3))


@pytest.mark.parametrize(
    "body,fragment",
    [
        # household columns disagree within the household
        ("1,a,1,1,2,1\n2,a,2,2,2,2\n", "inconsistent"),
        # size codes 2 but one row arrives
        ("1,a,1,1,2,1\n", "size"),
        # code outside range
        ("5,a,1,1,1,1\n", "outside"),
        # person_index not 1..n
        ("1,a,1,1,2,1\n1,a,2,3,2,1\n", "person_index"),
        # missing value
        ("1,a,,1,1,1\n", "missing"),
        # one cell short
        ("1,a,1,1,1\n", "expected 6 cells"),
        # a code or a person_index that is not an integer
        ("x,a,1,1,1,1\n", "color code 'x' is not an integer"),
        ("1,a,1,z,1,1\n", "person_index must be an integer"),
        # the same person twice
        ("1,a,1,1,2,1\n3,a,2,1,2,1\n", "duplicate person_index 1"),
        # person_index beyond any household's size, or below 1
        ("1,a,1,99999999999999999999,1,1\n", "person_index must run"),
        ("1,a,1,0,1,1\n", "person_index must run"),
        # a header and no households
        ("", "bad.csv: no households"),
    ],
)
def test_load_dataset_rejects(tmp_path, toy_schema, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("color,household_id,role,person_index,hh_size,own\n" + body)
    with pytest.raises(SchemaError, match=fragment):
        load_dataset(path, toy_schema)


def test_load_dataset_missing_column(tmp_path, toy_schema):
    path = tmp_path / "bad.csv"
    path.write_text("household_id,person_index,own,hh_size,role\n" "a,1,1,1,1\n")
    with pytest.raises(SchemaError, match="column"):
        load_dataset(path, toy_schema)


def test_size_histogram(toy_dataset):
    hist = size_histogram(toy_dataset)
    assert hist == {1: 2, 2: 2, 3: 1}
    assert sum(hist.values()) == toy_dataset.n_households
    assert sum(h * c for h, c in hist.items()) == toy_dataset.n_individuals


def test_size_histogram_empty(toy_schema):
    assert size_histogram(Dataset(schema=toy_schema, records=())) == {}


def test_load_dataset_groups_scattered_rows(tmp_path, toy_schema):
    # household b's rows are split by a and arrive person 2 first; c arrives 3, 1, 2
    path = tmp_path / "data.csv"
    path.write_text(
        "household_id,person_index,own,hh_size,role,color\n"
        "b,2,2,2,2,4\n"
        "a,1,1,1,1,2\n"
        "c,3,1,3,2,1\n"
        "b,1,2,2,1,3\n"
        "c,1,1,3,1,1\n"
        "c,2,1,3,2,2\n"
    )
    ds = load_dataset(path, toy_schema)
    view = ds.to_view()
    # households in order of first appearance, members in person_index order
    assert ds.ids == ("b", "a", "c")
    np.testing.assert_array_equal(view.hh_codes, [[1, 1], [0, 0], [0, 2]])
    np.testing.assert_array_equal(
        view.mem_codes, [[0, 2], [1, 3], [0, 1], [0, 0], [1, 1], [1, 0]]
    )
    np.testing.assert_array_equal(view.sizes, [2, 1, 3])
    np.testing.assert_array_equal(view.hh_start, [0, 2, 3])
    np.testing.assert_array_equal(view.mem_hh, [0, 0, 1, 2, 2, 2])


def test_write_of_load_reproduces_the_file(tmp_path, toy_schema):
    lines = [
        "household_id,person_index,own,hh_size,role,color",
        "h10,1,2,3,1,4",
        "h10,2,2,3,2,4",
        "h10,3,2,3,2,1",
        "h2,1,1,1,1,2",
        "x,1,1,2,1,3",
        "x,2,1,2,2,3",
    ]
    source = tmp_path / "source.csv"
    source.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf8"))
    again = tmp_path / "again.csv"
    write_dataset(load_dataset(source, toy_schema), again)
    assert again.read_bytes() == source.read_bytes()


def test_write_csv_writes_each_cell_kind(tmp_path):
    path = tmp_path / "table.csv"
    row = [np.float64(0.1), 1e-05, 2 / 3, None, np.int64(3), 7, "h1"]
    write_csv(path, ["a", "b", "c", "d", "e", "f", "g"], [row])
    assert path.read_bytes() == b"a,b,c,d,e,f,g\r\n0.1,1e-05,0.6666666666666666,,3,7,h1\r\n"

    # every double reads back to the same bits, sign included
    rng = np.random.default_rng(0)
    doubles = np.concatenate(
        [rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500), rng.random(500)]
    ).tolist() + [5e-324, -0.0, 1e16]
    write_csv(path, ["x"], ([x] for x in doubles))
    with path.open(newline="", encoding="utf8") as fh:
        cells = [r[0] for r in list(csv.reader(fh))[1:]]
    bits = [struct.pack("<d", x) for x in doubles]
    assert [struct.pack("<d", float(c)) for c in cells] == bits
    assert cells[-3:] == ["5e-324", "-0.0", "1e+16"]


def test_empty_dataset(tmp_path, toy_schema):
    for ds in (
        Dataset(toy_schema),
        Dataset(
            toy_schema,
            view=DatasetView.from_arrays(np.zeros((0, 2)), np.zeros((0, 2)), []),
        ),
    ):
        ds.validate()
        view = ds.to_view()
        assert ds.n_households == 0 and ds.n_individuals == 0 and ds.ids == ()
        assert view.hh_start.shape == (0,) and view.mem_hh.shape == (0,)
        path = tmp_path / "empty.csv"
        write_dataset(ds, path)
        assert path.read_text().splitlines() == [
            "household_id,person_index,own,hh_size,role,color"
        ]
        # writing one is fine, but no command can use a data file without households
        with pytest.raises(SchemaError, match="no households"):
            load_dataset(path, toy_schema)


def dataset_fields(dataset):
    """Everything a Dataset holds: its ids and each array's dtype, shape and values."""
    arrays = (getattr(dataset, f.name) for f in fields(DatasetView))
    return dataset.ids, [(a.dtype.str, a.shape, a.tolist()) for a in arrays]


def outcome(read, path, schema):
    """The Dataset's fields, or the type and text of what the read raised."""
    try:
        return dataset_fields(read(path, schema))
    except Exception as exc:
        return type(exc).__name__, str(exc)


HEADER = b"household_id,person_index,own,hh_size,role,color"


# (file bytes or None for a file write_dataset writes, whether the bulk parse takes it)
READ_CASES = {
    "any column order": (
        b"color,household_id,role,person_index,hh_size,own\n2,a,1,1,2,1\n4,a,2,2,2,1\n", True
    ),
    "scattered rows": (
        HEADER + b"\nb,2,2,2,2,4\na,1,1,1,1,2\nc,3,1,3,2,1\nb,1,2,2,1,3\nc,1,1,3,1,1"
        b"\nc,2,1,3,2,2\n",
        True,
    ),
    "written by write_dataset": (None, True),
    "bare CR endings": (HEADER + b"\ra,1,1,1,1,2\rb,1,2,1,2,3\r", True),
    "no final line end": (HEADER + b"\na,1,1,1,1,2", True),
    "spaces around a code": (HEADER + b"\na,1,1, 1 ,1,2\n", True),
    "a tab before a code": (HEADER + b"\na,1,1,1,1,\t2\n", True),
    "a plus sign": (HEADER + b"\na,1,1,1,1,+3\n", True),
    "spaces in an id": (HEADER + b"\n a b ,1,1,1,1,2\n", True),
    "a quoted id": (HEADER + b'\r\n"a,b",1,1,1,1,2\r\n"say ""hi""",1,2,1,2,4\r\n', False),
    "a quoted code": (HEADER + b'\na,1,1,1,1,"2"\n', False),
    "a non-ASCII digit": (HEADER + "\na,1,1,1,1,٣\n".encode(), False),
    "a form feed after a code": (HEADER + b"\na,1,1,1,1,2\x0c\n", False),
    "a NUL in an id": (HEADER + b"\na\x00b,1,1,1,1,2\n", False),
    "a minus sign": (HEADER + b"\na,1,1,1,1,-1\n", False),
    "an underscore": (HEADER + b"\na,1,1,1,1,1_0\n", False),
    "a float": (HEADER + b"\na,1,1,1,1,2.0\n", False),
    "an empty cell": (HEADER + b"\na,1,1,,1,2\n", False),
    "a blank id": (HEADER + b"\n ,1,1,1,1,2\n", False),
    "a letter loadtxt reads as a digit": (HEADER + "\na,1,1,1,1,Ǿ\n".encode(), False),
    "a separator control after a code": (HEADER + b"\na,1,1,1,1,2\x1c\n", False),
    "a person_index past int64": (HEADER + b"\na,99999999999999999999,1,1,1,2\n", False),
    "a blank line": (HEADER + b"\na,1,1,1,1,2\n\nb,1,1,1,1,2\n", False),
    "a blank last line": (HEADER + b"\na,1,1,1,1,2\n\n", False),
    "a short row": (HEADER + b"\na,1,1,1,1\n", False),
    "a long row": (HEADER + b"\na,1,1,1,1,2,3\n", False),
    "a byte order mark": (b"\xef\xbb\xbf" + HEADER + b"\na,1,1,1,1,2\n", False),
    "header only": (HEADER + b"\n", False),
    "an empty file": (b"", False),
    "inconsistent household codes": (HEADER + b"\na,1,1,2,1,2\na,2,2,2,2,2\n", False),
    "a size that does not match": (HEADER + b"\na,1,1,2,1,2\n", False),
    "a duplicate person_index": (HEADER + b"\na,1,1,2,1,2\na,1,1,2,2,2\n", False),
}


@pytest.mark.parametrize("body,plain", READ_CASES.values(), ids=READ_CASES)
def test_bulk_read_agrees_with_the_csv_reader(tmp_path, toy_schema, toy_dataset, body, plain):
    path = tmp_path / "data.csv"
    if body is None:
        write_dataset(toy_dataset, path)
    else:
        path.write_bytes(body)
    expected = outcome(data._read_csv, path, toy_schema)
    assert outcome(load_dataset, path, toy_schema) == expected
    bulk = data._read_plain(path, toy_schema)
    assert (bulk is not None) == plain
    if bulk is not None:
        assert dataset_fields(bulk) == expected


@pytest.mark.parametrize(
    "hid", ["a,b", 'say "hi"', "two\nlines", "a\rb", "  padded  ", "naïve 東京"]
)
def test_written_ids_keep_the_csv_bytes_and_read_back(tmp_path, toy_schema, toy_dataset, hid):
    dataset = Dataset(toy_schema, view=toy_dataset, ids=(hid, *toy_dataset.ids[1:]))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(data._columns(toy_schema))
    writer.writerows(
        [record.household_id, j, *(c + 1 for c in record.hh_values), *(c + 1 for c in member)]
        for record in records_of(dataset)
        for j, member in enumerate(record.members, start=1)
    )
    assert path.read_bytes() == text.getvalue().encode("utf8")
    assert dataset_fields(load_dataset(path, toy_schema)) == dataset_fields(dataset)
