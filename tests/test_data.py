import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from _oracles import csv_by_cell, format_row
from splitsvm.data import (
    SCALE_FLOOR,
    WRITE_CELLS,
    Dataset,
    FeatureScaling,
    generate_synthetic,
    load_csv,
    load_features_csv,
    save_csv,
    save_labeled_features,
)
from splitsvm.errors import InputError, ParseError


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------


def test_dataset_properties():
    ds = Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
    assert ds.n == 3
    assert ds.d == 2


@pytest.mark.parametrize(
    "X,y",
    [
        (np.zeros((2, 2)), np.array([1.0, 0.0])),
        (np.zeros((2, 2)), np.array([1.0, 2.0])),
        (np.zeros((2, 2)), np.array([1.0])),
        (np.array([[np.inf, 0.0]]), np.array([1.0])),
        (np.zeros(3), np.array([1.0, 1.0, -1.0])),
        (np.zeros((0, 2)), np.zeros(0)),
    ],
)
def test_dataset_validation(X, y):
    with pytest.raises(InputError):
        Dataset(X, y)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_shapes_and_balance():
    train, test = generate_synthetic(30, 10, seed=0)
    assert (train.n, train.d) == (30, 2)
    assert (test.n, test.d) == (10, 2)
    assert int(np.sum(train.y == 1.0)) == 15
    assert int(np.sum(test.y == -1.0)) == 5


def test_synthetic_class_regions():
    train, test = generate_synthetic(400, 200, seed=1)
    for ds in (train, test):
        pos = ds.X[ds.y == 1.0]
        neg = ds.X[ds.y == -1.0]
        assert np.all(pos >= -3.0) and np.all(pos <= 10.0)
        assert np.all(neg >= -10.0) and np.all(neg <= 3.0)


def test_synthetic_positive_block_first():
    train, _ = generate_synthetic(10, 2, seed=2)
    np.testing.assert_array_equal(train.y[:5], np.ones(5))
    np.testing.assert_array_equal(train.y[5:], -np.ones(5))


def test_synthetic_seed_determinism():
    a_train, a_test = generate_synthetic(20, 8, seed=11)
    b_train, b_test = generate_synthetic(20, 8, seed=11)
    np.testing.assert_array_equal(a_train.X, b_train.X)
    np.testing.assert_array_equal(a_test.X, b_test.X)
    c_train, _ = generate_synthetic(20, 8, seed=12)
    assert not np.array_equal(a_train.X, c_train.X)


def test_synthetic_train_draw_precedes_test_draw():
    # The train block must be unaffected by how much test data follows.
    a_train, _ = generate_synthetic(20, 8, seed=5)
    b_train, _ = generate_synthetic(20, 40, seed=5)
    np.testing.assert_array_equal(a_train.X, b_train.X)


@pytest.mark.parametrize("n_train,n_test", [(0, 10), (7, 10), (10, 0), (10, 3)])
def test_synthetic_rejects_odd_or_tiny_counts(n_train, n_test):
    with pytest.raises(InputError):
        generate_synthetic(n_train, n_test, seed=0)


def test_synthetic_rejects_a_negative_seed():
    with pytest.raises(InputError, match="seed must be non-negative, got -1"):
        generate_synthetic(10, 10, seed=-1)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path, rng):
    ds = Dataset(rng.normal(size=(17, 3)), rng.choice([-1.0, 1.0], size=17))
    path = tmp_path / "data.csv"
    save_csv(ds, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)


def test_save_labeled_features_round_trip(tmp_path):
    feats = np.array([[0.5, 1.5], [2.0, -3.0]])
    labels = np.array([1.0, -1.0])
    path = tmp_path / "pred.csv"
    save_labeled_features(feats, labels, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.X, feats)
    np.testing.assert_array_equal(back.y, labels)


def test_load_accepts_header_row(tmp_path):
    path = tmp_path / "with_header.csv"
    path.write_text("x1,x2,label\n0.0,1.0,1\n2.0,3.0,-1\n")
    ds = load_csv(str(path))
    assert ds.n == 2
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])


def test_load_accepts_plus_one_label(tmp_path):
    path = tmp_path / "plus.csv"
    path.write_text("0.0,1.0,+1\n2.0,3.0,-1\n")
    ds = load_csv(str(path))
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("0.0,1.0,1\n\n2.0,3.0,-1\n\n")
    assert load_csv(str(path)).n == 2


def test_load_features_csv(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    feats = load_features_csv(str(path))
    np.testing.assert_array_equal(feats, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "no data"),
        ("x1,x2,label\n", "header but no data"),
        ("1.0,2.0,1\n1.0,2.0\n", "line 2"),
        ("1.0,2.0,1\n1.0,oops,1\n", "line 2"),
        ("1.0,2.0,5\n", "label"),
        ("1.0,2.0,1.0\n", "label"),
        ("1\n2\n", "label column"),
        ("inf,2.0,1\n", "finite"),
    ],
)
def test_load_csv_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ParseError, match=fragment):
        load_csv(str(path))


def test_load_csv_ragged_rows_reported_with_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("h1,h2,label\n1.0,2.0,1\n3.0,4.0,5.0,-1\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(str(path))


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_csv(str(tmp_path / "nope.csv"))


# A byte 0xff in the first row, in a header, or past the decoder's first
# chunks of text.
@pytest.mark.parametrize("load, row", [(load_csv, b"1.5,2.5,1\n"), (load_features_csv, b"1.5,2.5\n")],
                         ids=["load_csv", "load_features_csv"])
@pytest.mark.parametrize("head", [b"", b"x\xff,y\n", b"1.5,2.5,1\n" * 3000],
                         ids=["first-row", "header", "late"])
def test_readers_reject_text_that_is_not_utf8(tmp_path, load, row, head):
    path = tmp_path / "bad.csv"
    path.write_bytes(head + b"\xff" + row + row)
    with pytest.raises(ParseError, match=r"bad\.csv: not UTF-8 text$"):
        load(str(path))


@pytest.mark.parametrize("head", [b"", b"x1,x2,label\n"], ids=["no-header", "header"])
def test_readers_skip_a_byte_order_mark(tmp_path, head):
    # The mark is not part of the first row: it neither hides a data row
    # nor keeps a header from being one.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + head + b"1.0,2.0,1\n3.0,4.0,-1\n")
    ds = load_csv(str(path))
    np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])
    np.testing.assert_array_equal(load_features_csv(str(path))[:, :2], ds.X)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_load_csv_reads_a_pipe(bom):
    read_end, write_end = os.pipe()
    os.write(write_end, bom + b"1.0,2.0,1\n3.0,4.0,-1\n")
    os.close(write_end)
    try:
        ds = load_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("labeled", [False, True], ids=["load_features_csv", "load_csv"])
@pytest.mark.parametrize("bad, message", [
    (["1.0,oops"], "line 3: field 2 is not a number: 'oops'"),
    (["nan,1.0"], "line 3: features must be finite"),
    (["1.0,oops", "1.0,2.0", "1.0,2.0,3.0"], "line 5 has {width} fields, expected {expected}"),
], ids=["not-a-number", "not-finite", "ragged-after-a-bad-row"])
def test_readers_name_a_fault_read_from_a_pipe(labeled, bad, message):
    # A pipe can be read only once.  The fault is named from that one pass,
    # as it is in a file, and the drained pipe is not taken for no data.
    load, suffix = (load_csv, ",1") if labeled else (load_features_csv, "")
    rows = ["x1,x2" + (",label" if labeled else ""), "1.0,2.0"] + bad
    read_end, write_end = os.pipe()
    os.write(write_end, "".join(row + suffix + "\n" for row in rows).encode())
    os.close(write_end)
    path = f"/dev/fd/{read_end}"
    try:
        with pytest.raises(ParseError) as exc:
            load(path)
    finally:
        os.close(read_end)
    message = message.format(width=3 + labeled, expected=2 + labeled)
    assert str(exc.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# whole-file readers and writers against the per-cell references
# ---------------------------------------------------------------------------

#: Signed zero, subnormals and values near the top of the double range.
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-310,
               1.7976931348623157e308, -1e308, 9.999999999999999e307]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def random_features(rng, rows, cols):
    x = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 300, size=(rows, cols))
    x.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    return x


def spelled(rng, v):
    """v written in one of the spellings the readers take, one of them a
    quoted cell that spans three lines."""
    v = float(v)
    return rng.choice([f"{v!r}", f"{v:+.17g}", f"{v:.16E}", f" {v!r} ", f'"{v!r}"',
                       f'"\n{v!r}\n"'])


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("header", [False, True])
def test_readers_match_the_per_cell_reference(tmp_path, rng, newline, header):
    x = random_features(rng, 300, 3)
    signs = rng.choice(["1", "+1", "-1", " +1", "-1 "], size=300)
    lines = ["x1,x2,x3,label"] if header else []
    for k, (row, sign) in enumerate(zip(x, signs)):
        lines.append(",".join([spelled(rng, v) for v in row] + [sign]))
        if k % 50 == 7:
            lines.append("")
    labeled, unlabeled = tmp_path / "labeled.csv", tmp_path / "features.csv"
    labeled.write_bytes((newline.join(lines) + newline).encode())
    unlabeled.write_bytes(
        (newline.join(line.rsplit(",", 1)[0] for line in lines) + newline).encode()
    )

    ds = load_csv(str(labeled))
    ref_x, ref_y = csv_by_cell(str(labeled), labeled=True)
    np.testing.assert_array_equal(bits(ds.X), bits(ref_x))
    np.testing.assert_array_equal(ds.y, ref_y)
    np.testing.assert_array_equal(bits(ds.X), bits(x))
    feats = load_features_csv(str(unlabeled))
    np.testing.assert_array_equal(bits(feats), bits(csv_by_cell(str(unlabeled), labeled=False)[0]))
    np.testing.assert_array_equal(bits(feats), bits(x))
    assert feats.flags.c_contiguous and ds.X.flags.c_contiguous


#: Rows of two features and a label that the writers format at a time.
CHUNK = WRITE_CELLS // 3


def test_writers_match_the_per_value_formula(tmp_path, rng):
    # Batch sizes on either side of a chunk's edge; an empty batch is "\n".
    for rows in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 200):
        x = random_features(rng, rows, 2)
        y = rng.choice([-1.0, 1.0], size=rows)
        if rows:
            expected = "\n".join(format_row(x[i], y[i]) for i in range(rows)) + "\n"
            save_csv(Dataset(x, y), str(tmp_path / "a.csv"))
            assert (tmp_path / "a.csv").read_bytes() == expected.encode()

        scores = np.concatenate([y, [0.0, -0.0, np.nan, 2.5]])[4:]
        expected = "\n".join(format_row(x[i], scores[i]) for i in range(rows)) + "\n"
        save_labeled_features(x, scores, str(tmp_path / "b.csv"))
        assert (tmp_path / "b.csv").read_bytes() == expected.encode()
    save_labeled_features(np.empty((0, 2)), np.empty(0), str(tmp_path / "c.csv"))
    assert (tmp_path / "c.csv").read_bytes() == b"\n"


def test_a_writer_that_fails_mid_file_leaves_no_file(tmp_path, monkeypatch):
    import splitsvm.data as data_mod

    real, calls = data_mod._labeled_text, []

    def fail_on_second_chunk(features, labels):
        calls.append(len(features))
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return real(features, labels)

    monkeypatch.setattr(data_mod, "_labeled_text", fail_on_second_chunk)
    x = np.zeros((CHUNK + 1, 2))
    with pytest.raises(RuntimeError, match="formatter failed"):
        save_labeled_features(x, np.ones(CHUNK + 1), str(tmp_path / "out.csv"))
    assert calls == [CHUNK, 1]
    assert list(tmp_path.iterdir()) == []


LATE_ROWS = 20000


def late_error_file(tmp_path, bad_row, at, labeled=False):
    """A header, a blank line and LATE_ROWS rows of two features (and a
    label), with row ``at`` (0-based) replaced; returns (path, file line
    of that row)."""
    rows = ["0.5,0.5,1" if labeled else "0.5,0.5"] * LATE_ROWS
    rows[at] = bad_row
    path = tmp_path / "late.csv"
    header = "x1,x2,label" if labeled else "x1,x2"
    path.write_text("\n".join([header, ""] + rows) + "\n")
    return str(path), at + 3


@pytest.mark.parametrize("load", [load_features_csv, lambda p: load_csv(p).X])
def test_late_non_number_names_its_line_and_field(tmp_path, load):
    labeled = load is not load_features_csv
    path, ln = late_error_file(tmp_path, "0.5,abc,1" if labeled else "0.5,abc", 19990, labeled)
    with pytest.raises(ParseError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: line {ln}: field 2 is not a number: 'abc'"


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
def test_late_non_finite_feature_names_its_line(tmp_path, cell):
    path, ln = late_error_file(tmp_path, f"0.5,{cell}", 19990)
    with pytest.raises(ParseError) as exc:
        load_features_csv(path)
    assert str(exc.value) == f"{path}: line {ln}: features must be finite"
    path, ln = late_error_file(tmp_path, f"{cell},0.5,-1", 19990, labeled=True)
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: line {ln}: features must be finite"


def test_late_ragged_row_names_its_line(tmp_path):
    for load, labeled in ((load_features_csv, False), (load_csv, True)):
        path, ln = late_error_file(tmp_path, "0.5,0.5,0.5,1", 19990, labeled)
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: line {ln} has 4 fields, expected {2 + labeled}"


@pytest.mark.parametrize("load,suffix", [(load_features_csv, ""), (load_csv, ",1")])
def test_error_after_a_cell_spanning_lines_names_the_file_line(tmp_path, load, suffix):
    # The second record is the quoted cell "3.0\n" and 4.0, on lines 2-3,
    # so the bad cell is on line 4, though it is in the third record.
    path = tmp_path / "quoted.csv"
    path.write_text(f'1.0,2.0{suffix}\n"3.0\n",4.0{suffix}\n5.0,oops{suffix}\n')
    with pytest.raises(ParseError) as exc:
        load(str(path))
    assert str(exc.value) == f"{path}: line 4: field 2 is not a number: 'oops'"


def test_first_bad_row_wins_and_label_comes_first(tmp_path):
    # Row 15000 has a bad label and a bad feature; row 19990 a bad feature.
    # The first bad row is named, and within a row the label is checked
    # before the features.
    path, ln = late_error_file(tmp_path, "abc,0.5,2", 15000, labeled=True)
    text = Path(path).read_text().splitlines()
    text[19990 + 2] = "0.5,xyz,1"
    Path(path).write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: line {ln}: label must be '1', '+1' or '-1', got '2'"


@pytest.mark.parametrize("labeled", [False, True])
def test_fault_precedence_across_and_within_rows(tmp_path, labeled):
    # The first bad row is named even when a later row has a fault checked
    # earlier within a row; within a row a cell that is not a number comes
    # before finiteness; a ragged row is named before any cell is read.
    # A file with no rows, or only blank ones, or only a header, has no data.
    load, suffix = (load_csv, ",1") if labeled else (load_features_csv, "")
    width = 2 + labeled
    cases = [
        (["0.5,0.5", "inf,0.5", "0.5,abc"], "line 2: features must be finite"),
        (["0.5,0.5", "inf,abc"], "line 2: field 2 is not a number: 'abc'"),
        (["0.5,0.5", "0.5,abc", "0.5,0.5,0.5"],
         f"line 3 has {width + 1} fields, expected {width}"),
        (["x1,x2", "", "0.5,0.5", "", "0.5,nan"], "line 5: features must be finite"),
        ([], "file contains no data"),
        (["", ""], "file contains no data"),
        (["x1,x2"], "file contains a header but no data"),
        (["", "x1,x2", ""], "file contains a header but no data"),
    ]
    path = tmp_path / "faults.csv"
    for (rows, message), newline in itertools.product(cases, ["\n", "\r\n"]):
        path.write_bytes("".join((row and row + suffix) + newline for row in rows).encode())
        with pytest.raises(ParseError) as exc:
            load(str(path))
        assert str(exc.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_standardize_train_statistics(rng):
    X = rng.normal(loc=3.0, scale=2.0, size=(50, 4))
    scaling = FeatureScaling.fit(X)
    np.testing.assert_allclose(scaling.means, X.mean(axis=0))
    np.testing.assert_allclose(scaling.scales, X.std(axis=0))
    scaled = scaling.apply(X)
    np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.std(axis=0), 1.0, rtol=1e-12)


def test_standardize_applies_train_stats_to_others(rng):
    train, test = rng.normal(size=(30, 2)), rng.normal(size=(10, 2))
    scaling = FeatureScaling.fit(train)
    np.testing.assert_allclose(scaling.apply(test), (test - scaling.means) / scaling.scales,
                               rtol=1e-15)


def test_standardize_constant_feature_centered_not_scaled():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
    scaling = FeatureScaling.fit(X)
    assert scaling.scales[1] == 1.0  # substituted, not the raw (near-zero) deviation
    np.testing.assert_allclose(scaling.apply(X)[:, 1], 0.0, atol=SCALE_FLOOR)
    assert scaling.means[1] == 5.0


def test_standardize_round_trips_with_returned_stats(rng):
    X = rng.normal(size=(20, 3))
    scaling = FeatureScaling.fit(X)
    np.testing.assert_array_equal(scaling.apply(X), (X - scaling.means) / scaling.scales)
