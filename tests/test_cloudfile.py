import csv
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toporeg import cloudfile
from toporeg.cloudfile import CloudParseError, load_cloud_csv

from oracles import CsvCellError, per_cell_cloud_csv

# whitespace that str.strip() removes around a cell; \x1c-\x1f are separators
# that float() and int() would reject unstripped
PADDING = ["", " ", "  ", "\t", " \t ", "\x1c", "\x1f", "\xa0"]
NON_FINITE = ["inf", "-inf", "nan", "NaN", "Infinity", "-INF", "1e400", "-1e999"]
MALFORMED = ["", "abc", "1.2.3", "0x1", "--1", "1e", "e5", "1,5", "1 2", "+-3", "١x"]
LABELS = ["0", "1", "2", "+3", "007", "-0", "1_0"]
BAD_LABELS = ["-1", "x", "1.5", "", "1e2", "٣x"]


def number_cells():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(
        finite.map(repr),  # shortest round-trip form, up to 17 significant digits
        finite.map(lambda v: f"{v:.17g}"),
        finite.map(lambda v: f"{v:.6e}"),
        finite.map(lambda v: f"{v:E}"),
        st.sampled_from(["1e5", "-2.5E-3", "1_000.5", "0", "-0", "+.5", "5.", "1e-320", "١٢"]),
    )


@st.composite
def cells(draw, kind):
    """One coordinate or label cell, good or bad, padded and sometimes quoted."""
    token = {
        "number": number_cells(),
        "bad": st.sampled_from(NON_FINITE + MALFORMED),
        "label": st.sampled_from(LABELS),
        "bad_label": st.sampled_from(BAD_LABELS),
    }[kind]
    token = draw(token)
    token = draw(st.sampled_from(PADDING)) + token + draw(st.sampled_from(PADDING))
    if draw(st.integers(0, 4)) == 0 or "," in token:
        token = '"' + token + '"'
    return token


@st.composite
def csv_texts(draw):
    """CSV text with a header or none, a label column or none, ragged rows,
    blank lines, bad cells scattered over several rows and sometimes a
    leading byte order mark."""
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    header = draw(st.sampled_from(["none"] * 3 + ["plain"] * 2 + ["label"] * 4 + ["wrong_width"]))
    has_labels = header == "label"
    lines = []
    if header != "none":
        names = [f" x{i} " for i in range(width + (header == "wrong_width"))]
        if has_labels:
            names[-1] = draw(st.sampled_from(["label", " Label", "LABEL "]))
        lines.append(",".join(names))
    bad_rate = draw(st.sampled_from([0, 0, 2, 5, 15]))  # chance in 100 that a cell is bad
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ", ,", "\t"])))
            continue
        n_cells = width
        if bad_rate and draw(st.integers(0, 299)) < bad_rate:
            n_cells = draw(st.sampled_from([width + 1, max(width - 1, 0)]))
        row = []
        for c in range(n_cells):
            bad = bad_rate and draw(st.integers(0, 99)) < bad_rate
            if has_labels and c == width - 1:
                row.append(draw(cells("bad_label" if bad else "label")))
            else:
                row.append(draw(cells("bad" if bad else "number")))
        lines.append(",".join(row))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))  # spreadsheet exports write one
    return bom + ending.join(lines) + draw(st.sampled_from(["", ending]))


def assert_matches_oracle(path):
    """load_cloud_csv gives per_cell_cloud_csv's points (bitwise, so -0.0
    stays -0.0), labels and dtypes, or its message, row and column included."""
    try:
        points, labels = per_cell_cloud_csv(path)
    except CsvCellError as expected:
        with pytest.raises(CloudParseError) as info:
            load_cloud_csv(path)
        assert str(info.value) == str(expected)
        return
    got_points, got_labels = load_cloud_csv(path)
    assert got_points.dtype == np.float64 and got_points.shape == points.shape
    assert got_points.tobytes() == points.tobytes()
    if labels is None:
        assert got_labels is None
    else:
        assert got_labels.dtype == np.int64 and np.array_equal(got_labels, labels)


class TestBulkParse:
    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts())
    # quoted, so read by the csv module, whose row check sums past float64's range
    @example(text='"1e308",1.5e308\n')
    @example(text='"1e308",1.5e308,-inf\n')
    def test_matches_per_cell_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "cloud.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_matches_oracle(path)

    @pytest.mark.parametrize(
        "text",
        # numpy's C reader parses the label-free file and must decline its inf
        ["x,y,label\n1,2,0\n3,inf,1\n4,oops,1\n", "x,y\n1,2\n3,inf\n4,5\n"],
        ids=["labeled", "label_free"],
    )
    def test_errors_start_with_the_path(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CloudParseError) as info:
            load_cloud_csv(path)
        assert str(info.value) == f"{path}: non-finite coordinate 'inf' (row 3, column 2)"

    @pytest.mark.parametrize("label", ["9223372036854775808", "-9223372036854775809"])
    def test_label_beyond_int64_names_its_cell(self, tmp_path, label):
        path = tmp_path / "big.csv"
        path.write_text(f"x,label\n1,0\n2,{label}\n", encoding="utf-8")
        with pytest.raises(CloudParseError) as info:
            load_cloud_csv(path)
        assert str(info.value).startswith(f"{path}: labels must be ")
        assert str(info.value).endswith("(row 3, column 2)")

    @pytest.mark.parametrize("header", ["", "x,y\n\n"], ids=["headerless", "header_and_blank_line"])
    def test_cell_past_the_field_size_limit_names_its_row(self, tmp_path, header):
        # the csv module's limit is process-wide, so the loader leaves it as it is;
        # rows are read before any cell is parsed, so the bad cell above goes unnamed
        path = tmp_path / "big.csv"
        path.write_text(f"{header}1,oops\n3,{'7' * 200_000}\n", encoding="utf-8")
        with pytest.raises(CloudParseError) as info:
            load_cloud_csv(path)
        row = 3 if header else 2
        assert str(info.value) == f"{path}: field larger than field limit ({csv.field_size_limit()}) (row {row})"


@st.composite
def plain_clouds(draw):
    """(header or None, rows) of label-free cells numpy's C reader takes:
    number_cells() without underscores or non-ASCII digits, padded."""
    width = draw(st.integers(1, 4))
    token = number_cells().filter(lambda c: c.isascii() and "_" not in c)
    cell = st.tuples(st.sampled_from(PADDING), token, st.sampled_from(PADDING)).map("".join)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=8))
    header = draw(st.sampled_from([None, [f" x{i} " for i in range(width)]]))
    return header, rows


class TestTwoReaders:
    @settings(max_examples=200, deadline=None)
    @given(cloud=plain_clouds(), ending=st.sampled_from(["\n", "\r\n", "\r"]), bom=st.sampled_from(["", "\ufeff"]))
    def test_c_reader_matches_the_csv_module(self, tmp_path_factory, cloud, ending, bom):
        header, rows = cloud
        labeled_header = [*(header or [f"x{i}" for i in range(len(rows[0]))]), "label"]
        texts = {
            # no label column, no quote: numpy's C reader
            "plain": [header, *rows] if header else rows,
            # a label column: the csv module
            "labeled": [
                labeled_header,
                *([*row, str(r)] for r, row in enumerate(rows)),
            ],
            # every cell quoted: the csv module
            "quoted": [[f'"{cell}"' for cell in row] for row in ([header, *rows] if header else rows)],
        }
        base = tmp_path_factory.getbasetemp()
        got = {}
        for name, lines in texts.items():
            path = base / f"{name}.csv"
            path.write_text(bom + ending.join(map(",".join, lines)) + ending, encoding="utf-8", newline="")
            assert (cloudfile._c_reader(path) is None) == (name != "plain")
            got[name] = load_cloud_csv(path)
        assert got["plain"][1] is None and got["quoted"][1] is None
        labels = got["labeled"][1]
        assert labels.dtype == np.int64 and labels.tolist() == list(range(len(rows)))
        points = got["plain"][0]
        assert points.shape == (len(rows), len(rows[0]))
        assert got["labeled"][0].tobytes() == points.tobytes() == got["quoted"][0].tobytes()


class TestLabelCells:
    """Label cells at the edges of what int() accepts, each read by the csv
    module, since numpy's C reader declines every labeled file."""

    @pytest.mark.parametrize(
        "label",
        [
            " 3 ",
            "+3",
            "007",
            "-0",
            "3\x1c",
            "9223372036854775807",
            "1_0",
            "9223372036854775808",
            "1.0",
            "-1",
            # non-ASCII: a digit int() reads, padding strip() drops, a letter alone and between digits
            "\u0663",
            "\xa03",
            "\u01fe",
            "1\u01fe2",
        ],
    )
    def test_matches_per_cell_oracle(self, tmp_path, label):
        path = tmp_path / "cloud.csv"
        path.write_text(f"x,y,label\n1,2,0\n3,4,{label}\n5,6,1\n", encoding="utf-8", newline="")
        assert cloudfile._c_reader(path) is None
        assert_matches_oracle(path)

    def test_lone_label_column_has_no_coordinates(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("label\n0\n1\n", encoding="utf-8")
        assert cloudfile._c_reader(path) is None
        with pytest.raises(CloudParseError) as info:
            load_cloud_csv(path)
        assert str(info.value) == f"{path}: row has no coordinate columns (row 2)"


class TestFileShapes:
    """Points and messages that numpy's C reader, left to its defaults,
    would give otherwise."""

    def load(self, tmp_path, text):
        path = tmp_path / "cloud.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return path, load_cloud_csv(path)

    @pytest.mark.parametrize("cell", ["0" * 200_000, " " * 200_000 + "1"], ids=["zeros", "spaces_then_one"])
    def test_finite_cell_past_the_field_size_limit_names_its_row(self, tmp_path, cell):
        path = tmp_path / "big.csv"
        path.write_text(f"1,2\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(CloudParseError) as info:
            load_cloud_csv(path)
        assert str(info.value) == f"{path}: field larger than field limit ({csv.field_size_limit()}) (row 2)"

    def test_hash_cell_is_a_bad_cell_not_a_comment(self, tmp_path):
        with pytest.raises(CloudParseError) as info:
            self.load(tmp_path, "1,2\n#3,4\n")
        assert str(info.value).endswith(": cannot parse '#3' as a number (row 2, column 1)")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no data rows"),
            ("\ufeff", "no data rows"),
            ("\n \n\t\n", "no data rows"),
            ("x,y\n", "header only, no data rows"),
            ("x,y\n\n,\n", "header only, no data rows"),
        ],
        ids=["empty", "bom_only", "blank_only", "header_only", "header_and_blank_lines"],
    )
    def test_no_data_raises_without_a_warning(self, tmp_path, text, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CloudParseError) as info:
                self.load(tmp_path, text)
        assert caught == []
        assert str(info.value).endswith(f": {message}")

    def test_lone_carriage_returns_end_lines(self, tmp_path):
        _, (want, _) = self.load(tmp_path, "x,y\n1,2\n3,4\n")
        _, (got, _) = self.load(tmp_path, "x,y\r1,2\r3,4\r")
        assert got.shape == (2, 2) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "text, shape", [("1\n2\n3\n", (3, 1)), ("1,2,3\n", (1, 3)), ("x\n5\n", (1, 1))], ids=["column", "row", "one"]
    )
    def test_one_column_and_one_row_keep_two_axes(self, tmp_path, text, shape):
        _, (points, _) = self.load(tmp_path, text)
        assert points.shape == shape

    @pytest.mark.parametrize(
        "text",
        ["\nx,y\n1,2\n", ' \n"x\ny",z\n1,2\n', '"x\ny",z\n1,2\n'],
        ids=["after_blank", "quoted_after_blank", "quoted_two_lines"],
    )
    def test_header_below_a_blank_line_or_across_two_lines(self, tmp_path, text):
        _, (points, labels) = self.load(tmp_path, text)
        assert points.tolist() == [[1.0, 2.0]] and labels is None

    def test_quoted_first_row_is_parsed_by_the_csv_module(self, tmp_path):
        # unquoted, '"1"' is no number, so the row would pass for a header
        _, (points, _) = self.load(tmp_path, '"1",2\n3,4\n')
        assert points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # and '"label"' would not name a label column
        _, (points, labels) = self.load(tmp_path, 'x,"label"\n1,0\n2,1\n')
        assert points.tolist() == [[1.0], [2.0]] and labels.tolist() == [0, 1]


class TestEncoding:
    @pytest.mark.parametrize("bom", [b"", "\ufeff".encode()], ids=["plain", "after_bom"])
    def test_decode_error_gives_the_file_offset(self, tmp_path, bom):
        path = tmp_path / "bad.csv"
        # the bad byte lies past the first 8 KB of the file
        path.write_bytes(bom + b"1,2\n" * 2500 + b"\xff" + b"3,4\n" * 4445)
        with pytest.raises(CloudParseError) as info:
            load_cloud_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte {len(bom) + 10000})"

    @pytest.mark.parametrize(
        "text", ["0,0\n3,0\n0,4\n", "x,y,label\n0,0,0\n3,0,1\n0,4,1\n"], ids=["headerless", "label_header"]
    )
    def test_leading_bom_is_dropped(self, tmp_path, text):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        (want_points, want_labels), (got_points, got_labels) = load_cloud_csv(plain), load_cloud_csv(bom)
        assert got_points.shape == want_points.shape == (3, 2)
        assert got_points.tobytes() == want_points.tobytes()
        if want_labels is None:
            assert got_labels is None
        else:
            assert np.array_equal(got_labels, want_labels)
