import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)

HEADER = "t,F_neq,Pi\n"
ROWS_A = ["0,-1.5,2.0\n", "1,-1.75,1.0\n", "2,-1.875,0.5\n"]
ROWS_B = ["0,-1.5,2.0\n", "1,-1.75,1.0000000000000002\n", "2,-1.875,0.50000000000000011\n"]


def _write(path, rows, header=HEADER):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "".join(rows))
    return path


class TestCsvChanges:
    def test_names_the_changed_column_and_its_relative_change(self, tmp_path):
        lines = output_digests.csv_changes(
            _write(tmp_path / "a.csv", ROWS_A), _write(tmp_path / "b.csv", ROWS_B)
        )
        assert lines[0] == "2 of 3 rows differ"
        # largest |a - b| is 2.2e-16 (at Pi = 1), over max |Pi| = 2
        assert lines[1:] == ["column Pi: 2 rows differ, largest change 2.22e-16 (1.11e-16 of max |Pi|; 1 ulp)"]

    def test_a_column_of_rounding_noise_shows_its_absolute_change(self, tmp_path):
        # C of a diagonal state is rounding noise: relative to itself it changes by 100%
        lines = output_digests.csv_changes(
            _write(tmp_path / "a.csv", ["0,1e-17\n", "1,0\n"], header="t,C\n"),
            _write(tmp_path / "b.csv", ["0,0\n", "1,0\n"], header="t,C\n"),
        )
        assert lines == ["1 of 2 rows differ", "column C: 1 rows differ, largest change 1e-17 (1 of max |C|; 6.49e+15 ulp)"]

    def test_the_change_in_ulps_is_the_largest_of_any_row(self, tmp_path):
        # row 1 moves 3 ulps of 1.0 (6.7e-16), row 2 moves 2 ulps of 4.0 (1.8e-15): the largest
        # change in ulps is not the largest absolute one, and max |L1| is 7
        lines = output_digests.csv_changes(
            _write(tmp_path / "a.csv", ["0,1.0\n", "1,4.0\n", "2,-7.0\n"], header="t,L1\n"),
            _write(tmp_path / "b.csv", ["0,1.0000000000000007\n", "1,4.0000000000000018\n", "2,-7.0\n"],
                   header="t,L1\n"),
        )
        assert lines == ["2 of 3 rows differ",
                         "column L1: 2 rows differ, largest change 1.78e-15 (2.54e-16 of max |L1|; 3 ulp)"]

    def test_a_change_to_or_from_a_non_finite_value_is_counted_apart(self, tmp_path):
        lines = output_digests.csv_changes(
            _write(tmp_path / "a.csv", ["0,inf\n"], header="t,D\n"),
            _write(tmp_path / "b.csv", ["0,1\n"], header="t,D\n"),
        )
        assert lines == ["1 of 1 rows differ", "column D: 1 rows differ, 1 to or from a non-finite value"]

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_nan_hides_no_change_in_either_row_order(self, tmp_path, order):
        # rows 1 -> 2 and nan -> 1: the finite row gives every number, the NaN row is counted
        rows_a, rows_b = ["0,1\n", "1,nan\n"][::order], ["0,2\n", "1,1\n"][::order]
        lines = output_digests.csv_changes(
            _write(tmp_path / "a.csv", rows_a, header="t,D\n"),
            _write(tmp_path / "b.csv", rows_b, header="t,D\n"),
        )
        assert lines == ["2 of 2 rows differ",
                         "column D: 2 rows differ, largest change 1 (0.5 of max |D|; 2.25e+15 ulp), "
                         "1 to or from a non-finite value"]

    def test_identical_files_report_no_column(self, tmp_path):
        a = _write(tmp_path / "a.csv", ROWS_A)
        assert output_digests.csv_changes(a, a) == ["0 of 3 rows differ"]

    @pytest.mark.parametrize("defect", ["header", "row_count"])
    def test_incomparable_files_give_none(self, tmp_path, defect):
        a = _write(tmp_path / "a.csv", ROWS_A)
        if defect == "header":
            b = _write(tmp_path / "b.csv", ROWS_A, header="t,F_neq,D\n")
        else:
            b = _write(tmp_path / "b.csv", ROWS_A[:2])
        assert output_digests.csv_changes(a, b) is None

    def test_compare_reports_beside_each_changed_csv_key(self, tmp_path, capsys):
        key = "qubit_demo/evolve/trajectory.csv"
        sides = []
        for side, rows in (("A", ROWS_A), ("B", ROWS_B)):
            _write(tmp_path / side / "runs" / key, rows)
            digests = {key: side, "qubit_demo/evolve:exit": "0"}
            sides.append(tmp_path / side / "digests.json")
            sides[-1].write_text(json.dumps(digests))
        assert output_digests.main(["--compare", *map(str, sides)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            key,
            "    2 of 3 rows differ",
            "    column Pi: 2 rows differ, largest change 2.22e-16 (1.11e-16 of max |Pi|; 1 ulp)",
        ]
        assert err == "1 changed of 2 keys\n"


class TestTsvChanges:
    """A ``.tsv`` file is a tab-delimited table under ``#`` comment lines, such as spectrum.tsv."""

    COMMENT_A = "# model=tfim gap=0.5 classification=complex-pair\n"
    COMMENT_B = "# model=tfim gap=0.50000000000000011 classification=complex-pair\n"
    HEADER = "k\tre\tim\tgap\n"
    ROWS_A = ["1\t0\t0\t0\n", "2\t-0.5\t1.5\t1\n", "3\t-2\t0\t0\n"]
    ROWS_B = ["1\t0\t0\t0\n", "2\t-0.50000000000000011\t1.5\t1\n", "3\t-2.0000000000000004\t0\t0\n"]

    def test_reports_changed_comments_then_columns(self, tmp_path):
        lines = output_digests.csv_changes(
            _write(tmp_path / "a.tsv", self.ROWS_A, header=self.COMMENT_A + self.HEADER),
            _write(tmp_path / "b.tsv", self.ROWS_B, header=self.COMMENT_B + self.HEADER),
            delimiter="\t",
        )
        # largest |a - b| is 4.4e-16 (at re = -2, 1 ulp), but -0.5 moves 1 ulp of 0.5 too
        assert lines == [
            "-" + self.COMMENT_A.rstrip("\n"),
            "+" + self.COMMENT_B.rstrip("\n"),
            "2 of 3 rows differ",
            "column re: 2 rows differ, largest change 4.44e-16 (2.22e-16 of max |re|; 1 ulp)",
        ]

    def test_unchanged_comments_print_nothing(self, tmp_path):
        header = self.COMMENT_A + self.HEADER
        lines = output_digests.csv_changes(
            _write(tmp_path / "a.tsv", self.ROWS_A, header=header),
            _write(tmp_path / "b.tsv", self.ROWS_B, header=header),
            delimiter="\t",
        )
        assert lines[0] == "2 of 3 rows differ"

    def test_compare_reports_beside_each_changed_tsv_key(self, tmp_path, capsys):
        key = "spectrum_tfim5/spectrum/spectrum.tsv"
        sides = []
        for side, rows in (("A", self.ROWS_A), ("B", self.ROWS_B)):
            _write(tmp_path / side / "runs" / key, rows, header=self.COMMENT_A + self.HEADER)
            sides.append(tmp_path / side / "digests.json")
            sides[-1].write_text(json.dumps({key: side}))
        assert output_digests.main(["--compare", *map(str, sides)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            key,
            "    2 of 3 rows differ",
            "    column re: 2 rows differ, largest change 4.44e-16 (2.22e-16 of max |re|; 1 ulp)",
        ]
        assert err == "1 changed of 1 keys\n"


class TestTextChanges:
    CERT_A = "status: ok\ncrossing_time: 8.1864533492822975\nfitted_rate_before: -0.79\n"
    CERT_B = "status: ok\ncrossing_time: 8.1864683014354078\nfitted_rate_before: -0.79\n"

    def test_lists_only_the_differing_lines(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(self.CERT_A + "extra: 1\n")
        b.write_text(self.CERT_B)
        assert output_digests.text_changes(a, b) == [
            "-crossing_time: 8.1864533492822975",
            "+crossing_time: 8.1864683014354078",
            "-extra: 1",
        ]
        assert output_digests.text_changes(a, a) == []

    def test_compare_reports_beside_each_changed_txt_key(self, tmp_path, capsys):
        key = "chain_demo/mpemba/certificate.txt"
        sides = []
        for side, text in (("A", self.CERT_A), ("B", self.CERT_B)):
            path = tmp_path / side / "runs" / key
            path.parent.mkdir(parents=True)
            path.write_text(text)
            sides.append(tmp_path / side / "digests.json")
            sides[-1].write_text(json.dumps({key: side, "chain_demo/mpemba:stdout": "same"}))
        # a key only one side kept lists no lines
        (tmp_path / "B" / "runs" / key).unlink()
        assert output_digests.main(["--compare", *map(str, sides)]) == 1
        assert capsys.readouterr().out.splitlines() == [key]
        (tmp_path / "B" / "runs" / key).write_text(self.CERT_B)
        assert output_digests.main(["--compare", *map(str, sides)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            key,
            "    -crossing_time: 8.1864533492822975",
            "    +crossing_time: 8.1864683014354078",
        ]
        assert err == "1 changed of 2 keys\n"
