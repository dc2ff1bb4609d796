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
        assert lines[1:] == ["column Pi: 2 rows differ, largest change 1.11e-16 of max |Pi|"]

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
            "    column Pi: 2 rows differ, largest change 1.11e-16 of max |Pi|",
        ]
        assert err == "1 changed of 2 keys\n"


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
