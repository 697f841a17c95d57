from pathlib import Path

import goldens
import pytest


def test_every_golden_has_an_entry_and_every_entry_its_files():
    assert sorted(p.name for p in goldens.GOLDEN.iterdir()) == sorted(goldens.ENTRIES)
    runs = [argv for argv in goldens.ENTRIES.values() if argv and "--config" in argv]
    configs = [Path(argv[argv.index("--config") + 1]) for argv in runs]
    assert [c for c in configs if not c.is_file()] == []
    assert list(goldens.DATA.glob("*.json"))  # the runs stderr.txt holds


@pytest.mark.parametrize(
    "old, new, ulps",
    [
        ("1.0", "1.0000000000000002", "1 ulp"),
        ("-0.0", "5e-324", "1 ulp"),
        ("-5e-324", "5e-324", "2 ulps"),
    ],
)
def test_a_moved_float_cell_reports_its_distance_in_ulps(tmp_path, old, new, ulps):
    golden = tmp_path / "g.csv"
    golden.write_text(f"a,b\n{old},x\n")
    line = f"g.csv row 1, column a: {old!r} -> {new!r} ({ulps})"
    assert goldens.cell_diff(golden, f"a,b\n{new},x\n") == [line]
    assert goldens.cell_diff(golden, golden.read_text()) == []


def test_a_text_cell_a_dropped_row_and_a_header_are_not_floats(tmp_path):
    golden = tmp_path / "g.csv"
    golden.write_text("a,b\n1.0,x\n2.0,y\n")
    assert goldens.cell_diff(golden, "a,c\n1.0,z\n") == [
        "g.csv header: 'a,b' -> 'a,c' (header changed)",
        "g.csv rows: 2 -> 1 (row count changed)",
        "g.csv row 2: '2.0,y' -> (missing) (not a float)",
    ]
    assert goldens.cell_diff(golden, "a,b\n1.0,z\n2.0,y\n") == [
        "g.csv row 1, column b: 'x' -> 'z' (not a float)"
    ]


def test_a_json_row_that_lost_a_sparse_key_is_reported(tmp_path):
    golden = tmp_path / "g.json"
    golden.write_text('{"rows": [{"pole": 0.5, "final_pool": 1.5}, {"pole": 2.0}]}\n')
    got = '{"rows": [{"pole": 0.5}, {"pole": 2.0}]}\n'
    line = "g.json rows[0].final_pool: '1.5' -> (missing) (not a float)"
    assert goldens.cell_diff(golden, got) == [line]


def test_a_text_golden_gets_a_line_diff(tmp_path):
    golden = tmp_path / "g.txt"
    golden.write_text("PASS a\nPASS b\n")
    assert goldens.cell_diff(golden, "PASS a\nFAIL b\n")[-2:] == ["-PASS b", "+FAIL b"]
    # a change that no cell shows falls back to the line diff
    golden = tmp_path / "g.csv"
    golden.write_text("a\n1.0\n")
    assert goldens.cell_diff(golden, "a\r\n1.0\r\n")[-4:] == ["-a", "-1.0", "+a\r", "+1.0\r"]
