import json
import subprocess
import sys

import pytest

from equiangular.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bound_coexistence(capsys):
    code, out = run_cli(capsys, "bound", "coexistence", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 24
    assert payload["certificate"]["vertex"] == {"s": 16, "t": 4}


def test_bound_coexistence_point_feasibility(capsys):
    code, out = run_cli(capsys, "bound", "coexistence", "--n", "3", "--ell", "54,9,9,0")
    assert code == 0 and json.loads(out)["feasible"]
    code, out = run_cli(capsys, "bound", "coexistence", "--n", "3", "--ell", "73,0,0,0")
    assert code == 2


def test_bound_k_commands(capsys):
    code, out = run_cli(capsys, "bound", "k3", "--rank", "23")
    assert code == 0 and json.loads(out)["value"] == 165
    code, out = run_cli(capsys, "bound", "k5", "--rank", "300")
    assert code == 0 and json.loads(out)["value"] == 412
    code, out = run_cli(capsys, "bound", "k4", "--rank", "30", "--s-value", "26")
    assert code == 0 and json.loads(out)["value"] == 178


def test_bound_neumann(capsys):
    code, out = run_cli(capsys, "bound", "neumann", "--rank", "9", "--count", "17")
    assert code == 0
    payload = json.loads(out)
    assert payload["applies"] and any("sqrt" in d for d in payload["admissible"])
    code, out = run_cli(capsys, "bound", "neumann-candidates")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 44


def test_bound_relative(capsys):
    code, out = run_cli(capsys, "bound", "relative", "--rank", "9", "--alpha", "1/7")
    assert code == 0 and json.loads(out)["bound"] == 10


def test_bound_table2_text(capsys):
    code, out = run_cli(capsys, "--jobs", "1", "bound", "table2", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 41  # header + 40 rows
    assert lines[1].split() == ["0", "9", "7", "7", "9", "54"]


def test_construct_verify_round_trip(tmp_path, capsys):
    for argv in (
        ["construct", "paley", "--q", "17"],
        ["construct", "simplex", "--k", "5", "--alpha", "1/5"],
        ["construct", "block52", "--ell", "2"],
    ):
        path = tmp_path / "system.json"
        code, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        code, out = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["ok"]


def test_verify_corrupted_gram(tmp_path, capsys):
    gram = {
        "alpha": "1/5",
        "gram": {
            "order": 3,
            "field": "Q",
            "rows": [
                ["1", "1/5", "1/4"],
                ["1/5", "1", "-1/5"],
                ["1/4", "-1/5", "1"],
            ],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(gram))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 2
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["violations"][0]["entry"] == [0, 2]


def test_verify_rejects_non_seidel(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"alpha": "1/5", "seidel": [[0, 2], [2, 0]]}))
    code, out = run_cli(capsys, path.as_posix())  # missing subcommand: usage error
    assert code == 1
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 2


def test_octads_export(tmp_path, capsys):
    path = tmp_path / "octads.txt"
    code, _ = run_cli(capsys, "construct", "octads", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 759
    first = [int(x) for x in lines[0].split()]
    assert len(first) == 8 and first == sorted(first)


def test_reproduce_table2_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "t2a.txt"
    out2 = tmp_path / "t2b.txt"
    code, msg1 = run_cli(capsys, "reproduce", "table2", "--out", str(out1))
    assert code == 0 and json.loads(msg1.strip().splitlines()[-1])["matches_pinned"]
    code, _ = run_cli(capsys, "--jobs", "2", "reproduce", "table2", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()  # independent of worker count


def test_saturate_command(capsys):
    code, out = run_cli(capsys, "saturate", "--rank", "8", "--alpha", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 14
    code, out = run_cli(capsys, "saturate", "--rank", "8", "--alpha", "1/3", "--all-seeds")
    assert code == 0
    payload = json.loads(out)
    assert sorted(s["total"] for s in payload["seeds"]) == [8, 14, 14]
    assert payload["classes_scanned"] == 1044


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "equiangular.cli", "bound", "k3", "--rank", "23"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 165


def test_usage_error_exit_code(capsys):
    assert main(["bound", "k3"]) == 1  # missing required --rank


def test_saturate_cache_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQUIANGULAR_CACHE_DIR", str(tmp_path))
    code, out1 = run_cli(capsys, "saturate", "--rank", "8", "--alpha", "1/3")
    assert code == 0
    cached_files = list(tmp_path.iterdir())
    assert len(cached_files) == 1
    code, out2 = run_cli(capsys, "saturate", "--rank", "8", "--alpha", "1/3")
    assert code == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"] == 14


@pytest.mark.parametrize("argv, payload, message", [
    (["verify"], {"seidel": [[0, 1], [1, 0]]}, '"alpha"'),
    (["verify"], {"alpha": "1/5", "seidel": [[0, 1], [1]]}, "square"),
    (["construct", "simplex", "--k", "5"], None, "--alpha"),
    (["saturate", "--rank", "8", "--alpha", "2"], None, "(0, 1)"),
    (["verify"], {"alpha": 5, "seidel": [[0]]}, "string"),
    (["verify"], {"gram": 3}, '"rows"'),
    (["verify"], 3, "object"),
], ids=["verify-without-alpha", "verify-ragged-rows", "simplex-without-alpha",
        "saturate-angle-out-of-range", "verify-numeric-alpha", "verify-gram-not-a-matrix",
        "verify-not-an-object"])
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv, payload, message):
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv = argv + [str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
