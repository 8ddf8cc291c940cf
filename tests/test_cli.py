import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equiangular import cli
from equiangular.cli import main
from equiangular.exactnum import parse_scalar


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
    singular = "positive_semidefinite_singular"
    for argv, rank, psd in (
        (["construct", "witt276"], 23, singular),
        (["construct", "paley", "--q", "17"], 9, singular),
        (["construct", "simplex", "--k", "6", "--alpha", "1/5"], 5, singular),
        (["construct", "simplex", "--k", "5", "--alpha", "1/5"], 5, "positive_definite"),
        (["construct", "block52", "--ell", "2"], 5, singular),
    ):
        path = tmp_path / "system.json"
        code, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        code, out = run_cli(capsys, "verify", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert (payload["rank"], payload["psd"]) == (rank, psd), argv


def test_verify_conference_matrix_off_its_angle(tmp_path, capsys):
    # the order-6 Paley conference matrix has eigenvalues +-sqrt(5): at 1/2 the
    # Gram I + A/2 has the negative eigenvalue 1 - sqrt(5)/2
    rows = [[0, 1, 1, 1, 1, 1], [1, 0, 1, -1, -1, 1], [1, 1, 0, 1, -1, -1],
            [1, -1, 1, 0, 1, -1], [1, -1, -1, 1, 0, 1], [1, 1, -1, -1, 1, 0]]
    path = tmp_path / "conference.json"
    path.write_text(json.dumps({"alpha": "1/2", "seidel": rows}))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert json.loads(out)["ok"] is False


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


def test_verify_rejects_non_integer_entries(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"alpha": "1/3", "seidel": [[0, true], [true, 0.0]]}')
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 2
    payload = json.loads(out)
    assert not payload["ok"]
    assert [v["entry"] for v in payload["violations"]] == [[0, 1], [1, 0], [1, 1]]


@pytest.mark.parametrize("jobs", ["0", "-1", "100000", "two"])
def test_jobs_out_of_range_is_rejected_by_the_parser(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--jobs", jobs, "bound", "k3", "--rank", "23"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_within_range_is_accepted():
    for jobs in (1, cli.MAX_JOBS):
        args = cli.build_parser().parse_args(["--jobs", str(jobs), "bound", "k3", "--rank", "23"])
        assert args.jobs == jobs
    assert 1 <= cli.build_parser().parse_args(["bound", "k3", "--rank", "23"]).jobs <= cli.MAX_JOBS


@pytest.mark.parametrize("alpha", [
    "0 + 1*sqrt(100000000000031)",
    "1/sqrt(100000000000000000039)",
    "1/sqrt(" + "7" * 5000 + ")",
])
def test_large_radicand_is_rejected_at_once(tmp_path, capsys, alpha):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"alpha": alpha, "seidel": [[0]]}))
    for argv in (["verify", str(path)], ["bound", "relative", "--rank", "9", "--alpha", alpha]):
        t0 = time.monotonic()
        code = main(argv)
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "radicand" in err
        assert elapsed < 0.5


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


def _gram_file(tmp_path, n, entry):
    """A Gram file with no "alpha" key: 1 on the diagonal and entry off it."""
    rows = [["1" if i == j else entry for j in range(n)] for i in range(n)]
    path = tmp_path / f"gram{n}.json"
    path.write_text(json.dumps({"gram": {"order": n, "field": "Q", "rows": rows}}))
    return path


def test_verify_gram_infers_the_angle_and_certifies_psd(tmp_path, capsys):
    """The regular simplex of 4 vectors at -1/3: the angle 1/3 is read off
    the entries, and the Gram is PSD of rank 3."""
    code, out = run_cli(capsys, "verify", str(_gram_file(tmp_path, 4, "-1/3")))
    assert code == 0
    assert json.loads(out) == {
        "ok": True, "n": 4, "alpha": "1/3", "rank": 3, "psd": "positive_semidefinite_singular",
    }


def test_verify_gram_rejects_an_indefinite_gram_with_a_witness(tmp_path, capsys):
    """5 vectors pairwise at -1/3 have the Gram eigenvalue 4/3 - 5/3 < 0; the
    witness v printed has v^T G v < 0."""
    code, out = run_cli(capsys, "verify", str(_gram_file(tmp_path, 5, "-1/3")))
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False and payload["reason"] == "Gram not PSD"
    v = [parse_scalar(x) for x in payload["witness"]]
    gram = [[Fraction(1) if i == j else Fraction(-1, 3) for j in range(5)] for i in range(5)]
    assert sum(v[i] * gram[i][j] * v[j] for i in range(5) for j in range(5)) < 0


def test_mstar_command(capsys):
    code, out = run_cli(capsys, "--jobs", "1", "mstar", "--rank", "8")
    assert code == 0 and json.loads(out)["value"] == 14


def test_reproduce_thm56_matches_the_pinned_values(capsys):
    code, out = run_cli(capsys, "--jobs", "1", "reproduce", "thm56")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_pinned"] and payload["diff"] == {}
    assert payload["computed"] == {"8": 14, "9": 18, "10": 18}


def test_saturate_out_directory(tmp_path, capsys):
    code, out = run_cli(
        capsys, "--jobs", "1", "saturate", "--rank", "8", "--alpha", "1/3", "--out", str(tmp_path)
    )
    assert code == 0 and out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["saturation.json"]
    assert json.loads((tmp_path / "saturation.json").read_text())["value"] == 14


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
    (["verify"], {"alpha": "1/0", "seidel": [[0]]}, "zero denominator"),
    (["bound", "table2", "--t1111", "-1"], None, "t1111"),
    (["bound", "table2", "--t1111", "100000"], None, "t1111"),
    (["construct", "block52"], None, "--ell"),
    (["verify", "{tmp}"], None, "Is a directory"),
    (["bound", "coexistence", "--n", "201"], None, "--n must be at most 200"),
    (["construct", "paley", "--q", "103"], None, "--q must be at most 101"),
    (["construct", "block52", "--ell", "51"], None, "--ell must be at most 50"),
    (["construct", "simplex", "--k", "101", "--alpha", "1/3"], None, "--k must be at most 100"),
], ids=["verify-without-alpha", "verify-ragged-rows", "simplex-without-alpha",
        "saturate-angle-out-of-range", "verify-numeric-alpha", "verify-gram-not-a-matrix",
        "verify-not-an-object", "verify-zero-denominator", "table2-negative-t1111",
        "table2-t1111-above-its-cap", "block52-without-ell", "verify-a-directory",
        "coexistence-n-above-its-cap", "paley-q-above-its-cap", "block52-ell-above-its-cap",
        "simplex-k-above-its-cap"])
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv, payload, message):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv = argv + [str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("rank, spellings", [
    (8, ["1/3", "2/6", " 1/3"]),
    (5, ["1/sqrt(17)", "1/sqrt( 17 )", "0 + 1/17*sqrt(17)"]),
    (8, ["1/3", "1/sqrt(9)"]),
])
def test_cache_key_is_the_canonical_angle(tmp_path, capsys, monkeypatch, rank, spellings):
    monkeypatch.setenv("EQUIANGULAR_CACHE_DIR", str(tmp_path))
    code, first = run_cli(capsys, "saturate", "--rank", str(rank), "--alpha", spellings[0])
    assert code == 0
    (cached,) = tmp_path.iterdir()
    assert all(c.isalnum() or c in "._" for c in cached.name)

    def no_search(*args, **kwargs):
        raise AssertionError("the cached result should have been used")

    monkeypatch.setattr(cli.saturate, "m_alpha", no_search)
    for alpha in spellings[1:]:
        code, out = run_cli(capsys, "saturate", "--rank", str(rank), "--alpha", alpha)
        assert code == 0 and json.loads(out) == json.loads(first)
    assert list(tmp_path.iterdir()) == [cached]


def _value_off_by_one(report):
    return {**report, "value": report["value"] + 1}


def _first_seed_changed(**changes):
    def change(report):
        seed, *rest = report["certificate"]["maximizing_seeds"]
        seed = {**seed, **{k: f(seed[k]) for k, f in changes.items()}}
        certificate = {**report["certificate"], "maximizing_seeds": [seed, *rest]}
        return {**report, "certificate": certificate}

    return change


@pytest.mark.parametrize("content", [
    "", "{", "[]", "null", '{"name": "m_alpha"}',
    json.dumps({"name": "m_alpha", "value": 99, "inputs": {"rank": 8, "alpha": "1/5"},
                "certificate": {}, "notes": []}),
    json.dumps({"name": "m_alpha", "value": "14", "inputs": {"rank": 8, "alpha": "1/3"},
                "certificate": {}, "notes": []}),
    _value_off_by_one,
    _first_seed_changed(witness=lambda w: [*w[:-1], w[-1] + 1]),
    _first_seed_changed(graph6=lambda g: "F~~~w"),  # K7: the Gram is not PD
    _first_seed_changed(graph6=lambda g: g[:2]),
], ids=["empty", "truncated", "list", "null", "missing-fields", "foreign-inputs",
        "value-not-int", "value-off-by-one", "witness-changed", "seed-not-positive-definite",
        "graph6-truncated"])
def test_unusable_cache_file_is_recomputed(tmp_path, capsys, monkeypatch, content):
    """A cache file is used only if it re-certifies; otherwise the search
    runs again and the file is overwritten."""
    monkeypatch.setenv("EQUIANGULAR_CACHE_DIR", str(tmp_path))
    code, fresh = run_cli(capsys, "saturate", "--rank", "8", "--alpha", "1/3")
    (cached,) = tmp_path.iterdir()
    if callable(content):
        content = json.dumps(content(json.loads(cached.read_text())))
    cached.write_text(content)
    code = main(["saturate", "--rank", "8", "--alpha", "1/3"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    assert json.loads(captured.out) == json.loads(fresh)
    assert json.loads(cached.read_text())["value"] == 14  # overwritten
    assert list(tmp_path.iterdir()) == [cached]


def test_concurrent_atomic_writes_use_distinct_temporary_files(tmp_path, monkeypatch):
    # a second writer of the same path starts while the first one is between
    # writing its temporary file and moving it into place
    target = tmp_path / "out.json"
    temporaries = []
    replace = os.replace

    def interleaved(src, dst):
        temporaries.append(src)
        if len(temporaries) == 1:
            cli._write_atomic(str(target), "second\n")
            assert open(src).read() == "first\n"
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaved)
    cli._write_atomic(str(target), "first\n")
    assert len(set(temporaries)) == 2
    assert all(os.path.dirname(t) == str(tmp_path) for t in temporaries)
    assert target.read_text() == "first\n"
    assert list(tmp_path.iterdir()) == [target]


_scalar_texts = st.sampled_from(
    ["1", "0", "-1", "1/3", "1/5", "-1/5", "2", "1/0", "0/0", "1/sqrt(17)", "1/sqrt(0)",
     "1/sqrt(4)", "0 + 1/5*sqrt(5)", "1 + 1*sqrt(4)", "abc", "", "1e3", "nan"]
) | st.text(max_size=8)
_json_leaves = (
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | _scalar_texts
)
_json_keys = st.sampled_from(["alpha", "seidel", "gram", "rows", "order", "field"])
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_json_keys | st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


def _square(elements, n):
    return st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _verify_documents(draw):
    """Any JSON document, weighted towards the shapes verify reads: Seidel
    files and Gram files with small square matrices."""
    n = draw(st.integers(0, 4))
    any_square = _square(_json_leaves, n)
    fields = {
        "alpha": _scalar_texts | _json_values,
        "seidel": _square(st.sampled_from([0, 1, -1]), n) | any_square | _json_values,
        "gram": st.fixed_dictionaries(
            {"rows": _square(_scalar_texts, n) | any_square},
            optional={"order": st.integers(0, 5) | _json_values},
        ) | _json_values,
        "rows": _square(_scalar_texts, n) | any_square | _json_values,
        "order": st.just(n) | _json_values,
    }
    doc = draw(st.fixed_dictionaries({}, optional=fields))
    return draw(st.just(doc) | _json_values)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=_verify_documents())
def test_verify_never_ends_in_a_traceback(tmp_path, capsys, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)




def _rarely(common, rare, one_in):
    """common, and rare in about one draw of one_in; shrinks to common."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == one_in else common)


# a rank-8 search takes up to a few tenths of a second, lower ranks much less
_ranks = _rarely(st.integers(-3, 7).map(str), st.just("8"), 8)
_sizes = st.integers(-5, 40).map(str)
_outs = st.sampled_from(["{tmp}/out.json", "{tmp}", "{tmp}/missing/out.json"])
_angles = st.sampled_from(["1/3", "1/5", "1/7", "1/sqrt(17)", "1/sqrt(9)", "-1/5"]) | _scalar_texts
_ells = st.lists(st.integers(-5, 40), max_size=5).map(lambda xs: ",".join(map(str, xs)))
# per command: the options with their values (None for a switch), and the
# options the command needs
_COMMANDS = {
    ("bound", "coexistence"): ({"--n": _sizes, "--ell": _ells | st.text(max_size=6)}, {"--n"}),
    ("bound", "table2"): ({"--t1111": _sizes, "--table": None}, set()),
    ("bound", "k3"): ({"--rank": _ranks}, {"--rank"}),
    ("bound", "k4"): ({"--rank": _ranks, "--s-value": _sizes}, {"--rank"}),
    ("bound", "k5"): ({"--rank": _ranks}, {"--rank"}),
    ("bound", "neumann"): ({"--rank": _ranks, "--count": _sizes}, {"--rank", "--count"}),
    ("bound", "neumann-candidates"): ({"--size": _sizes, "--rank": _ranks}, set()),
    ("bound", "relative"): ({"--rank": _ranks, "--alpha": _angles}, {"--rank", "--alpha"}),
    ("bound", "nosuch"): ({}, set()),
    **{("construct", what): ({"--q": _sizes, "--k": _sizes, "--alpha": _angles,
                              "--ell": _sizes, "--out": _outs}, needed)
       for what, needed in [("witt276", set()), ("octads", set()), ("paley", set()),
                            ("simplex", {"--k", "--alpha"}), ("block52", {"--ell"}),
                            ("nosuch", set())]},
    ("verify", "{tmp}"): ({}, set()),
    ("verify", "{tmp}/missing.json"): ({}, set()),
    ("verify", "{tmp}/good.json"): ({}, set()),
    ("verify", "{tmp}/bad.json"): ({}, set()),
    ("saturate",): ({"--rank": _ranks, "--alpha": _angles, "--all-seeds": None,
                     "--out": _outs}, {"--rank", "--alpha"}),
    ("mstar",): ({"--rank": _ranks, "--out": _outs}, {"--rank"}),
    ("reproduce", "table2"): ({"--include-rank10": None, "--out": _outs}, set()),
    ("reproduce", "nosuch"): ({"--include-rank10": None, "--out": _outs}, set()),
    ("reproduce",): ({"--out": _outs}, set()),
}
# reproduce table3 (several seconds) and thm56 (a few) are drawn rarely;
# table3 never with --include-rank10, whose extra cell runs for minutes
_SLOW_COMMANDS = {
    ("reproduce", "table3"): ({"--out": _outs}, set()),
    ("reproduce", "thm56"): ({"--include-rank10": None, "--out": _outs}, set()),
}


@st.composite
def _argvs(draw):
    """Argument vectors of the commands that take numbers, with ranks and
    sizes small enough that every search, matrix and table stays small.
    Needed options are left out, and stray tokens added, now and then."""
    slow = st.sampled_from(sorted(_SLOW_COMMANDS))
    words = draw(_rarely(st.sampled_from(sorted(_COMMANDS)), slow, 300))
    options, needed = {**_COMMANDS, **_SLOW_COMMANDS}[words]
    argv = ["--jobs", "1", *words]
    for flag in draw(st.permutations(sorted(options))):
        if flag in needed and draw(st.integers(0, 7)) or draw(st.booleans()):
            value = options[flag]
            argv += [flag] if value is None else [flag, draw(value)]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(["--rank", "3", "-1", "--bogus"])))
    return argv


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_argvs())
def test_any_argv_exits_0_1_or_2_without_a_traceback(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("EQUIANGULAR_CACHE_DIR", raising=False)
    (tmp_path / "good.json").write_text(json.dumps({"alpha": "1/3", "seidel": [[0, 1], [1, 0]]}))
    (tmp_path / "bad.json").write_text('{"alpha": "1/3", "seidel": [[0, 2]]')
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
