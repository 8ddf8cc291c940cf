"""Command-line front end: constructions, bound computations, saturation
searches, table reproduction, and verification of line-system files.

All numeric output is rendered as exact strings ("p/q", "a + b*sqrt(d)");
artifacts are written atomically.  Exit codes: 0 computed/verified, 2 a
violation or infeasibility was found, 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from itertools import zip_longest

from equiangular import bounds, constructions, linalg, saturate
from equiangular.exactnum import Scalar, format_scalar, parse_scalar, quad_sign
from equiangular.linalg import SymMatrix
from equiangular.seidel import EquiangularSet, SeidelMatrix, base_size, graph_from_graph6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file of a unique name in the target directory,
    so concurrent writers of one path never share a temporary file."""
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # the mode open(path, "w") gives
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write_atomic(args.out, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _data_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)


CACHE_SCHEMA = 1
_FILENAME_SAFE = str.maketrans({"/": "_", "-": "m", "+": "p", "*": None, " ": None,
                                "(": None, ")": None})


def _cache_key(rank: int, alpha: Scalar) -> str:
    """Cache file name of an m_alpha result: the schema version, the rank and
    the canonical form of the angle, so every spelling of one angle ("1/3",
    "2/6"; "1/sqrt(17)", "1/sqrt( 17 )") shares one file."""
    canonical = format_scalar(alpha).translate(_FILENAME_SAFE)
    return f"m_alpha_v{CACHE_SCHEMA}_r{rank}_{canonical}.json"


def _recertify(report: bounds.BoundReport, rank: int, alpha: Scalar) -> None:
    """Check a cached m_alpha report: it must hold the result of this search,
    and its first maximizing seed, rebuilt from its graph6 and saturated
    again, must give the same total, candidate count, clique size and
    witness.  Raises CertificateError (or ValueError) otherwise."""
    if report.name != "m_alpha" or report.inputs != {"rank": rank, "alpha": format_scalar(alpha)}:
        raise saturate.CertificateError("the cached report is of another search")
    seeds = report.certificate.get("maximizing_seeds") if isinstance(report.certificate, dict) else None
    entry = seeds[0] if isinstance(seeds, list) and seeds and isinstance(seeds[0], dict) else {}
    if type(report.value) is not int or not isinstance(entry.get("graph6"), str):
        raise saturate.CertificateError("the cached report names no maximizing seed")
    graph = graph_from_graph6(entry["graph6"])
    rep = saturate.saturation_report(saturate.seed_for_graph(rank, alpha, graph))
    got = [rep.total, rep.candidate_count, rep.clique_size, list(rep.clique_witness)]
    if got != [report.value, entry.get("candidates"), entry.get("clique"), entry.get("witness")]:
        raise saturate.CertificateError("the cached result does not re-certify")


def _load_cached(path: str, rank: int, alpha: Scalar):
    """The cached report at path, or None if the file is missing, unreadable
    or malformed, or does not re-certify."""
    try:
        with open(path) as fh:
            report = bounds.BoundReport(**json.load(fh))
        _recertify(report, rank, alpha)
    except (OSError, ValueError, TypeError, saturate.CertificateError):
        return None
    return report


def _cached_m_alpha(rank: int, alpha_str: str, jobs: int):
    """Saturation search with an optional on-disk cache of finished results,
    controlled by EQUIANGULAR_CACHE_DIR (the long-running enumerations are
    deterministic, so cached reports are exact replays).  A cache file that
    cannot be used is recomputed and overwritten."""
    alpha = parse_scalar(alpha_str)
    cache_dir = os.environ.get("EQUIANGULAR_CACHE_DIR")
    if cache_dir:
        path = os.path.join(cache_dir, _cache_key(rank, alpha))
        report = _load_cached(path, rank, alpha)
        if report is not None:
            return report
    report = saturate.m_alpha(rank, alpha, jobs=jobs, count_scanned=rank - 1 <= 7)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        _write_atomic(path, json.dumps(report.to_dict()) + "\n")
    return report


# -- bound subcommands --------------------------------------------------------


def _cmd_bound(args) -> int:
    sub = args.bound_cmd
    if sub == "coexistence":
        _at_most("--n", args.n, MAX_COEXISTENCE_N)
        if args.ell:
            ell = tuple(int(x) for x in args.ell.split(","))
            inst = bounds.coexistence_check(args.n, ell)
            payload = {
                "n": args.n,
                "ell": list(inst.ell),
                "feasible": inst.feasible,
                "M": [[format_scalar(inst.m.entry(i, j)) for j in range(2)] for i in range(2)],
            }
            _emit(args, json.dumps(payload, indent=2))
            return EXIT_OK if inst.feasible else EXIT_VIOLATION
        report = bounds.pillar_coexistence_bound(args.n)
    elif sub == "table2":
        if args.table:
            _emit(args, render_table2(bounds.table2(jobs=args.jobs)))
            return EXIT_OK
        report = bounds.two_31_pillar_search(t1111=args.t1111, jobs=args.jobs)
    elif sub == "k3":
        report = bounds.k3_bound(args.rank)
    elif sub == "k4":
        report = bounds.k4_bound(args.rank, s_value=args.s_value)
    elif sub == "k5":
        report = bounds.k5_bound(args.rank)
    elif sub == "neumann":
        res = bounds.neumann_restriction(args.rank, args.count)
        _emit(
            args,
            json.dumps(
                {
                    "rank": res.rank,
                    "count": res.count,
                    "applies": res.applies,
                    "admissible": res.describe(),
                },
                indent=2,
            ),
        )
        return EXIT_OK
    elif sub == "neumann-candidates":
        cands = bounds.neumann_candidates(args.size, args.rank)
        payload = {
            "size": args.size,
            "rank": args.rank,
            "pairs": sorted({(c.c1, c.c2) for c in cands}),
            "quadruples": [[c.c1, c.c2, c.c3, c.c4] for c in cands],
        }
        _emit(args, json.dumps(payload, indent=2))
        return EXIT_OK
    elif sub == "relative":
        value = bounds.relative_bound(args.rank, parse_scalar(args.alpha))
        _emit(args, json.dumps({"rank": args.rank, "alpha": args.alpha, "bound": value}))
        return EXIT_OK
    else:
        raise AssertionError(sub)
    _emit(args, json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def render_table2(rows) -> str:
    lines = ["t1111  B40  B41  B42  B43   Mx"]
    for row in rows:
        m0, m1, m2, m3 = row.caps
        lines.append(
            f"{row.t1111:5d} {m0:4d} {m1:4d} {m2:4d} {m3:4d} {row.m_bar:4d}"
        )
    return "\n".join(lines) + "\n"


# -- construct subcommands ------------------------------------------------------


def _cmd_construct(args) -> int:
    what = args.what
    if what == "witt276":
        e = constructions.witt276().lines
        _emit(args, e.to_json())
        return EXIT_OK
    if what == "octads":
        octads = constructions.golay_octads().octads
        text = "\n".join(" ".join(str(p) for p in o) for o in octads)
        _emit(args, text)
        return EXIT_OK
    if what == "paley":
        c = constructions.paley_conference(_at_most("--q", args.q, MAX_PALEY_Q))
        e = constructions.conference_etf(c)
        _emit(args, e.to_json())
        return EXIT_OK
    if what == "simplex":
        if args.k is None or args.alpha is None:
            raise ValueError("construct simplex needs --k and --alpha")
        k = _at_most("--k", args.k, MAX_SIMPLEX_K)
        e = constructions.simplex_base(k, parse_scalar(args.alpha))
        _emit(args, e.to_json())
        return EXIT_OK
    if what == "block52":
        if args.ell is None:
            raise ValueError("construct block52 needs --ell")
        e = constructions.block_52_equiangular(_at_most("--ell", args.ell, MAX_BLOCK52_ELL))
        _emit(args, e.to_json())
        return EXIT_OK
    raise AssertionError(what)


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    with open(args.file) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("the input must be a JSON object")
    problems = []
    if "seidel" in obj:
        if "alpha" not in obj:
            raise ValueError('a "seidel" file needs an "alpha" field')
        alpha = parse_scalar(obj["alpha"])
        rows = obj["seidel"]
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != len(rows) for row in rows
        ):
            raise ValueError('"seidel" must be a square list of rows')
        n = len(rows)
        for i in range(n):
            for j in range(n):
                x = rows[i][j]
                if type(x) is not int or x not in ((0,) if i == j else (1, -1)):
                    problems.append({"entry": [i, j], "value": str(x),
                                     "reason": "not a Seidel matrix entry"})
        if not problems:
            try:
                e = EquiangularSet(alpha, SeidelMatrix(tuple(map(tuple, rows))))
            except ValueError as exc:
                print(json.dumps({"ok": False, "reason": str(exc)}))
                return EXIT_VIOLATION
            k, base, _ = base_size(e)
            print(
                json.dumps(
                    {
                        "ok": True,
                        "n": e.n,
                        "alpha": format_scalar(e.alpha),
                        "rank": e.rank,
                        "psd": e.psd_certificate.verdict,
                        "base_size": k,
                        "base": list(base),
                    }
                )
            )
            return EXIT_OK
    elif "gram" in obj or "rows" in obj:
        gram_obj = obj.get("gram", obj)
        m = SymMatrix.from_json(json.dumps(gram_obj))
        alpha = parse_scalar(obj["alpha"]) if "alpha" in obj else None
        for i in range(m.n):
            if m.entry(i, i) != 1:
                problems.append({"entry": [i, i], "value": format_scalar(m.entry(i, i)),
                                 "reason": "diagonal must be 1"})
        if alpha is None:
            # infer the angle as the majority off-diagonal magnitude
            offs = Counter(
                abs_scalar(m.entry(i, j))
                for i in range(m.n)
                for j in range(m.n)
                if i != j
            )
            if not offs:
                print(json.dumps({"ok": False, "reason": "no off-diagonal entries"}))
                return EXIT_VIOLATION
            alpha = offs.most_common(1)[0][0]
        for i in range(m.n):
            for j in range(i + 1, m.n):
                if abs_scalar(m.entry(i, j)) != alpha:
                    problems.append(
                        {
                            "entry": [i, j],
                            "value": format_scalar(m.entry(i, j)),
                            "reason": f"|entry| != alpha = {format_scalar(alpha)}",
                        }
                    )
        if not problems:
            cert = linalg.psd_check(m)
            if cert.verdict == linalg.INDEFINITE:
                print(json.dumps({"ok": False, "reason": "Gram not PSD",
                                  "witness": [format_scalar(x) for x in cert.witness]}))
                return EXIT_VIOLATION
            print(json.dumps({"ok": True, "n": m.n, "alpha": format_scalar(alpha),
                              "rank": cert.rank, "psd": cert.verdict}))
            return EXIT_OK
    else:
        print(json.dumps({"ok": False, "reason": "unrecognized file schema"}))
        return EXIT_USAGE
    print(json.dumps({"ok": False, "violations": problems}, indent=2))
    return EXIT_VIOLATION


def abs_scalar(x):
    return -x if quad_sign(x) < 0 else x


# -- saturation -------------------------------------------------------------------


def _cmd_saturate(args) -> int:
    alpha = parse_scalar(args.alpha)
    if args.all_seeds:
        enum = saturate.enumerate_pd_bases(args.rank, alpha)
        reports = [saturate.saturation_report(s) for s in enum.seeds]
        payload = {
            "rank": args.rank,
            "alpha": args.alpha,
            "classes_scanned": enum.classes_scanned,
            "seeds": [
                {
                    "graph6": rep.seed.nonroot_graph6,
                    "candidates": rep.candidate_count,
                    "clique": rep.clique_size,
                    "total": rep.total,
                }
                for rep in reports
            ],
        }
        out = json.dumps(payload, indent=2)
    else:
        report = _cached_m_alpha(args.rank, args.alpha, args.jobs)
        out = json.dumps(report.to_dict(), indent=2)
    if args.out and os.path.isdir(args.out):
        _write_atomic(os.path.join(args.out, "saturation.json"), out + "\n")
    else:
        _emit(args, out)
    return EXIT_OK


def _cmd_mstar(args) -> int:
    report = saturate.m_star(args.rank, jobs=args.jobs)
    _emit(args, json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


# -- reproduce ---------------------------------------------------------------------


def _cmd_reproduce(args) -> int:
    if args.what == "table2":
        rows = bounds.table2(jobs=args.jobs)
        text = render_table2(rows)
        expected = open(_data_path("table2_expected.txt")).read()
        diff = _diff_lines(expected, text)
        if args.out:
            _write_atomic(args.out, text)
        else:
            sys.stdout.write(text)
        print(json.dumps({"matches_pinned": not diff, "diff": diff}))
        return EXIT_OK if not diff else EXIT_VIOLATION
    if args.what == "table3":
        cells = [("8", "1/3"), ("8", "1/5"), ("8", "1/7"),
                 ("9", "1/3"), ("9", "1/5"), ("9", "1/7"), ("9", "1/sqrt(17)"),
                 ("10", "1/3")]
        if args.include_rank10:
            cells.append(("10", "1/5"))
        results = {}
        for r, a in cells:
            rep = _cached_m_alpha(int(r), a, args.jobs)
            results[f"M_{a}({r})"] = rep.value
        expected = json.loads(open(_data_path("table3_expected.json")).read())
        diff = {
            k: {"computed": results.get(k), "expected": v}
            for k, v in expected.items()
            if k in results and results[k] != v
        }
        skipped = [k for k in expected if k not in results]
        payload = {"computed": results, "matches_pinned": not diff,
                   "diff": diff, "skipped": skipped}
        _emit(args, json.dumps(payload, indent=2))
        return EXIT_OK if not diff else EXIT_VIOLATION
    if args.what == "thm56":
        results = {str(r): saturate.m_star(r, jobs=args.jobs).value for r in (8, 9, 10)}
        expected = json.loads(open(_data_path("thm56_expected.json")).read())
        diff = {k: {"computed": results[k], "expected": v}
                for k, v in expected.items() if results[k] != v}
        _emit(args, json.dumps({"computed": results, "matches_pinned": not diff,
                                "diff": diff}, indent=2))
        return EXIT_OK if not diff else EXIT_VIOLATION
    raise AssertionError(args.what)


def _diff_lines(expected: str, got: str) -> list:
    pairs = zip_longest(expected.splitlines(), got.splitlines())
    return [{"line": i, "expected": e, "computed": g}
            for i, (e, g) in enumerate(pairs, 1) if e != g]


# -- parser -------------------------------------------------------------------------


MAX_JOBS = 64
# caps on the size-like options; each keeps one command within about 1.5 s
MAX_COEXISTENCE_N = 200
MAX_PALEY_Q = 101
MAX_BLOCK52_ELL = 50
MAX_SIMPLEX_K = 100


def _at_most(option: str, value, cap: int):
    """value, unless it exceeds cap (a usage error)."""
    if value is not None and value > cap:
        raise ValueError(f"{option} must be at most {cap}, got {value}")
    return value


def _jobs(text: str) -> int:
    """The --jobs value: a worker count from 1 to MAX_JOBS, checked before
    any worker starts."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= jobs <= MAX_JOBS:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_JOBS}, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="equiangular",
                                description="exact equiangular-line computations")
    p.add_argument("--jobs", type=_jobs, default=min(os.cpu_count() or 1, MAX_JOBS),
                   help=f"worker processes for parallel searches, 1 to {MAX_JOBS} "
                        "(results are independent of this setting)")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bound", help="bound computations")
    bs = b.add_subparsers(dest="bound_cmd", required=True)
    bc = bs.add_parser("coexistence")
    bc.add_argument("--n", type=int, required=True)
    bc.add_argument("--ell", help="comma-separated l11,l12,l21,l22 to test one point")
    bc.add_argument("--out")
    bt = bs.add_parser("table2")
    bt.add_argument("--t1111", type=int)
    bt.add_argument("--table", action="store_true")
    bt.add_argument("--out")
    for name in ("k3", "k4", "k5"):
        bk = bs.add_parser(name)
        bk.add_argument("--rank", type=int, required=True)
        bk.add_argument("--out")
        if name == "k4":
            bk.add_argument("--s-value", type=int, dest="s_value")
    bn = bs.add_parser("neumann")
    bn.add_argument("--rank", type=int, required=True)
    bn.add_argument("--count", type=int, required=True)
    bn.add_argument("--out")
    bnc = bs.add_parser("neumann-candidates")
    bnc.add_argument("--size", type=int, default=14)
    bnc.add_argument("--rank", type=int, default=8)
    bnc.add_argument("--out")
    br = bs.add_parser("relative")
    br.add_argument("--rank", type=int, required=True)
    br.add_argument("--alpha", required=True)
    br.add_argument("--out")

    c = sub.add_parser("construct", help="build reference systems")
    c.add_argument("what", choices=["witt276", "octads", "paley", "simplex", "block52"])
    c.add_argument("--q", type=int, default=17)
    c.add_argument("--k", type=int)
    c.add_argument("--alpha")
    c.add_argument("--ell", type=int)
    c.add_argument("--out")

    v = sub.add_parser("verify", help="check an equiangular-set or Gram JSON file")
    v.add_argument("file")

    s = sub.add_parser("saturate", help="saturated-set search at fixed rank and angle")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--alpha", required=True, help='"P/Q" or "1/sqrt(D)"')
    s.add_argument("--all-seeds", action="store_true")
    s.add_argument("--out")

    m = sub.add_parser("mstar", help="maximum size at exact rank")
    m.add_argument("--rank", type=int, required=True)
    m.add_argument("--out")

    r = sub.add_parser("reproduce", help="recompute pinned tables and diff")
    r.add_argument("what", choices=["table2", "table3", "thm56"])
    r.add_argument("--include-rank10", action="store_true")
    r.add_argument("--out")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.cmd == "bound":
            return _cmd_bound(args)
        if args.cmd == "construct":
            return _cmd_construct(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "saturate":
            return _cmd_saturate(args)
        if args.cmd == "mstar":
            return _cmd_mstar(args)
        if args.cmd == "reproduce":
            return _cmd_reproduce(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
