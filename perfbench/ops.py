"""The benchmark's workloads: named library calls and the invariants each returns.

Every operation is one call into the ``equiangular`` library with ``jobs=1``.
It returns a JSON-compatible dict of mathematical invariants, which the worker
compares with the pinned values in ``expected.json``. Graph6 witnesses are not
pinned: a valid change of enumeration order may pick another maximizer.
"""

from __future__ import annotations

from typing import Callable

from equiangular import bounds, constructions, saturate
from equiangular.cli import render_table2
from equiangular.exactnum import parse_scalar
from equiangular.seidel import base_size

RATIONAL_CELLS = [
    (8, "1/3"), (8, "1/5"), (8, "1/7"),
    (9, "1/3"), (9, "1/5"), (9, "1/7"),
    (10, "1/3"),
]


def _cell_invariants(report) -> dict:
    cert = report.certificate
    return {
        "value": report.value,
        "seeds": cert["seeds"],
        "classes_scanned": cert["classes_scanned"],
        "totals_histogram": cert["totals_histogram"],
        "maximizing_seeds": len(cert["maximizing_seeds"]),
    }


def m_alpha_cell(r: int, alpha: str) -> dict:
    # count_scanned as `reproduce table3` sets it: only for rank 8
    report = saturate.m_alpha(r, parse_scalar(alpha), jobs=1, count_scanned=r - 1 <= 7)
    return _cell_invariants(report)


def m_star_rank(r: int) -> dict:
    """M*(r) plus the invariants of every saturation cell it searched, taken
    from the module attribute m_star looks up for each cell."""
    cells = {}
    inner = saturate.m_alpha

    def recording(rank, alpha, *args, **kwargs):
        report = inner(rank, alpha, *args, **kwargs)
        cells[f"{rank},{report.inputs['alpha']}"] = _cell_invariants(report)
        return report

    saturate.m_alpha = recording
    try:
        report = saturate.m_star(r, jobs=1)
    finally:
        saturate.m_alpha = inner
    return {
        "value": report.value,
        "per_angle": report.certificate["per_angle"],
        "cells": cells,
    }


def witt_build() -> dict:
    ws = constructions.witt276()
    return {
        "octads": len(ws.octads.octads),
        "octads_through_1": len(ws.octads.octads_through_1),
        "lines": ws.lines.n,
        "rank": ws.lines.rank,
    }


def witt_base_size() -> dict:
    k, base, _ = base_size(constructions.witt276().lines)
    return {"base_size": k, "base_vertices": len(base)}


def witt_pillars() -> dict:
    _, dec = constructions.witt276_base_and_pillars()
    return {"pillar_sizes": sorted(dec.sizes().values())}


def witt_spectrum() -> dict:
    cert = constructions.witt_spectrum_certificate()
    keys = ("spectrum", "rank_A_plus_5I", "rank_A_minus_55I",
            "product_zero", "trace_check", "trace_sq_check")
    return {k: cert[k] for k in keys}


def paley17_etf() -> dict:
    etf = constructions.conference_etf(constructions.paley_conference(17))
    return {"lines": etf.n, "rank": etf.rank}


def table2() -> dict:
    return {"text": render_table2(bounds.table2(jobs=1))}


def coexistence() -> dict:
    return {"bounds": [bounds.pillar_coexistence_bound(n).value for n in (2, 3, 4)]}


def workload_ops(workload: str) -> list[tuple[str, Callable[[], dict]]]:
    """(name, call) for every operation of a workload, in canonical order."""
    if workload == "sat-rational":
        return [
            (f"m_alpha({r},{a})", lambda r=r, a=a: m_alpha_cell(r, a))
            for r, a in RATIONAL_CELLS
        ]
    if workload == "sat-quadratic":
        return [(f"m_star({r})", lambda r=r: m_star_rank(r)) for r in (8, 9, 10)]
    if workload == "witt-linalg":
        return [
            ("witt276", witt_build),
            ("witt_base_size", witt_base_size),
            ("witt_pillars", witt_pillars),
            ("witt_spectrum", witt_spectrum),
            ("paley17_etf", paley17_etf),
            ("table2", table2),
            ("coexistence", coexistence),
        ]
    raise ValueError(f"unknown workload {workload!r}")
