import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from equiangular import constructions, saturate
from equiangular.bounds import BoundReport
from equiangular.exactnum import parse_scalar


@pytest.fixture(scope="session")
def witt():
    return constructions.witt276()


@pytest.fixture(scope="session")
def witt_pillars():
    return constructions.witt276_base_and_pillars()


@pytest.fixture(scope="session")
def enum_8_third():
    return saturate.enumerate_pd_bases(8, Fraction(1, 3))


@pytest.fixture(scope="session")
def m_8_third():
    return saturate.m_alpha(8, Fraction(1, 3))


@pytest.fixture(scope="session")
def table3_fast():
    """All Table-3 cells except the minutes-scale (10, 1/5) one; the elapsed
    wall time is stored under the "elapsed" key for the acceptance bound."""
    import time

    t0 = time.monotonic()
    cells = {}
    for r, a in [
        (8, "1/3"), (8, "1/5"), (8, "1/7"),
        (9, "1/3"), (9, "1/5"), (9, "1/7"), (9, "1/sqrt(17)"),
        (10, "1/3"),
    ]:
        cells[(r, a)] = saturate.m_alpha(r, parse_scalar(a), count_scanned=False)
    cells["elapsed"] = time.monotonic() - t0
    return cells


_M_10_FIFTH = """
import json, resource, time
from fractions import Fraction
from equiangular import saturate
t0 = time.monotonic()
rep = saturate.m_alpha(10, Fraction(1, 5), count_scanned=False)
elapsed = time.monotonic() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"report": rep.to_dict(), "elapsed": elapsed, "ru_maxrss": rss_kb}))
"""


@pytest.fixture(scope="session")
def m_10_fifth():
    """The minutes-scale (10, 1/5) Table-3 cell, searched once per session in
    a fresh python process for every test that checks it.  The report is
    rebuilt from its ``to_dict()``; the search's wall time is stored under
    the "elapsed" key and the process's peak resident set under
    "peak_rss_mb"."""
    import equiangular

    env = dict(os.environ, PYTHONPATH=os.path.dirname(equiangular.__path__[0]))
    proc = subprocess.run(
        [sys.executable, "-c", _M_10_FIFTH], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return {
        "report": BoundReport(**out["report"]),
        "elapsed": out["elapsed"],
        "peak_rss_mb": out["ru_maxrss"] / 1024,  # ru_maxrss is in KiB on Linux
    }


@pytest.fixture(scope="session")
def mstar_reports():
    return {r: saturate.m_star(r) for r in (8, 9, 10)}
