"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 (extended census) is optional and runs only when AMM_EXTENDED
is set; everything else gates the build.  The 18-vertex search is shared
through the session-scoped fixtures in conftest.  Criteria 5-10 and 12 are
the `avgmix verify` suites at their default sizes (see avgmix.verify).
"""

import os

import pytest

from avgmix.census import (
    CensusRecord,
    census,
    compare_tables,
    records_to_csv,
    verify_totals,
)
from avgmix.exact import average_mixing_exact
from avgmix.polynomials import char_poly
from avgmix.reference_data import REFERENCE_RANK_TABLE
from avgmix.rooted_family import build_family, tstar_charpoly
from avgmix.verify import run_suite


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert passed, line


def report_suites(criterion: str, *names: str):
    """Run each named `avgmix verify` suite at its default size and report."""
    lines = []
    ok = all([run_suite(name, out=lines.append) for name in names])
    failures = [ln for ln in lines if ln.startswith("FAIL")]
    report(criterion, ok, "; ".join(failures) or f"{len(lines)} checks of suite {' + '.join(names)} pass")


def _table_cells(n):
    return {rank: (trees, simple) for rank, trees, simple in REFERENCE_RANK_TABLE[n]}


def _census_cells(recs, n):
    return {r.rank: (r.trees, r.simple_trees) for r in recs if r.n == n}


def test_c01_census_reproduction(census_2_12):
    recs = census_2_12
    verify_totals(recs)
    bad = [n for n in range(2, 13) if _census_cells(recs, n) != _table_cells(n)]
    if not bad:
        report("1 census n=2..12", True, "every cell matches the published table")
        return
    # sanctioned exception: an order-6 disagreement passes if it is cited in
    # the comparison report and all three methods agree with each other
    if bad != [6]:
        report("1 census n=2..12", False, f"mismatching orders {bad}")
    rep = compare_tables(recs)
    cited = any("6 vertices" in note or "order 6" in note for note in rep.notes)
    cells6 = _census_cells(recs, 6)
    agree = (
        cells6
        == _census_cells(census(6, 6, method="exact"), 6)
        == _census_cells(census(6, 6, method="float"), 6)
    )
    report(
        "1 census n=2..12",
        cited and agree,
        "order-6 conflict documented; exact/coefficient/float methods agree",
    )


@pytest.mark.skipif(not os.environ.get("AMM_EXTENDED"), reason="extended census is optional")
def test_c02_extended_census():
    recs = census(13, 14, method="coeff-fast")
    bad = [n for n in (13, 14) if _census_cells(recs, n) != _table_cells(n)]
    ok = not bad
    detail = "n=13..14 match"
    if os.environ.get("AMM_EXTENDED") == "full":
        recs18 = census(18, 18, method="coeff-fast", checkpoint_path="census18.ck.json")
        total = sum(r.trees for r in recs18)
        row = CensusRecord(18, 8, 25, 1)
        ok = ok and total == 123867 and row in recs18
        detail += f"; n=18 total {total}, rank-8 row {'present' if row in recs18 else 'missing'}"
    report("2 extended census", ok, detail)


def test_c03_tstar_discovery(tstar_hits):
    ranks = [r for r, _ in tstar_hits]
    unique = len(tstar_hits) == 1 and ranks == [8]
    poly_ok = unique and char_poly(tstar_hits[0][1]) == tstar_charpoly()
    exact_ok = False
    if poly_ok:
        res = average_mixing_exact(tstar_hits[0][1])
        exact_ok = res.rank == 8 and res.simple
    report(
        "3 distinguished 18-vertex tree",
        unique and poly_ok and exact_ok,
        f"hits={ranks}; char poly matches expansion; exact-matrix rank 8",
    )


def test_c04_family_rank_gaps(tstar):
    members = build_family(2, base=tstar)
    m1, m2 = members[1], members[2]
    ok = (
        m1.n == 36 and m1.rank <= 16 and m1.gap >= 2
        and m2.n == 72 and m2.rank <= 32 and m2.gap >= 4
    )
    report(
        "4 family rank bounds",
        ok,
        f"i=1: rank {m1.rank} <= 16, gap {m1.gap}; i=2: rank {m2.rank} <= 32, gap {m2.gap}",
    )


def test_c05_block_formula_equivalence():
    report_suites("5 block formula", "rooted")


def test_c06_coefficient_rank_equivalence():
    report_suites("6 coefficient rank", "coefficient")


def test_c07_lower_bound_certificates():
    report_suites("7 lower bound", "lowerbound")


def test_c08_matching_charpoly_identity():
    report_suites("8 matching identity", "identities")


def test_c09_numerical_cross_validation():
    report_suites("9 numerical cross-validation", "float")


def test_c10_structural_invariants():
    report_suites("10 structural invariants", "structural", "kernel")


def test_c11_determinism(tmp_path):
    a = records_to_csv(census(2, 9, threads=1))
    b = records_to_csv(census(2, 9, threads=2))
    threads_ok = a == b

    ck = str(tmp_path / "ck.json")

    class Stop(Exception):
        pass

    count = [0]

    def bomb(n, done):
        count[0] += 1
        if count[0] == 4:
            raise Stop

    with pytest.raises(Stop):
        census(8, 9, chunk_size=7, checkpoint_path=ck, progress=bomb)
    resumed = records_to_csv(census(8, 9, chunk_size=7, checkpoint_path=ck))
    fresh = records_to_csv(census(8, 9, chunk_size=7))
    resume_ok = resumed == fresh
    report(
        "11 determinism",
        threads_ok and resume_ok,
        "byte-identical across thread counts and across interrupt/resume",
    )


def test_c12_star_comparison_report(capsys):
    lines = []
    ok = run_suite("stars", out=lines.append)
    emitted = sum(1 for ln in lines if "leaves=" in ln)
    with capsys.disabled():
        print()
        for ln in lines:
            print("  " + ln)
    report("12 star formula comparison", ok and emitted == 10, f"{emitted} orders compared, report emitted")
