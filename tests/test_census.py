import importlib
import json
import os
import re
from collections import Counter

import numpy as np
import pytest

import avgmix.numeric as numeric
from avgmix.census import (
    CensusRecord,
    CheckpointMismatch,
    census,
    classify_tree,
    compare_tables,
    map_chunks,
    records_from_csv,
    records_to_csv,
    verify_totals,
)
from avgmix.enumeration import enumerate_trees, free_tree_count
from avgmix.exact import amm_rank, average_mixing_exact, walk_rank
from avgmix.graph6 import parse_graph6
from avgmix.graphs import path, star
from avgmix.matchings import forest_matching_counts, nonzero_eigenvalues_simple
from avgmix.reference_data import FLOAT_CUTOFF_WITNESSES, KNOWN_DISCREPANCY_NOTES, REFERENCE_RANK_TABLE
from avgmix.rooted_family import build_family, search_low_rank_simple_trees
from avgmix.verify import run_suite


def test_classify_methods_agree_on_examples():
    for g, want in ((path(4), (2, True)), (star(6), (6, False)), (path(2), (1, True))):
        for method in ("exact", "coeff-fast", "float"):
            assert classify_tree(g, method) == want, (method, g)


def test_float_classification_decomposes_each_tree_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return decompose(t)

    decompose = numeric.spectral_decomp
    monkeypatch.setattr(numeric, "spectral_decomp", counted)
    trees = list(enumerate_trees(8))
    for t in trees:
        classify_tree(t, "float")
    assert len(calls) == len(trees)


def test_coeff_fast_runs_one_matching_dp_per_tree(monkeypatch):
    """Every ranked tree of the census takes its characteristic polynomial
    from its one DP; the scan runs no DP and folds the counts of the trees
    that pass its prefilter from cached subtree states; and the census and
    the scan rank the enumerator's trees without graph6."""
    calls = Counter()
    routes = Counter()  # the rank route each classified tree took
    # `import avgmix.census` would bind the re-exported function `census`
    for module, name, into in (
        ("census", "forest_matching_counts", calls),
        ("census", "write_graph6", calls),
        ("census", "parse_graph6", calls),
        ("rooted_family", "forest_matching_counts", calls),
        ("rooted_family", "simple_from_matching_counts", calls),
        ("rooted_family", "write_graph6", calls),
        ("rooted_family", "parse_graph6", calls),
        ("rooted_family", "walk_rank", calls),
        ("exact", "forest_char_poly", calls),
        ("census", "walk_rank", routes),
        ("census", "amm_rank", routes),
    ):
        owner = importlib.import_module(f"avgmix.{module}")

        def counted(*args, _orig=getattr(owner, name), _key=f"{module}.{name}", _into=into):
            _into[_key] += 1
            return _orig(*args)

        monkeypatch.setattr(owner, name, counted)
    # simple; the eigenvalue 0 four times and H = y - 5 squarefree; the
    # spider with three legs of length 2, 0 once but H = (y - 1)^2 (y - 4)
    for t, route in (
        (path(6), "census.walk_rank"),
        (star(6), "census.walk_rank"),
        (parse_graph6("FkE?G"), "census.amm_rank"),
    ):
        calls.clear()
        routes.clear()
        classify_tree(t, "coeff-fast")
        assert dict(calls) == {"census.forest_matching_counts": 1}, t.edges
        assert dict(routes) == {route: 1}, t.edges
    calls.clear()
    search_low_rank_simple_trees(10, 6)
    # no matching DP: only the 15 of the 106 trees that pass the
    # matching-number prefilter reach the simplicity test, and the mod-p
    # certificate ranks all 11 simple ones, so walk_rank never runs
    assert dict(calls) == {"rooted_family.simple_from_matching_counts": 15}
    calls.clear()
    census(2, 9)
    assert dict(calls) == {"census.forest_matching_counts": sum(map(free_tree_count, range(2, 10)))}
    calls.clear()
    build_family(1, base=path(4))
    assert dict(calls) == {"census.forest_matching_counts": 2}


def test_one_thread_chunks_draw_each_item_after_the_last_is_taken():
    """With one thread a chunk is a lazy slice: item k + 1 is drawn only
    after the chunk function has taken item k, so no chunk is held whole."""
    events = []

    def items():
        for k in range(7):
            events.append(("draw", k))
            yield k

    def fn(chunk):
        taken = []
        for k in chunk:
            events.append(("take", k))
            taken.append(k)
        return taken

    assert list(map_chunks(fn, items(), 3, threads=1)) == [[0, 1, 2], [3, 4, 5], [6]]
    assert events == [(what, k) for k in range(7) for what in ("draw", "take")]


def test_census_matches_reference_small(census_2_12):
    recs = census_2_12
    by_cell = {(r.n, r.rank): (r.trees, r.simple_trees) for r in recs}
    for n in range(2, 10):
        for rank, trees, simple in REFERENCE_RANK_TABLE[n]:
            assert by_cell[(n, rank)] == (trees, simple), (n, rank)
    verify_totals(recs)
    rep = compare_tables(recs)
    assert rep.ok
    assert any("prose" in note for note in rep.notes)  # the order-6 annotation


def test_census_examples_from_table():
    recs = census(9, 9)
    assert CensusRecord(9, 5, 19, 18) in recs
    recs2 = census(2, 2)
    assert recs2 == [CensusRecord(2, 1, 1, 1)]


def test_methods_produce_identical_tables():
    # the `census-methods` suite: all three methods agree up to order 8, and
    # the float census matches the published tables up to order 12
    lines = []
    assert run_suite("census-methods", out=lines.append), [ln for ln in lines if ln.startswith("FAIL")]


def test_thread_count_invariance():
    a = records_to_csv(census(2, 8, threads=1))
    b = records_to_csv(census(2, 8, threads=2))
    assert a == b


def test_checkpoint_interrupt_resume(tmp_path):
    ck = str(tmp_path / "ck.json")

    class Stop(Exception):
        pass

    seen = []

    def bomb(n, done):
        seen.append((n, done))
        if len(seen) == 3:
            raise Stop

    with pytest.raises(Stop):
        census(8, 9, chunk_size=10, checkpoint_path=ck, progress=bomb)
    assert os.path.exists(ck)
    resumed = census(8, 9, chunk_size=10, checkpoint_path=ck)
    fresh = census(8, 9, chunk_size=10)
    assert records_to_csv(resumed) == records_to_csv(fresh)


def test_checkpoint_mismatch_rejected(tmp_path):
    ck = str(tmp_path / "ck.json")
    census(5, 6, chunk_size=4, checkpoint_path=ck)
    with pytest.raises(CheckpointMismatch):
        census(5, 6, method="exact", chunk_size=4, checkpoint_path=ck)
    with pytest.raises(CheckpointMismatch):
        census(5, 7, chunk_size=4, checkpoint_path=ck)
    with open(ck, encoding="utf-8") as fh:
        good = json.load(fh)
    no_done = {k: v for k, v in good.items() if k != "done"}
    for bad in ([good], no_done, {**good, "done": {"5:0": "x"}}, {**good, "done": {"5:0": {"a": 1}}}):
        with open(ck, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        with pytest.raises(CheckpointMismatch, match="ck.json"):
            census(5, 6, chunk_size=4, checkpoint_path=ck)
    # well-formed tallies that do not add up to the trees their chunks hold:
    # order 4 has 2 trees and no rank 9
    run = {"version": 1, "n_min": 2, "n_max": 4, "method": "coeff-fast"}
    three_chunks = {f"4:{i}": {"2,1": 1} for i in range(3)}
    for chunk_size, done in ((1024, {"4:0": {"9,1": 5}}), (1, three_chunks)):
        with open(ck, "w", encoding="utf-8") as fh:
            json.dump({**run, "chunk_size": chunk_size, "done": done}, fh)
        with pytest.raises(CheckpointMismatch, match="ck.json"):
            census(2, 4, chunk_size=chunk_size, checkpoint_path=ck)


def test_census_argument_validation():
    with pytest.raises(ValueError):
        census(1, 5)
    with pytest.raises(ValueError):
        census(5, 4)
    with pytest.raises(ValueError):
        census(2, 4, method="magic")
    with pytest.raises(ValueError, match="chunk_size"):
        census(2, 4, chunk_size=0)


def test_csv_roundtrip_and_header():
    recs = census(4, 6)
    text = records_to_csv(recs)
    assert text.splitlines()[0] == "n,rank,trees,simple_trees"
    assert records_from_csv(text) == recs
    with pytest.raises(ValueError):
        records_from_csv("bogus\n1,2,3,4\n")
    # a repeated cell is an error, not a silent overwrite of the first copy
    with pytest.raises(ValueError, match="n=6, rank=6"):
        records_from_csv(text + "6,6,1,0\n")
    # every bad row is rejected with its line number, never read as data;
    # the blank line still counts towards the numbering
    header = "n,rank,trees,simple_trees\n2,2,1,1\n\n"
    for row, reason in (
        ("3,2,1", "need four integer fields"),
        ("3,2,1,1,0", "need four integer fields"),
        ("3,2,x,1", "need four integer fields"),
        ("3,2,1.5,1", "need four integer fields"),
        ("3,2,-1,0", "negative field"),
        ("3,2,1,-1", "negative field"),
        ("2,1,1,5", "more simple trees than trees"),
    ):
        with pytest.raises(ValueError, match=f"line 4 '{re.escape(row)}': {reason}"):
            records_from_csv(header + row + "\n")


def test_compare_flags_mismatches_with_certificates():
    recs = [CensusRecord(4, 2, 2, 1), CensusRecord(4, 4, 0, 0)]
    rep = compare_tables(recs)
    assert not rep.ok
    cells = {(m.n, m.rank) for m in rep.mismatches}
    assert cells == {(4, 2), (4, 4)}
    # the tree this package places at the mismatched cell is certified
    assert rep.certificates[(4, 2)] == ["Cp"] or len(rep.certificates[(4, 2)]) == 1
    assert "MISMATCH" in rep.render()


def test_compare_min_rank_row(census_2_12):
    rep = compare_tables(census_2_12)
    assert rep.ok  # includes the min-rank row: n=10 -> 4, n=7 -> 4


def test_published_errata_witnesses():
    """Each tree that the published rows 19 and 20 rank one too low: its exact
    rank from all three exact routes, and the float rank one lower at the
    relative cutoff 6e-7 and equal at the package's 1e-8."""
    for n, g6, rank, ratio in FLOAT_CUTOFF_WITNESSES:
        assert g6 in KNOWN_DISCREPANCY_NOTES[n]
        t = parse_graph6(g6)
        counts = forest_matching_counts(t)
        assert t.n == n and nonzero_eigenvalues_simple(counts), g6
        assert amm_rank(t) == average_mixing_exact(t).rank == walk_rank(t, counts) == rank, g6
        m = numeric.average_mixing_float(t)
        ev = np.linalg.eigvalsh(m)
        top = ev[-1]
        assert ev[-rank] / top == pytest.approx(ratio, rel=5e-3), g6
        assert int(np.sum(ev > 6e-7 * top)) == rank - 1, g6
        assert numeric.numeric_rank(m) == rank, g6  # the cutoff 1e-8
