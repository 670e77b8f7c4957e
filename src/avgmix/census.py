"""Parallel exact census of average-mixing ranks over all trees per order.

The census hands the enumerator's stream of `Tree`s to `map_chunks`, the
one chunk runner of the package (the 18-vertex search in `rooted_family`
runs on it too), which cuts it into fixed-size chunks: it maps a
per-chunk function over the chunks, in this process or in a worker pool,
and yields the results in chunk order.  Census workers classify each tree
of a chunk independently and return a tally keyed by (rank, simple).
Tallies are merged strictly in chunk order, so the aggregated output is
byte-identical whatever the worker count, and a checkpoint file holding
the completed chunk tallies lets an interrupted run resume to the
identical result.  Every finished order's total must equal the free-tree
count of Otter's formula.

Methods:
  exact      rank and simplicity from the exact average mixing matrix;
  coeff-fast one matching DP per tree decides simplicity and gives phi for
             the integer coefficient matrix of simple trees (the two ranks
             agree for simple spectra) and for `amm_rank` otherwise;
  float      numeric rank of the floating average mixing matrix, simplicity
             from eigenvalue clustering.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import multiprocessing
import os
import re
from dataclasses import dataclass

from .enumeration import enumerate_trees, free_tree_count
from .errors import ConsistencyError
from .exact import amm_rank, average_mixing_exact, coefficient_matrix, exact_rank
# parse_graph6 is not called here; perfbench/layers.py wraps avgmix.census:parse_graph6
from .graph6 import parse_graph6, write_graph6
from .matchings import counts_to_char_poly, forest_matching_counts, simple_from_matching_counts
from .reference_data import (
    KNOWN_DISCREPANCY_NOTES,
    REFERENCE_MIN_RANK,
    REFERENCE_RANK_TABLE,
)

METHODS = ("exact", "coeff-fast", "float")
CSV_HEADER = "n,rank,trees,simple_trees"
CHECKPOINT_VERSION = 1
CERTIFICATE_ORDER_CAP = 14
CERTIFICATE_METHOD = "coeff-fast"


@dataclass(frozen=True)
class CensusRecord:
    n: int
    rank: int
    trees: int
    simple_trees: int


class CheckpointMismatch(ValueError):
    """Checkpoint file does not belong to the requested run."""


def classify_tree(t, method: str) -> tuple[int, bool]:
    """(rank, simple) of one tree under the chosen method."""
    if method == "exact":
        r = average_mixing_exact(t)
        return r.rank, r.simple
    if method == "coeff-fast":
        counts = forest_matching_counts(t)
        phi = counts_to_char_poly(t.n, counts)
        if simple_from_matching_counts(t.n, counts):
            return exact_rank(coefficient_matrix(t, phi)), True
        return amm_rank(t, phi), False
    if method == "float":
        from .numeric import classify_float

        rank, simple, _ = classify_float(t)
        return rank, simple
    raise ValueError(f"unknown method {method!r}")


def map_chunks(fn, items, chunk_size: int, threads: int):
    """fn(chunk) for each run of chunk_size consecutive items, in chunk order.

    A chunk holds the items as given (the last one may be shorter).  With
    one thread every chunk runs in this process and is a lazy slice of
    `items`, drawn as `fn` iterates it, so no chunk is ever held whole;
    `fn` must consume its chunk before it returns.  Otherwise `fn`, which
    must be picklable (a module-level function or a partial of one), runs
    in a worker pool on each chunk pickled as a list, and the results
    still arrive in chunk order.
    """
    it = iter(items)

    def chunks():
        for first in it:
            yield itertools.chain((first,), itertools.islice(it, chunk_size - 1))

    if threads > 1:
        with multiprocessing.Pool(threads) as pool:
            yield from pool.imap(fn, map(list, chunks()))
    else:
        yield from map(fn, chunks())


def _census_chunk(method: str, trees) -> dict[str, int]:
    tally: dict[str, int] = {}
    for t in trees:
        rank, simple = classify_tree(t, method)
        key = f"{rank},{int(simple)}"
        tally[key] = tally.get(key, 0) + 1
    return tally


def _merge(into: dict[str, int], part: dict[str, int]) -> None:
    for key, cnt in part.items():
        into[key] = into.get(key, 0) + cnt


class _Checkpoint:
    def __init__(self, path: str | None, params: dict):
        self.path = path
        self.params = params
        self.done: dict[str, dict[str, int]] = {}
        if path and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise CheckpointMismatch(f"checkpoint {path} is not a JSON object")
            stored = {k: data.get(k) for k in params}
            if data.get("version") != CHECKPOINT_VERSION or stored != params:
                raise CheckpointMismatch(
                    f"checkpoint {path} was written by a different run "
                    f"(stored {stored}, requested {params})",
                )
            done = data.get("done")
            if not isinstance(done, dict) or not all(
                isinstance(tally, dict)
                and all(re.fullmatch(r"\d+,[01]", k) and type(c) is int for k, c in tally.items())
                for tally in done.values()
            ):
                raise CheckpointMismatch(f"checkpoint {path} has no valid 'done' tallies")
            self.done = done

    def key(self, n: int, chunk_index: int) -> str:
        return f"{n}:{chunk_index}"

    def get(self, n: int, chunk_index: int) -> dict[str, int] | None:
        return self.done.get(self.key(n, chunk_index))

    def put(self, n: int, chunk_index: int, tally: dict[str, int]) -> None:
        self.done[self.key(n, chunk_index)] = tally
        if not self.path:
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"version": CHECKPOINT_VERSION, **self.params, "done": self.done}, fh)
        os.replace(tmp, self.path)


def census(
    n_min: int,
    n_max: int,
    method: str = "coeff-fast",
    threads: int = 1,
    chunk_size: int = 1024,
    checkpoint_path: str | None = None,
    progress=None,
) -> list[CensusRecord]:
    """Census records for every order in [n_min, n_max], sorted by (n, rank).

    `progress(n, chunks_done)` fires after every completed chunk, after the
    checkpoint has been persisted; raising from it leaves a resumable state.
    A resume raises CheckpointMismatch when the stored tallies of an order
    do not add up to the trees their chunks hold, and an order whose total
    is not `free_tree_count(n)` raises ConsistencyError.
    """
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if threads < 1:
        raise ValueError("threads must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    ckpt = _Checkpoint(
        checkpoint_path,
        {"n_min": n_min, "n_max": n_max, "method": method, "chunk_size": chunk_size},
    )
    classify = functools.partial(_census_chunk, method)
    records: list[CensusRecord] = []
    for n in range(n_min, n_max + 1):
        # chunks are stored in chunk order, so an order resumes after the
        # longest stored prefix of its chunks
        tally: dict[str, int] = {}
        start = 0
        while (part := ckpt.get(n, start)) is not None:
            _merge(tally, part)
            start += 1
        trees = enumerate_trees(n)
        skipped = sum(1 for _ in itertools.islice(trees, start * chunk_size))
        if (tallied := sum(tally.values())) != skipped:
            raise CheckpointMismatch(
                f"checkpoint {checkpoint_path} tallies {tallied} trees of order {n} "
                f"where its stored chunks hold {skipped}",
            )
        with contextlib.closing(map_chunks(classify, trees, chunk_size, threads)) as parts:
            for index, part in enumerate(parts, start):
                ckpt.put(n, index, part)
                _merge(tally, part)
                if progress:
                    progress(n, index + 1)
        if (total := sum(tally.values())) != (expected := free_tree_count(n)):
            raise ConsistencyError(
                f"order {n}: the census tallies {total} trees, Otter's formula counts {expected}",
            )
        rows: dict[int, list[int]] = {}
        for key, cnt in tally.items():
            rank, simple = map(int, key.split(","))
            row = rows.setdefault(rank, [0, 0])
            row[0] += cnt
            if simple:
                row[1] += cnt
        for rank in sorted(rows):
            records.append(CensusRecord(n, rank, rows[rank][0], rows[rank][1]))
    records.sort(key=lambda r: (r.n, r.rank))
    return records


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in sorted(records, key=lambda r: (r.n, r.rank)):
        lines.append(f"{r.n},{r.rank},{r.trees},{r.simple_trees}")
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[CensusRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"census CSV must start with header {CSV_HEADER!r}")
    out = []
    for ln in lines[1:]:
        n, rank, trees, simple = map(int, ln.split(","))
        out.append(CensusRecord(n, rank, trees, simple))
    return out


# ---------------------------------------------------------------------------
# comparison against the published tables


@dataclass(frozen=True)
class CellMismatch:
    n: int
    rank: int
    got_trees: int
    got_simple: int
    expected_trees: int
    expected_simple: int


@dataclass
class ComparisonReport:
    orders: list[int]
    mismatches: list[CellMismatch]
    min_rank_mismatches: list[tuple[int, int, int]]  # (n, got, expected)
    notes: list[str]
    certificates: dict[tuple[int, int], list[str]]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.min_rank_mismatches

    def render(self) -> str:
        lines = []
        covered = ",".join(map(str, self.orders))
        lines.append(f"compared orders: {covered}")
        if self.ok:
            lines.append("all cells match the published tables")
        for m in self.mismatches:
            lines.append(
                f"MISMATCH n={m.n} rank={m.rank}: computed trees={m.got_trees} "
                f"simple={m.got_simple}, published trees={m.expected_trees} "
                f"simple={m.expected_simple}",
            )
            certs = self.certificates.get((m.n, m.rank))
            if certs:
                lines.append(f"  affected trees (graph6): {' '.join(certs)}")
        for n, got, expected in self.min_rank_mismatches:
            lines.append(f"MISMATCH min rank at n={n}: computed {got}, published {expected}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def compare_tables(records, collect_certificates: bool = True) -> ComparisonReport:
    """Cell-by-cell comparison of census records against the published tables.

    Known published-source inconsistencies are attached as notes for every
    covered order; mismatched cells on small orders get graph6 certificates
    of the trees this package places in the cell.
    """
    by_n: dict[int, dict[int, tuple[int, int]]] = {}
    for r in records:
        by_n.setdefault(r.n, {})[r.rank] = (r.trees, r.simple_trees)
    orders = sorted(n for n in by_n if n in REFERENCE_RANK_TABLE)
    mismatches = []
    for n in orders:
        expected = {rank: (trees, simple) for rank, trees, simple in REFERENCE_RANK_TABLE[n]}
        got = by_n[n]
        for rank in sorted(set(expected) | set(got)):
            e = expected.get(rank, (0, 0))
            g = got.get(rank, (0, 0))
            if e != g:
                mismatches.append(CellMismatch(n, rank, g[0], g[1], e[0], e[1]))
    min_rank_mismatches = []
    for n in orders:
        got_min = min(by_n[n])
        expected_min = REFERENCE_MIN_RANK.get(n)
        if expected_min is not None and got_min != expected_min:
            min_rank_mismatches.append((n, got_min, expected_min))
    notes = [KNOWN_DISCREPANCY_NOTES[n] for n in orders if n in KNOWN_DISCREPANCY_NOTES]
    certificates: dict[tuple[int, int], list[str]] = {}
    if collect_certificates and mismatches:
        wanted = {(m.n, m.rank) for m in mismatches if m.n <= CERTIFICATE_ORDER_CAP}
        for n in sorted({c[0] for c in wanted}):
            for t in enumerate_trees(n):
                rank, _ = classify_tree(t, CERTIFICATE_METHOD)
                if (n, rank) in wanted:
                    certificates.setdefault((n, rank), []).append(write_graph6(t))
    return ComparisonReport(orders, mismatches, min_rank_mismatches, notes, certificates)


def verify_totals(records) -> None:
    """Check per-order totals against the published column sums."""
    totals: dict[int, int] = {}
    for r in records:
        totals[r.n] = totals.get(r.n, 0) + r.trees
    for n, total in sorted(totals.items()):
        expected = sum(trees for _, trees, _ in REFERENCE_RANK_TABLE.get(n, ()))
        if expected and total != expected:
            raise ConsistencyError(f"order {n}: census total {total} != published {expected}")
