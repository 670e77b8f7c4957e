"""The four workloads: their inputs, one measured pass each, and output checks.

A workload's `setup(seed)` builds the inputs (everything the benchmark
does before the clock starts), `run_pass(inputs)` does one fixed unit of
work through avgmix's public functions and returns a `PassResult`, and
`check(inputs, result)` validates the outputs of a pass after timing has
ended.  Every pass of a run does identical work, so a run's passes must
return identical `output` values.
"""

from __future__ import annotations

import importlib
import itertools
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

TSTAR_G6 = "QhD?I?@_??_@?@_???G?@??E???"
ORDER18_TREES = 123_867  # OEIS A000055


def _mod(name: str):
    # `import avgmix.census` would bind the re-exported function `census`
    return importlib.import_module(f"avgmix.{name}")


def tstar():
    graphs = _mod("graphs")
    g = _mod("graph6").parse_graph6(TSTAR_G6)
    return graphs.Tree(g.n, g.edges)


@dataclass
class PassResult:
    output: object              # compared across passes and between traced/untraced
    trees: int                  # trees handled, for trees_per_s
    counts: dict = field(default_factory=dict)   # counts read off the outputs
    tree_s: list[float] | None = None            # per-tree seconds, where timed


class Workload:
    name = ""
    uses_seed = False
    calls = 1  # checked calls into avgmix per pass

    def __init__(self, root: Path):
        self.root = root

    def prepare(self) -> None:
        """Changes to the program's name lookups that define the input; before setup."""

    def setup(self, seed: int):
        return None

    def cleanup(self) -> None:
        pass


class Scan18(Workload):
    """`search_low_rank_simple_trees(18, 9, threads=1)` on a fixed window of the order.

    The full scan (123,867 trees) takes about a minute, longer than a run
    may spend, so the search reads only the first 17 of its 2048-tree
    chunks: 34,816 trees, 28% of the order, t* (index 33,973) included.
    The window is cut where the search looks up `enumerate_trees`; a
    search that stops reading that name fails the window check instead of
    silently scanning the whole order.
    """

    name = "scan18"
    WINDOW = 17 * 2048
    drawn = 0

    def prepare(self) -> None:
        rf = _mod("rooted_family")
        full = rf.enumerate_trees

        def window(n):
            for t in itertools.islice(full(n), self.WINDOW):
                self.drawn += 1
                yield t

        rf.enumerate_trees = window

    def run_pass(self, inputs) -> PassResult:
        self.drawn = 0
        hits = _mod("rooted_family").search_low_rank_simple_trees(18, 9, threads=1)
        return PassResult(
            output=(self.drawn, tuple(hits)),
            trees=self.drawn,
            counts={"trees": self.drawn, "hits": len(hits)},
        )

    def check(self, inputs, result: PassResult) -> list[str]:
        drawn, hits = result.output
        hits = tuple((rank, _mod("graph6").write_graph6(t)) for rank, t in hits)
        problems = []
        if drawn != self.WINDOW:
            problems.append(
                f"the search drew {drawn} trees, not the {self.WINDOW}-tree window: "
                "it no longer reads avgmix.rooted_family.enumerate_trees",
            )
        if hits != ((8, TSTAR_G6),):
            problems.append(f"expected exactly one hit, rank 8, {TSTAR_G6}; got {hits}")
        elif _mod("polynomials").char_poly(tstar()) != _mod("rooted_family").tstar_charpoly():
            problems.append("the hit's characteristic polynomial is not tstar_charpoly()")
        return problems


class Census13(Workload):
    """`census(2, 13, "coeff-fast", threads=1)` writing a checkpoint file.

    The only workload that runs the census runner and writes checkpoints;
    most of its time is the exact fallback on non-simple trees (n <= 13).
    Each pass writes a fresh checkpoint file in a temporary directory
    inside the checkout.
    """

    name = "census13"
    tmpdir: str | None = None
    passes = 0

    def setup(self, seed: int):
        self.tmp_parent = self.root / ".perfbench_tmp"
        self.tmp_parent.mkdir(exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(dir=self.tmp_parent)
        return None

    def run_pass(self, inputs) -> PassResult:
        self.passes += 1
        path = os.path.join(self.tmpdir, f"census-{self.passes}.ck.json")
        progress = {"chunks": 0, "checkpoint_bytes": 0}

        def on_chunk(n, chunks_done):
            # called after the checkpoint file has been rewritten
            progress["chunks"] += 1
            progress["checkpoint_bytes"] += os.path.getsize(path)

        census = _mod("census")
        records = census.census(2, 13, "coeff-fast", threads=1, checkpoint_path=path,
                                progress=on_chunk)
        trees = sum(r.trees for r in records)
        simple = sum(r.simple_trees for r in records)
        return PassResult(
            output=(census.records_to_csv(records), progress["chunks"]),
            trees=trees,
            counts={"trees": trees, "simple": simple, **progress},
        )

    def check(self, inputs, result: PassResult) -> list[str]:
        census = _mod("census")
        records = census.records_from_csv(result.output[0])
        problems = []
        if sorted({r.n for r in records}) != list(range(2, 14)):
            problems.append("census records do not cover orders 2..13")
        report = census.compare_tables(records, collect_certificates=False)
        if not report.ok:
            problems.append("census disagrees with the published tables:\n" + report.render())
        try:
            census.verify_totals(records)
        except _mod("errors").ConsistencyError as exc:
            problems.append(f"verify_totals: {exc}")
        return problems

    def cleanup(self) -> None:
        if self.tmpdir:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
        try:
            self.tmp_parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


class Row18(Workload):
    """`classify_tree(t, "coeff-fast")` on a seeded uniform sample of order-18 trees.

    The per-tree mix of the unreproduced order-18 census row: about 98.6%
    of these trees take the exact fallback.  Setup enumerates the whole
    order and keeps the sampled trees as graph6 strings; each pass parses
    and classifies all of them, timing each tree.
    """

    name = "row18"
    uses_seed = True
    SAMPLE = 600
    calls = SAMPLE
    DEFAULT_SEED = 1
    # (rank, simple) tally of the sample drawn with DEFAULT_SEED
    GOLDEN_TALLY = {
        "9,0": 2, "9,1": 10, "10,0": 74, "11,0": 80, "12,0": 122, "13,0": 133,
        "14,0": 84, "15,0": 58, "16,0": 28, "17,0": 8, "18,0": 1,
    }

    def setup(self, seed: int):
        self.seed = seed
        wanted = set(random.Random(seed).sample(range(ORDER18_TREES), self.SAMPLE))
        write = _mod("graph6").write_graph6
        sample = []
        total = 0
        for index, t in enumerate(_mod("enumeration").enumerate_trees(18)):
            if index in wanted:
                sample.append(write(t))
            total = index + 1
        if total != ORDER18_TREES:
            raise RuntimeError(f"order 18 enumerated {total} trees, not {ORDER18_TREES}")
        return sample

    def run_pass(self, sample) -> PassResult:
        parse = _mod("graph6").parse_graph6
        census = _mod("census")
        out = []
        tree_s = []
        for g6 in sample:
            t0 = time.perf_counter()
            rank, simple = census.classify_tree(parse(g6), "coeff-fast")
            tree_s.append(time.perf_counter() - t0)
            out.append((rank, simple))
        simple = sum(1 for _, s in out if s)
        return PassResult(
            output=tuple(out),
            trees=len(sample),
            counts={"trees": len(sample), "simple": simple, "exact": len(sample) - simple},
            tree_s=tree_s,
        )

    def check(self, sample, result: PassResult) -> list[str]:
        problems = []
        tally = Counter(f"{rank},{int(simple)}" for rank, simple in result.output)
        if self.seed == self.DEFAULT_SEED and dict(tally) != self.GOLDEN_TALLY:
            problems.append(f"rank tally {dict(tally)} != golden {self.GOLDEN_TALLY}")
        row = _mod("reference_data").REFERENCE_RANK_TABLE[18]
        published = {(rank, True) for rank, _, simple in row if simple}
        published |= {(rank, False) for rank, trees, simple in row if trees > simple}
        parse = _mod("graph6").parse_graph6
        amm = _mod("exact").average_mixing_exact
        for g6, (rank, simple) in zip(sample, result.output):
            if (rank, simple) not in published:
                problems.append(f"{g6}: rank {rank} simple={simple} is no cell of the published row")
            elif simple:
                direct = amm(parse(g6))
                if (direct.rank, direct.simple) != (rank, True):
                    problems.append(
                        f"{g6}: coefficient rank {rank} but average_mixing_exact gives "
                        f"rank {direct.rank} simple={direct.simple}",
                    )
        return problems


class Family(Workload):
    """`build_family(3, vertex_cap=144)` from t*, then the block formula on member 1.

    The only workload with 36-144-vertex trees and integers far beyond 64
    bits, so a change that speeds small trees but slows or overflows large
    ones shows here.
    """

    name = "family"
    calls = 2

    def setup(self, seed: int):
        return tstar()

    def run_pass(self, base) -> PassResult:
        rf = _mod("rooted_family")
        members = rf.build_family(3, vertex_cap=144, base=base)
        block = rf.amm_rooted_product_exact(members[1].graph)
        return PassResult(
            output=(tuple((m.n, m.rank, m.gap, m.gap_bound) for m in members), block,
                    members[1].graph),
            trees=len(members) + 1,
            counts={"members": len(members), "block_n": len(block)},
        )

    def check(self, base, result: PassResult) -> list[str]:
        members, block, member1 = result.output
        exact = _mod("exact")
        problems = []
        if [(n, rank) for n, rank, _, _ in members] != [(18, 8), (36, 16), (72, 32), (144, 64)]:
            problems.append(f"family (n, rank) {[(n, r) for n, r, _, _ in members]}")
        for n, rank, gap, gap_bound in members:
            if gap < gap_bound:
                problems.append(f"member on {n} vertices: gap {gap} < bound {gap_bound}")
        size = 2 * member1.n
        if len(block) != size or any(len(row) != size for row in block):
            problems.append("block-formula matrix has the wrong shape")
            return problems
        if any(block[u][v] != block[v][u] for u in range(size) for v in range(u)):
            problems.append("block-formula matrix is not symmetric")
        if any(sum(row) != 1 for row in block):
            problems.append("block-formula matrix rows do not sum to 1")
        # independent routes: the member-2 rank from its integer coefficient
        # matrix, and at member 1 the direct exact matrix entry for entry
        if exact.exact_rank(block) != members[2][1]:
            problems.append("block-formula rank differs from the coefficient rank of member 2")
        rf = _mod("rooted_family")
        if rf.amm_rooted_product_exact(base) != exact.average_mixing_exact(member1).matrix:
            problems.append("block formula on t* differs from average_mixing_exact on member 1")
        return problems


WORKLOADS = {w.name: w for w in (Scan18, Census13, Row18, Family)}
