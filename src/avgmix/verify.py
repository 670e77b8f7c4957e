"""Named invariant suites: the exhaustive and random sweeps.

Each suite walks a family of graphs and checks the cross-route identities
the package is built on.  A suite returns True only if every check passed;
checks print one line each so failures are attributable.  `avgmix verify`
runs them, and pytest runs each suite once at its default size: criteria
5-10 and 12 in tests/test_acceptance.py, `bipartite` in tests/test_exact.py
and `census-methods` in tests/test_census.py.  Some unit tests still
sweep the same invariants over ranges the suites cover.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction

import numpy as np

from .census import census, compare_tables, records_to_csv
from .enumeration import enumerate_trees, random_tree
from .errors import ConsistencyError, DomainError
from .exact import (
    _certified_walk_ranks,
    amm_rank,
    average_mixing_exact,
    coefficient_matrix,
    is_psd_exact,
    kernel_exact,
    rank_via_coefficient,
    walk_rank,
    weighted_projector_schur_sum,
)
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, rooted_product_k2, star
from .matchings import (
    forest_has_perfect_matching,
    forest_matching_counts,
    leaf_next_to_degree_two,
    lower_bound_certificate,
    near_perfect_vertex,
    nonzero_eigenvalues_simple,
    simple_from_matching_counts,
)
from .numeric import (
    average_mixing_float,
    cesaro_average,
    mixing_at_time,
    numeric_rank,
    spectral_decomp,
    verify_cvdv_identity,
)
from .polynomials import (
    char_poly,
    forest_char_poly,
    is_squarefree,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_inverse_mod_int,
    poly_mod_monic_int,
    poly_mul,
    power_sums,
    squarefree_part,
    trace_over_roots,
)
from .rooted_family import (
    amm_rooted_product_exact,
    rooted_product_char_poly,
)


class _Runner:
    def __init__(self, out):
        self.out = out
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        tag = "ok  " if ok else "FAIL"
        suffix = f" -- {detail}" if detail else ""
        self.out(f"{tag} {name}{suffix}")
        if not ok:
            self.failures += 1


def _simple_trees(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for t in enumerate_trees(n):
            if simple_from_matching_counts(t.n, forest_matching_counts(t)):
                yield t


def _float_of(m):
    return np.array([[float(c) for c in row] for row in m])


def suite_identities(r: _Runner, n_max: int):
    rng = random.Random(20240)
    bad = 0
    for _ in range(1000):
        t = random_tree(rng.randint(1, 16), rng)
        if char_poly(t) != forest_char_poly(t):
            bad += 1
    r.check("char_poly == matching polynomial on 1000 random trees, n<=16", bad == 0, f"{bad} bad")

    bad_rows = bad = bad_inv = 0
    for n in range(2, n_max + 1):
        for t in enumerate_trees(n):
            phi = char_poly(t)
            rows = coefficient_matrix(t)
            bad_rows += sum(row != char_poly(t.delete_vertex(u)) for u, row in enumerate(rows))
            total = []
            for p in rows:
                total = poly_add(total, p)
            if total != poly_derivative(phi):
                bad += 1
            psi = squarefree_part(phi)
            dpsi_sq = poly_mul(poly_derivative(psi), poly_derivative(psi))
            for w in (dpsi_sq, poly_mul([4, 0, 1], dpsi_sq)):
                u, denom = poly_inverse_mod_int(w, psi)
                ok = poly_mod_monic_int(poly_mul(u, w), psi) == [denom] and len(u) < len(psi)
                bad_inv += not (ok and denom > 0 and math.gcd(denom, *u) == 1)
    r.check(f"coefficient row u == char_poly(T - u), trees n<={n_max}", bad_rows == 0, f"{bad_rows} bad")
    r.check(f"sum of deleted char polys == derivative, trees n<={n_max}", bad == 0)
    r.check(f"inverse u/D of psi'^2 and (t^2+4) psi'^2 mod psi: u w = D, deg u < deg psi, "
            f"D > 0, gcd(D, content u) = 1, trees n<={n_max}", bad_inv == 0, f"{bad_inv} bad")

    bad = 0
    for _ in range(50):
        deg = rng.randint(1, 9)
        psi = squarefree_part([rng.randint(-4, 4) for _ in range(deg)] + [1])
        ps = power_sums(psi)
        for k in range(len(ps)):
            if trace_over_roots([0] * k + [1], [1], psi) != ps[k]:
                bad += 1
    r.check("trace over roots of theta^k equals Newton power sums, 50 random degrees <=9", bad == 0)

    bad = 0
    worst = 0.0
    done = 0
    rng2 = random.Random(77)
    while done < 200:
        deg = rng2.randint(1, 12)
        psi = [rng2.randint(-5, 5) for _ in range(deg)] + [1]
        if not is_squarefree(psi):
            continue
        num = [rng2.randint(-3, 3) for _ in range(rng2.randint(1, 4))]
        den = [rng2.randint(1, 5), 0, 1]  # positive constant + theta^2: no real roots
        try:
            exact = trace_over_roots(num, den, psi)
        except DomainError:
            # psi may share a complex root pair with the denominator; skip
            continue
        roots = np.roots(list(reversed(psi)))
        approx = complex(sum(poly_eval(num, z) / poly_eval(den, z) for z in roots))
        gap = abs(float(exact) - approx.real) + abs(approx.imag)
        worst = max(worst, gap / max(1.0, abs(float(exact))))
        if gap > 1e-9 * max(1.0, abs(float(exact))):
            bad += 1
        done += 1
    r.check("trace over roots vs float root summation, 200 random", bad == 0, f"worst {worst:.2e}")

    scale_ok = trace_over_roots([1], [5, 1], [-3, -3, 3]) == trace_over_roots([1], [5, 1], [-1, -1, 1])
    r.check("root sums ignore scaling of the modulus", scale_ok)

    bad = 0
    for n in range(1, min(n_max, 7) + 1):
        for t in enumerate_trees(n):
            if rooted_product_char_poly(char_poly(t), t.n) != char_poly(rooted_product_k2(t)):
                bad += 1
    r.check("pendant substitution identity for char polys", bad == 0)

    rng3 = random.Random(5150)
    bad = 0
    for _ in range(1000):
        t = random_tree(rng3.randint(1, 20), rng3)
        text = write_graph6(t)
        back = parse_graph6(text)
        if (back.n, back.edges) != (t.n, t.edges) or write_graph6(back) != text:
            bad += 1
    r.check("graph6 round trip on 1000 random trees, n<=20", bad == 0)


def _entry_polys(t: Graph, psi) -> dict[tuple[int, int], list[int]]:
    """p_uv = sum_k c_k (A^k)_uv for u <= v, the c_k from dividing psi by x - theta.

    The per-entry route the exact engine replaced, kept as its cross-check.
    """
    a = np.array(t.adjacency(), dtype=object)
    apow, cpolys = [np.identity(t.n, dtype=int).astype(object)], [[1]]
    for k in range(len(psi) - 2, 0, -1):
        apow.append(apow[-1].dot(a))
        cpolys.insert(0, poly_add([psi[k]], [0, *cpolys[0]]))
    return {
        (u, v): functools.reduce(poly_add, ([ak[u, v] * c for c in ck] for ak, ck in zip(apow, cpolys)), [])
        for u in range(t.n) for v in range(u, t.n)
    }


def suite_structural(r: _Runner, n_max: int):
    bad_sym = bad_row = bad_neg = bad_psd = bad_amm = bad_weighted = 0
    for n in range(2, n_max + 1):
        for t in enumerate_trees(n):
            m = average_mixing_exact(t).matrix
            if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
                bad_sym += 1
            if any(sum(row) != 1 for row in m):
                bad_row += 1
            if any(c < 0 for row in m for c in row):
                bad_neg += 1
            if not is_psd_exact(m):
                bad_psd += 1
            # every entry again, by one extended-Euclid root sum each
            psi = squarefree_part(char_poly(t))
            dpsi_sq = poly_mul(poly_derivative(psi), poly_derivative(psi))
            weighted = weighted_projector_schur_sum(t, [2], [4, 0, 1])
            for (u, v), p in _entry_polys(t, psi).items():
                sq = poly_mul(p, p)
                bad_amm += m[u][v] != trace_over_roots(sq, dpsi_sq, psi)
                w_sum = trace_over_roots([2 * c for c in sq], poly_mul([4, 0, 1], dpsi_sq), psi)
                bad_weighted += weighted[u][v] != w_sum
    r.check(f"average mixing symmetric, trees n<={n_max}", bad_sym == 0)
    r.check(f"rows sum to exactly 1, trees n<={n_max}", bad_row == 0)
    r.check(f"entrywise nonnegative, trees n<={n_max}", bad_neg == 0)
    r.check(f"positive semidefinite, trees n<={n_max}", bad_psd == 0)
    r.check(f"every entry equals its own root sum, trees n<={n_max}", bad_amm == 0)
    r.check(f"weight 2/(x^2+4): every entry equals its own root sum, trees n<={n_max}", bad_weighted == 0)
    empty = average_mixing_exact(Graph(4, ()))
    r.check("empty graph has identity average mixing",
            empty.matrix == [[Fraction(i == j) for j in range(4)] for i in range(4)] and empty.rank == 4)


def suite_bipartite(r: _Runner, n_max: int):
    bad = 0
    count = 0
    for t in _simple_trees(2, n_max):
        count += 1
        if rank_via_coefficient(t) > (t.n + 1) // 2:
            bad += 1
    r.check(f"simple trees respect the ceil(n/2) rank bound ({count} trees, n<={n_max})", bad == 0)


def suite_kernel(r: _Runner, n_max: int):
    weights = [([2], [4, 0, 1]), ([1], [1, 0, 1]), ([3], [9, 0, 0, 0, 1])]
    bad = 0
    checked = 0
    for n in range(2, n_max + 1):
        for t in enumerate_trees(n):
            m = average_mixing_exact(t).matrix
            basis = kernel_exact(m)
            if not basis:
                continue
            for w_num, w_den in weights:
                g = weighted_projector_schur_sum(t, w_num, w_den)
                for v in basis:
                    checked += 1
                    if any(sum(g[i][j] * v[j] for j in range(t.n)) != 0 for i in range(t.n)):
                        bad += 1
    r.check(f"weighted projector sums kill the kernel ({checked} pairs, n<={n_max})", bad == 0)

    bad = 0
    lifted = 0
    for t in _simple_trees(2, n_max):
        m = average_mixing_exact(t).matrix
        basis = kernel_exact(m)
        if not basis:
            continue
        big = average_mixing_exact(rooted_product_k2(t)).matrix
        n = t.n
        for v in basis:
            for vec in ([*v, *([Fraction(0)] * n)], [*([Fraction(0)] * n), *v]):
                lifted += 1
                if any(sum(big[i][j] * vec[j] for j in range(2 * n)) != 0 for i in range(2 * n)):
                    bad += 1
    r.check(f"kernel vectors lift to the pendant product ({lifted} lifts, n<={n_max})", bad == 0)


def non_tree_graphs() -> list[Graph]:
    """C5, C6, C8, K4, K5, two disjoint P3 and the empty graphs on 4 and 2
    vertices, the graphs besides trees that rank routes are checked on: the
    cycles and complete graphs take Faddeev-LeVerrier, the others are
    forests but not trees, and all have repeated eigenvalues."""
    cycles = [Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 6, 8)]
    complete = [Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]) for n in (4, 5)]
    two_p3 = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    return [*cycles, *complete, two_p3, Graph(4, ()), Graph(2, ())]


def certificate_mismatches(n_max: int) -> tuple[int, list[str]]:
    """(simple trees checked, graph6 of each one the batched mod-p
    certificate of `exact` gets wrong) over every simple tree of orders
    2..n_max, batched by 1, by 7 and by whole orders.  A certified rank must
    equal `walk_rank`'s, and a tree must be left uncertified exactly when
    that rank is below nu + k = ceil(n/2), so a certificate that never
    certifies fails too."""
    checked = 0
    bad: list[str] = []
    for n in range(2, n_max + 1):
        trees, counts = [], []
        for t in enumerate_trees(n):
            c = forest_matching_counts(t)
            if simple_from_matching_counts(n, c):
                trees.append(t)
                counts.append(c)
        checked += len(trees)
        want = [r if r == (n + 1) // 2 else None for r in map(walk_rank, trees, counts)]
        for size in (1, 7, len(trees) or 1):
            got = []
            for i in range(0, len(trees), size):
                got += _certified_walk_ranks(trees[i : i + size], counts[i : i + size])
            bad += [write_graph6(t) for t, g, w in zip(trees, got, want) if g != w]
    return checked, list(dict.fromkeys(bad))


def suite_coefficient(r: _Runner, n_max: int):
    bad = 0
    count = 0
    for t in _simple_trees(2, n_max):
        count += 1
        if rank_via_coefficient(t) != average_mixing_exact(t).rank:
            bad += 1
    r.check(f"coefficient rank equals exact rank on {count} simple trees (n<={n_max})", bad == 0)

    trees = [t for n in range(1, n_max + 1) for t in enumerate_trees(n)]
    graphs = trees + non_tree_graphs()
    bad = [write_graph6(g) for g in graphs if amm_rank(g) != average_mixing_exact(g).rank]
    r.check(f"amm_rank equals exact rank on every tree n<={n_max}, cycles, complete "
            f"and empty graphs ({len(graphs)} graphs)", not bad, " ".join([f"{len(bad)} bad", *bad[:3]]))

    # the integer route of every tree whose nonzero eigenvalues are simple
    bad_amm, bad_coeff = [], []
    covered = simple = 0
    for t in trees:
        counts = forest_matching_counts(t)
        if not nonzero_eigenvalues_simple(counts):
            continue
        covered += 1
        rank = walk_rank(t, counts)
        if rank != amm_rank(t):
            bad_amm.append(write_graph6(t))
        if t.n >= 2 and simple_from_matching_counts(t.n, counts):
            simple += 1
            if rank != rank_via_coefficient(t):
                bad_coeff.append(write_graph6(t))
    r.check(f"walk_rank equals amm_rank on the {covered} trees n<={n_max} whose nonzero "
            "eigenvalues are simple", not bad_amm, " ".join([f"{len(bad_amm)} bad", *bad_amm[:3]]))
    r.check(f"walk_rank equals coefficient rank on {simple} simple trees (n<={n_max})",
            not bad_coeff, " ".join([f"{len(bad_coeff)} bad", *bad_coeff[:3]]))

    checked, bad = certificate_mismatches(n_max)
    r.check(f"the mod-p walk-rank certificate, batched by 1, 7 and whole orders, certifies "
            f"exactly walk_rank's full ranks on {checked} simple trees (n<={n_max})",
            not bad, " ".join([f"{len(bad)} bad", *bad[:3]]))


def suite_rooted(r: _Runner, n_max: int):
    graphs = [t for n in range(1, n_max + 1) for t in enumerate_trees(n)] + non_tree_graphs()
    bad = [
        write_graph6(g) for g in graphs
        if amm_rooted_product_exact(g) != average_mixing_exact(rooted_product_k2(g)).matrix
    ]
    r.check(f"block formula equals direct computation on every tree n<={n_max}, cycles, "
            f"complete and empty graphs ({len(graphs)} graphs)", not bad,
            " ".join([f"{len(bad)} bad", *bad[:3]]))

    # each eigenvalue theta of X splits into the roots of t^2 - theta t - 1:
    # a squarefree product char poly means X o K2 is simple, as the family needs
    trees = list(_simple_trees(2, n_max))
    bad = [
        write_graph6(t) for t in trees
        if not is_squarefree(rooted_product_char_poly(char_poly(t), t.n))
    ]
    r.check(f"pendant product of every simple tree n<={n_max} is simple ({len(trees)} trees)",
            not bad, " ".join([f"{len(bad)} bad", *bad[:3]]))


def suite_lowerbound(r: _Runner, n_max: int):
    bad_cert = bad_rank = bad_aux = bad_cor = bad_leaf = 0
    count = 0
    cases = set()
    for t in _simple_trees(3, n_max):
        n = t.n
        try:
            u, v = leaf_next_to_degree_two(t)
            if t.degrees()[u] != 1 or t.degrees()[v] != 2:
                bad_leaf += 1
        except (ConsistencyError, DomainError):
            bad_leaf += 1
        if not (forest_has_perfect_matching(t) or near_perfect_vertex(t) is not None):
            bad_cor += 1
        if n < 4 or (n == 4 and sorted(t.degrees()) == [1, 1, 2, 2]):
            continue
        count += 1
        cert = lower_bound_certificate(t)
        cases.add(cert.case)
        if cert.det == 0 or cert.det != cert.closed_form_det:
            bad_cert += 1
        if average_mixing_exact(t).rank < 3:
            bad_rank += 1
        if cert.case == "C1":
            u, v, w = cert.vertices
            k = n // 2
            ell = t.degrees()[w]
            rest = forest_matching_counts(t.induced([x for x in range(n) if x not in (u, v)]))
            m_uv = rest[k - 1] if k - 1 < len(rest) else 0
            dv = forest_matching_counts(t.delete_vertex(v))
            m_v = dv[k - 1] if k - 1 < len(dv) else 0
            quv = forest_matching_counts(t.induced([x for x in range(n) if x not in (u, v, w)]))
            q = quv[k - 2] if k - 2 < len(quv) else 0
            if m_uv != 1 or m_v != 1 or (ell == 2 and q < 2):
                bad_aux += 1
    r.check(f"leaf next to a degree-two vertex exists, simple trees n<={n_max}", bad_leaf == 0)
    r.check("perfect or near-perfect matching exists for simple trees", bad_cor == 0)
    r.check(f"certificates valid on {count} simple trees (closed form, nonzero)", bad_cert == 0)
    r.check("certified trees have exact average mixing rank >= 3", bad_rank == 0)
    r.check("perfect-matching case auxiliary counts verified", bad_aux == 0)
    # all three cases occur from order 6 on
    r.check(f"certificate cases seen: {sorted(cases)}", n_max < 6 or cases == {"C1", "C2", "C3"})


def suite_float(r: _Runner, n_max: int):
    # exact matrices cost most of the suite past order 10
    n_exact = min(n_max, 10)
    worst = 0.0
    bad = 0
    for n in range(2, n_exact + 1):
        for t in enumerate_trees(n):
            res = average_mixing_exact(t)
            approx = average_mixing_float(t)
            gap = float(np.max(np.abs(approx - _float_of(res.matrix))))
            worst = max(worst, gap)
            if gap > 1e-9 or numeric_rank(approx) != res.rank:
                bad += 1
    r.check(f"float average mixing within 1e-9 of exact, same rank, trees n<={n_exact}", bad == 0, f"worst {worst:.1e}")

    bad = 0
    for n in range(2, n_max + 1):
        for t in enumerate_trees(n):
            clusters = spectral_decomp(t)
            eye = np.eye(t.n)
            ssum = sum(p for _, p in clusters)
            if float(np.max(np.abs(ssum - eye))) > 1e-9:
                bad += 1
            for i, (_, p) in enumerate(clusters):
                if float(np.max(np.abs(p @ p - p))) > 1e-9:
                    bad += 1
                for _, p2 in clusters[i + 1 :]:
                    if float(np.max(np.abs(p @ p2))) > 1e-9:
                        bad += 1
            simple_float = len(clusters) == t.n
            if simple_float != is_squarefree(char_poly(t)):
                bad += 1
    r.check(f"projector invariants and gap-based simplicity, trees n<={n_max}", bad == 0)

    rng = random.Random(99)
    bad = 0
    for _ in range(100):
        t = random_tree(rng.randint(2, 10), rng)
        tt = rng.uniform(0.0, 50.0)
        m = mixing_at_time(t, tt)
        if float(np.max(np.abs(m.sum(axis=0) - 1))) > 1e-9 or float(np.max(np.abs(m.sum(axis=1) - 1))) > 1e-9:
            bad += 1
    r.check("mixing matrices doubly stochastic on 100 random (tree, t)", bad == 0)

    worst = 0.0
    bad = 0
    for t in _simple_trees(2, n_exact):
        resd = verify_cvdv_identity(t)
        worst = max(worst, resd)
        if resd > 1e-7:
            bad += 1
    r.check(f"coefficient factorization residual < 1e-7, simple trees n<={n_exact}", bad == 0, f"worst {worst:.1e}")

    worst = 0.0
    bad = 0
    for n in range(2, min(n_max, 6) + 1):
        for t in enumerate_trees(n):
            me = _float_of(average_mixing_exact(t).matrix)
            errs = []
            for horizon in (1e2, 1e3, 1e4):
                ca = cesaro_average(t, horizon, int(20 * horizon))
                errs.append(float(np.max(np.abs(ca - me))))
            worst = max(worst, errs[-1])
            if not (errs[0] > errs[1] > errs[2]) or errs[2] >= 5e-3:
                bad += 1
    r.check("time averages approach the exact matrix, error < 5e-3 at horizon 1e4", bad == 0, f"worst {worst:.1e}")


def suite_stars(r: _Runner, n_max: int):
    from .reference_data import STAR_FORMULA_NOTE, printed_star_matrix, printed_star_trace

    r.out("comparison of exact star results against the published closed forms")
    r.out(f"note: {STAR_FORMULA_NOTE}")
    all_consistent = True
    for n in range(2, n_max + 1):
        res = average_mixing_exact(star(n + 1))
        tr = sum(res.matrix[i][i] for i in range(n + 1))
        printed_tr = printed_star_trace(n)
        printed_m = printed_star_matrix(n)
        full = res.rank == n + 1
        r.out(
            f"  leaves={n}: exact trace {tr} vs printed {printed_tr} "
            f"({'match' if tr == printed_tr else 'differ'}); exact rank {res.rank} "
            f"(printed claim: full={n + 1}, {'holds' if full else 'fails'}); "
            f"matrix {'matches' if res.matrix == printed_m else 'differs from'} printed form",
        )
        if sum(sum(row) for row in res.matrix) != n + 1:
            all_consistent = False
    r.check("exact star pipeline internally consistent (doubly stochastic)", all_consistent)


def suite_census_methods(r: _Runner, n_max: int):
    # the exact census is the slow one; it is compared up to order 8
    n_exact = min(n_max, 8)
    a = records_to_csv(census(2, n_exact, method="coeff-fast"))
    b = records_to_csv(census(2, n_exact, method="exact"))
    floats = census(2, n_max, method="float")
    c = records_to_csv([rec for rec in floats if rec.n <= n_exact])
    r.check(f"coeff-fast and exact censuses identical, n<={n_exact}", a == b)
    r.check(f"float census identical as well, n<={n_exact}", a == c)
    # equal cells give equal per-order totals, so this covers verify_totals
    r.check(f"float census matches the published tables, n<={n_max}", compare_tables(floats).ok)


SUITES = {
    "identities": (suite_identities, 10),
    "structural": (suite_structural, 8),
    "bipartite": (suite_bipartite, 12),
    "kernel": (suite_kernel, 8),
    "coefficient": (suite_coefficient, 10),
    "rooted": (suite_rooted, 10),
    "lowerbound": (suite_lowerbound, 12),
    "float": (suite_float, 12),
    "stars": (suite_stars, 11),
    "census-methods": (suite_census_methods, 12),
}


def run_suite(name: str, n_max: int | None = None, out=print) -> bool:
    """Run one named suite (or "all"); returns True when every check passed.

    n_max (default: each suite's own order) must be at least 2.  Under "all"
    each suite's lines follow a `== suite NAME (S.SS s)` header that is
    written once the suite is done, so it carries the suite's wall time.
    """
    if n_max is not None and n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if name == "all":
        ok = True
        for key in SUITES:
            lines = []
            start = time.perf_counter()
            ok = run_suite(key, n_max, lines.append) and ok
            out(f"== suite {key} ({time.perf_counter() - start:.2f} s)")
            for line in lines:
                out(line)
        return ok
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; know {sorted(SUITES)} and 'all'")
    fn, default_n = SUITES[name]
    runner = _Runner(out)
    fn(runner, n_max if n_max is not None else default_n)
    return runner.failures == 0
