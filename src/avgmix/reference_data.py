"""Published census data for trees on 2..20 vertices, embedded for comparison.

Each table row is (rank, number of trees, number of those with all
eigenvalues distinct).  Known inconsistencies of the published source are
annotated below so that comparison reports can distinguish a regression in
this package from an erratum in the reference data: one of its prose at
order 6, and six trees that its rows 19 and 20 rank one too low.
"""

from fractions import Fraction

REFERENCE_RANK_TABLE: dict[int, tuple[tuple[int, int, int], ...]] = {
    2: ((1, 1, 1),),
    3: ((2, 1, 1),),
    4: ((2, 1, 1), (4, 1, 0)),
    5: ((3, 2, 2), (5, 1, 0)),
    6: ((3, 3, 2), (5, 2, 0), (6, 1, 0)),
    7: ((4, 5, 5), (5, 1, 0), (6, 4, 0), (7, 1, 0)),
    8: ((4, 5, 4), (5, 4, 0), (6, 8, 0), (7, 4, 0), (8, 2, 0)),
    9: ((5, 19, 18), (6, 3, 0), (7, 15, 0), (8, 7, 0), (9, 3, 0)),
    10: ((4, 1, 0), (5, 14, 11), (6, 19, 0), (7, 30, 0), (8, 21, 0), (9, 16, 0), (10, 5, 0)),
    11: ((5, 1, 0), (6, 64, 62), (7, 18, 0), (8, 79, 0), (9, 40, 0), (10, 26, 0), (11, 7, 0)),
    12: (
        (5, 1, 0), (6, 44, 37), (7, 106, 0), (8, 129, 0), (9, 119, 0), (10, 93, 0),
        (11, 48, 0), (12, 11, 0),
    ),
    13: (
        (6, 2, 0), (7, 264, 250), (8, 107, 0), (9, 411, 0), (10, 223, 0), (11, 186, 0),
        (12, 87, 0), (13, 21, 0),
    ),
    14: (
        (6, 4, 0), (7, 146, 116), (8, 552, 0), (9, 591, 0), (10, 694, 0), (11, 622, 0),
        (12, 341, 0), (13, 172, 0), (14, 37, 0),
    ),
    15: (
        (7, 4, 0), (8, 1117, 1041), (9, 663, 0), (10, 2173, 0), (11, 1365, 0),
        (12, 1328, 0), (13, 719, 0), (14, 309, 0), (15, 63, 0),
    ),
    16: (
        (7, 7, 0), (8, 543, 465), (9, 2926, 0), (10, 2834, 0), (11, 4265, 0),
        (12, 3881, 0), (13, 2650, 0), (14, 1494, 0), (15, 600, 0), (16, 120, 0),
    ),
    17: (
        (8, 11, 0), (9, 4889, 4452), (10, 4325, 0), (11, 11653, 0), (12, 8340, 0),
        (13, 9347, 0), (14, 5724, 0), (15, 3002, 0), (16, 1146, 0), (17, 192, 0),
    ),
    18: (
        (7, 2, 0), (8, 25, 1), (9, 2108, 1727), (10, 15306, 0), (11, 14829, 0),
        (12, 26545, 0), (13, 24194, 0), (14, 19249, 0), (15, 12980, 0), (16, 6019, 0),
        (17, 2242, 0), (18, 368, 0),
    ),
    19: (
        (8, 2, 0), (9, 25, 0), (10, 22159, 19884), (11, 26204, 0), (12, 64701, 0),
        (13, 53492, 0), (14, 63220, 0), (15, 43183, 0), (16, 27389, 0), (17, 12603, 0),
        (18, 4259, 0), (19, 718, 0),
    ),
    20: (
        (8, 5, 0), (9, 43, 0), (10, 8641, 7055), (11, 81498, 0), (12, 79080, 0),
        (13, 165082, 0), (14, 153019, 0), (15, 139556, 0), (16, 102182, 0),
        (17, 58113, 0), (18, 26098, 0), (19, 8405, 0), (20, 1343, 0),
    ),
}

REFERENCE_MIN_RANK: dict[int, int] = {
    2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4, 9: 5, 10: 4, 11: 5, 12: 5, 13: 6,
    14: 6, 15: 7, 16: 7, 17: 8, 18: 7, 19: 8, 20: 8,
}

# The trees on which the published rows 19 and 20 differ from the exact
# census: (n, graph6, exact rank, smallest nonzero over largest eigenvalue
# of the float average mixing matrix).  A float rank that counts the
# eigenvalues above a relative cutoff of 6e-7 gives each of them one rank
# less, and a float census at such a cutoff (any in [5e-7, 7e-7]) reproduces
# the published rows 18-20 cell for cell; at 1e-8 it reproduces the exact ones.
FLOAT_CUTOFF_WITNESSES: tuple[tuple[int, str, int, float], ...] = (
    (19, "RhHAAA??G?_C?@?GO???@??I??C???", 13, 2.19e-7),
    (20, "ShCGO__GC??@?A_???G?A_?A??C??C???", 16, 3.64e-7),
    (20, "ShCH@A?_C??@?@?@?@??@??G?G??O??O?", 17, 3.32e-7),
    (20, "ShC`@A??G@O??@?@O???@_????K??C???", 15, 3.75e-7),
    (20, "ShG`@A??G?_A?C?G??G?A_????G??S???", 19, 4.60e-7),
    (20, "ShH?GI?_C??@?@??_?_?G?@??C??G??G?", 19, 2.66e-7),
)


def _float_cutoff_note(n: int) -> str:
    trees = "; ".join(
        f"{g6} (exact rank {rank}, eigenvalue ratio {ratio:.2e})"
        for m, g6, rank, ratio in FLOAT_CUTOFF_WITNESSES
        if m == n
    )
    return (
        f"the published row {n} matches a float census whose relative eigenvalue cutoff "
        "lies in [5e-7, 7e-7]: each tree below has smallest nonzero over largest "
        "eigenvalue of its average mixing matrix under that cutoff, so the table "
        "counts it one rank below its exact rank, which both exact routes and a "
        f"float rank at 1e-8 give: {trees}"
    )


# Known internal inconsistencies of the published source, keyed by the
# census order they affect.  The exact pipeline is authoritative; these
# notes let a comparison distinguish "our bug" from "known erratum".
KNOWN_DISCREPANCY_NOTES: dict[int, str] = {
    6: (
        "published prose describes the six trees on 6 vertices as three of rank 3 "
        "(all with simple eigenvalues), two of rank 4 and one of rank 6, while the "
        "published table lists ranks 3/5/6 with simple counts 2/0/0; the exact "
        "pipeline confirms the table (ranks 3,3,3,5,5,6; two simple, both rank 3)"
    ),
    19: _float_cutoff_note(19),
    20: _float_cutoff_note(20),
}

STAR_FORMULA_NOTE = (
    "the published closed forms for the star's average mixing matrix (idempotent "
    "prefactor n/(2n-1), zero-eigenvalue projector (I-R)/2, trace "
    "(2n^2+5n/2)/(2n-1)^2 resp. (2n^2+3n)/(2n-1)^2, full rank for all n) are "
    "mutually inconsistent and are compared against, never asserted; the full-rank "
    "claim itself fails at n=2, where the three-vertex star has rank 2"
)


def printed_star_trace(n: int) -> Fraction:
    """The published piecewise trace formula for the star with n leaves."""
    if n % 2 == 0:
        return Fraction(4 * n * n + 5 * n, 2 * (2 * n - 1) ** 2)
    return Fraction(2 * n * n + 3 * n, (2 * n - 1) ** 2)


def printed_star_matrix(n: int) -> list[list[Fraction]]:
    """The published closed form (2/(2n-1)^2) [[n^2, n 1^T], [n 1, J + I/4 + R/4]].

    Vertex 0 is the center; R reverses the leaf block.
    """
    scale = Fraction(2, (2 * n - 1) ** 2)
    size = n + 1
    out = [[Fraction(0)] * size for _ in range(size)]
    out[0][0] = scale * n * n
    for i in range(1, size):
        out[0][i] = scale * n
        out[i][0] = scale * n
        for j in range(1, size):
            val = Fraction(1)
            if i == j:
                val += Fraction(1, 4)
            if i + j == size:  # back diagonal of the leaf block
                val += Fraction(1, 4)
            out[i][j] = scale * val
    return out
