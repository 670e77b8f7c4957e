import math
import random

import numpy as np
import pytest

from avgmix.enumeration import enumerate_trees, random_tree
from avgmix.errors import DomainError
from avgmix.exact import average_mixing_exact
from avgmix.graphs import Graph, path, star
from avgmix.numeric import (
    average_mixing_float,
    cesaro_average,
    eigh,
    float_matrix_csv,
    mixing_at_time,
    numeric_rank,
    spectral_decomp,
    transition_matrix,
    verify_cvdv_identity,
)


def _exact_float(g):
    return np.array([[float(c) for c in row] for row in average_mixing_exact(g).matrix])


def test_eigh_examples():
    w, _ = eigh([[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(w, [1.0, 2.0])
    w, _ = eigh(np.array(path(2).adjacency(), float))
    assert np.allclose(w, [-1.0, 1.0])
    w, v = eigh(np.array(star(4).adjacency(), float))
    assert np.allclose(w, [-math.sqrt(3), 0.0, 0.0, math.sqrt(3)], atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)


def test_eigh_rejects_unsymmetric():
    with pytest.raises(DomainError):
        eigh([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        eigh([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_eigh_against_random_symmetric():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        w, v = eigh(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) < 1e-10
        assert all(w[i] <= w[i + 1] + 1e-12 for i in range(n - 1))


def test_spectral_decomp_clusters():
    clusters = spectral_decomp(star(4))
    assert len(clusters) == 3
    zero_proj = clusters[1][1]
    assert abs(np.trace(zero_proj) - 2.0) < 1e-9
    total = sum(p for _, p in clusters)
    assert np.max(np.abs(total - np.eye(4))) < 1e-9
    for i, (_, p) in enumerate(clusters):
        assert np.max(np.abs(p @ p - p)) < 1e-9
        for _, q in clusters[i + 1 :]:
            assert np.max(np.abs(p @ q)) < 1e-9
    # a simple tree has n clusters
    assert len(spectral_decomp(path(4))) == 4


def test_transition_and_mixing():
    assert np.allclose(transition_matrix(path(3), 0.0), np.eye(3))
    assert np.allclose(mixing_at_time(path(3), 0.0), np.eye(3))
    # perfect state transfer across one edge at t = pi/2
    assert np.allclose(mixing_at_time(path(2), math.pi / 2), [[0, 1], [1, 0]], atol=1e-12)
    rng = random.Random(31)
    for _ in range(25):
        t = random_tree(rng.randint(2, 9), rng)
        m = mixing_at_time(t, rng.uniform(0, 20))
        assert np.max(np.abs(m.sum(axis=1) - 1)) < 1e-9
        assert np.max(np.abs(m.sum(axis=0) - 1)) < 1e-9


def test_cesaro_average():
    assert np.max(np.abs(cesaro_average(path(2), 1000.0, 100_000) - 0.5)) < 5e-3
    assert np.max(np.abs(cesaro_average(path(3), 1e-6, 4) - np.eye(3))) < 1e-5
    with pytest.raises(DomainError):
        cesaro_average(path(2), 0.0, 10)
    with pytest.raises(DomainError):
        cesaro_average(path(2), 1.0, 0)


def test_cesaro_improves_with_horizon():
    for t in enumerate_trees(5):
        me = _exact_float(t)
        errs = [
            float(np.max(np.abs(cesaro_average(t, horizon, int(20 * horizon)) - me)))
            for horizon in (1e2, 1e3, 1e4)
        ]
        assert errs[0] > errs[1] > errs[2]


def test_average_mixing_float_vs_exact():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            gap = np.max(np.abs(average_mixing_float(t) - _exact_float(t)))
            assert gap < 1e-9


def test_numeric_rank():
    assert numeric_rank(average_mixing_float(path(4))) == 2
    assert numeric_rank(average_mixing_float(star(6))) == 6
    assert numeric_rank(np.zeros((3, 3))) == 0
    for n in range(2, 11):
        for t in enumerate_trees(n):
            assert numeric_rank(average_mixing_float(t)) == average_mixing_exact(t).rank


def test_empty_graph_mixing_is_identity():
    g = Graph(4, ())
    assert np.allclose(average_mixing_float(g), np.eye(4))
    assert numeric_rank(average_mixing_float(g)) == 4


def test_cvdv_identity():
    assert verify_cvdv_identity(path(2)) < 1e-10
    assert verify_cvdv_identity(path(4)) < 1e-8
    with pytest.raises(DomainError):
        verify_cvdv_identity(star(4))
    for n in range(2, 9):
        for t in enumerate_trees(n):
            if average_mixing_exact(t).simple:
                assert verify_cvdv_identity(t) < 1e-7


def test_float_csv():
    text = float_matrix_csv(np.array([[0.5, 1 / 3], [1 / 3, 0.5]]))
    assert "0.33333333333333331" in text
    assert text.count("\n") == 2
