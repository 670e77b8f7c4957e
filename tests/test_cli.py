import importlib
import os
import re
import subprocess
import sys

import pytest

import avgmix
import avgmix.matchings as matchings_module
import avgmix.numeric as numeric
import avgmix.polynomials as polynomials_module
import avgmix.rooted_family as rooted_family
import avgmix.verify as verify
from avgmix.cli import main
from avgmix.graph6 import write_graph6
from avgmix.graphs import path, star, write_edge_list


def test_rank_graph6_literal(capsys):
    assert main(["rank", write_graph6(path(4))]) == 0
    out = capsys.readouterr().out
    assert "rank=2" in out and "simple=true" in out


def test_rank_star_and_float_method(monkeypatch, capsys):
    g6 = write_graph6(star(6))
    assert main(["rank", g6]) == 0
    assert "rank=6" in capsys.readouterr().out
    assert main(["rank", g6, "--method", "float"]) == 0
    assert "rank=6" in capsys.readouterr().out
    decompose = numeric.spectral_decomp
    calls = []
    monkeypatch.setattr(numeric, "spectral_decomp", lambda g: calls.append(g) or decompose(g))
    assert main(["rank", g6, "--method", "float", "--matrix"]) == 0
    assert len(calls) == 1  # rank, simplicity and the matrix from one decomposition
    head, *rows = capsys.readouterr().out.splitlines()
    assert "rank=6" in head and len(rows) == 6
    exact = avgmix.average_mixing_exact(star(6)).matrix
    for row, want in zip(rows, exact):
        got = [float(x) for x in row.split(",")]
        assert len(got) == 6 and max(abs(g - w) for g, w in zip(got, want)) < 1e-9


def test_rank_matrix_dump(capsys):
    assert main(["rank", write_graph6(path(2)), "--matrix"]) == 0
    out = capsys.readouterr().out
    assert "1/2,1/2" in out


def test_matrix_json(capsys):
    assert main(["matrix", write_graph6(path(2)), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"num": 1' in out and '"den": 2' in out


def test_edge_list_file_input(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(write_edge_list(path(4)))
    assert main(["rank", str(f)]) == 0
    assert "rank=2" in capsys.readouterr().out


def test_graph6_file_input(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text(write_graph6(star(4)) + "\n")
    assert main(["rank", str(f)]) == 0
    assert "rank=4" in capsys.readouterr().out


def test_parse_error_exit_code(capsys):
    assert main(["rank", "A_%%"]) == 2
    assert "byte offset" in capsys.readouterr().err
    assert main(["rank", "A\u00e9"]) == 2
    assert "byte offset 1" in capsys.readouterr().err


def test_census_to_file_and_compare(tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert main(["census", "--n-max", "6", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("n,rank,trees,simple_trees")
    assert main(["compare", str(out)]) == 0
    rendered = capsys.readouterr().out
    assert "all cells match" in rendered
    assert "note:" in rendered


def test_census_usage_error(tmp_path, monkeypatch, capsys):
    assert main(["census", "--n-min", "1", "--n-max", "3"]) == 2
    assert main(["census", "--n-max", "3", "--chunk-size", "0"]) == 2
    assert "chunk_size" in capsys.readouterr().err
    for threads in ("0", "-1"):
        assert main(["census", "--n-max", "3", "--threads", threads]) == 2
        assert "threads" in capsys.readouterr().err
    assert main(["find-tstar", "--threads", "0"]) == 2
    for argv in (["family", "--threads", "2"], ["family", "--cache", "t.g6"], ["find-tstar", "--cache", "t.g6"]):
        with pytest.raises(SystemExit) as exc:  # the options are gone
            main(argv)
        assert exc.value.code == 2
    ck = tmp_path / "ck.json"
    ck.write_text('{"version": 1, "n_min": 2, "n_max": 3, "method": "coeff-fast", "chunk_size": 1024}')
    assert main(["census", "--n-max", "3", "--checkpoint", str(ck)]) == 2
    assert "ck.json" in capsys.readouterr().err
    for env in ("0", "abc"):
        monkeypatch.setenv("AMM_THREADS", env)
        assert main(["census", "--n-max", "3", "--threads", "4"]) == 2
        assert f"AMM_THREADS must be a positive integer, got '{env}'" in capsys.readouterr().err


def test_census_tree_count_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    census_module = importlib.import_module("avgmix.census")
    ck = str(tmp_path / "ck.json")

    class Stop(Exception):
        pass

    def stop(n, done):
        raise Stop

    with pytest.raises(Stop):  # one stored chunk of order 7 to resume from
        census_module.census(7, 7, chunk_size=4, checkpoint_path=ck, progress=stop)
    full = census_module.enumerate_trees

    def drop_last(n):
        yield from list(full(n))[:-1]

    monkeypatch.setattr(census_module, "enumerate_trees", drop_last)
    assert main(["census", "--n-max", "6"]) == 1
    assert "order 2: the census tallies 0 trees, Otter's formula counts 1" in capsys.readouterr().err
    resume = ["census", "--n-min", "7", "--n-max", "7", "--chunk-size", "4", "--checkpoint", ck]
    assert main(resume) == 1
    assert "order 7: the census tallies 10 trees" in capsys.readouterr().err


def test_verbose_census_survives_closed_stderr(tmp_path):
    # The reader of stderr is gone before the first progress line.  stderr
    # stays buffered, so a failed flush at exit would show as status 120.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(avgmix.__file__))
    args = [sys.executable, "-m", "avgmix.cli", "census", "--n-max", "9", "--chunk-size", "5"]
    quiet = tmp_path / "quiet.csv"
    loud = tmp_path / "loud.csv"
    assert subprocess.run([*args, "--out", str(quiet)], env=env).returncode == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([*args, "--out", str(loud), "--verbose"], env=env, stderr=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert loud.read_bytes() == quiet.read_bytes()


def test_family_negative_index_exits_2(tmp_path, monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("the t* search must not run")

    monkeypatch.setattr(rooted_family, "search_low_rank_simple_trees", no_search)
    monkeypatch.chdir(tmp_path)
    assert main(["family", "--iterations", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_broken_invariant_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(polynomials_module, "poly_gcd_int", lambda a, b: [1, 1])
    assert main(["rank", write_graph6(star(4))]) == 1
    assert "verification failure: gcd failed to divide" in capsys.readouterr().err


def test_broken_kernel_certificate_exits_1(tmp_path, monkeypatch, capsys):
    """A kernel vector that fails A x = 0 is a verification failure (exit 1)
    naming the tree, not a usage error (exit 2)."""
    monkeypatch.delenv("AMM_THREADS", raising=False)
    monkeypatch.setattr(matchings_module, "_in_kernel", lambda nbr, x: False)
    assert main(["census", "--n-max", "6", "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert "verification failure: leaf-matching kernel vector with A x != 0" in err
    assert f"certificates: {write_graph6(path(2))}" in err  # the first tree ranked
    assert not (tmp_path / "c.csv").exists()


def test_compare_detects_corruption(tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert main(["census", "--n-max", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[1] = "2,1,5,5"  # corrupt one cell
    out.write_text("\n".join(lines) + "\n")
    assert main(["compare", str(out)]) == 1
    assert "MISMATCH" in capsys.readouterr().out
    # a repeated last line would put a seventh tree in order 6 unseen
    assert main(["census", "--n-max", "6", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[-1] == "6,6,1,0"
    out.write_text(text + "6,6,1,0\n")
    assert main(["compare", str(out)]) == 2
    assert "repeats the cell n=6, rank=6" in capsys.readouterr().err
    # a malformed row is a usage error naming its line, never a MISMATCH
    for row, reason in (
        ("2,1,1,5", "more simple trees than trees"),
        ("2,1,x,1", "need four integer fields"),
        ("2,1,1", "need four integer fields"),
        ("2,1,-1,0", "negative field"),
    ):
        out.write_text(f"n,rank,trees,simple_trees\n{row}\n")
        assert main(["compare", str(out)]) == 2, row
        captured = capsys.readouterr()
        assert f"line 2 '{row}': {reason}" in captured.err and "MISMATCH" not in captured.out
    # with no order in the published tables nothing is compared: an error, never "all cells match"
    for rows, held in (("", "no records"), ("21,10,5,0\n", "no published row for orders 21")):
        out.write_text("n,rank,trees,simple_trees\n" + rows)
        assert main(["compare", str(out)]) == 2, rows
        captured = capsys.readouterr()
        assert f"error: nothing to compare: {held}; the published tables cover orders 2..20" in captured.err
        assert captured.out == ""
    # orders without a published row are named in a note, not dropped silently
    out.write_text("n,rank,trees,simple_trees\n2,1,1,1\n21,10,5,0\n22,3,1,1\n")
    assert main(["compare", str(out)]) == 0
    assert capsys.readouterr().out == (
        "compared orders: 2\nall cells match the published tables\n"
        "note: orders without a published row, not compared: 21,22\n"
    )


def test_verify_cli(monkeypatch, capsys):
    assert main(["verify", "--suite", "census-methods", "--n-max", "5"]) == 0
    assert re.fullmatch(r"PASS \(\d+\.\d\d s\)", capsys.readouterr().out.splitlines()[-1])
    for suite, n_max in (("structural", "0"), ("float", "-3"), ("all", "1")):
        assert main(["verify", "--suite", suite, "--n-max", n_max]) == 2
        assert "n_max must be at least 2" in capsys.readouterr().err
    # --n-max bounds the star comparison too
    assert main(["verify", "--suite", "stars", "--n-max", "3"]) == 0
    assert re.findall(r"leaves=(\d+)", capsys.readouterr().out) == ["2", "3"]

    def one_check(r, n_max):
        r.check(f"n_max={n_max}", True)

    # under "all", each suite's timed header precedes its lines
    monkeypatch.setattr(verify, "SUITES", {"a": (one_check, 3), "b": (one_check, 4)})
    assert main(["verify", "--suite", "all"]) == 0
    lines = [re.sub(r"\d+\.\d\d s", "T s", ln) for ln in capsys.readouterr().out.splitlines()]
    assert lines == ["== suite a (T s)", "ok   n_max=3", "== suite b (T s)", "ok   n_max=4", "PASS (T s)"]


def test_family_cli_with_cache(tmp_path, monkeypatch, capsys):
    """`family` starts from the built-in t*: no search runs and no file is
    written into the working directory."""

    def no_search(*args, **kwargs):
        raise AssertionError("the t* search must not run")

    monkeypatch.setattr(rooted_family, "search_low_rank_simple_trees", no_search)
    monkeypatch.chdir(tmp_path)
    assert main(["family", "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "i,n,rank,rank_bound,gap,gap_bound"
    assert "0,18,8,8,1,1" in out
    assert "1,36,16,16,2,2" in out
    assert os.listdir(tmp_path) == []


def test_family_vertex_cap(capsys):
    assert main(["family", "--iterations", "3", "--vertex-cap", "72"]) == 2
    assert "needs 144 vertices, above the cap 72" in capsys.readouterr().err


def test_find_tstar_failure_lists_candidates(tmp_path, monkeypatch, capsys):
    hits = [(8, path(18)), (7, star(18))]
    monkeypatch.setattr(rooted_family, "search_low_rank_simple_trees", lambda *a, **k: hits)
    monkeypatch.chdir(tmp_path)
    assert main(["find-tstar"]) == 1
    err = capsys.readouterr().err
    for rank, t in hits:
        assert f"({rank}, '{write_graph6(t)}')" in err
    assert os.listdir(tmp_path) == []


def test_threads_env_override(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["census", "--n-max", "7", "--out", str(out1)]) == 0
    monkeypatch.setenv("AMM_THREADS", "2")
    assert main(["census", "--n-max", "7", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
