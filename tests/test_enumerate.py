import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import reference_orbit_representatives
from rck.canonical import canonical_form, refinement_classes
from rck.enumerate_graphs import _extend, _orbit_representatives, graphs_up_to
from rck.graph6 import parse_graph6, to_graph6
from rck.graphs import Graph, degree_stats, from_edges, twin_pairs

ROOT = Path(__file__).resolve().parents[1]
CORPUS8 = ROOT / "perfbench" / "data" / "graphs8.g6"
# Non-isomorphic simple graphs on n vertices (OEIS A000088).
KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def pin_cpus(monkeypatch, cpus):
    # graphs_up_to asks for every usable CPU, and ordered_map caps its pool
    # at them.
    monkeypatch.setattr("rck.parallel.usable_cpus", lambda: cpus)
    monkeypatch.setattr("rck.enumerate_graphs.usable_cpus", lambda: cpus)


@pytest.fixture
def pickling_pool(monkeypatch):
    """A stub executor that records the size of each pool asked for and maps
    inline, after a pickle round trip of the function, every job and every
    result, as a process pool makes.  Returns the recorded sizes."""
    sizes = []

    def round_trip(x):
        return pickle.loads(pickle.dumps(x))

    class Pickling:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, jobs, chunksize):
            fn = round_trip(fn)
            return [round_trip(fn(round_trip(job))) for job in jobs]

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pickling)
    return sizes


def test_counts_match_published_values_small():
    levels = graphs_up_to(6)
    for n in range(1, 7):
        assert len(levels[n]) == KNOWN_COUNTS[n]


@pytest.mark.parametrize("n", [0, 13])
def test_vertex_counts_outside_the_canonical_cap_are_refused(n):
    with pytest.raises(ValueError):
        graphs_up_to(n)


def test_level_lists_are_canonical_and_sorted():
    graphs = graphs_up_to(5)[5]
    forms = [canonical_form(g) for g in graphs]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(forms)


def test_gen_corpus_script_prints_one_level():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gen_corpus.py"), "5"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == KNOWN_COUNTS[5] == 34
    assert lines == [to_graph6(g) for g in graphs_up_to(5)[5]]


@pytest.mark.parametrize("n", ["0", "13"])
def test_gen_corpus_script_refuses_vertex_counts_outside_the_cap(n):
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gen_corpus.py"), n],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == f"error: vertex count {n} outside 1..12\n"


def test_gen_corpus_script_checks_its_output_before_enumerating(tmp_path):
    # Enumerating 12 vertices would take far longer than the timeout, so
    # the error must come before the enumeration starts.
    out = tmp_path / "missing" / "graphs.g6"
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gen_corpus.py"), "12", "--out", str(out)],
        capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith(f"error: cannot write {out}: ")
    assert run.stderr.count("\n") == 1
    assert not out.exists()


def test_corpus_counts_up_to_eight(corpus):
    for n in range(1, 9):
        assert len(corpus[n]) == KNOWN_COUNTS[n]


def test_levels_match_the_networkx_atlas(corpus):
    """An enumeration that shares no code with rck: the bundled graph atlas."""
    nx = pytest.importorskip("networkx")
    atlas = {n: [] for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes():
            atlas[h.number_of_nodes()].append(h)
    for n in range(1, 8):
        level = corpus[n]
        assert len(atlas[n]) == len(level)
        assert Counter(
            (h.number_of_edges(), tuple(sorted(d for _, d in h.degree()))) for h in atlas[n]
        ) == Counter((g.edge_count, tuple(sorted(degree_stats(g)[2]))) for g in level)
        forms = {canonical_form(g) for g in level}
        for h in atlas[n]:
            assert canonical_form(from_edges(n, h.edges())) in forms


def test_level_eight_is_the_committed_corpus(corpus):
    assert [to_graph6(g) for g in corpus[8]] == CORPUS8.read_text().split()


def test_orbit_pruning_loses_no_class(corpus):
    # Level 7 rebuilt from level 6 by every neighbourhood of the new
    # vertex, with no degree filter and no orbit pruning.
    reference = {
        canonical_form(Graph(7, tuple(
            [a | (mask >> v & 1) << 6 for v, a in enumerate(g.adj)] + [mask]
        )))
        for g in corpus[6]
        for mask in range(1 << 6)
    }
    assert [canonical_form(g) for g in corpus[7]] == sorted(reference)


def test_augmentation_canonicalises_only_minimum_degree_extensions(monkeypatch):
    # Up to n=7, extending by every mask would make 11,290 calls, every
    # mask that gives the new vertex minimum degree 3,131, one such mask
    # per orbit under the automorphisms the canonical search finds 1,639,
    # and only those orbit representatives whose new vertex lies in
    # refinement class 0 1,253.
    calls = 0

    def counting(g, *, classes=None):
        nonlocal calls
        calls += 1
        return canonical_form(g, classes=classes)

    monkeypatch.setattr("rck.enumerate_graphs.canonical_form", counting)
    # Pool workers would make the final level's calls out of the counter's
    # sight.
    pin_cpus(monkeypatch, 1)
    graphs_up_to(7)
    assert calls == 1253


def test_each_level_is_decoded_once(monkeypatch):
    # Levels 2..6 hold 2 + 4 + 11 + 34 + 156 = 207 graphs; level 1 is built
    # directly and no parent is decoded again before it is extended.
    calls = 0

    def counting(text):
        nonlocal calls
        calls += 1
        return parse_graph6(text)

    monkeypatch.setattr("rck.enumerate_graphs.parse_graph6", counting)
    graphs_up_to(6)
    assert calls == sum(KNOWN_COUNTS[n] for n in range(2, 7)) == 207


def test_only_the_seed_graph_is_validated(monkeypatch):
    # Children and decoded levels are valid by construction, so only the
    # one-vertex seed runs the public constructor's checks.
    calls = 0
    check = Graph._validate

    def counting(self):
        nonlocal calls
        calls += 1
        check(self)

    monkeypatch.setattr(Graph, "_validate", counting)
    levels = graphs_up_to(6)
    assert calls == 1
    assert [len(levels[n]) for n in range(1, 7)] == [KNOWN_COUNTS[n] for n in range(1, 7)]


def test_levels_do_not_depend_on_the_worker_count(monkeypatch):
    runs = {}
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        runs[cpus] = [graphs_up_to(n) for n in range(1, 9)]
    assert runs[1] == runs[2]


def test_only_the_final_level_asks_for_a_pool(monkeypatch, pickling_pool):
    # One pool per call, of min(CPUs, parents) processes, for the level
    # that carries no classes; the stub's pickling also shows that jobs and
    # results cross a process boundary intact.
    cpus = 4
    pin_cpus(monkeypatch, cpus)
    for n in range(1, 9):
        pickling_pool.clear()
        levels = graphs_up_to(n)
        assert [len(levels[m]) for m in range(1, n + 1)] == [KNOWN_COUNTS[m] for m in range(1, n + 1)]
        parents = KNOWN_COUNTS.get(n - 1, 0)
        assert pickling_pool == ([min(cpus, parents)] if parents >= 2 else [])


def test_pool_jobs_ship_no_graphs(monkeypatch, pickling_pool):
    # Unpickling a Graph validates it, so a job that shipped one would add
    # to the seed's one check.
    calls = 0
    check = Graph._validate

    def counting(self):
        nonlocal calls
        calls += 1
        check(self)

    monkeypatch.setattr(Graph, "_validate", counting)
    pin_cpus(monkeypatch, 2)
    graphs_up_to(6)
    assert pickling_pool == [2]
    assert calls == 1


def test_representatives_match_the_mask_scan_and_orbit_closure(corpus):
    # Twin-generated parents take the prefixes of their twin classes; the
    # others close orbits under the search's automorphisms.  Both must give
    # the reference's set on every parent of the levels up to 8.
    twin_generated = 0
    for n in range(1, 8):
        for g in corpus[n]:
            classes = refinement_classes(g)
            twin_generated += len(twin_pairs(g)) == n - 1 - max(classes)
            assert sorted(_orbit_representatives(g, classes)) == reference_orbit_representatives(g)
    assert twin_generated == 823


def test_carried_classes_are_the_refinement_of_each_decoded_graph():
    level, classes = [Graph(1, (0,))], [[0]]
    for _ in range(2, 9):
        level, classes = _extend(level, classes, carry=True)
        assert classes == [refinement_classes(g) for g in level]
    assert len(level) == KNOWN_COUNTS[8]


def test_early_class_zero_verdict_matches_the_full_refinement(corpus):
    # Every child graphs_up_to(8) builds: the new vertex is the last one.
    children = discarded = 0
    for n in range(1, 8):
        for g in corpus[n]:
            for mask in _orbit_representatives(g, refinement_classes(g)):
                adj = [a | (mask >> v & 1) << n for v, a in enumerate(g.adj)]
                child = Graph(n + 1, (*adj, mask))
                full = refinement_classes(child)
                early = refinement_classes(child, watch=n)
                assert early == (full if full[-1] == 0 else None)
                children += 1
                discarded += early is None
    assert (children, discarded) == (19911, 6287)
