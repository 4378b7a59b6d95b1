"""Linsets, auxiliary cones, and the refinement loop invariants."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from theta_refine import geometry, ksets, minima, refinement
from theta_refine.cli import format_table
from theta_refine.geometry import Cone, product3
from theta_refine.fixtures import T0_A, T1_A, T2_A, T3_A
from theta_refine.quadform import coeff_row
from theta_refine.refinement import (
    CoveringParameter,
    RefinementPair,
    aux_cones,
    initial_pair,
    linset,
    refine_pair,
    run_algorithm,
    stop_set,
)

from oracles import check_y_projection_argument, live_classes, naive_log

TARGET_POINT = (1, 1, 1, 4, 4, 4, 1, 3, 0)


def test_linset_values():
    assert linset(1, 2) == ((1, 1, 1), (3, 0, 1), (0, 3, 2))
    assert linset(1, 1) == ((1, 1, 1), (2, 0, 1), (0, 2, 1))
    assert linset(1, 0) == ((1, 0, 1), (0, 1, 0))
    assert linset(0, 1) == ((1, 0, 0), (0, 1, 1))
    assert linset(2, 4) == ((1, 1, 1), (3, 0, 1), (0, 3, 2))
    with pytest.raises(ValueError):
        linset(0, 0)


def test_stop_set_rows():
    diag = stop_set("diagonal")
    assert len(diag) == 6
    qq = stop_set("q1_eq_q3")
    assert len(qq) == 3
    with pytest.raises(ValueError):
        stop_set("nope")
    # the diagonal kills only triples with equal blocks
    assert not initial_pair().cone.is_subset_of(diag)
    assert not initial_pair().cone.is_subset_of(qq)
    assert all(sum(r * x for r, x in zip(row, (1, 1, 1, 1, 1, 1, 1, 1, 1))) == 0 for row in diag)
    assert any(sum(r * x for r, x in zip(row, (1, 1, 1, 2, 2, 2, 1, 1, 1))) != 0 for row in diag)


def test_initial_pair():
    start = initial_pair()
    assert start.cone.dim == 9
    assert len(start.cone.edges()) == 9
    assert start.param == CoveringParameter()


def test_aux_cones_empty_link_sides():
    # with a zero column in the shape, the link involving that factor vanishes
    _, q = aux_cones(CoveringParameter(), ((1, 0),), (), (), (1, 0, 1))
    assert q.closed == ()
    _, q2 = aux_cones(CoveringParameter(), ((1, 0),), (), ((1, 0),), (1, 0, 1))
    assert len(q2.closed) == 2


def test_first_generation_children():
    for a, b in ((1, 2), (1, 1)):
        children = refine_pair(initial_pair(), linset(a, b))
        assert len(children) == 3
        assert all(len(c.param.x_sets) == 1 for c in children)


def test_nesting_through_iteration_six(run_12):
    parents_by_param = {}
    for i, gen in enumerate(run_12.generations[: 7]):
        for pair in gen:
            if i:
                parent_key = (
                    pair.param.x_sets[:-1],
                    pair.param.y_sets[:-1],
                    pair.param.z_sets[:-1],
                )
                parent = parents_by_param[parent_key]
                for ray in pair.cone.edges():
                    assert parent.cone.closed_contains(ray)
            parents_by_param[
                (pair.param.x_sets, pair.param.y_sets, pair.param.z_sets)
            ] = pair


def test_target_point_covered_every_iteration(run_12):
    for i, gen in enumerate(run_12.generations):
        assert any(
            p.cone.member_contains(TARGET_POINT) for p in gen
        ), f"target point lost at iteration {i}"


def test_admissibility_by_construction(run_12):
    shapes = linset(1, 2)
    for gen in run_12.generations[1:5]:
        for pair in gen:
            sizes = tuple(
                (len(x), len(y), len(z))
                for x, y, z in zip(
                    pair.param.x_sets, pair.param.y_sets, pair.param.z_sets
                )
            )
            assert all(s in shapes for s in sizes)


def test_every_surviving_cone_ends_in_diagonal(run_11):
    # the (1, 1) run closes out because generation 5 holds only empty cones
    # and cones inside the diagonal
    diag = stop_set("diagonal")
    for pair in run_11.generations[5]:
        assert pair.cone.is_member_empty() or pair.cone.is_subset_of(diag)
    assert run_11.generations[6] == []
    # The run meets no empty chain, yet every pair whose cone has no extreme
    # ray holds the run's one empty cone, interned when its table was made.
    rayless = [p for gen in run_11.generations for p in gen if not p.cone.edges()]
    assert len(rayless) == 46
    assert all(p.cone is refinement._EMPTY_CONE for p in rayless)
    assert sum(rec.counted for rec in run_11.log) == 0


def test_run_validation():
    with pytest.raises(ValueError):
        run_algorithm(0, 0)
    with pytest.raises(ValueError, match="max_iter"):
        run_algorithm(1, 1, "diagonal", -1)
    with pytest.warns(UserWarning):
        run_algorithm(2, 2, "diagonal", 1)
    for threads in (0, 2):
        with pytest.raises(ValueError, match="threads"):
            run_algorithm(1, 1, "diagonal", 13, threads=threads)


# The 62 coprime pairs a < b with 4 <= a + b <= 20; each runs in both orders.
SWEEP_PAIRS = [
    (a, s - a) for s in range(4, 21) for a in range(1, s) if a < s - a and gcd(a, s) == 1
]
# Every coprime (a, b) with a + b <= 20, (1, 0) and (0, 1) among them.
COPRIME_TO_20 = [(a, s - a) for s in range(1, 21) for a in range(s + 1) if gcd(a, s) == 1]


@pytest.mark.parametrize("a, b", SWEEP_PAIRS)
def test_no_further_relations_sweep(a, b):
    # The a + b >= 4 claim beyond its worked example (3, 1): every coprime
    # run ends after 4 refinements along the short chain T0 -> T1 -> T2 -> T3
    # (one live pair per generation, the last absorbed by the diagonal), and
    # swapping a and b keeps the table.
    expected = [Cone(9, rows) for rows in (T0_A, T1_A, T2_A, T3_A)]
    forward = run_algorithm(a, b, "diagonal", 13)
    backward = run_algorithm(b, a, "diagonal", 13)
    for res in (forward, backward):
        assert len(res.log) == 5 and res.totals()[-1] == 0
        assert res.non_empty_counts() == [1, 1, 1, 0, 0]
        assert [rec.stop_absorbed for rec in res.log] == [0, 0, 0, 1, 0]
        for gen, want in zip(res.generations, expected):
            (pair,) = [p for p in gen if not p.cone.is_member_empty()]
            assert geometry.cones_closed_equal(pair.cone, want)
    assert forward.totals() == backward.totals()


def test_y_projection_negative_control():
    cone = initial_pair().cone
    no_y = CoveringParameter((((1, 0),),), ((),), (((1, 0),),))
    synthetic = RefinementPair(cone, no_y, no_y.chains())
    assert not check_y_projection_argument([synthetic])
    y = CoveringParameter(((),), (((1, 0),),), ((),))
    with_y = RefinementPair(cone, y, y.chains())
    assert check_y_projection_argument([with_y])


def test_table_formatting(run_11):
    text = format_table(run_11)
    lines = text.splitlines()
    assert lines[0].startswith("iteration")
    assert "58" in lines[1] and "16" in lines[2]
    assert "seconds" in format_table(run_11, verbose=True)


def _live_pairs(result, i):
    """The pairs of generation ``i`` whose cone the run's table calls live."""
    table = result.table
    return [p for p in result.generations[i] if table.verdict(p.cone) == refinement._LIVE]


def test_iteration_log_consistency(run_11):
    # produced pairs at i+1 all descend from pairs counted non-empty at i
    classes = live_classes(run_11)
    for i in range(len(run_11.log) - 1):
        rec = run_11.log[i]
        assert rec.total == len(run_11.generations[i])
        assert rec.non_empty + rec.stop_absorbed <= rec.total
        live = _live_pairs(run_11, i)
        assert len(live) == rec.non_empty
        assert sum(classes[i].values()) == rec.non_empty
        children = run_11.generations[i + 1]
        parents = {(p.param.x_sets, p.param.y_sets, p.param.z_sets) for p in live}
        for child in children:
            key = (
                child.param.x_sets[:-1],
                child.param.y_sets[:-1],
                child.param.z_sets[:-1],
            )
            assert key in parents


def test_seconds_cover_classification(monkeypatch):
    # A fake clock that advances one tick per emptiness test.  Each distinct
    # member set is classified once, when the first pair holding its cone is
    # recorded, so record i counts one tick per cone first seen in
    # generation i.  Every child of an empty chain holds the run's one empty
    # cone, whose verdict the table holds from the start: it costs no tick.
    # The run starts from cold memos, so no verdict comes from an earlier run.
    refinement.clear_caches()
    ticks = [0]
    is_member_empty = Cone.is_member_empty

    def counting(self):
        ticks[0] += 1
        return is_member_empty(self)

    monkeypatch.setattr(refinement.time, "perf_counter", lambda: ticks[0])
    monkeypatch.setattr(Cone, "is_member_empty", counting)
    result = run_algorithm(3, 1, "diagonal", 13)
    totals = result.totals()
    assert totals == [1, 3, 3, 5, 0]
    seen = set()
    first_seen = []
    for gen in result.generations:
        new = {id(p.cone) for p in gen} - seen
        seen |= new
        first_seen.append(len(new - {id(refinement._EMPTY_CONE)}))
    assert first_seen == [1, 1, 1, 1, 0]
    assert [rec.seconds for rec in result.log] == first_seen


def _count_dd_by_dim(monkeypatch):
    """Cold memos, then a counter of ``_extreme_rays`` calls per dimension.

    From cold memos every cone's rays come from a DD of the run itself, so
    the counts do not depend on what ran before.  The initial cone and the empty cone are process
    constants described at import, so a run counts no DD for either.
    """
    refinement.clear_caches()
    dd = {3: 0, 9: 0}
    extreme_rays = geometry._extreme_rays

    def counting_dd(rows, dim, *rest):
        dd[dim] += 1
        return extreme_rays(rows, dim, *rest)

    monkeypatch.setattr(geometry, "_extreme_rays", counting_dd)
    return dd


def _class_loop_run(a, b, stop_kind, max_iter):
    """The class loop over every shape in the process's table for
    ``stop_kind``, to ``max_iter`` or an empty generation, as
    ``run_algorithm`` steps a run that does not factor: the reference for
    the runs that do."""
    table = refinement._table(stop_set(stop_kind))
    log = []
    for record in refinement._class_loop(linset(a, b), table):
        log.append(record)
        if record.total == 0 or record.index == max_iter:
            return refinement.RunResult(a, b, stop_kind, log, table)


def test_descriptions_do_not_depend_on_process_history():
    # The reduction domain's rays, cached by whatever ran earlier in the
    # process, must not reach the run: every cone's rays and tight-row masks
    # come from its own DD over its rows.
    from test_geometry import assert_exact_description

    ksets.V_CONE.edges()
    result = run_algorithm(1, 2, "diagonal", 14)
    cones = {id(p.cone): p.cone for gen in result.generations for p in gen}
    for cone in cones.values():
        assert_exact_description(cone)


def test_constant_cones_cost_a_run_no_dd(monkeypatch):
    # The initial cone and the empty cone are process constants, described
    # at import by their own DDs.  Every run shares them, so no nine-
    # dimensional DD of a run starts from scratch, and a run from cold memos
    # counts the same DDs whether or not the same run came before it.
    # A new table interns both as their own representatives and holds the
    # empty cone's verdict, the one either stop set would compute.  The
    # (1, 2)/14 run makes {3: 103, 9: 22} DDs, not {3: 224, 9: 92}: the
    # signs at a one-ray cone decide 70 of its 92 constructions and, with
    # the sub-choice lemma, 121 of its 224 chains with no DD.
    from test_geometry import assert_exact_description

    counts = []
    unseeded = []
    extreme_rays = geometry._extreme_rays

    def counting_dd(rows, dim, seed=None, seed_count=0):
        counts[-1][dim] += 1
        if dim == 9 and seed is None:
            unseeded.append(rows)
        return extreme_rays(rows, dim, seed, seed_count)

    monkeypatch.setattr(geometry, "_extreme_rays", counting_dd)
    for _ in range(2):
        refinement.clear_caches()
        counts.append({3: 0, 9: 0})
        result = run_algorithm(1, 2, "diagonal", 14)
        assert result.generations[0][0].cone is refinement._INITIAL_CONE
        assert result.table.verdicts[refinement._EMPTY_CONE] == refinement._EMPTY
    assert unseeded == []
    assert counts[0] == counts[1] == {3: 103, 9: 22}
    assert initial_pair().cone is initial_pair().cone
    assert_exact_description(refinement._INITIAL_CONE)
    assert_exact_description(refinement._EMPTY_CONE)
    table = refinement.RunTable(())
    for cone in (refinement._INITIAL_CONE, refinement._EMPTY_CONE):
        assert table.intern(Cone(9, cone.closed, cone.strict)) is cone
    assert table.verdicts == {refinement._EMPTY_CONE: refinement._EMPTY}
    for kind in refinement.STOP_SET_KINDS:
        table = refinement.RunTable(stop_set(kind))
        table.verdicts.clear()
        assert table.verdict(refinement._EMPTY_CONE) == refinement._EMPTY


def test_work_counters_on_reference_run(monkeypatch):
    # Exact work on the (1, 2) diagonal run from cold memos: one chain made
    # per distinct sequence of non-empty sets, one three-dimensional DD per
    # chain whose cone the run needs (one chain is never asked whether it is
    # empty), 103, one nine-dimensional DD per distinct construction
    # (parent, chain geometries, shape and link vectors) from chains that
    # are not empty, 22, none for the initial cone or the run's empty cone
    # (both were described at import), and one emptiness test per distinct
    # member set other than the empty cone's, whose verdict the table holds
    # from the start: 17 for the 676 pairs produced.  A chain that an empty
    # sub-choice or the signs at its prefix cone's one ray show empty needs
    # no cone (121 of the 224 the run asks), and a construction whose parent
    # has one ray is that parent or the empty cone, read from the signs at
    # the ray with no DD (70 of 92).
    builds = [0]
    empties = [0]
    chain_init = ksets.Chain.__init__
    is_member_empty = Cone.is_member_empty

    def counting_chain(self, key):
        builds[0] += 1
        chain_init(self, key)

    def counting_empty(self):
        empties[0] += 1
        return is_member_empty(self)

    dd = _count_dd_by_dim(monkeypatch)
    monkeypatch.setattr(ksets.Chain, "__init__", counting_chain)
    monkeypatch.setattr(Cone, "is_member_empty", counting_empty)
    result = run_algorithm(1, 2, "diagonal", 14)
    assert builds[0] == 225
    assert dd == {3: 103, 9: 22}
    assert empties[0] == 17
    assert sum(result.totals()) == 676


def test_chain_geometry_collapses_constructions(monkeypatch):
    # On the (19, 1) diagonal run every child of the shapes (20, 0, 19) and
    # (0, 20, 1) is counted by the 4-choice rule, so of its 8 922 children
    # only the 3 of (1, 1, 1) are constructions.  Each is built once,
    # entering the table's children, with one nine-dimensional DD, the
    # run's only ones: the initial cone and the empty cone were described at
    # import.  The run makes 8 chains, not the 326 chain sequences of its
    # pairs; 6 get a cone and its three-dimensional DD, and the certificate
    # on the key shows the other 2 empty.  The chains and the diagonal table are shared
    # by the whole process: after (1, 2)/14 and (2, 1)/13 have made the same
    # constructions, the run makes none and pays no nine-dimensional DD.
    dd = _count_dd_by_dim(monkeypatch)
    result = run_algorithm(19, 1, "diagonal", 13)
    assert result.totals() == [1, 2010, 2851, 4061, 0]
    assert len(result.table._children) == 3
    assert dd == {3: 6, 9: 3}

    refinement.clear_caches()
    run_algorithm(1, 2, "diagonal", 14)
    run_algorithm(2, 1, "diagonal", 13)
    children = refinement._tables[stop_set("diagonal")]._children
    before = len(children)
    dd[9] = 0
    result = run_algorithm(19, 1, "diagonal", 13)
    assert result.totals() == [1, 2010, 2851, 4061, 0]
    assert len(children) - before == 0
    assert dd[9] == 0


def test_dead_blocks_build_no_chain(monkeypatch):
    # The 38 coprime runs with 4 <= a + b <= 11 from cold memos in one
    # process: every child of a shape that asks a block for a + b vectors is
    # counted by the 4-choice rule, so the runs make 8 chains, 6 three-
    # dimensional DDs and 3 nine-dimensional ones; counting them from empty
    # chains made 105 chains and 20 three-dimensional DDs.
    builds = [0]
    chain_init = ksets.Chain.__init__

    def counting_chain(self, key):
        builds[0] += 1
        chain_init(self, key)

    dd = _count_dd_by_dim(monkeypatch)
    monkeypatch.setattr(ksets.Chain, "__init__", counting_chain)
    pairs = [(a, s - a) for s in range(4, 12) for a in range(1, s) if gcd(a, s) == 1]
    assert len(pairs) == 38
    for a, b in pairs:
        assert run_algorithm(a, b, "diagonal", 13).non_empty_counts() == [1, 1, 1, 0, 0]
    assert (dd, builds[0]) == ({3: 6, 9: 3}, 8)


@pytest.mark.parametrize(
    "a, b, stop_kind, max_iter, rows",
    [(1, 0, "q1_eq_q3", 13, {3: 3, 9: 6}), (1, 2, "diagonal", 14, {3: 199, 9: 85})],
)
def test_dd_rows_inserted_per_dimension(a, b, stop_kind, max_iter, rows, monkeypatch):
    # Rows inserted by every DD of a run from cold memos.  A chain cone's DD
    # resumes from its prefix's rays and inserts only the rows its last set
    # adds, and a child's DD resumes from its parent's rays.  The initial
    # cone's 9 rows and the empty cone's 10 were inserted at import.  The
    # (1, 0) run factors: its only nine-dimensional DDs are the three of its
    # (1, 0, 1) process, 6 rows, where the class loop over both shapes
    # inserts 972 rows in 590 children.  On (1, 2) the chains and children
    # decided from the signs at a one-ray cone, or by an empty sub-choice,
    # insert no row: {3: 199, 9: 85}, not {3: 745, 9: 832}.  The free walk
    # of (1, 0) clips its states' ray cycles with no DD, so its three-dim
    # DDs are the root chain cone's, 3 rows, and those of the 3 chain cones
    # of its (1, 0, 1) process, which add no new row: {3: 3}, where cutting
    # the walked states by DD inserted {3: 573}.
    refinement.clear_caches()
    inserted = {3: 0, 9: 0}
    extreme_rays = geometry._extreme_rays

    def counting_dd(rows, dim, seed_rays=None, seed_count=0, *rest):
        inserted[dim] += len(rows) - (seed_count if seed_rays is not None else 0)
        return extreme_rays(rows, dim, seed_rays, seed_count, *rest)

    monkeypatch.setattr(geometry, "_extreme_rays", counting_dd)
    run_algorithm(a, b, stop_kind, max_iter)
    assert inserted == rows


def test_chain_cones_match_independent_builders():
    # Every chain of the reference runs and of the a + b <= 20 sweep in both
    # orders, (19, 1) among them, from cold memos: the cone built from the prefix's cone has the
    # member set of ``kset`` built from scratch, and a key whose certificate
    # fires passes the independent zero test.  The runs count the children
    # of dead blocks without making their chains; the replays list them.
    refinement.clear_caches()
    for args in ((1, 0, "q1_eq_q3", 13), (1, 1, "diagonal", 13), (1, 2, "diagonal", 14)):
        run_algorithm(*args).generations
    for a, b in SWEEP_PAIRS:
        run_algorithm(a, b, "diagonal", 13).generations
        run_algorithm(b, a, "diagonal", 13).generations
    chains = list(ksets._chains.values())
    certified = [
        c for c in chains if any(len(s) >= 4 and ksets._collapses(s) for s in c.key)
    ]
    assert (len(chains), len(certified)) == (1481, 885)
    for c in chains:
        assert geometry.cones_equivalent(c.cone, ksets.kset(c.key)), c.key
    for c in certified:
        assert ksets.kset_zero_test(c.key), c.key


def test_warm_run_keeps_member_sets_and_cleared_run_dumps_cold_rows():
    # Runs under one stop set intern into one table per process, so after
    # (1, 1)/13 the (1, 2)/14 run gives its cold log, and every pair its
    # cold rays, strict rows and covering parameter, but a cone may keep the
    # rows of the (1, 1) construction with its member set: 33 of the 676
    # pairs do.  A run under the other stop set fills the other table and
    # changes no row.  After ``clear_caches`` the run gives the cold rows
    # again.
    def snapshot():
        result = run_algorithm(1, 2, "diagonal", 14)
        pairs = [
            (p.cone.closed, p.cone.strict, p.cone.edges(), p.param)
            for gen in result.generations
            for p in gen
        ]
        return [rec[:-1] for rec in result.log], pairs

    refinement.clear_caches()
    cold_log, cold = snapshot()
    refinement.clear_caches()
    run_algorithm(1, 0, "q1_eq_q3", 8)
    assert snapshot() == (cold_log, cold)
    refinement.clear_caches()
    run_algorithm(1, 1, "diagonal", 13)
    warm_log, warm = snapshot()
    assert warm_log == cold_log
    assert len(warm) == len(cold) == 676
    assert [pair[1:] for pair in warm] == [pair[1:] for pair in cold]
    assert sum(w[0] != c[0] for w, c in zip(warm, cold)) == 33
    refinement.clear_caches()
    assert snapshot() == (cold_log, cold)


def test_verdict_memo_is_per_stop_set():
    # A cone can be absorbed under q1_eq_q3 and live under the diagonal, so
    # each stop set has its own table and verdicts: in either order in one
    # process, each run's log, stop_absorbed included, equals its log from
    # cold memos, and some member set has a different verdict in each.
    def log(stop_kind):
        return [rec[:-1] for rec in run_algorithm(1, 0, stop_kind, 13).log]

    cold = {}
    for kind in ("q1_eq_q3", "diagonal"):
        refinement.clear_caches()
        cold[kind] = log(kind)
    for order in (("q1_eq_q3", "diagonal"), ("diagonal", "q1_eq_q3")):
        refinement.clear_caches()
        for kind in order:
            assert log(kind) == cold[kind], (order, kind)
    # Each table holds its own cones, so verdicts are compared by member set.
    tables = [refinement._tables[stop_set(kind)] for kind in ("q1_eq_q3", "diagonal")]
    known = [
        {(c.dim, c.edges(), frozenset(c.strict)): v for c, v in table.verdicts.items()}
        for table in tables
    ]
    assert any(known[0][key] != known[1][key] for key in known[0].keys() & known[1].keys())


def test_repeated_run_does_no_geometry_and_replay_needs_no_memo(monkeypatch):
    # A second (1, 2)/14 in the process finds every construction and verdict
    # in the diagonal table: it runs no DD, no row merge (``Cone._cut``,
    # which builds every construction and chain cone) and no emptiness test,
    # and gives the first run's log and dump.  A replay reads only its own
    # run's chains and the table the run used, so it runs no DD after the
    # process memos are cleared.
    def snapshot(result):
        return [
            (p.cone.closed, p.cone.strict, p.cone.edges(), p.param)
            for gen in result.generations
            for p in gen
        ]

    refinement.clear_caches()
    first = run_algorithm(1, 2, "diagonal", 14)
    first_dump = snapshot(first)
    calls = {"dd": 0, "cut": 0, "empty": 0}
    extreme_rays = geometry._extreme_rays
    cut = Cone._cut
    is_member_empty = Cone.is_member_empty

    def counting_dd(*args):
        calls["dd"] += 1
        return extreme_rays(*args)

    def counting_cut(self, *rows):
        calls["cut"] += 1
        return cut(self, *rows)

    def counting_empty(self):
        calls["empty"] += 1
        return is_member_empty(self)

    monkeypatch.setattr(geometry, "_extreme_rays", counting_dd)
    monkeypatch.setattr(Cone, "_cut", counting_cut)
    monkeypatch.setattr(Cone, "is_member_empty", counting_empty)
    second = run_algorithm(1, 2, "diagonal", 14)
    assert [rec[:-1] for rec in second.log] == [rec[:-1] for rec in first.log]
    assert snapshot(second) == first_dump
    assert calls == {"dd": 0, "cut": 0, "empty": 0}

    third = run_algorithm(1, 1, "diagonal", 13)
    refinement.clear_caches()
    calls["dd"] = 0
    assert sum(len(gen) for gen in third.generations) == 130
    assert calls["dd"] == 0


def _parents(result):
    """(parent pair, child pair) for every pair after the first generation."""
    for i in range(1, len(result.generations)):
        by_param = {
            (p.param.x_sets, p.param.y_sets, p.param.z_sets): p
            for p in result.generations[i - 1]
        }
        for child in result.generations[i]:
            parent = by_param[
                (child.param.x_sets[:-1], child.param.y_sets[:-1], child.param.z_sets[:-1])
            ]
            yield parent, child


def _rebuilt(parent, child):
    """The child's cone without the run table: its parent's cone intersected
    with the child's own aux cones."""
    xs, ys, zs = (s[-1] for s in (child.param.x_sets, child.param.y_sets, child.param.z_sets))
    shape = (len(xs), len(ys), len(zs))
    return parent.cone.intersect(*aux_cones(parent.param, xs, ys, zs, shape))


def test_shared_cones_equal_rebuilt_intersections(run_10, run_12):
    # The shared cone must have the rebuilt cone's member set.  Its rows may
    # differ: it keeps the rows of the first construction with its member
    # set.  The run's one empty cone is the only run cone whose closed cone
    # is {0}; a child of an empty chain holds it whatever its own closed
    # cone, so for it only the empty member set is compared.
    for run, pairs in ((run_10, 10557), (run_12, 675)):
        checked = 0
        empty = set()
        for parent, child in _parents(run):
            rebuilt = _rebuilt(parent, child)
            if child.cone.edges():
                assert geometry.cones_equivalent(child.cone, rebuilt)
            else:
                assert rebuilt.is_member_empty()
                empty.add(id(child.cone))
            checked += 1
        assert checked == sum(run.totals()) - 1 == pairs
        assert len(empty) == 1


def test_refine_pair_refuses_a_cone_without_the_q11_rows():
    # Every run cone carries the three q11 > 0 strict rows, so a child of an
    # empty chain has no member; refine_pair checks them where a pair
    # enters.  The live (19, 1) depth-1 pair's cone rebuilt from its closed
    # rows with no strict row, with two of the three, or with the three and
    # one more, raises a one-line ValueError and leaves the table as it was.
    # The cone with the three rows and no closed row has a line, and still
    # refines: each child has the member set of the parent cut by its chain
    # cones and links.
    run = run_algorithm(19, 1, "diagonal", 1)
    (live,) = [p for p in run.generations[1] if not p.cone.is_member_empty()]
    table, q11 = run.table, refinement._Q11_ROWS
    before = dict(table._cones), dict(table._children)
    for strict in ((), q11[:2], q11 + (refinement._UNIT_ROWS[1],)):
        bare = RefinementPair(Cone(9, live.cone.closed, strict), live.param, live.chains)
        with pytest.raises(ValueError, match="q11 > 0") as error:
            refine_pair(bare, linset(19, 1), table)
        assert "\n" not in str(error.value)
        assert (table._cones, table._children) == before
    param = CoveringParameter()
    whole = RefinementPair(Cone(9, (), q11), param, param.chains())
    children = refine_pair(whole, linset(1, 2))
    assert children
    for child in children:
        rebuilt = _rebuilt(whole, child)
        if child.cone.edges():
            assert geometry.cones_equivalent(child.cone, rebuilt)
        else:
            assert rebuilt.is_member_empty()


def test_chain_empty_flag_matches_zero_test(run_10, run_12):
    # Chain.empty, read first from the certificate on the key and otherwise
    # off the chain cone's rays, against the independent zero test
    # (kset_zero_test) on every chain of three runs, on the certificates of
    # criterion 4 and on every other chain in the process.  Chains are
    # shared by the whole process, so a chain made by an earlier run must
    # carry the same flag.
    from test_acceptance import CERTIFICATE_SPECS

    run_19 = run_algorithm(19, 1, "diagonal", 13)
    chains = {
        c for run in (run_10, run_12, run_19) for gen in run.generations[1:] for p in gen
        for c in p.chains
    }
    certificates = [ksets.chain(spec) for spec in CERTIFICATE_SPECS]
    assert all(c.empty for c in certificates)
    for c in chains.union(certificates, ksets._chains.values()):
        assert c.empty == ksets.kset_zero_test(c.key), c.key
    assert 0 < sum(c.empty for c in chains) < len(chains)


def test_one_cone_object_per_member_set(run_10):
    pairs = [p for gen in run_10.generations for p in gen]
    objects = {id(p.cone) for p in pairs}
    member_sets = {(p.cone.dim, p.cone.edges(), frozenset(p.cone.strict)) for p in pairs}
    assert len(objects) == len(member_sets) == 316
    assert len(pairs) == 10558
    last = run_10.generations[-1]
    assert len({id(p.cone) for p in last}) == 180


def test_one_dd_and_one_verdict_per_distinct_cone(monkeypatch):
    # Exact work on the (1, 0) q1_eq_q3 run to 13 from cold memos.  The run
    # factors.  The (0, 1, 0) steps walk the second block's 335 states past
    # the root as ray cycles, clipped with no DD and no nine-dimensional
    # cone, where cutting each state by DD made 294 DDs.  The walk makes no
    # chain, so the root chain cone and the 3 chain cones past the root
    # that the (1, 0, 1) steps use get DDs of their own: 1 + 3 = 4.  Those
    # steps build 3 nine-dimensional cones, each tested once for emptiness,
    # with the initial cone, 4 tests.
    # The class loop over both shapes (``_class_loop_run``) asks each of the
    # 336 distinct chain sequences whether it is empty: an empty sub-choice
    # or the signs at its prefix cone's one ray answer for 25, and each
    # other chain gets one three-dimensional DD, 311.  The loop builds one
    # cone per distinct construction
    # (parent, interned chain cones, shape and link vectors) without an
    # empty chain, 590, and tests each of the 315 member sets other than the
    # empty cone's once.  The initial cone and the run's empty cone get no
    # DD, as they were described at import.
    empties = [0]
    is_member_empty = Cone.is_member_empty

    def counting_empty(self):
        empties[0] += 1
        return is_member_empty(self)

    monkeypatch.setattr(Cone, "is_member_empty", counting_empty)
    expected = ((run_algorithm, {3: 4, 9: 3}, 4), (_class_loop_run, {3: 311, 9: 590}, 315))
    for run, dds, tests in expected:
        dd = _count_dd_by_dim(monkeypatch)
        empties[0] = 0
        result = run(1, 0, "q1_eq_q3", 13)
        assert sum(result.totals()) == 10558
        assert (dd, empties[0]) == (dds, tests), run


def test_factored_replay_classifies_through_its_table(monkeypatch):
    # The factored (1, 0) q1_eq_q3 run to 13 from cold memos walks the free
    # block's ray cycles with no chain, and builds only 3 nine-dimensional cones
    # and the chain cones of the (1, 0, 1) steps.  Its replay starts from
    # the table's root and asks the table for the verdict of each pair it
    # refines: it builds the other 587 constructions of the class loop over
    # both shapes and 307 chain cones of the free block: of the 332 chains
    # the (1, 0, 1) steps did not build, 25 are shown empty with no cone.
    # It tests 193 member sets, not the class
    # loop's 311 after the run's 4, because the last generation is never
    # refined.  It runs no class loop and forms no live class.  The result
    # keeps its table and the root chain, whose choices reach every chain
    # the replay made, so a second replay after ``clear_caches`` runs no DD.
    dd = _count_dd_by_dim(monkeypatch)
    result = run_algorithm(1, 0, "q1_eq_q3", 13)
    dd.update({3: 0, 9: 0})
    calls = {"empty": 0, "loop": 0}
    is_member_empty, class_loop = Cone.is_member_empty, refinement._class_loop

    def counting(key, f):
        def counted(*args):
            calls[key] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(Cone, "is_member_empty", counting("empty", is_member_empty))
    monkeypatch.setattr(refinement, "_class_loop", counting("loop", class_loop))
    assert sum(map(len, result.generations)) == 10558
    assert (dd, calls) == ({3: 307, 9: 587}, {"empty": 193, "loop": 0})
    refinement.clear_caches()
    assert sum(map(len, result.replay())) == 10558
    assert dd == {3: 307, 9: 587}


def test_live_classes_are_derived_with_no_geometry(monkeypatch):
    # A result keeps only its log and table, from which the oracle
    # ``live_classes`` forms its live classes by refining them over all
    # shapes in that table.  After a run that does not factor, the table
    # holds every construction, chain cone and verdict of that refinement:
    # forming the classes runs no DD, no row merge and no emptiness test,
    # from cold memos on (1, 2)/14 and after ``clear_caches`` on (3, 1)/13,
    # whose result still holds its table and its root chains.  Each
    # generation's classes are as many as its record's live classes, and
    # their multiplicities sum to its non-empty pairs.
    dd = _count_dd_by_dim(monkeypatch)
    calls = Counter()
    cut, is_member_empty = Cone._cut, Cone.is_member_empty

    def counting(key, f):
        def counted(*args):
            calls[key] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(Cone, "_cut", counting("cut", cut))
    monkeypatch.setattr(Cone, "is_member_empty", counting("empty", is_member_empty))
    for a, b, max_iter, clear, generations in ((1, 2, 14, False, 15), (3, 1, 13, True, 5)):
        result = run_algorithm(a, b, "diagonal", max_iter)
        if clear:
            refinement.clear_caches()
        dd.update({3: 0, 9: 0})
        calls.clear()
        classes = live_classes(result)
        assert (dd, calls) == ({3: 0, 9: 0}, {}), (a, b)
        assert len(classes) == len(result.log) == generations
        for live, rec in zip(classes, result.log):
            assert (len(live), sum(live.values())) == (rec.live_classes, rec.non_empty), rec


def test_min_complement_builds_from_cold_memos():
    # Exact chain-layer work: one minimal-complement build per distinct
    # exclusion set the chains ask about, from cold memos.  A chain that an
    # empty sub-choice shows empty computes no rows and asks about none:
    # the two diagonal runs make 179 builds, 195 without that rule.
    refinement.clear_caches()
    run_algorithm(1, 1, "diagonal", 13)
    run_algorithm(1, 2, "diagonal", 14)
    assert len(minima._min_complement_cache) == 179
    refinement.clear_caches()
    run_algorithm(1, 0, "q1_eq_q3", 13)
    assert len(minima._min_complement_cache) == 47
    # A chain asks about its own exclusion only when it builds its cone, so
    # the many chains of (1, 29) that the certificate shows empty ask none.
    # Counting the children of a dead block asks about the exclusions that
    # listing them would, and builds none of their chains: 2 208, not 2 209.
    refinement.clear_caches()
    run_algorithm(1, 29, "diagonal", 13)
    assert len(minima._min_complement_cache) == 2208


def test_y_projection_classifies_each_cone_once(run_10, monkeypatch):
    # The last generation of the (1, 0) run holds 5 890 pairs, 3 185 of them
    # live.  The oracle ``live_classes`` classified each of its cones once,
    # when it formed the live classes; the check reads those classes, or the
    # pairs the run's table calls live, and tests no cone again.
    classes = live_classes(run_10)[-1]
    empties = [0]
    is_member_empty = Cone.is_member_empty

    def counting_empty(self):
        empties[0] += 1
        return is_member_empty(self)

    monkeypatch.setattr(Cone, "is_member_empty", counting_empty)
    live = _live_pairs(run_10, -1)
    assert check_y_projection_argument(classes)
    assert check_y_projection_argument(live)
    assert len(run_10.generations[-1]) == 5890
    assert len(live) == sum(classes.values()) == 3185
    assert empties[0] == 0


def test_class_counters_at_depth_16():
    # The (1, 0) q1_eq_q3 run to 16 from cold memos: the pair counts of the
    # pair loop, and the live classes (cone, chains) they fall into.
    refinement.clear_caches()
    result = run_algorithm(1, 0, "q1_eq_q3", 16)
    assert result.totals() == [
        1, 2, 4, 8, 14, 22, 33, 53, 107, 228, 500, 1105, 2591, 5890, 12075, 23932, 41901
    ]
    assert result.non_empty_counts() == [
        1, 2, 4, 7, 11, 16, 23, 38, 86, 171, 379, 735, 1679, 3185, 6040, 10240, 18068
    ]
    assert [rec.stop_absorbed for rec in result.log] == [
        0, 0, 0, 1, 3, 6, 10, 15, 21, 56, 108, 270, 495, 1254, 2418, 4823, 8190
    ]
    assert [rec.live_classes for rec in result.log] == [
        1, 2, 3, 3, 3, 3, 4, 6, 11, 18, 34, 59, 103, 162, 256, 378, 568
    ]
    for rec, live in zip(result.log, live_classes(result)):
        assert len(live) == rec.live_classes
        assert sum(live.values()) == rec.non_empty


@pytest.mark.parametrize(
    "a, b, max_iter, counted, live_classes",
    [
        (
            1, 2, 14,
            [0, 0, 4, 10, 8, 17, 9, 9, 40, 30, 54, 24, 74, 35, 267],
            [1, 3, 5, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3],
        ),
        (19, 1, 13, [0, 2009, 2850, 4060, 0], [1, 1, 1, 0, 0]),
    ],
)
def test_counted_and_live_class_rows(a, b, max_iter, counted, live_classes):
    # The ``counted`` and ``live_classes`` rows of two diagonal runs, pinned
    # apart from the replay that the next test checks them against.  On
    # (1, 2)/14 some choices of a side lead to empty chains and others do
    # not; on (19, 1)/13 the 4-choice rule counts every child of (20, 0, 19)
    # and (0, 20, 1).
    result = run_algorithm(a, b, "diagonal", max_iter)
    assert [rec.counted for rec in result.log] == counted
    assert [rec.live_classes for rec in result.log] == live_classes


@pytest.mark.parametrize(
    "a, b, stop_kind, max_iter",
    [
        (1, 0, "q1_eq_q3", 13),
        (1, 2, "diagonal", 14),
        (19, 1, "diagonal", 13),
        (3, 1, "diagonal", 13),
    ],
)
def test_classes_match_replayed_pairs(a, b, stop_kind, max_iter, monkeypatch):
    # Every generation's classes, refined once each with a multiplicity, and
    # its children of empty chains, counted without being built, against
    # the pairs the replay builds one by one: grouped by (cone, chains) in
    # order of first appearance, the pairs that are not children of an
    # empty chain must be the classes with their multiplicities, and the
    # others must number ``counted`` and hold the run's empty cone.  The
    # replay computes no double description and tests no cone.  For a
    # factored run, (1, 0) here, the oracle ``live_classes`` refines the
    # classes over all shapes in the run's table before the counters start.
    result = run_algorithm(a, b, stop_kind, max_iter)
    table, live = result.table, live_classes(result)
    dd, empties = [0], [0]
    extreme_rays, is_member_empty = geometry._extreme_rays, Cone.is_member_empty

    def counting_dd(*args):
        dd[0] += 1
        return extreme_rays(*args)

    def counting_empty(self):
        empties[0] += 1
        return is_member_empty(self)

    monkeypatch.setattr(geometry, "_extreme_rays", counting_dd)
    monkeypatch.setattr(Cone, "is_member_empty", counting_empty)
    generations = result.generations
    assert dd[0] == empties[0] == 0
    monkeypatch.undo()

    shapes = linset(a, b)
    assert len(generations) == len(result.log) == len(live)
    (first,) = generations[0]
    classes, counted = {refinement.RefinementClass(first.cone, first.chains): 1}, 0
    for i, rec in enumerate(result.log):
        if i:
            classes, counted = refinement._refine_classes(live[i - 1], shapes, table)
        built, killed = {}, 0
        for p in generations[i]:
            if any(c.empty for c in p.chains):
                assert p.cone is refinement._EMPTY_CONE
                killed += 1
            else:
                key = (p.cone, p.chains)
                built[key] = built.get(key, 0) + 1
        assert killed == counted == rec.counted
        assert list(built.items()) == [(tuple(cls), mult) for cls, mult in classes.items()]
        assert rec.total == len(generations[i]) == counted + sum(classes.values())
        live_built = {}
        for p in _live_pairs(result, i):
            live_built[p.cone, p.chains] = live_built.get((p.cone, p.chains), 0) + 1
        assert list(live_built.items()) == [
            (tuple(cls), mult) for cls, mult in live[i].items()
        ]
    assert sum(rec.counted for rec in result.log) > 0


# The 75 coprime pairs a < b with 21 <= a + b <= 30; each runs in both orders.
SWEEP_PAIRS_30 = [
    (a, s - a) for s in range(21, 31) for a in range(1, s) if a < s - a and gcd(a, s) == 1
]


@pytest.mark.parametrize("a, b", SWEEP_PAIRS_30)
def test_no_further_relations_sweep_to_30(a, b):
    # The a + b >= 4 claim to a + b = 30, read from the log and the live
    # classes alone, without expanding pairs.  The one non-empty cone of
    # generation 3 is absorbed, so it is not live: its classes are those
    # generation 2's one live class refines to.
    expected = [Cone(9, rows) for rows in (T0_A, T1_A, T2_A, T3_A)]
    forward = run_algorithm(a, b, "diagonal", 13)
    backward = run_algorithm(b, a, "diagonal", 13)
    for res in (forward, backward):
        assert res.non_empty_counts() == [1, 1, 1, 0, 0]
        assert [rec.stop_absorbed for rec in res.log] == [0, 0, 0, 1, 0]
        live = live_classes(res)
        gen3, _ = refinement._refine_classes(live[2], linset(res.a, res.b), res.table)
        absorbed = {
            cls: mult for cls, mult in gen3.items()
            if res.table.verdicts[cls.cone] == refinement._ABSORBED
        }
        for classes, want in zip(live[:3] + [absorbed], expected):
            ((cls, mult),) = classes.items()
            assert mult == 1
            assert geometry.cones_closed_equal(cls.cone, want)
    assert forward.totals() == backward.totals()
    if (a, b) == (1, 29):
        assert forward.totals() == [1, 88645, 135199, 204722, 0]


def test_chain_layer_reads_minima_unchecked(monkeypatch):
    # A chain's key is checked once, when ``ksets.chain`` makes it; the chain
    # layer then reaches ``minima`` only through ``_min_complement``, which
    # checks nothing, so a run tests no vector for strong primitivity in
    # ``minima``.  From cold memos, the calls that miss the memo are exactly
    # the memo's entries.
    calls, misses, checks = [0], [0], [0]
    min_complement = minima._min_complement
    is_strongly_primitive = minima.is_strongly_primitive

    def counting(exc):
        calls[0] += 1
        misses[0] += exc not in minima._min_complement_cache
        return min_complement(exc)

    def counting_check(v):
        checks[0] += 1
        return is_strongly_primitive(v)

    refinement.clear_caches()
    monkeypatch.setattr(minima, "_min_complement", counting)
    monkeypatch.setattr(ksets, "_min_complement", counting)
    monkeypatch.setattr(minima, "is_strongly_primitive", counting_check)
    run_algorithm(1, 0, "q1_eq_q3", 13)
    assert calls[0] > misses[0] > 0
    assert misses[0] == len(minima._min_complement_cache) == 47
    assert checks[0] == 0


def _description(cone):
    return cone.closed, cone.strict, cone._closed_description()


def _cross(i, u, j, v):
    """The rows ``Q_i(u) = Q_j(v)`` of blocks ``i`` and ``j``, both signs."""
    row = [0] * 9
    row[3 * i : 3 * i + 3] = coeff_row(u)
    row[3 * j : 3 * j + 3] = [-x for x in coeff_row(v)]
    return [row, [-x for x in row]]


def _link_cone(shape, xs, ys, zs):
    """The value-link cone as a ``Cone`` of the cross equalities of the
    linked sets' first elements: factor 1 to both others for (1, 1, 1),
    else factors 1 and 3 or 2 and 3, when both sides are non-empty."""
    if shape == (1, 1, 1):
        rows = _cross(0, xs[0], 1, ys[0]) + _cross(0, xs[0], 2, zs[0])
    elif shape[1] == 0:
        rows = _cross(0, xs[0], 2, zs[0]) if xs and zs else []
    else:
        rows = _cross(1, ys[0], 2, zs[0]) if ys and zs else []
    return Cone(9, rows)


def _recording_children(monkeypatch):
    """Record each child a table memoises, per table and by its key: the
    nine-dimensional ``Cone._cut`` that built it, or None when the signs at
    its parent's one ray decided it with no cut."""
    made, cuts = {}, []
    cut, child = Cone._cut, refinement.RunTable.child

    def recording_cut(self, *rows):
        cone = cut(self, *rows)
        if cone.dim == 9:
            cuts.append(cone)
        return cone

    def recording_child(self, *args):
        before, built = len(self._children), len(cuts)
        cone = child(self, *args)
        if len(self._children) > before:
            key = next(reversed(self._children))
            made.setdefault(self, {})[key] = cuts[-1] if len(cuts) > built else None
        return cone

    monkeypatch.setattr(Cone, "_cut", recording_cut)
    monkeypatch.setattr(refinement.RunTable, "child", recording_child)
    return made


@pytest.mark.parametrize("a, b, stop_kind, max_iter", [(1, 0, "q1_eq_q3", 13), (1, 2, "diagonal", 14)])
def test_merged_cones_equal_intersections(a, b, stop_kind, max_iter, monkeypatch):
    # Every construction of a run from cold memos is the parent cut by the
    # product of the chain cones and the link cone.  A child built as one
    # row merge has the rows, row order, rays and tight-row masks of that
    # intersection; a child that the signs at its parent's one ray decided
    # is the table's cone with the intersection's member set, the parent or
    # the empty cone.  Every chain cone has the description of its prefix's
    # cone cut by ``Cone(3, rows)``, the ``_step_rows`` of its last set,
    # which leave out the link row.  The class loop runs over every
    # shape, also for the (1, 0) run that factors: none of its 590
    # constructions has a one-ray parent, and 70 of the 92 on (1, 2) do.
    refinement.clear_caches()
    tables = _recording_children(monkeypatch)
    _class_loop_run(a, b, stop_kind, max_iter)
    monkeypatch.undo()
    table = refinement._tables[stop_set(stop_kind)]
    made = tables[table]
    assert list(made) == list(table._children)
    for key, cone in table._children.items():
        parent, k1, k2, k3, shape, x1, y1, z1 = key
        want = parent.intersect(product3(k1, k2, k3), _link_cone(shape, x1, y1, z1))
        if made[key] is None:
            assert cone in (parent, refinement._EMPTY_CONE), key
            assert geometry.cones_equivalent(cone, want), key
        else:
            assert _description(made[key]) == _description(want)
        assert table.intern(want) is cone
    chains = [c for c in ksets._chains.values() if c.key and c._cone is not None]
    for c in chains:
        prefix = ksets._chain(c.key[:-1]).cone
        rows = ksets._step_rows(c.key[-1], frozenset(v for s in c.key for v in s))
        assert _description(c.cone) == _description(prefix.intersect(Cone(3, rows)))
    decided = sum(cone is None for cone in made.values())
    assert (len(made), decided, len(chains)) == {
        (1, 0): (590, 0, 310), (1, 2): (92, 70, 102)
    }[a, b]


def test_one_ray_decisions_are_the_cuts_they_skip(monkeypatch):
    # A pointed cone with one ray r, cut by closed rows, is cone(r) when
    # every row is >= 0 at r and {0} otherwise.  On every coprime (a, b)
    # with a + b <= 20, (1, 0) and (0, 1) among them, run to 13 under both
    # stop sets from cold memos, each child that a table decided from the
    # signs at its parent's one ray is the object that interning the cut
    # it skipped returns, and each chain shown empty with no cone, from the
    # signs at its prefix cone's one ray, by an empty sub-choice or by a
    # collapsing set, passes the independent zero test.
    refinement.clear_caches()
    tables = _recording_children(monkeypatch)
    for kind in refinement.STOP_SET_KINDS:
        for a, b in COPRIME_TO_20:
            run_algorithm(a, b, kind, 13)
    monkeypatch.undo()
    decided = 0
    for table, made in tables.items():
        for key, built in made.items():
            if built is None:
                parent, k1, k2, k3, shape, x1, y1, z1 = key
                rows = [*geometry._padded((k1, k2, k3), "closed")]
                rows += refinement._link_rows(refinement._links(shape, x1, y1, z1))
                assert table.intern(parent._cut(rows)) is table._children[key], key
                decided += 1
    chains = [c for c in ksets._chains.values() if c._empty and c._cone is None]
    for c in chains:
        assert ksets.kset_zero_test(c.key), c.key
    assert (decided, len(chains)) == (232, 133)


def test_one_ray_hand_built_parent_is_decided_as_its_cut(monkeypatch):
    # The (1, 2) generation-4 cone cone(r), r the paper's triple, rebuilt
    # from its closed rows with the three q11 > 0 rows, is a parent that a
    # fresh table has never met.  Each of its children that a table builds
    # is decided from the signs at r: the parent interned, or the empty
    # cone, and the object that interning the cut it skips returns.
    run = run_algorithm(1, 2, "diagonal", 4)
    held = next(p for p in run.generations[4] if p.cone.edges() == (TARGET_POINT,))
    parent = Cone(9, held.cone.closed, refinement._Q11_ROWS)
    table = refinement.RunTable(())
    tables = _recording_children(monkeypatch)
    refine_pair(RefinementPair(parent, held.param, held.chains), linset(1, 2), table)
    monkeypatch.undo()
    made = tables[table]
    assert list(made) == list(table._children) and set(made.values()) == {None}
    for key, cone in table._children.items():
        _, k1, k2, k3, shape, x1, y1, z1 = key
        assert cone in (table.intern(parent), refinement._EMPTY_CONE), key
        rows = [*geometry._padded((k1, k2, k3), "closed")]
        rows += refinement._link_rows(refinement._links(shape, x1, y1, z1))
        assert table.intern(parent._cut(rows)) is cone, key
    assert set(table._children.values()) == {parent, refinement._EMPTY_CONE}


def _link_sets(result):
    """Each class the run's live classes refine to, with the link set of the
    first path that reaches it: the root has none, and a child gets its
    parent's set and the links of its step, each ``(i, u, j, v)``.  A
    class's children come from ``refine_pair`` on a pair with its cone, its
    chains and no chosen sets, so each child's parameter holds the sets of
    its step; the counted ones, of a dead shape or an empty chain, are
    skipped."""
    shapes = linset(result.a, result.b)
    generations = live_classes(result)
    ((root, _),) = generations[0].items()
    sets = {root: frozenset()}
    for live in generations[:-1]:
        for cls in live:
            pair = RefinementPair(cls.cone, CoveringParameter(), cls.chains)
            for shape in shapes:
                if refinement._dead(cls.chains, shape):
                    continue
                for child in refine_pair(pair, [shape], result.table):
                    if not any(c.empty for c in child.chains):
                        links = refinement._links(shape, *(seq[0][:1] for seq in child.param))
                        new = refinement.RefinementClass(child.cone, child.chains)
                        sets.setdefault(new, sets[cls] | set(links))
    return sets


def _product_cut_by_links(chains, links):
    """``K(c1) x K(c2) x K(c3) ∩ links`` with the three ``q11 > 0`` rows,
    from each chain's own cone and the cross equalities of the links."""
    rows = [r for link in links for r in _cross(*link)]
    return Cone(9, product3(*(c.cone for c in chains)).closed + tuple(rows), refinement._Q11_ROWS)


def test_class_cones_are_chain_products_cut_by_links():
    # Every cone the class loop builds is the initial cone cut by chain-cone
    # rows and link equalities, and chain cones nest.  So on every live
    # class of the three reference runs and of the coprime a + b <= 20
    # sweep in both orders, all in one process, a class's cone has the
    # member set of its chains' cones, each in its block, cut by the link
    # equalities along the first path to it, with the three q11 > 0 rows;
    # and the chain cones with the link set fix the cone.  On (1, 0)
    # q1_eq_q3/13 the 590 constructions have 315 such keys, one per
    # non-empty member set.
    refinement.clear_caches()
    runs = [run_algorithm(1, 0, "q1_eq_q3", 13), run_algorithm(1, 1), run_algorithm(1, 2, "diagonal", 14)]
    for a, b in SWEEP_PAIRS:
        runs += [run_algorithm(a, b), run_algorithm(b, a)]
    checked = 0
    for result in runs:
        sets = _link_sets(result)
        by_key = {}
        for cls, links in sets.items():
            key = (tuple(c.cone.edges() for c in cls.chains), links)
            assert by_key.setdefault(key, cls.cone) is cls.cone
        for live in live_classes(result):
            for cls in live:
                assert geometry.cones_equivalent(cls.cone, _product_cut_by_links(cls.chains, sets[cls]))
                checked += 1
        if result is runs[0]:
            assert len(by_key) == 315
    # 412 live classes on (1, 0), 61 on the two diagonal runs, 3 per sweep run.
    assert checked == 412 + 61 + 3 * 2 * len(SWEEP_PAIRS) == 845


def test_refine_pair_on_a_hand_built_pair_uses_no_link_key():
    # A table looks a child up by its parent cone, never by its chains and
    # links alone, so ``refine_pair`` on a hand-built pair builds its own
    # children even in a table that holds the root's children with the same
    # chain cones and links.  The pair's cone is the initial cone cut by
    # Q1(1, 0) >= Q2(1, 0), which no product of chain cones cut by link
    # equalities gives; each child must be that cone cut by the product of
    # its chain cones and its link cone.
    refinement.clear_caches()
    shapes = linset(1, 2)
    table = refinement.RunTable(())
    start = initial_pair()
    root = refinement.RefinementClass(start.cone, start.chains)
    linked, _ = refinement._refine_classes({root: 1}, shapes, table)
    assert len(linked) == 3
    cone = start.cone.intersect(Cone(9, [(1, 0, 0, -1, 0, 0, 0, 0, 0)]))
    children = refine_pair(RefinementPair(cone, start.param, start.chains), shapes, table)
    by_chains = {cls.chains: cls.cone for cls in linked}
    differs = 0
    for child in children:
        xs, ys, zs = (s[-1] for s in (child.param.x_sets, child.param.y_sets, child.param.z_sets))
        shape = (len(xs), len(ys), len(zs))
        want = cone.intersect(product3(*(c.cone for c in child.chains)), _link_cone(shape, xs, ys, zs))
        assert geometry.cones_equivalent(child.cone, want)
        differs += not geometry.cones_equivalent(child.cone, by_chains[child.chains])
    assert len(children) == 3 and differs > 0


@pytest.mark.filterwarnings("ignore:gcd")
@pytest.mark.parametrize("a", [1, 2])
def test_factored_log_equals_the_class_loop(a):
    # The (a, 0) q1_eq_q3 runs factor into the (1, 0, 1) class loop and the
    # walk of the second block's chains.  At every depth to 20, every field
    # of the factored log but the seconds equals the class loop's over both
    # shapes.  The class loop stops only at an empty generation or at
    # max_iter, so its log to depth d is the first d + 1 records of its log
    # to 20.  The oracle ``live_classes`` forms a factored result's live
    # classes over both shapes in its table, with the log it already has.
    generic = [rec[:-1] for rec in _class_loop_run(a, 0, "q1_eq_q3", 20).log]
    assert len(generic) == 21 and generic[-1][1] > 0
    for depth in range(21):
        result = run_algorithm(a, 0, "q1_eq_q3", depth)
        assert [rec[:-1] for rec in result.log] == generic[: depth + 1], depth
    classes = live_classes(result)
    assert [len(live) for live in classes] == [rec[4] for rec in generic]
    assert sum(classes[-1].values()) == generic[-1][2]


def test_only_the_b_zero_runs_under_q1_eq_q3_factor():
    # A block is free when no stop row touches it and every shape that
    # touches it touches it alone.  Over every (a, b) with a + b <= 12 and
    # both stop sets, only (k, 0) under q1_eq_q3 has one, the second block;
    # its linset is (1, 0, 1), (0, 1, 0) for every k.  No link touches a
    # free block: a shape's set in a block is empty exactly when the shape
    # does not touch it, and a shape links two blocks only when both of its
    # sets there are non-empty.  ``y_projection_holds`` reads (1, 0) for
    # every (k, 0): their linsets are one.
    assert {linset(k, 0) for k in range(1, 13)} == {linset(1, 0)}
    shapes = {s for a in range(13) for b in range(13 - a) if (a, b) != (0, 0) for s in linset(a, b)}
    for shape in shapes:
        for i, _, j, _ in refinement._links(shape, *[[(1, 0)][:n] for n in shape]):
            assert shape[i] and shape[j], shape
    free = {
        (a, b, kind): refinement._free_block(linset(a, b), stop_set(kind))
        for a in range(13) for b in range(13 - a) if (a, b) != (0, 0)
        for kind in refinement.STOP_SET_KINDS
    }
    assert {key: i for key, i in free.items() if i is not None} == {
        (k, 0, "q1_eq_q3"): 1 for k in range(1, 13)
    }
    assert stop_set("diagonal") is stop_set("diagonal")


def test_y_projection_holds_equals_the_class_loop_oracle():
    # ``y_projection_holds`` steps the (1, 0, 1) process alone; the oracle
    # reads the live classes of the (1, 0) run over both shapes.  At every
    # depth to 20 they agree: the check fails at 0, 1 and 2 and holds from 3.
    classes = live_classes(run_algorithm(1, 0, "q1_eq_q3", 20))
    want = [check_y_projection_argument(live) for live in classes]
    assert want == [False] * 3 + [True] * 18
    assert [refinement.y_projection_holds(depth) for depth in range(21)] == want
    with pytest.raises(ValueError, match="max_iter must be non-negative, got -1"):
        refinement.y_projection_holds(-1)


def test_y_projection_holds_makes_only_the_first_process_dds(monkeypatch):
    # From cold memos the check to 20, and to 1000, makes the DDs of the
    # (1, 0, 1) process, {3: 4, 9: 3}: the root chain cone, its 3 chain
    # cones and its 3 nine-dimensional cones.  It walks no free state.
    calls = Counter()
    for name in ("_free_walk", "_clip"):

        def counted(*args, name=name, f=getattr(refinement, name)):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(refinement, name, counted)
    dd = _count_dd_by_dim(monkeypatch)
    for depth in (20, 1000):
        refinement.clear_caches()
        dd.update({3: 0, 9: 0})
        assert refinement.y_projection_holds(depth)
        assert dd == {3: 4, 9: 3}, depth
    assert calls == {}


def test_y_projection_holds_fails_when_its_premises_do(monkeypatch):
    # Two mutations make the check fail at depths where it holds: verdicts
    # that call an absorbed cone live, so the (1, 0, 1) process stays live,
    # and no free block.  Cold memos before and after keep the constructions
    # the first one adds out of the other tests' tables.
    refinement.clear_caches()
    verdict = refinement.RunTable.verdict

    def no_absorbed(self, cone):
        v = verdict(self, cone)
        return refinement._LIVE if v == refinement._ABSORBED else v

    for owner, name, mutant in (
        (refinement.RunTable, "verdict", no_absorbed),
        (refinement, "_free_block", lambda *args: None),
    ):
        assert all(map(refinement.y_projection_holds, (3, 13, 20)))
        monkeypatch.setattr(owner, name, mutant)
        assert not any(map(refinement.y_projection_holds, (3, 13, 20))), name
        monkeypatch.undo()
        refinement.clear_caches()


def _recording_walk(monkeypatch):
    """Record the free walk of the runs that follow: each step's groups of
    live states by exclusion, the rows object computed for each set ``s``
    and exclusion ``e``, which must be computed once, and each clip the
    walk makes, keyed on its parent state and the id of its rows object."""
    walked, rows, clips = [], {}, {}
    free_walk, step_rows, clip = refinement._free_walk, refinement._step_rows, refinement._clip

    def recording_walk(*args):
        for groups, record in free_walk(*args):
            walked.append(groups)
            yield groups, record

    def recording_rows(s, excluded):
        assert (s, excluded) not in rows, (s, excluded)
        rows[s, excluded] = step_rows(s, excluded)
        return rows[s, excluded]

    def recording_clip(rays, closed):
        clips[rays, id(closed)] = clip(rays, closed)
        return clips[rays, id(closed)]

    monkeypatch.setattr(refinement, "_free_walk", recording_walk)
    monkeypatch.setattr(refinement, "_step_rows", recording_rows)
    monkeypatch.setattr(refinement, "_clip", recording_clip)
    return walked, rows, clips


@pytest.mark.filterwarnings("ignore:gcd")
@pytest.mark.parametrize("a", [1, 2])
def test_free_walk_states_have_their_chain_cones(a, monkeypatch):
    # The factored (a, 0) q1_eq_q3 runs to 13 from cold memos walk the
    # second block's live states as ray cycles, one list per exclusion, with
    # no chain.  The rows of a set s are computed once per exclusion and
    # shared by the group's states.  Following each state's key, the path
    # of sets from the root chain's cone: every child is its parent clipped
    # by those rows, its sorted rays are the rays of ``chain(key).cone``,
    # and it is live exactly when that chain is not empty.  Each step's
    # groups hold exactly the states of the keys whose chains are not empty.
    refinement.clear_caches()
    walked, rows, clips = _recording_walk(monkeypatch)
    result = run_algorithm(a, 0, "q1_eq_q3", 13)
    monkeypatch.undo()
    root = result.table.root.chains[1].cone.edges()
    assert walked[0] == {frozenset(): [root]}
    states, children, depths = {frozenset(): [((), root)]}, 0, set()
    for groups in walked[1:]:
        expected = {}
        for excluded, held in states.items():
            for s in minima._min_n(excluded, 1):
                e = excluded.union(s)
                for key, parent in held:
                    key += (s,)
                    want, child = ksets.chain(key), clips[parent, id(rows[s, e])]
                    assert tuple(sorted(child)) == want.cone.edges(), key
                    assert any(r[0] for r in child) == (not want.empty), key
                    children += 1
                    depths.add(len(key))
                    if not want.empty:
                        expected.setdefault(e, []).append((key, child))
        assert {e: Counter(g) for e, g in groups.items()} == {
            e: Counter(c for _, c in held) for e, held in expected.items()
        }
        states = expected
    assert children == 335
    assert max(depths) == 13


def _product(u, v):
    """The cross product of two triples."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _det(u, v, w):
    return geometry._dot(u, _product(v, w))


def _is_cycle(rays):
    """Each edge of the cycle, consecutive rays and the last to the first
    when there are 3 or more, has every other ray strictly on one side."""
    n = len(rays)
    for i in range(n if n > 2 else n - 1):
        u, v = rays[i], rays[(i + 1) % n]
        signs = {(d > 0) - (d < 0) for d in (_det(u, v, r) for r in rays if r not in (u, v))}
        if len(signs) > 1 or 0 in signs:
            return False
    return True


_SMALL = st.integers(-4, 4)
# A row is a triple, or built from the input state's rays: ``at`` vanishes
# at ray i, ``edge`` on the plane of rays i and j (the whole cone of a
# 2-ray state) with the sign that holds on the state or its opposite,
# ``split`` on the bisector of rays i and j in that plane, strictly positive
# at one and negative at the other, ``neg`` is negative at every ray.
_CLIP_ROWS = st.lists(
    st.one_of(
        st.tuples(st.just("row"), st.tuples(_SMALL, _SMALL, _SMALL)),
        st.tuples(st.just("at"), st.integers(0, 5), st.tuples(_SMALL, _SMALL, _SMALL)),
        st.tuples(st.just("edge"), st.integers(0, 5), st.integers(0, 5), st.sampled_from((1, -1))),
        st.tuples(st.just("split"), st.integers(0, 5), st.integers(0, 5), st.sampled_from((1, -1))),
        st.just(("neg",)),
    ),
    min_size=1,
    max_size=4,
)


def _clip_row(kind, rays):
    """The row that ``kind`` of ``_CLIP_ROWS`` draws for the state ``rays``."""
    if kind[0] == "row":
        return kind[1]
    if not rays:
        return (0, 0, 0)
    if kind[0] == "at":
        return _product(rays[kind[1] % len(rays)], kind[2])
    if kind[0] == "neg":
        return tuple(-sum(col) for col in zip(*rays))
    u, v = rays[kind[1] % len(rays)], rays[kind[2] % len(rays)]
    row = _product(u, v)
    if kind[0] == "split":
        return tuple(kind[3] * x for x in _product(row, [x + y for x, y in zip(u, v)]))
    if any(geometry._dot(row, r) < 0 for r in rays):
        row = tuple(-x for x in row)
    return tuple(kind[3] * x for x in row)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SMALL, _SMALL, _SMALL), max_size=3), _CLIP_ROWS)
@example([(-1, 0, 0)], [("row", (0, 0, 1))])
@example([(-1, 0, 0)], [("row", (0, 0, -1))])
@example([(-1, 0, 0)], [("at", 0, (1, 0, 0))])
@example([(-1, 0, 1)], [("edge", 0, 1, -1)])
@example([(-1, 0, 1)], [("at", 0, (0, 1, 0))])
@example([(-1, 0, 1)], [("at", 1, (0, 1, 0))])
@example([(-1, 0, 1)], [("neg",)])
@example([(-1, 0, 1)], [("split", 0, 1, 1)])
@example([(-1, 0, 1)], [("split", 0, 1, -1)])
@example([], [("split", 0, 2, 1)])
@example([], [("edge", 0, 1, -1)])
@example([], [("edge", 1, 2, 1)])
@example([], [("at", 2, (1, 0, 0))])
@example([], [("neg",)])
def test_clip_is_the_cut_in_cyclic_order(pre, kinds):
    # A pointed three-dim cone, a cut of the closed reduction domain by
    # small rows whose ray cycle is the clip of the domain's three rays,
    # clipped by rows that may vanish at a ray, on an edge or on the whole
    # cone, split an edge between its rays, or leave 2, 1 or 0 rays, 1-ray
    # and 2-ray states among them: the rays are those of ``Cone._cut``,
    # sorted, and in cyclic order, the input's and the output's.
    root = ksets.V_CLOSURE_CONE
    pre = [geometry._primitive(r) for r in pre if any(r)]
    rays, cone = refinement._clip(root.edges(), pre), root._cut(pre)
    assert tuple(sorted(rays)) == cone.edges() and _is_cycle(rays)
    rows = [_clip_row(kind, rays) for kind in kinds]
    rows = [geometry._primitive(r) for r in rows if any(r)]
    clipped = refinement._clip(rays, rows)
    assert tuple(sorted(clipped)) == cone._cut(rows).edges()
    assert _is_cycle(clipped)


@pytest.mark.filterwarnings("ignore:gcd")
def test_free_walk_computes_rows_once_per_exclusion_and_set(monkeypatch):
    # The rows a free child adds depend only on its set s and its exclusion
    # e, not on the order in which its prefix chose e, and the choices of a
    # state only on its exclusion.  So the walk of the (1, 0) q1_eq_q3 run
    # asks ``_step_rows`` once per (s, e) and ``minima._min_n`` once per
    # group of live states: at 13 from cold memos 71 and 35 calls for 335
    # children and 129 live states walked, one of each per state before;
    # at 20, 402 and 141 for 8 098 children and 2 295 live states.
    calls = Counter()
    step_rows, min_n = refinement._step_rows, minima._min_n

    def counting(key, f):
        def counted(*args):
            calls[key] += 1
            return f(*args)

        return counted

    for depth, expected in ((13, (71, 35)), (20, (402, 141))):
        refinement.clear_caches()
        calls.clear()
        monkeypatch.setattr(refinement, "_step_rows", counting("rows", step_rows))
        monkeypatch.setattr(minima, "_min_n", counting("min_n", min_n))
        run_algorithm(1, 0, "q1_eq_q3", depth)
        monkeypatch.undo()
        assert (calls["rows"], calls["min_n"]) == expected, depth


def test_every_run_cone_carries_the_q11_rows():
    # ``Cone._cut`` keeps the strict rows of the cone it cuts, so every cone
    # a run builds, cut from the initial cone, carries the three q11 > 0
    # rows, and the class loop tests a chain's emptiness on every block.  On
    # every coprime (a, b) with a + b <= 20, (1, 0) and (0, 1) among them,
    # run to 13 under both stop sets from cold memos, every nine-dimensional
    # cone the two tables intern, 1 329 diagonal and 699 q1_eq_q3, has
    # exactly those strict rows, and no chain cone has a strict row: the
    # tables key a cone by its dimension and rays.
    refinement.clear_caches()
    assert len(COPRIME_TO_20) == 129
    for kind in refinement.STOP_SET_KINDS:
        for a, b in COPRIME_TO_20:
            run_algorithm(a, b, kind, 13)
    interned = [cone for table in refinement._tables.values() for cone in table._cones.values()]
    cones = [cone for cone in interned if cone.dim == 9]
    assert len(cones) == 1329 + 699
    assert all(cone.strict == refinement._Q11_ROWS for cone in cones)
    assert not any(cone.strict for cone in interned if cone.dim == 3)


COPRIME_TO_8 = [(a, b) for a, b in COPRIME_TO_20 if a + b <= 8]
NAIVE_RUNS = [(1, 1, "diagonal", 13), (1, 2, "diagonal", 14), (1, 0, "q1_eq_q3", 13)] + [
    (a, b, kind, 8) for kind in refinement.STOP_SET_KINDS for a, b in COPRIME_TO_8
]


def _counts(a, b, stop_kind, depth):
    return [(r.total, r.non_empty, r.stop_absorbed) for r in run_algorithm(a, b, stop_kind, depth).log]


@pytest.mark.filterwarnings("ignore:gcd")
def test_naive_refinement_equals_the_engine():
    # The naive loop over pairs (oracles.naive_log) builds every child as an
    # intersection and classifies it, with no memo, table, chain, class,
    # certificate or counted child.  Every generation of the three reference
    # runs and of every coprime a + b <= 8 run to 8 under both stop sets has
    # its total, live and absorbed counts.
    assert len(NAIVE_RUNS) == 49
    for run in NAIVE_RUNS:
        assert naive_log(*run) == _counts(*run), run


@pytest.mark.filterwarnings("ignore:gcd")
@settings(deadline=None)
@given(
    st.sampled_from([(a, b) for a, b in COPRIME_TO_20 if a + b <= 10]),
    st.sampled_from(refinement.STOP_SET_KINDS),
    st.integers(0, 8),
)
def test_naive_refinement_equals_the_engine_on_random_runs(ab, stop_kind, depth):
    assert naive_log(*ab, stop_kind, depth) == _counts(*ab, stop_kind, depth)
