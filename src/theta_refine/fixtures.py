"""Embedded golden data replaying the reference worked examples.

Each fixture recomputes one object (a minimal set, a chain cone, a refinement
step, or the short-chain run) and compares it against data transcribed from
the source tables.  Cones are compared by member-set equivalence -- mutual
containment decided on canonical extreme rays -- because the printed
matrices carry redundant rows and reflect a different row-reduction pipeline.
Value-link row sets are compared literally after scaling rows primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geometry import Cone, cones_closed_equal, scale_primitive
from .ksets import V_CLOSED_ROWS, kset, kset_chain, kset_zero_test
from .minima import min_complement, min_n
from .refinement import (
    CoveringParameter,
    RefinementPair,
    aux_cones,
    initial_pair,
    linset,
    refine_pair,
    run_algorithm,
    stop_set,
)

Pair = tuple[int, int]


@dataclass
class FixtureResult:
    name: str
    ok: bool
    detail: str = ""


def _embed9(row3, block):
    out = [0] * 9
    out[3 * block : 3 * block + 3] = row3
    return tuple(out)


AMBIENT9 = tuple(_embed9(r, b) for b in range(3) for r in V_CLOSED_ROWS)

T0_A = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

STRICT9 = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

# Refinement of the initial cone for (a, b) = (1, 2), shape (1, 1, 1).
EX1_SHAPE111_Q = (
    (1, 0, 0, -1, 0, 0, 0, 0, 0),
    (-1, 0, 0, 1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, -1, 0, 0),
    (-1, 0, 0, 0, 0, 0, 1, 0, 0),
)

EX1_SHAPE111_RESULT_A = T0_A[:9] + (
    (1, 0, 0, 0, 0, 0, -1, 0, 0),
    (-1, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

# Shape (3, 0, 1): printed chain/equality rows of the product cone (the
# ambient closure rows are implicit) and the single representative equality.
EX1_SHAPE301_K = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0, 0),
    (0, 1, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
)

EX1_SHAPE301_Q = (
    (1, 0, 0, 0, 0, 0, -1, 0, 0),
    (-1, 0, 0, 0, 0, 0, 1, 0, 0),
)

EX1_SHAPE301_Q_FULL = EX1_SHAPE301_Q + (
    (0, 1, 0, 0, 0, 0, -1, 0, 0),
    (0, -1, 0, 0, 0, 0, 1, 0, 0),
    (1, 1, -1, 0, 0, 0, -1, 0, 0),
    (-1, -1, 1, 0, 0, 0, 1, 0, 0),
)

EX1_SHAPE301_RESULT_A = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0),
    (-1, 0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, -1, 0, 0),
    (-1, 0, 0, 0, 0, 0, 1, 0, 0),
    (-1, -1, 1, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

EX1_SHAPE032_K = (
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 2, 0, 0, 0),
    (0, 0, 0, 1, -1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
)

EX1_SHAPE032_Q = (
    (0, 0, 0, 1, 0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0, 0, 1, 0, 0),
)

EX1_SHAPE032_RESULT_A = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 0),
    (0, 0, 0, -1, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0, 0, 1, 0, 0),
    (0, 0, 0, -1, -1, 1, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, -1, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

# Second worked refinement: input the shape-(0,3,2) child above, refine with
# shape (3, 0, 1).
EX2_PARAM = CoveringParameter(
    ((),),
    (((1, 0), (0, 1), (-1, 1)),),
    (((1, 0), (0, 1)),),
)

EX2_K = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0, 0),
    (0, 1, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 2, 0, 0, 0),
    (0, 0, 0, 1, -1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 2),
    (0, 0, 0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
)

EX2_Q = (
    (1, 0, 0, 0, 0, 0, -1, -1, 1),
    (-1, 0, 0, 0, 0, 0, 1, 1, -1),
)

EX2_RESULT_A = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 0),
    (0, 0, 0, -1, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0, 0, 1, 0, 0),
    (0, 0, 0, -1, -1, 1, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, -1, 0),
    (-1, 0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, -1, -1, 1),
    (-1, 0, 0, 0, 0, 0, 1, 1, -1),
    (-1, -1, 1, 0, 0, 0, 1, 1, -1),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

# Cones along the short chain shared by every run with a + b = 4.
T1_A = T0_A[:9] + (
    (1, 0, 0, 0, 0, 0, -1, 0, 0),
    (-1, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

T2_A = T1_A[:13] + (
    (0, 1, 0, 0, 0, 0, 0, -1, 0),
    (0, -1, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, -1, 0),
    (0, 0, 0, 0, -1, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

T3_A = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, -1, 0, 0),
    (-1, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, -1, 0),
    (0, -1, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, -1, 0),
    (0, 0, 0, 0, -1, 0, 0, 1, 0),
    (1, 1, -1, 0, 0, 0, -1, -1, 1),
    (-1, -1, 1, 0, 0, 0, 1, 1, -1),
    (0, 0, 0, 1, 1, -1, -1, -1, 1),
    (0, 0, 0, -1, -1, 1, 1, 1, -1),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
)

CHAIN_PARAMS = (
    (),
    (((1, 0),),),
    (((1, 0),), ((0, 1),)),
    (((1, 0),), ((0, 1),), ((-1, 1),)),
)

ZERO_CONE_SPECS = (
    ("case-2a", (((1, 0), (0, 1), (-1, 1), (1, 1)),)),
    ("case-2b", (((1, 0),), ((0, 1), (-1, 1), (1, 1), (-2, 1)))),
    ("case-2c-first", (((1, 0),), ((0, 1),), ((-1, 1), (1, 1), (-2, 1), (2, 1)))),
    ("case-2c-second", (((1, 0),), ((0, 1),), ((-1, 1), (1, 1), (-2, 1), (-1, 2)))),
)


def _rows_equal(rows_a, rows_b) -> bool:
    return {scale_primitive(r) for r in rows_a} == {scale_primitive(r) for r in rows_b}


def _sets_equal(computed, expected) -> tuple[bool, str]:
    got = tuple(sorted(tuple(sorted(s)) for s in computed))
    want = tuple(sorted(tuple(sorted(s)) for s in expected))
    return got == want, f"got {got}, expected {want}"


def _cone_fixture(name: str, computed: Cone, expected_rows, strict=()) -> FixtureResult:
    expected = Cone(9 if len(expected_rows[0]) == 9 else 3, expected_rows, strict)
    if cones_closed_equal(computed, expected):
        return FixtureResult(name, True)
    return FixtureResult(
        name,
        False,
        f"rays {computed.edges()} vs expected {expected.edges()}",
    )


def _check_min_examples() -> list[FixtureResult]:
    out = []
    cases = [
        ("min-complement-empty", (), ((1, 0),)),
        ("min-complement-1", ((1, 0),), ((0, 1),)),
        (
            "min-complement-5",
            ((1, 0), (0, 1), (-1, 1), (1, 1), (-2, 1)),
            ((-1, 2), (2, 1)),
        ),
    ]
    for name, excl, want in cases:
        got = min_complement(excl)
        out.append(FixtureResult(name, got == want, f"got {got}, expected {want}"))
    ladders = {
        1: (((1, 0),),),
        2: (((1, 0), (0, 1)),),
        3: (((1, 0), (0, 1), (-1, 1)),),
        4: (((1, 0), (0, 1), (-1, 1), (1, 1)),),
        5: (((1, 0), (0, 1), (-1, 1), (1, 1), (-2, 1)),),
        6: (
            ((1, 0), (0, 1), (-1, 1), (1, 1), (-2, 1), (2, 1)),
            ((1, 0), (0, 1), (-1, 1), (1, 1), (-2, 1), (-1, 2)),
        ),
    }
    for n, want in ladders.items():
        ok, detail = _sets_equal(min_n((), n), want)
        out.append(FixtureResult(f"min-n-{n}", ok, detail))
    ok, detail = _sets_equal(
        min_n(((1, 0), (0, 1)), 4),
        (
            ((-1, 1), (1, 1), (-2, 1), (2, 1)),
            ((-1, 1), (1, 1), (-2, 1), (-1, 2)),
        ),
    )
    out.append(FixtureResult("min-4-two-choices", ok, detail))
    return out


def _check_kset_examples() -> list[FixtureResult]:
    out = [
        _cone_fixture(
            "kset-chain-3",
            kset_chain([(1, 0), (0, 1), (-1, 1)]),
            ((-1, 1, 0), (1, 0, -1), (0, 0, 2)),
        ),
        _cone_fixture(
            "kset-grouped-5-rows",
            kset([[(1, 0), (0, 1)], [], [(-1, 1)]]),
            ((-1, 1, 0), (1, 0, -1), (0, 0, 2), (1, -1, 0), (-1, 1, 0)),
        ),
    ]
    for name, spec in ZERO_CONE_SPECS:
        out.append(
            FixtureResult(
                f"zero-cone-{name}",
                kset_zero_test(spec),
                "expected a degenerate cone",
            )
        )
    return out


def _refinement_children_12() -> list[RefinementPair]:
    return refine_pair(initial_pair(), linset(1, 2))


def _check_example1() -> list[FixtureResult]:
    out = [_cone_fixture("initial-cone", initial_pair().cone, T0_A)]
    children = _refinement_children_12()
    out.append(
        FixtureResult("example1-child-count", len(children) == 3, f"got {len(children)}")
    )
    by_shape = {
        tuple(len(s[-1]) for s in (c.param.x_sets, c.param.y_sets, c.param.z_sets)): c
        for c in children
    }
    empty = CoveringParameter()
    shapes = {
        (1, 1, 1): (((1, 0),), ((1, 0),), ((1, 0),)),
        (3, 0, 1): (((1, 0), (0, 1), (-1, 1)), (), ((1, 0),)),
        (0, 3, 2): ((), ((1, 0), (0, 1), (-1, 1)), ((1, 0), (0, 1))),
    }
    q_expect = {
        (1, 1, 1): EX1_SHAPE111_Q,
        (3, 0, 1): EX1_SHAPE301_Q,
        (0, 3, 2): EX1_SHAPE032_Q,
    }
    k_expect = {
        # The printed product matrix for this shape contradicts the chain
        # construction and the printed refinement result; compare against the
        # derived value (member-set equal to the ambient closure product).
        (1, 1, 1): AMBIENT9,
        (3, 0, 1): EX1_SHAPE301_K + AMBIENT9,
        (0, 3, 2): EX1_SHAPE032_K + AMBIENT9,
    }
    result_expect = {
        (1, 1, 1): EX1_SHAPE111_RESULT_A,
        (3, 0, 1): EX1_SHAPE301_RESULT_A,
        (0, 3, 2): EX1_SHAPE032_RESULT_A,
    }
    for shape, (xs, ys, zs) in shapes.items():
        kc, qc = aux_cones(empty, xs, ys, zs, shape)
        tag = "x".join(str(n) for n in shape)
        out.append(_cone_fixture(f"example1-{tag}-product", kc, k_expect[shape]))
        out.append(
            FixtureResult(
                f"example1-{tag}-links",
                _rows_equal(qc.closed, q_expect[shape]),
                f"got {qc.closed}",
            )
        )
        child = by_shape.get(shape)
        if child is None:
            out.append(FixtureResult(f"example1-{tag}-child", False, "missing child"))
            continue
        out.append(_cone_fixture(f"example1-{tag}-child", child.cone, result_expect[shape]))
    # The full (three-equality) link system must cut the same member set once
    # the within-set equalities of the chain cones are present.
    kc, _ = aux_cones(empty, *shapes[(3, 0, 1)], (3, 0, 1))
    base = initial_pair().cone
    full = base.intersect(kc, Cone(9, EX1_SHAPE301_Q_FULL))
    optimized = base.intersect(kc, Cone(9, EX1_SHAPE301_Q))
    out.append(
        FixtureResult(
            "example1-3x0x1-link-optimization",
            cones_closed_equal(full, optimized),
            "single representative equality changed the member set",
        )
    )
    return out


def _check_example2() -> list[FixtureResult]:
    out = []
    cone = Cone(9, EX1_SHAPE032_RESULT_A, STRICT9)
    start = RefinementPair(cone, EX2_PARAM, EX2_PARAM.chains())
    xs = ((1, 0), (0, 1), (-1, 1))
    zs = ((-1, 1),)
    kc, qc = aux_cones(EX2_PARAM, xs, (), zs, (3, 0, 1))
    out.append(_cone_fixture("example2-product", kc, EX2_K + AMBIENT9))
    out.append(
        FixtureResult("example2-links", _rows_equal(qc.closed, EX2_Q), f"got {qc.closed}")
    )
    child = start.cone.intersect(kc, qc)
    out.append(_cone_fixture("example2-child", child, EX2_RESULT_A))
    children = refine_pair(start, linset(1, 2))
    match = [
        c
        for c in children
        if c.param.x_sets[-1] == xs and c.param.z_sets[-1] == zs and not c.param.y_sets[-1]
    ]
    out.append(
        FixtureResult(
            "example2-enumerated",
            len(match) == 1 and cones_closed_equal(match[0].cone, Cone(9, EX2_RESULT_A)),
            f"{len(match)} matching children",
        )
    )
    return out


def _check_chain() -> list[FixtureResult]:
    out = []
    expected_cones = [Cone(9, rows, STRICT9) for rows in (T0_A, T1_A, T2_A, T3_A)]
    diag = stop_set("diagonal")
    for a, b in ((3, 1), (1, 3)):
        res = run_algorithm(a, b, "diagonal", 13)
        name = f"chain-{a}-{b}"
        if len(res.generations) != 5 or res.totals()[-1] != 0:
            out.append(FixtureResult(name, False, f"totals {res.totals()}"))
            continue
        ok = True
        detail = ""
        for i in range(4):
            gen = res.generations[i]
            live = [p for p in gen if not p.cone.is_member_empty()]
            if len(live) != 1:
                ok, detail = False, f"generation {i} has {len(live)} non-empty pairs"
                break
            pair = live[0]
            if not cones_closed_equal(pair.cone, expected_cones[i]):
                ok, detail = False, f"T{i} mismatch: {pair.cone.edges()}"
                break
            want = CoveringParameter(CHAIN_PARAMS[i], CHAIN_PARAMS[i], CHAIN_PARAMS[i])
            if pair.param != want:
                ok, detail = False, f"P{i} mismatch: {pair.param}"
                break
            if i == 3 and not pair.cone.is_subset_of(diag):
                ok, detail = False, "T3 is not inside the diagonal"
                break
        out.append(FixtureResult(name, ok, detail))
    return out


FIXTURE_GROUPS: tuple[tuple[str, Callable[[], list[FixtureResult]]], ...] = (
    ("minimal-sets", _check_min_examples),
    ("ksets", _check_kset_examples),
    ("refinement-example-1", _check_example1),
    ("refinement-example-2", _check_example2),
    ("short-chain", _check_chain),
)


def run_fixtures() -> list[FixtureResult]:
    results = []
    for _, fn in FIXTURE_GROUPS:
        results.extend(fn())
    return results
