"""The dependence-relation engine, unit-tested and differential-tested.

The unit tests pin the engine's answers on hand-analyzed nests: exact
distances, direction vectors, kinds, the merged ``*`` view, the
rank-mismatch blocker, and the cross-nest fusion/fission primitives.

The Hypothesis differential test is the engine's ground truth: random
small affine nests are *executed* over their full iteration space, the
dependences that actually occur are collected, and every one of them
must be covered by a predicted relation whose directions match and
whose pinned distances agree.  Soundness, checked by brute force.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.analysis.deps import (
    ANY,
    EQ,
    GT,
    LT,
    Permutation,
    Skew,
    Tiling,
    UnrollJam,
    analyze_nest,
    fission_preventing,
    fusion_preventing,
    nest_dependences,
)
from repro.compiler.ir.builder import ProgramBuilder, loop, stmt
from repro.compiler.ir.expr import AffineExpr, var
from repro.compiler.ir.refs import AffineRef


def nest(body_factory, bounds, order=None):
    """A perfect nest over ``bounds`` = [(var, lo, hi), ...]."""
    order = order or [name for name, _, _ in bounds]
    inner = body_factory()
    for name, lo, hi in reversed(bounds):
        inner = [loop(name, lo, hi, inner)]
    return inner[0]


class TestRelations:
    def _arrays(self, n=32):
        b = ProgramBuilder("t")
        return b.array("A", (n, n)), b.array("B", (n, n))

    def test_exact_uniform_distance(self):
        A, _ = self._arrays()
        i, j = var("i"), var("j")
        head = nest(
            lambda: [stmt(writes=[A[i, j]], reads=[A[i - 1, j - 2]])],
            [("i", 1, 16), ("j", 2, 16)],
        )
        deps = nest_dependences(head)
        assert deps.analyzable
        assert len(deps.relations) == 1
        rel = deps.relations[0]
        assert rel.kind == "flow"
        assert rel.directions == (LT, LT)
        assert rel.distance == (1, 2)

    def test_anti_and_output_kinds(self):
        A, _ = self._arrays()
        i, j = var("i"), var("j")
        head = nest(
            lambda: [
                stmt(writes=[A[i, j]], reads=[A[i + 1, j]]),
                stmt(writes=[A[i, j]], reads=[]),
            ],
            [("i", 0, 8), ("j", 0, 8)],
        )
        deps = nest_dependences(head)
        kinds = {rel.kind for rel in deps.relations}
        # read A[i+1,j] before the write one i later: anti; the two
        # writes of A[i,j] in one iteration: output.
        assert "anti" in kinds
        assert "output" in kinds

    def test_loop_independent_relation(self):
        A, _ = self._arrays()
        i, j = var("i"), var("j")
        head = nest(
            lambda: [stmt(writes=[A[i, j]], reads=[A[i, j]])],
            [("i", 0, 8), ("j", 0, 8)],
        )
        deps = nest_dependences(head)
        assert len(deps.relations) == 1
        assert deps.relations[0].loop_independent
        assert deps.relations[0].distance == (0, 0)

    def test_disjoint_slices_are_independent(self):
        A, _ = self._arrays()
        i, j = var("i"), var("j")
        head = nest(
            lambda: [stmt(writes=[A[i, 0]], reads=[A[i, 1]])],
            [("i", 0, 8), ("j", 0, 8)],
        )
        deps = nest_dependences(head)
        # The write repeats across j (a real output self-dependence),
        # but the constant column slices never overlap: no flow/anti.
        assert all(rel.kind == "output" for rel in deps.relations)

    def test_gcd_filter_kills_stride_mismatch(self):
        # A[2i] vs A[2i+1]: even vs odd elements, never equal.
        b = ProgramBuilder("t")
        A = b.array("A", (64,))
        i = var("i")
        head = nest(
            lambda: [stmt(writes=[A[i * 2]], reads=[A[i * 2 + 1]])],
            [("i", 0, 16)],
        )
        assert nest_dependences(head).relations == []

    def test_coupled_subscript_direction(self):
        # A[i, j] written, A[j, i] read: no single subscript pins a
        # distance, but the engine still bounds it.
        A, _ = self._arrays()
        i, j = var("i"), var("j")
        head = nest(
            lambda: [stmt(writes=[A[i, j]], reads=[A[j, i]])],
            [("i", 0, 8), ("j", 0, 8)],
        )
        deps = nest_dependences(head)
        assert deps.analyzable
        assert deps.relations  # i' = j, j' = i is feasible
        assert not deps.fully_permutable()

    def test_merged_view_collapses_to_star(self):
        A, _ = self._arrays()
        i, j = var("i"), var("j")
        # A[i, j] vs A[i, 2]: the j level can be <, = or > depending
        # on where j sits relative to 2 — expanded relations disagree,
        # the merged view shows '*'.
        head = nest(
            lambda: [stmt(writes=[A[i, j]], reads=[A[i, 2]])],
            [("i", 0, 8), ("j", 0, 8)],
        )
        deps = nest_dependences(head)
        assert len(deps.relations) > len(deps.merged())
        anti = [rel for rel in deps.merged() if rel.kind == "anti"]
        assert anti and anti[0].directions[1] == ANY

    def test_rank_mismatch_is_unanalyzable_not_truncated(self):
        from repro.compiler.ir.refs import ArrayDecl

        b = ProgramBuilder("t")
        A = b.array("A", (8, 8))
        flat = ArrayDecl("A", (64,))  # same name, rank 1: aliasing bug
        i, j = var("i"), var("j")
        head = nest(
            lambda: [stmt(writes=[A[i, j]], reads=[AffineRef(flat, (var("i"),))])],
            [("i", 0, 8), ("j", 0, 8)],
        )
        deps = nest_dependences(head)
        assert not deps.analyzable
        assert any("rank mismatch" in bad.reason for bad in deps.unanalyzable)
        verdict = deps.legal(Tiling())
        assert not verdict
        assert "unanalyzable" in verdict.reason

    def test_symbolic_bounds_still_solve(self):
        # Inner bounds depend on the outer variable (triangular nest).
        A, _ = self._arrays()
        i, j = var("i"), var("j")
        body = [stmt(writes=[A[i, j]], reads=[A[i - 1, j]])]
        head = loop("i", 1, 16, [loop("j", 0, var("i") + 1, body)])
        deps = nest_dependences(head)
        assert deps.analyzable
        assert any(rel.directions[0] == LT for rel in deps.relations)


class TestLegality:
    def _nest_with(self, write_sub, read_sub, bounds=None):
        b = ProgramBuilder("t")
        A = b.array("A", (32, 32))
        head = nest(
            lambda: [stmt(writes=[A[write_sub]], reads=[A[read_sub]])],
            bounds or [("i", 1, 16), ("j", 1, 16)],
        )
        return nest_dependences(head)

    def test_interchange_of_uniform_dependence(self):
        i, j = var("i"), var("j")
        deps = self._nest_with((i, j), (i - 1, j - 1))
        assert deps.legal(Permutation((1, 0)))

    def test_interchange_of_skewed_dependence_refused(self):
        i, j = var("i"), var("j")
        deps = self._nest_with((i, j), (i - 1, j + 1))
        verdict = deps.legal(Permutation((1, 0)))
        assert not verdict
        assert "lexicographically negative" in verdict.reason

    def test_tiling_requires_full_permutability(self):
        i, j = var("i"), var("j")
        assert self._nest_with((i, j), (i - 1, j - 1)).legal(Tiling())
        assert not self._nest_with((i, j), (i - 1, j + 1)).legal(Tiling())

    def test_unroll_jam_forward_suffix_is_legal(self):
        # (1, 0): the jammed copies never touch the same element out
        # of order — the rule the legacy all-zero test got wrong.
        i, j = var("i"), var("j")
        assert self._nest_with((i, j), (i - 1, j)).legal(UnrollJam(0))

    def test_unroll_jam_reversed_suffix_refused(self):
        i, j = var("i"), var("j")
        verdict = self._nest_with((i, j), (i - 1, j + 1)).legal(
            UnrollJam(0)
        )
        assert not verdict
        assert "jammed copies" in verdict.reason

    def test_skew_makes_wavefront_tileable(self):
        i, j = var("i"), var("j")
        deps = self._nest_with((i, j), (i - 1, j + 1))
        assert not deps.fully_permutable()
        assert deps.skew_factor(wrt=0, level=1) == 1
        assert deps.legal(Skew(wrt=0, level=1, factor=1))
        skewed = deps.skewed(wrt=0, level=1, factor=1)
        assert skewed.fully_permutable()

    def test_skew_factor_scales_with_distance(self):
        i, j = var("i"), var("j")
        deps = self._nest_with((i, j), (i - 1, j + 3), bounds=[("i", 1, 16), ("j", 1, 12)])
        assert deps.skew_factor(wrt=0, level=1) == 3

    def test_skew_cannot_fix_unpinned_backward_inner(self):
        # A[i, j] vs A[i-1, 2]: a (<, >) relation exists whose inner
        # distance the subscripts do not pin — no finite factor is
        # provably enough.
        i, j = var("i"), var("j")
        deps = self._nest_with((i, j), (i - 1, 2))
        assert not deps.fully_permutable()
        assert deps.skew_factor(wrt=0, level=1) is None


class TestCrossNest:
    def _pair(self, first_refs, second_refs, n=16):
        b = ProgramBuilder("t")
        A = b.array("A", (n,))
        B = b.array("B", (n,))
        arrays = {"A": A, "B": B}
        i, j = var("i"), var("j")

        def build(loop_var, refs):
            w, reads = refs
            s = stmt(
                writes=[arrays[w[0]][w[1](var(loop_var))]],
                reads=[arrays[r[0]][r[1](var(loop_var))]
                       for r in reads],
            )
            return loop(loop_var, 1, n - 1, [s])

        first = build("i", first_refs)
        second = build("j", second_refs)
        stmts1 = list(first.all_statements())
        stmts2 = list(second.all_statements())
        return fusion_preventing(
            [first], [second], stmts1, stmts2, {"j": "i"}
        )

    def test_forward_reuse_fuses(self):
        reason = self._pair(
            (("B", lambda v: v), [("A", lambda v: v)]),
            (("A", lambda v: v), [("B", lambda v: v - 1)]),
        )
        assert reason is None

    def test_backward_flow_prevents_fusion(self):
        reason = self._pair(
            (("B", lambda v: v), [("A", lambda v: v)]),
            (("A", lambda v: v), [("B", lambda v: v + 1)]),
        )
        assert reason is not None
        assert "fusion-preventing" in reason
        assert "B" in reason

    def test_fission_of_independent_groups(self):
        b = ProgramBuilder("t")
        A = b.array("A", (16,))
        B = b.array("B", (16,))
        i = var("i")
        s1 = stmt(writes=[A[i]], reads=[A[i - 1]])
        s2 = stmt(writes=[B[i]], reads=[B[i - 1]])
        head = loop("i", 1, 16, [s1, s2])
        assert fission_preventing([head], [s1], [s2]) is None

    def test_fission_preventing_backward_use(self):
        b = ProgramBuilder("t")
        A = b.array("A", (16,))
        B = b.array("B", (16,))
        i = var("i")
        # s2 writes B[i]; s1 reads B[i-1] the *next* iteration — after
        # fission every s1 runs first and reads stale values.
        s1 = stmt(writes=[A[i]], reads=[B[i - 1]])
        s2 = stmt(writes=[B[i]], reads=[A[i]])
        head = loop("i", 1, 16, [s1, s2])
        reason = fission_preventing([head], [s1], [s2])
        assert reason is not None
        assert "fission-preventing" in reason


# -- differential ground truth -------------------------------------------

_COEF = st.integers(min_value=-2, max_value=2)
_CONST = st.integers(min_value=-3, max_value=3)


@st.composite
def small_nests(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    names = [f"v{k}" for k in range(depth)]
    bounds = []
    for name in names:
        lo = draw(st.integers(min_value=0, max_value=1))
        trip = draw(st.integers(min_value=2, max_value=3))
        bounds.append((name, lo, lo + trip))

    def subscript():
        expr = AffineExpr(const=draw(_CONST))
        for name in names:
            expr = expr + var(name) * draw(_COEF)
        return expr

    n_stmts = draw(st.integers(min_value=1, max_value=2))
    statements = []
    for _ in range(n_stmts):
        statements.append(
            (
                subscript(),  # one write
                [subscript() for _ in range(draw(
                    st.integers(min_value=0, max_value=2)))],
            )
        )
    return bounds, statements


def _build(bounds, statements):
    b = ProgramBuilder("rand")
    A = b.array("A", (64,))
    body = [
        stmt(writes=[AffineRef(A, (w,))],
             reads=[AffineRef(A, (r,)) for r in reads])
        for w, reads in statements
    ]
    head = nest(lambda: body, bounds)
    return head, list(head.perfect_nest_loops())


def _brute_force(bounds, statements):
    """Every dependence that actually occurs, as
    (source position, sink position, directions, distances)."""
    by_element = {}
    ranges = [range(lo, hi) for _, lo, hi in bounds]
    names = [name for name, _, _ in bounds]
    for point in product(*ranges):
        env = dict(zip(names, point))
        for index, (w, reads) in enumerate(statements):
            for slot, r in enumerate(reads):
                by_element.setdefault(r.eval(env), []).append(
                    (point, (index, 0, slot), False)
                )
            by_element.setdefault(w.eval(env), []).append(
                (point, (index, 1, 0), True)
            )
    observed = set()
    for touches in by_element.values():
        touches.sort(key=lambda t: (t[0], t[1]))
        for a in range(len(touches)):
            for b in range(a + 1, len(touches)):
                src, snk = touches[a], touches[b]
                if not (src[2] or snk[2]):
                    continue
                delta = tuple(y - x for x, y in zip(src[0], snk[0]))
                dirs = tuple(
                    LT if d > 0 else (EQ if d == 0 else GT)
                    for d in delta
                )
                observed.add((src[1], snk[1], dirs, delta))
    return observed


@given(small_nests())
@settings(max_examples=60, deadline=None)
def test_engine_covers_every_executed_dependence(case):
    bounds, statements = case
    head, chain = _build(bounds, statements)
    deps = analyze_nest(chain)
    assert deps.analyzable
    predicted = deps.relations
    for src, snk, dirs, delta in _brute_force(bounds, statements):
        matches = [
            rel for rel in predicted
            if rel.source == src and rel.sink == snk
            and rel.directions == dirs
            and all(
                d is None or d == got
                for d, got in zip(rel.distance, delta)
            )
        ]
        assert matches, (
            f"executed dependence {src}->{snk} {dirs} {delta} "
            f"not predicted; engine said {predicted}"
        )


@given(small_nests())
@settings(max_examples=30, deadline=None)
def test_merged_view_covers_expanded_relations(case):
    bounds, statements = case
    _, chain = _build(bounds, statements)
    deps = analyze_nest(chain)
    merged = {(rel.source, rel.sink): rel for rel in deps.merged()}
    for rel in deps.relations:
        m = merged[(rel.source, rel.sink)]
        for level, direction in enumerate(rel.directions):
            assert m.directions[level] in (direction, ANY)
