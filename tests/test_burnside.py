"""Burnside rings, tables of marks, crossed Burnside algebras, centers of
group algebras, and primitive-idempotent splitting — with independent
brute-force oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mackeykit.burnside import (
    CenterOfGroupAlgebra,
    CommutativeAlgebra,
    CrossedBurnsideAlgebra,
    GSet,
    NotSplitOverRationals,
    PairClass,
    _burnside_structure,
    _frobenius_fixed_space,
    block_decomposition,
    burnside_multiply,
    burnside_vector,
    gset_from_subgroup,
    gset_induce,
    gset_restrict,
    primitive_idempotents,
    table_of_marks,
)
from mackeykit.catalog import builtin_group
from mackeykit.groups import FiniteGroup, SubgroupLattice, group_from_generators, group_from_table
from mackeykit.linalg import GF, QQ, Mat

XBURN_GROUPS = ["c2", "c3", "v4", "s3", "d8", "q8"]


# -- G-sets -------------------------------------------------------------------


def test_gset_rejects_broken_identity_row():
    G = builtin_group("c2")
    with pytest.raises(ValueError):
        GSet(G, np.array([[1, 0], [0, 1]]))


def test_gset_validates_homomorphism():
    G = builtin_group("c4")
    bad = G.table.copy()  # the regular action, with one row made non-injective
    bad[1, 0] = bad[1, 1]
    with pytest.raises(ValueError):
        GSet(G, bad)


def test_gset_rejects_out_of_range_points():
    G = builtin_group("c2")
    with pytest.raises(ValueError):
        GSet(G, np.array([[0, 1], [1, 7]]))


def test_coset_gset_orbit_and_stabilizer():
    G = builtin_group("s4")
    for S in G.subgroups_up_to_conjugacy():
        X = gset_from_subgroup(G, S)
        assert X.size == S.index
        assert X.orbits() == [tuple(range(X.size))]
        # stabilizer of the identity coset is exactly S
        assert X.stabilizer(0).elements == S.elements


def test_fixed_points_oracle():
    G = builtin_group("d8")
    subs = G.subgroups_up_to_conjugacy()
    X = gset_from_subgroup(G, subs[2])
    for S in subs:
        manual = sum(1 for x in range(X.size)
                     if all(X.action[g, x] == x for g in S.elements))
        assert X.fixed_points(S) == manual


def test_disjoint_union_and_product_mark_homomorphisms():
    # marks are additive on unions and multiplicative on products
    G = builtin_group("s3")
    subs = G.subgroups_up_to_conjugacy()
    A = gset_from_subgroup(G, subs[1])
    B = gset_from_subgroup(G, subs[2])
    U = A.disjoint_union(B)
    P = A.product(B)
    for S in subs:
        assert U.fixed_points(S) == A.fixed_points(S) + B.fixed_points(S)
        assert P.fixed_points(S) == A.fixed_points(S) * B.fixed_points(S)


# -- table of marks and the Burnside ring -------------------------------------


def test_marks_c2_s3_frozen():
    assert table_of_marks(builtin_group("c2")).tolist() == [[2, 0], [1, 1]]
    assert table_of_marks(builtin_group("s3")).tolist() == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]


def relabelled(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G's table under a random bijection of its elements, as a table-form
    group (so the identity is usually not element 0)."""
    p = np.random.default_rng(seed).permutation(G.order)
    t = np.empty_like(G.table)
    t[np.ix_(p, p)] = p[G.table]
    return group_from_table(t.tolist())


def test_marks_against_direct_fixed_point_count():
    groups = [builtin_group(name) for name in ["c4", "v4", "d8", "a4"]]
    for G in groups + [relabelled(builtin_group("s4"), 1), relabelled(builtin_group("q8"), 2)]:
        subs = G.subgroups_up_to_conjugacy()
        marks = table_of_marks(G)
        for i, Si in enumerate(subs):
            X = gset_from_subgroup(G, Si)
            for j, Sj in enumerate(subs):
                assert marks[i, j] == X.fixed_points(Sj)


def test_cached_burnside_tables_are_read_only():
    # writing into the cached marks once doubled them for every later caller
    G = builtin_group("s3")
    m = table_of_marks(G)
    with pytest.raises(ValueError, match="read-only"):
        m *= 2
    B = _burnside_structure(G)
    with pytest.raises(ValueError, match="read-only"):
        B[0, 0, 0] = 5
    assert table_of_marks(G).tolist() == [[6, 0, 0, 0], [3, 1, 0, 0], [2, 0, 2, 0], [1, 1, 1, 1]]
    assert burnside_multiply(G, [0, 1, 0, 0], [0, 1, 0, 0]).tolist() == [1, 1, 0, 0]


def test_marks_lower_triangular_positive_diagonal():
    for name in XBURN_GROUPS + ["s4"]:
        marks = table_of_marks(builtin_group(name))
        n = marks.shape[0]
        for i in range(n):
            assert marks[i, i] > 0
            for j in range(i + 1, n):
                assert marks[i, j] == 0


def test_burnside_vector_classifies_orbits():
    G = builtin_group("d8")
    subs = G.subgroups_up_to_conjugacy()
    X = gset_from_subgroup(G, subs[1]).disjoint_union(gset_from_subgroup(G, subs[4]))
    v = burnside_vector(X)
    assert sum(int(c) * S.index for c, S in zip(v, subs)) == X.size
    assert int(v.sum()) == len(X.orbits())


@pytest.mark.parametrize("name", ["s3", "d8", "a4"])
def test_burnside_multiply_against_gset_product(name):
    """[G/K][G/H] computed by double cosets must equal the orbit
    decomposition of the honest cartesian product G-set."""
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    k = len(subs)
    for i in range(k):
        for j in range(k):
            a = np.zeros(k, dtype=np.int64)
            b = np.zeros(k, dtype=np.int64)
            a[i] = 1
            b[j] = 1
            via_cosets = burnside_multiply(G, a, b)
            prod = gset_from_subgroup(G, subs[i]).product(gset_from_subgroup(G, subs[j]))
            assert via_cosets.tolist() == burnside_vector(prod).tolist()


def test_burnside_multiply_regular_s3():
    G = builtin_group("s3")
    reg = np.array([1, 0, 0, 0])  # [G/1]
    assert burnside_multiply(G, reg, reg).tolist() == [6, 0, 0, 0]


# -- commutative algebra scaffold ---------------------------------------------


def _poly_algebra(field, coeffs):
    """k[x]/(f) as a CommutativeAlgebra via the companion matrix of the monic
    polynomial f (coeffs low-to-high, leading 1 omitted)."""
    n = len(coeffs)
    C = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        C[i, i - 1] = 1
    for i, c in enumerate(coeffs):
        C[i, n - 1] = -c
    Cm = Mat(field, C)
    left = Mat.stack(field, [Cm.pow(k) for k in range(n)], (n, n))
    unit = Mat.identity(field, n).col(0)
    return CommutativeAlgebra(field, left, unit)


def test_commutative_algebra_rejects_broken_unit():
    swap = Mat(QQ, np.array([[0, 1], [1, 0]]))
    unit = Mat(QQ, np.array([[1], [0]]))
    with pytest.raises(ArithmeticError):
        CommutativeAlgebra(QQ, Mat.stack(QQ, [swap, Mat.identity(QQ, 2)], (2, 2)), unit)


def test_commutative_algebra_rejects_non_associative():
    # basis 1, x, y with x^2 = y^2 = 0 and xy = yx = 1:
    # (xx)y = 0 but x(xy) = x, so multiplication cannot be associative
    L0 = Mat.identity(QQ, 3)
    L1 = Mat(QQ, np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]]))
    L2 = Mat(QQ, np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0]]))
    unit = Mat(QQ, np.array([[1], [0], [0]]))
    with pytest.raises(ArithmeticError):
        CommutativeAlgebra(QQ, Mat.stack(QQ, [L0, L1, L2], (3, 3)), unit)


def test_primitive_idempotents_split_product_ring():
    # Q[x]/(x^2 - 1) = Q x Q: idempotents (1 +- x)/2
    alg = _poly_algebra(QQ, [-1, 0])
    idems = primitive_idempotents(alg)
    assert len(idems) == 2
    vals = sorted(tuple(e.to_fractions()[k][0] for k in range(2)) for e in idems)
    assert vals == [(Fraction(1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2))]


def test_primitive_idempotents_field_extension_is_local():
    # Q[x]/(x^2 + 1) is a field: only the unit
    alg = _poly_algebra(QQ, [1, 0])
    idems = primitive_idempotents(alg)
    assert len(idems) == 1
    assert idems[0] == alg.unit


def test_primitive_idempotents_local_with_nilpotents():
    # Q[x]/(x^2): local, nilradical (x)
    alg = _poly_algebra(QQ, [0, 0])
    idems = primitive_idempotents(alg)
    assert len(idems) == 1 and idems[0] == alg.unit


def test_primitive_idempotents_refuses_quartic_field():
    # Q[x]/(x^4 - 2) is a degree-4 field: outside the certified split family
    alg = _poly_algebra(QQ, [-2, 0, 0, 0])
    with pytest.raises(NotSplitOverRationals):
        primitive_idempotents(alg)


def test_primitive_idempotents_modp_frobenius_split():
    # F5[x]/(x^2 - 1) = F5 x F5
    alg = _poly_algebra(GF(5), [-1, 0])
    idems = primitive_idempotents(alg)
    assert len(idems) == 2
    s = idems[0] + idems[1]
    assert s == alg.unit
    for e in idems:
        assert alg.multiply(e, e) == e
    assert alg.multiply(idems[0], idems[1]).is_zero()


def test_primitive_idempotents_modp_inseparable_looking_local():
    # F2[x]/(x^2): local
    alg = _poly_algebra(GF(2), [0, 0])
    assert primitive_idempotents(alg) == [alg.unit]


def test_primitive_idempotents_artinian_product_with_nil():
    # Q[x]/(x^2(x-1)) = Q[x]/(x^2)  x  Q: two primitive idempotents
    alg = _poly_algebra(QQ, [0, 0, -1])
    idems = primitive_idempotents(alg)
    assert len(idems) == 2
    assert idems[0] + idems[1] == alg.unit
    for e in idems:
        assert alg.multiply(e, e) == e


# -- the structure-tensor checks against per-pair loops ------------------------


def _per_pair_verdict(field, left, unit):
    """The message of the first failing check of a per-pair scan over the
    left-multiplication matrices, on Mats (the reference the tensor checks
    must agree with), or None when every check passes."""
    r = len(left)

    def mult_matrix(x):
        out = Mat.zeros(field, r, r)
        for i in range(r):
            out = out + left[i].scale(x.entry(i, 0))
        return out

    if not mult_matrix(unit).is_identity():
        return "unit law fails"
    for i in range(r):
        for j in range(i):
            if left[i].col(j) != left[j].col(i):
                return f"not commutative at basis pair {(i, j)}"
    for i in range(r):
        for j in range(r):
            if mult_matrix(left[i].col(j)) != left[i] @ left[j]:
                return f"not associative at basis pair {(i, j)}"
    return None


def _tensor_verdict(field, left, unit):
    try:
        CommutativeAlgebra(field, Mat.stack(field, left, (len(left),) * 2), unit)
    except ArithmeticError as exc:
        return str(exc)
    return None


def _rebased(field, left, unit, P):
    """The same algebra on the basis f_a = sum_i P[i, a] e_i."""
    r = len(left)
    Pm = Mat(field, P)
    Pinv = Pm.inv()
    new = []
    for a in range(r):
        La = Mat.zeros(field, r, r)
        for i in range(r):
            La = La + left[i].scale(Pm.entry(i, a))
        new.append(Pinv @ La @ Pm)
    return new, Pinv @ unit


def _center_data(name, field, P=None):
    alg = CenterOfGroupAlgebra(builtin_group(name), field).algebra
    left, unit = [alg.left_mult[i] for i in range(alg.dim)], alg.unit
    return (left, unit) if P is None else _rebased(field, left, unit, P)


# (group, field, a change of basis with denominators over Q, or None)
_CHECK_CASES = [
    ("s3", QQ, None),
    ("d8", QQ, np.array([[2, 1, 0, 0, 0], [0, 1, 0, 0, 3], [0, 0, 1, 0, 0],
                         [1, 0, 0, 5, 0], [0, 0, 0, 1, 1]])),
    ("s4", GF(3), None),
    ("q8", GF(7), np.array([[1, 2, 3, 4, 5], [0, 1, 6, 2, 0], [0, 0, 1, 3, 1],
                            [0, 0, 0, 1, 4], [0, 0, 0, 0, 1]])),
]


@pytest.mark.parametrize("name,field,P", _CHECK_CASES, ids=[c[0] + repr(c[1]) for c in _CHECK_CASES])
def test_tensor_checks_name_the_first_failing_pair(name, field, P):
    left, unit = _center_data(name, field, P)
    assert _tensor_verdict(field, left, unit) is None
    assert _per_pair_verdict(field, left, unit) is None
    r = len(left)
    rng = np.random.default_rng(11)
    kinds = set()
    # one broken constant, then two (so that two pairs can fail and the
    # order of the scan matters)
    for count in [1] * 30 + [2] * 30:
        broken = list(left)
        for _ in range(count):
            i, k, j = (int(x) for x in rng.integers(0, r, size=3))
            delta = np.zeros((r, r), dtype=np.int64)
            delta[k, j] = 1
            broken[i] = broken[i] + Mat(field, delta).scale(Fraction(1, 2) if field.p is None else 1)
        want = _per_pair_verdict(field, broken, unit)  # None: still an algebra
        assert _tensor_verdict(field, broken, unit) == want
        kinds.add(str(want).split(" at ")[0])
    assert kinds - {"None"} == {"unit law fails", "not commutative", "not associative"}


def test_tensor_checks_name_the_pair_of_a_commuting_associativity_break():
    # a symmetric change to e_1 e_2 = e_2 e_1 keeps commutativity and breaks
    # associativity at the first pair the per-pair scan meets
    field = QQ
    left, unit = _center_data("d8", field)
    r = len(left)
    for i, j, k in [(1, 2, 3), (2, 4, 0), (3, 3, 1)]:
        delta = np.zeros((r, r), dtype=np.int64)
        delta[k, j] = 1
        broken = list(left)
        broken[i] = left[i] + Mat(field, delta)
        if i != j:
            swap = np.zeros((r, r), dtype=np.int64)
            swap[k, i] = 1
            broken[j] = left[j] + Mat(field, swap)
        want = _per_pair_verdict(field, broken, unit)
        assert want.startswith("not associative")
        assert _tensor_verdict(field, broken, unit) == want


def test_tensor_products_exact_past_int64_for_a_large_prime():
    # (p - 1)^2 r >= 2^63: every contraction needs Python integers
    p = 2147483647
    field = GF(p)
    rng = np.random.default_rng(5)
    P = np.triu(rng.integers(1, p, size=(5, 5)))
    left, unit = _center_data("d8", field, P)
    r = len(left)
    assert (p - 1) ** 2 * r >= 2 ** 63
    assert max(int(L.num.max()) for L in left) > 2 ** 30
    alg = CommutativeAlgebra(field, Mat.stack(field, left, (r, r)), unit)
    assert alg.left_mult == Mat.stack(field, left, (r, r)) and alg.unit == unit
    for _ in range(5):
        x = Mat(field, rng.integers(0, p, size=(r, 1)))
        y = Mat(field, rng.integers(0, p, size=(r, 1)))
        Lx = Mat.zeros(field, r, r)
        for i in range(r):
            Lx = Lx + left[i].scale(x.entry(i, 0))
        assert alg.mult_matrix(x) == Lx
        assert alg.multiply(x, y) == Lx @ y
        assert alg.power(x, 3) == Lx @ Lx @ x
    broken = list(left)
    broken[2] = left[2] + Mat(field, np.eye(r, dtype=np.int64))
    want = _per_pair_verdict(field, broken, unit)
    assert want is not None and _tensor_verdict(field, broken, unit) == want


def test_left_mult_reads_back_copies():
    alg = _poly_algebra(QQ, [-1, 0])
    L = alg.left_mult
    L[1].num[0, 0] = 7
    assert alg.left_mult[1] == Mat(QQ, np.array([[0, 1], [1, 0]]))


# -- the Frobenius-fixed splitter over F_p ---------------------------------------


@pytest.mark.parametrize("p,coeffs,s", [
    (2, [0, 0], 1),         # F_2[x]/(x^2): local with a nilpotent
    (3, [1, 0], 1),         # F_3[x]/(x^2 + 1) = F_9: a field extension
    (5, [-1, 0], 2),        # F_5 x F_5
    (3, [0, 0, -1], 2),     # F_3[x]/(x^2 (x - 1))
    (2, [-1, 0, 0], 2),     # F_2[x]/(x^3 - 1) = F_2 x F_4
    (7, [-1, 0, 0], 3),     # F_7[x]/(x^3 - 1) = F_7^3
])
def test_frobenius_fixed_space_counts_primitive_idempotents(p, coeffs, s):
    alg = _poly_algebra(GF(p), coeffs)
    assert _frobenius_fixed_space(alg).ncols == s
    idems = primitive_idempotents(alg)
    assert len(idems) == s
    if s == 1:
        assert idems == [alg.unit]


@pytest.mark.parametrize("name", ["s3", "d8", "a4", "s4"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_fixed_space_dimension_is_the_block_count(name, p):
    G = builtin_group(name)
    Z = CenterOfGroupAlgebra(G, GF(p))
    fixed = _frobenius_fixed_space(Z.algebra)
    for c in range(fixed.ncols):
        z = fixed.col(c)
        assert Z.algebra.power(z, p) == z
    assert fixed.ncols == len(block_decomposition(G, GF(p)))


# -- center of the group algebra and blocks -----------------------------------


def enumerate_idempotents_center(G, field):
    """Exhaustive scan of the full finite center (oracle)."""
    Z = CenterOfGroupAlgebra(G, field)
    k = Z.dim
    p = field.p
    out = []
    for coeffs in itertools.product(range(p), repeat=k):
        v = Mat(field, np.array(coeffs, dtype=np.int64).reshape(k, 1))
        if Z.multiply(v, v) == v:
            out.append(v)
    return Z, out


def primitive_among(Z, idems):
    """e is primitive if nonzero and not refinable: no idempotent f with
    0 != f != e and e f = f."""
    prim = []
    for e in idems:
        if e.is_zero():
            continue
        refinable = any(
            (not f.is_zero()) and f != e and Z.multiply(e, f) == f
            for f in idems)
        if not refinable:
            prim.append(e)
    return prim


@pytest.mark.parametrize("p,expected_dims", [(2, [2, 4]), (3, [6])])
def test_s3_blocks_match_exhaustive_center_oracle(p, expected_dims):
    G = builtin_group("s3")
    field = GF(p)
    Z, idems = enumerate_idempotents_center(G, field)
    prim = primitive_among(Z, idems)
    blocks = block_decomposition(G, field)
    assert sorted(b.dimension for b in blocks) == sorted(expected_dims)
    assert sum(b.dimension for b in blocks) == G.order
    got = sorted(tuple(map(int, b.idempotent_classes.num.ravel())) for b in blocks)
    want = sorted(tuple(map(int, e.num.ravel())) for e in prim)
    assert got == want


def test_block_dimensions_all_groups_frozen():
    expected = {
        ("c2", 2): [2], ("c2", 3): [1, 1],
        ("c3", 2): [1, 2], ("c3", 3): [3],
        ("c4", 2): [4], ("c4", 3): [1, 1, 2],
        ("v4", 2): [4], ("v4", 3): [1, 1, 1, 1],
        ("s3", 2): [2, 4], ("s3", 3): [6],
        ("d8", 2): [8], ("d8", 3): [1, 1, 1, 1, 4],
        ("q8", 2): [8], ("q8", 3): [1, 1, 1, 1, 4],
        ("a4", 2): [12], ("a4", 3): [3, 9],
        ("s4", 2): [24], ("s4", 3): [6, 9, 9],
    }
    for (name, p), dims in expected.items():
        blocks = block_decomposition(builtin_group(name), GF(p))
        assert sorted(b.dimension for b in blocks) == dims, (name, p)


def test_rational_blocks_frozen():
    expected = {
        "c2": [1, 1], "c3": [1, 2], "c4": [1, 1, 2], "v4": [1, 1, 1, 1],
        "s3": [1, 1, 4], "d8": [1, 1, 1, 1, 4], "q8": [1, 1, 1, 1, 4],
        "a4": [1, 2, 9], "s4": [1, 1, 4, 9, 9],
    }
    for name, dims in expected.items():
        blocks = block_decomposition(builtin_group(name), QQ)
        assert sorted(b.dimension for b in blocks) == dims, name
        assert sum(b.dimension for b in blocks) == builtin_group(name).order


def test_block_idempotents_are_orthogonal_decomposition_of_one():
    G = builtin_group("a4")
    field = GF(3)
    Z = CenterOfGroupAlgebra(G, field)
    blocks = block_decomposition(G, field)
    total = Mat.zeros(field, Z.dim, 1)
    for b in blocks:
        e = b.idempotent_classes
        assert Z.multiply(e, e) == e
        total = total + e
    assert total == Z.algebra.unit
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert Z.multiply(blocks[i].idempotent_classes,
                              blocks[j].idempotent_classes).is_zero()


# -- crossed Burnside algebra ---------------------------------------------------


def xburn_rank_oracle(G) -> int:
    """Count G-orbits of pairs (S, a) with S a subgroup centralized by a,
    by direct orbit enumeration on the raw pair set."""
    pairs = set()
    for S in G.all_subgroups():
        for a in range(G.order):
            if all(G.mul(a, s) == G.mul(s, a) for s in S):
                pairs.add((S, a))
    seen = set()
    count = 0
    for pair in pairs:
        if pair in seen:
            continue
        count += 1
        S, a = pair
        for g in range(G.order):
            seen.add((G.conjugate_subgroup(g, S), G.conj(g, a)))
    return count


@pytest.mark.parametrize("name", XBURN_GROUPS)
def test_xburn_rank_matches_pair_orbit_oracle(name):
    G = builtin_group(name)
    xb = CrossedBurnsideAlgebra(G)
    assert xb.rank == xburn_rank_oracle(G)


def test_xburn_ranks_frozen():
    ranks = {"c2": 4, "c3": 6, "v4": 20, "s3": 8, "d8": 29, "q8": 21}
    for name, r in ranks.items():
        assert CrossedBurnsideAlgebra(builtin_group(name)).rank == r


def test_xburn_c2_structure():
    G = builtin_group("c2")
    xb = CrossedBurnsideAlgebra(G)
    assert xb.rank == 4
    # basis in canonical order: (1,e), (1,s), (C2,e), (C2,s)
    labels = [(pc.subgroup, pc.element) for pc in xb.basis]
    assert labels == [((0,), 0), ((0,), 1), ((0, 1), 0), ((0, 1), 1)]
    # unit is (G, 1)
    assert xb.basis[xb.unit_index].subgroup == (0, 1)
    assert xb.basis[xb.unit_index].element == 0
    # (1, s)^2 = 2 (1, e): two double cosets 1\G/1, each contributes (1, s*s)
    i = xb.basis_index((0,), 1)
    j = xb.basis_index((0,), 0)
    v = np.zeros(4, dtype=np.int64)
    v[i] = 1
    out = xb.multiply(v, v)
    expected = np.zeros(4, dtype=np.int64)
    expected[j] = 2
    assert out.tolist() == expected.tolist()


def test_xburn_unit_and_commutativity_exhaustive():
    for name in XBURN_GROUPS:
        xb = CrossedBurnsideAlgebra(builtin_group(name))
        r = xb.rank
        u = np.zeros(r, dtype=np.int64)
        u[xb.unit_index] = 1
        for i in range(r):
            e = np.zeros(r, dtype=np.int64)
            e[i] = 1
            assert xb.multiply(u, e).tolist() == e.tolist()
            for j in range(i, r):
                f = np.zeros(r, dtype=np.int64)
                f[j] = 1
                assert xb.multiply(e, f).tolist() == xb.multiply(f, e).tolist()


def test_xburn_associativity_random_triples():
    rng = np.random.default_rng(3)
    for name in ["s3", "d8"]:
        xb = CrossedBurnsideAlgebra(builtin_group(name))
        for _ in range(25):
            x, y, z = rng.integers(-2, 3, size=(3, xb.rank))
            lhs = xb.multiply(xb.multiply(x, y), z)
            rhs = xb.multiply(x, xb.multiply(y, z))
            assert lhs.tolist() == rhs.tolist()


@pytest.mark.parametrize("name", XBURN_GROUPS)
def test_xburn_burnside_subring(name):
    assert CrossedBurnsideAlgebra(builtin_group(name)).verify_burnside_subring()


def test_xburn_untwisted_pairs_span_marks_rank():
    G = builtin_group("s3")
    xb = CrossedBurnsideAlgebra(G)
    assert len(xb.untwisted_indices()) == len(G.subgroups_up_to_conjugacy())


@pytest.mark.parametrize("name", XBURN_GROUPS)
@pytest.mark.parametrize("p", [2, 3])
def test_rho_coh_unital_homomorphism_surjective(name, p):
    xb = CrossedBurnsideAlgebra(builtin_group(name))
    rep = xb.verify_rho_coh(GF(p))
    assert rep == {"unital": True, "homomorphism": True, "surjective": True}


def test_rho_coh_matrix_formula_c2():
    # rho(H, a) = [C_G(a):H] * (class sum of a); for C2 all centralizers are G
    G = builtin_group("c2")
    xb = CrossedBurnsideAlgebra(G)
    R = xb.rho_coh_matrix()
    # rows follow xb.basis: (1,e) -> 2*e, (1,s) -> 2*s, (C2,e) -> e, (C2,s) -> s
    assert R.tolist() == [[2, 0], [0, 2], [1, 0], [0, 1]]


@pytest.mark.parametrize("name", XBURN_GROUPS)
def test_rho_coh_matrix_against_coset_sums(name):
    # row (H, a): the sum of t a t^-1 over the least element t of each coset
    # tH, read at each class
    G = builtin_group(name)
    xb = CrossedBurnsideAlgebra(G)
    R = xb.rho_coh_matrix()
    for bi, pc in enumerate(xb.basis):
        reps = {min(G.mul(g, h) for h in pc.subgroup) for g in range(G.order)}
        image = [G.conj(t, pc.element) for t in reps]
        for ci, C in enumerate(G.conjugacy_classes()):
            assert all(image.count(x) == R[bi, ci] for x in C)


def test_rho_coh_matrix_rejects_an_image_off_the_class_sums():
    # (H, a) for H of order 2 and a a 3-cycle is no basis pair: its sum over
    # the three cosets of H in S3 hits the two 3-cycles unequally
    G = group_from_generators(3, [[1, 0, 2], [1, 2, 0]])
    xb = CrossedBurnsideAlgebra(G)
    H = next(S for S in G.subgroup_lattice().subgroups if S.order == 2)
    a = next(x for x in range(G.order) if G.element_orders()[x] == 3)
    xb.basis = xb.basis + [PairClass(H.elements, a)]
    xb.rank += 1
    with pytest.raises(ArithmeticError, match="class-sum combination"):
        xb.rho_coh_matrix()


def xburn_structure_oracle(G, basis) -> np.ndarray:
    """L[i, k, j], the coefficient of basis k in basis i times basis j, from
    the double-coset formula with frozenset double cosets and each product
    pair canonicalized as its minimum (sorted subgroup tuple, element) over
    conjugation by every g; no lattice table is read."""
    n = G.order
    index = {(pc.subgroup, pc.element): i for i, pc in enumerate(basis)}

    def conjugate(g, S):
        return frozenset(G.conj(g, s) for s in S)

    canonical_cache, coset_cache = {}, {}

    def canonical(S, c):
        if (S, c) not in canonical_cache:
            canonical_cache[(S, c)] = min((tuple(sorted(conjugate(g, S))), G.conj(g, c))
                                          for g in range(n))
        return canonical_cache[(S, c)]

    def double_coset_reps(K, H):
        if (K, H) not in coset_cache:
            covered, reps = set(), []
            for g in range(n):
                if g not in covered:
                    covered |= {G.mul(G.mul(k, g), h) for k in K for h in H}
                    reps.append(g)
            coset_cache[(K, H)] = reps
        return coset_cache[(K, H)]

    r = len(basis)
    L = np.zeros((r, r, r), dtype=np.int64)
    for i, left in enumerate(basis):
        K, b = frozenset(left.subgroup), left.element
        for j, right in enumerate(basis):
            H, a = frozenset(right.subgroup), right.element
            for x in double_coset_reps(K, H):
                meet = K & conjugate(x, H)
                c = G.mul(b, G.conj(x, a))
                assert all(G.mul(c, s) == G.mul(s, c) for s in meet)
                L[i, index[canonical(meet, c)], j] += 1
    return L


F20 = (5, [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]])
A5 = (5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])


@pytest.mark.parametrize("name", XBURN_GROUPS + ["f20", "a5"])
def test_xburn_structure_constants_match_brute_force(name):
    G = {"f20": lambda: group_from_generators(*F20),
         "a5": lambda: group_from_generators(*A5)}.get(name, lambda: builtin_group(name))()
    xb = CrossedBurnsideAlgebra(G)
    oracle = xburn_structure_oracle(G, xb.basis)
    assert np.array_equal(xb.algebra.left_mult.num, oracle)


def _non_unit_index(xb) -> int:
    return next(i for i in range(xb.rank) if i != xb.unit_index)


def test_xburn_verifier_rejects_broken_commutativity():
    xb = CrossedBurnsideAlgebra(builtin_group("s3"))
    i = _non_unit_index(xb)
    j = next(j for j in range(xb.rank) if j not in (i, xb.unit_index))
    L = xb.algebra.left_mult
    L.num[i, 0, j] += 1
    with pytest.raises(ArithmeticError, match="not commutative"):
        CommutativeAlgebra(QQ, L, xb.algebra.unit)


def test_xburn_verifier_rejects_broken_associativity_alone():
    # e_i e_i gains the unit: the unit law and commutativity still hold
    xb = CrossedBurnsideAlgebra(builtin_group("s3"))
    i = _non_unit_index(xb)
    L = xb.algebra.left_mult
    L.num[i, xb.unit_index, i] += 1
    assert np.array_equal(L.num[xb.unit_index], np.eye(xb.rank, dtype=np.int64))
    assert np.array_equal(L.num, L.num.transpose(2, 1, 0))
    with pytest.raises(ArithmeticError, match="not associative"):
        CommutativeAlgebra(QQ, L, xb.algebra.unit)


def test_xburn_checks_stay_exact_past_float64_and_int64():
    xb = CrossedBurnsideAlgebra(builtin_group("s3"))
    i = _non_unit_index(xb)
    L = xb.algebra.left_mult
    L.num[i, 0, i] = 2 ** 27  # r max|L|^2 >= 2^53: past exact float64
    with pytest.raises(ArithmeticError, match="^not associative at basis pair"):
        CommutativeAlgebra(QQ, L, xb.algebra.unit)
    xb.algebra._L.num[i, 0, i] = 2 ** 62  # the rho_coh contraction passes int64
    with pytest.raises(ArithmeticError, match="^rho_coh is not a unital ring homomorphism$"):
        xb.verify_rho_coh(GF(2))


def test_xburn_refuses_rank_above_cap_before_any_double_coset(monkeypatch):
    G = group_from_generators(6, [[1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]])  # C4 x C2
    calls = []
    original = SubgroupLattice.double_cosets

    def counted(self, k, hs):
        calls.append((k, hs))
        return original(self, k, hs)

    monkeypatch.setattr(SubgroupLattice, "double_cosets", counted)
    with pytest.raises(ValueError, match="^rank 64 exceeds the verification cap$"):
        CrossedBurnsideAlgebra(G)
    assert calls == []


def test_marks_and_burnside_vectors_read_no_double_coset(monkeypatch):
    calls = []
    original = SubgroupLattice.double_cosets

    def counted(self, k, hs):
        calls.append((k, hs))
        return original(self, k, hs)

    monkeypatch.setattr(SubgroupLattice, "double_cosets", counted)
    G = group_from_generators(*F20)
    table_of_marks(G)
    burnside_vector(gset_from_subgroup(G, G.subgroups_up_to_conjugacy()[1]))
    assert calls == []


# -- gset induction/restriction consistency -----------------------------------


def test_gset_induce_of_point_is_coset_space():
    G = builtin_group("s4")
    for S in G.subgroups_up_to_conjugacy():
        Sgrp = S.as_group()[0]
        point = GSet(Sgrp, np.zeros((Sgrp.order, 1), dtype=np.int64))
        ind = gset_induce(G, S, point)
        direct = gset_from_subgroup(G, S)
        assert burnside_vector(ind).tolist() == burnside_vector(direct).tolist()


def test_gset_restrict_mackey_formula_marks():
    # res [G/H] = sum over K\G/H of [K / K n xHx^-1] at the marks level
    G = builtin_group("d8")
    subs = G.subgroups_up_to_conjugacy()
    K, H = subs[3], subs[4]
    X = gset_from_subgroup(G, H)
    res = gset_restrict(K, X)
    Kgrp, Kel = K.as_group()
    lhs = burnside_vector(res)
    rhs = np.zeros_like(lhs)
    kcls = Kgrp.subgroups_up_to_conjugacy()
    dc = G.double_cosets(K, H)
    for x in dc.representatives:
        inter = frozenset(K.elements) & G.conjugate_subgroup(x, H.elements)
        inter_in_K = Kgrp.subgroup(Kel.index(e) for e in inter)
        idx = next(i for i, c in enumerate(kcls) if c.is_conjugate_to(inter_in_K))
        rhs[idx] += 1
    assert lhs.tolist() == rhs.tolist()


def test_commutative_algebra_refuses_dimension_above_cap_before_any_law(monkeypatch):
    from mackeykit import burnside

    monkeypatch.setattr(burnside, "_algebra_laws", None)  # a call would raise TypeError
    r = burnside.ASSOCIATIVITY_DIM_CAP + 1
    with pytest.raises(ValueError, match=f"^dimension {r} exceeds the verification cap$"):
        CommutativeAlgebra(QQ, Mat(QQ, np.zeros((r, r, r), dtype=np.int64)),
                           Mat.identity(QQ, r).col(0))


def test_commutative_algebra_takes_one_stack():
    alg = _poly_algebra(QQ, [-1, 0])
    with pytest.raises(ValueError, match="r x r x r stack over QQ"):
        CommutativeAlgebra(QQ, alg.left_mult[:1], alg.unit)
    with pytest.raises(ValueError, match="r x r x r stack over GF\\(5\\)"):
        CommutativeAlgebra(GF(5), alg.left_mult, alg.unit)
