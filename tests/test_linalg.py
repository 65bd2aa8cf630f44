"""Exact matrix substrate: RREF, solve, nullspace, inverse, kron/vec
conventions, over prime fields and the rationals."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mackeykit.linalg import (GF, QQ, Field, Mat, _algebra_laws, _imatmul, _isum_segments,
                              _pow_mod_stack, _rank_mod_stack, perm_to_mat, rref_mod)


def test_gf_validates_primality():
    GF(2)
    GF(97)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_gf_rejects_primes_that_overflow_int64():
    with pytest.raises(ValueError, match="too large"):
        GF(4294967311)
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63
    rng = np.random.default_rng(5)
    a = Mat(GF(p), rng.integers(0, p, size=(4, 4)))
    inv = a.inv()
    assert (a @ inv).is_identity() and (inv @ a).is_identity()
    r, piv = rref_mod(np.array([[p - 1, p - 2], [p - 3, p - 5]]), p)
    assert piv == [0, 1] and np.array_equal(r, np.eye(2, dtype=np.int64))


def test_every_prime_field_route_rejects_primes_that_overflow_int64():
    # rref_mod used to return a non-RREF matrix here, and Field(p) skipped
    # the bound that only GF(p) checked
    p = 4294967311
    with pytest.raises(ValueError, match="too large"):
        rref_mod([[p - 1, p - 2], [p - 3, p - 5]], p)
    with pytest.raises(ValueError, match="too large"):
        Field(p)


def test_field_equality_and_char():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert QQ.p is None and GF(7).p == 7


def test_mod_p_reduction_on_construction():
    m = Mat(GF(5), np.array([[7, -3], [10, 4]]))
    assert m == Mat(GF(5), np.array([[2, 2], [0, 4]]))


def test_rational_normalization_of_denominator():
    m = Mat(QQ, np.array([[2, 4], [6, 8]]), den=2)
    assert m.entry(0, 0) == Fraction(1)
    assert m.entry(1, 0) == Fraction(3)
    assert m == Mat(QQ, np.array([[1, 2], [3, 4]]))


def test_arithmetic_against_fraction_oracle():
    rng = np.random.default_rng(7)
    a = Mat(QQ, rng.integers(-5, 6, size=(4, 4)), den=3)
    b = Mat(QQ, rng.integers(-5, 6, size=(4, 4)), den=2)
    prod = (a @ b).to_fractions()
    af, bf = a.to_fractions(), b.to_fractions()
    for i in range(4):
        for j in range(4):
            assert prod[i][j] == sum(af[i][k] * bf[k][j] for k in range(4))
    s = (a + b).to_fractions()
    for i in range(4):
        for j in range(4):
            assert s[i][j] == af[i][j] + bf[i][j]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_rref_properties(field):
    rng = np.random.default_rng(11)
    a = Mat(field, rng.integers(-4, 5, size=(5, 7)))
    r, pivots = a.rref()
    # pivot columns carry identity pattern
    for k, c in enumerate(pivots):
        col = [r.entry(i, c) for i in range(5)]
        assert col[k] == 1 and all(col[i] == 0 for i in range(5) if i != k)
    assert a.rank() == len(pivots)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_nullspace_and_solve(field):
    rng = np.random.default_rng(13)
    a = Mat(field, rng.integers(-4, 5, size=(4, 6)))
    ns = a.nullspace()
    assert (a @ ns).is_zero()
    assert a.rank() + ns.ncols == 6
    # a consistent system solves exactly
    x = Mat(field, rng.integers(-3, 4, size=(6, 2)))
    b = a @ x
    sol = a.solve(b)
    assert sol is not None and a @ sol == b


def _loop_nullspace(a):
    """The per-column loop that Mat.nullspace replaced, as the reference."""
    R, piv = a.rref()
    free = [c for c in range(a.ncols) if c not in piv]
    if a.field.p is not None:
        out = np.zeros((a.ncols, len(free)), dtype=np.int64)
        for k, f in enumerate(free):
            out[f, k] = 1
            for i, c in enumerate(piv):
                out[c, k] = (-int(R.num[i, f])) % a.field.p
        return Mat(a.field, out)
    out = np.zeros((a.ncols, len(free)), dtype=object)
    for k, f in enumerate(free):
        out[f, k] = R.den
        for i, c in enumerate(piv):
            out[c, k] = -int(R.num[i, f])
    if not free:
        out = out.astype(np.int64)
    return Mat(a.field, out, R.den)


def _nullspace_cases():
    rng = np.random.default_rng(29)
    wide = rng.integers(0, 7, size=(5, 40))
    wide[4] = (wide[0] + 2 * wide[1]) % 7           # rank 4: 36 free columns
    q = rng.integers(-6, 7, size=(4, 7))
    q[3] = q[0] - q[2]
    return [
        ("wide-fp", Mat(GF(7), wide)),
        ("q-den-6", Mat(QQ, q, den=6)),
        ("q-object", Mat(QQ, np.array([[2**70, 1, 3], [0, 5, 2**66]], dtype=object), den=9)),
        ("full-rank", Mat(QQ, np.eye(3, dtype=np.int64), den=4)),
        ("no-rows", Mat(GF(3), np.zeros((0, 4), dtype=np.int64))),
    ]


@pytest.mark.parametrize("name,a", _nullspace_cases())
def test_nullspace_equals_the_per_column_loop(name, a):
    got, want = a.nullspace(), _loop_nullspace(a)
    assert got.num.dtype == want.num.dtype and got.den == want.den, name
    assert np.array_equal(got.num, want.num), name
    assert (a @ got).is_zero() and a.rank() + got.ncols == a.ncols


def test_solve_rejects_inconsistent_system():
    a = Mat(QQ, np.array([[1, 0], [2, 0]]))
    b = Mat(QQ, np.array([[1], [0]]))
    assert a.solve(b) is None


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ])
def test_inverse(field):
    rng = np.random.default_rng(17)
    while True:
        a = Mat(field, rng.integers(-4, 5, size=(4, 4)))
        if a.is_invertible():
            break
    inv = a.inv()
    assert (a @ inv).is_identity() and (inv @ a).is_identity()


def test_inverse_of_matrices_with_a_denominator():
    assert Mat.from_rows(QQ, [[Fraction(1, 2)]]).inv() == Mat.from_rows(QQ, [[2]])
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 6))
        a = Mat(QQ, rng.integers(-4, 5, size=(n, n)), int(rng.integers(2, 13)))
        if a.den == 1 or not a.is_invertible():
            continue
        inv = a.inv()
        assert (a @ inv).is_identity() and (inv @ a).is_identity()
        checked += 1


def test_singular_matrix_not_invertible():
    a = Mat(QQ, np.array([[1, 2], [2, 4]]))
    assert not a.is_invertible()
    a2 = Mat(GF(3), np.array([[1, 2], [2, 4]]))  # second row = 2 * first mod 3
    assert not a2.is_invertible()


def test_pow_matches_repeated_multiplication():
    a = Mat(GF(7), np.array([[1, 2], [3, 4]]))
    acc = Mat.identity(GF(7), 2)
    for e in range(6):
        assert a.pow(e) == acc
        acc = acc @ a


def test_kron_vec_convention():
    # column-major vec: vec(A F B) = (B^T (x) A) vec(F)
    rng = np.random.default_rng(19)
    A = Mat(QQ, rng.integers(-3, 4, size=(3, 2)))
    F = Mat(QQ, rng.integers(-3, 4, size=(2, 4)))
    B = Mat(QQ, rng.integers(-3, 4, size=(4, 2)))
    lhs = (A @ F @ B).vec()
    rhs = B.T.kron(A) @ F.vec()
    assert lhs == rhs


def test_block_diag_and_stacks():
    a = Mat(QQ, np.array([[1]]))
    b = Mat(QQ, np.array([[2, 3], [4, 5]]))
    d = Mat.block_diag(QQ, [a, b])
    assert d.shape == (3, 3)
    assert d.entry(0, 0) == 1 and d.entry(2, 2) == 5 and d.entry(0, 1) == 0
    h = a.hstack(Mat(QQ, np.array([[9]])))
    assert h.shape == (1, 2) and h.entry(0, 1) == 9
    v = a.vstack(Mat(QQ, np.array([[8]])))
    assert v.shape == (2, 1) and v.entry(1, 0) == 8


def test_from_blocks_sums_overlaps_exactly():
    # numerators near 2**61 over denominators 3 and 5: the common
    # denominator 15 and the overlap sum both leave int64
    big = 2**61 + 1
    a = Mat(QQ, np.array([[big, 1]]), den=3)
    b = Mat(QQ, np.array([[big], [1]]), den=5)
    c = Mat(QQ, np.array([[big]]), den=3)
    m = Mat.from_blocks(QQ, 2, 3, [(0, 0, a), (0, 1, b), (1, 2, c)])
    expected = [[Fraction(big, 3), Fraction(1, 3) + Fraction(big, 5), 0],
                [0, Fraction(1, 5), Fraction(big, 3)]]
    assert m == Mat.from_rows(QQ, expected)
    with pytest.raises(ValueError):
        Mat.from_blocks(QQ, 1, 1, [(0, 0, Mat.identity(GF(2), 1))])


def test_equality_between_int64_and_object_entries_is_exact():
    # an object-dtype Mat keeps some entry >= 2**62; comparisons with an
    # int64 Mat must neither wrap nor cast away the big entries
    near = 2**62 + 3
    small = Mat(QQ, np.array([[near, 1], [0, 7]], dtype=np.int64), den=5)
    huge = Mat(QQ, np.array([[near, 1], [0, 7]], dtype=object), den=5)
    assert small.num.dtype == np.int64 and huge.num.dtype == object
    assert small == huge and huge == small
    assert small != Mat(QQ, np.array([[near, 1], [0, 8]], dtype=object), den=5)
    # different denominators: a/3 against b/5 with 3b = 5a + k 2**64, so the
    # cross-multiplied numerators (past 2**63) agree modulo 2**64 only
    a = 2**62 + 1
    b = next((5 * a + k * 2**64) // 3 for k in range(1, 7)
             if (5 * a + k * 2**64) % 3 == 0 and (5 * a + k * 2**64) // 3 % 5)
    assert b > 2**63
    x = Mat(QQ, np.array([[a, 0]], dtype=np.int64), den=3)
    y = Mat(QQ, np.array([[b, 0]], dtype=object), den=5)
    assert x.den == 3 and y.den == 5 and y.num.dtype == object
    assert x != y and y != x
    assert x == Mat(QQ, np.array([[a, 0]], dtype=object), den=3)
    # is_identity on both dtypes, including an entry equal to 0 mod 2**64
    assert Mat.identity(QQ, 2).is_identity()
    assert not Mat(QQ, np.array([[1, 2**64], [0, 1]], dtype=object)).is_identity()
    assert not Mat(QQ, np.array([[1 + 2**64, 0], [0, 1]], dtype=object)).is_identity()
    assert not small.is_identity()


def test_scaling_by_a_factor_past_int64_is_exact():
    # an int64 zero matrix brought to a denominator of 2**70: its entries
    # fit, but the factor itself does not
    zero, tiny = Mat.zeros(QQ, 1, 2), Mat(QQ, np.array([[1, 0]]), den=2**70)
    assert (zero + tiny) == tiny and (tiny + zero) == tiny
    assert zero == Mat(QQ, np.zeros((1, 2), dtype=object), den=2**70)


def test_stacked_products_match_python_integers_on_every_path():
    rng = np.random.default_rng(5)
    for top in (3, 2**25, 2**30, 2**40):   # float64, int64 and object paths
        a = rng.integers(-top, top, size=(3, 1, 2, 4))
        b = rng.integers(-top, top, size=(5, 4, 3))
        got = _imatmul(a, b)
        assert got.shape == (3, 5, 2, 3)
        want = a.astype(object) @ b.astype(object)
        assert all(int(x) == int(y) for x, y in zip(got.ravel(), want.ravel()))
    # mixed signs at the edge of the float64 path: the bound 4 top^2 sits
    # just under 2^53, and the first row times the first column reaches it
    top = math.isqrt(2**51 - 1)
    assert 4 * top**2 < 2**53 < 4 * (top + 1) ** 2
    a = np.array([[top, -top, top, -top], [-top, 3, 1 - top, 7]])
    b = np.stack([np.array([[top, -top], [-top, top], [top, 5], [-top, -top]]),
                  rng.integers(-top, top + 1, size=(4, 2))])
    b[1, 0, 0] = -top
    got = _imatmul(a, b)
    assert got.dtype == np.int64 and int(got[0, 0, 0]) == 4 * top**2
    want = a.astype(object) @ b.astype(object)
    assert all(int(x) == int(y) for x, y in zip(got.ravel(), want.ravel()))
    assert _imatmul(np.zeros((2, 3, 0)), np.zeros((1, 0, 4))).shape == (2, 3, 4)
    assert _imatmul(np.zeros((0, 3, 2)), np.ones((2, 4), dtype=np.int64)).shape == (0, 3, 4)


def test_segment_sums_widen_before_int64_overflows():
    terms = np.full((5, 1, 1), 2**61, dtype=np.int64)
    sums = _isum_segments(terms, np.array([0, 1]))
    assert [int(x) for x in sums.ravel()] == [2**61, 2**63]
    assert _isum_segments(np.ones((3, 2)), np.array([0])).dtype == np.float64


def test_fraction_equality_cross_multiplies_denominators():
    a = np.array([[1, 2, 3]])
    assert Mat(QQ, a, 2).eq(Mat(QQ, np.array([[3, 6, 10]]), 6)).tolist() == [[True, True, False]]
    assert Mat(QQ, a.astype(object) * 2**70, 2**70).eq(Mat(QQ, a)).all()
    # the same inputs left unnormalised, as gathers of a stack keep them
    assert Mat._of(QQ, a, 2).eq(Mat._of(QQ, np.array([[3, 6, 10]]), 6)).tolist() \
        == [[True, True, False]]
    assert Mat._of(QQ, a.astype(object) * 2**70, 2**70).eq(Mat._of(QQ, a)).all()


def _values(field, ints, den=1):
    """Per-entry reference: Fractions over Q, residues over F_p."""
    if field.p is None:
        f = lambda x: Fraction(int(x), den)
    else:
        f = lambda x: int(x) * pow(den, -1, field.p) % field.p
    return np.vectorize(f, otypes=[object])(np.asarray(ints, dtype=object))


def _reduce(field, a):
    return a if field.p is None else np.vectorize(lambda x: x % field.p, otypes=[object])(a)


def _same(m, ref):
    """A Mat equals a reference array of values, slice by slice."""
    assert m.shape == ref.shape
    return all(Mat.from_rows(m.field, ref[k].tolist()) == m[k] for k in np.ndindex(ref.shape[:-2]))


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_stacks_match_a_per_slice_fraction_reference(field):
    rng = np.random.default_rng(41)
    ints = rng.integers(-9, 10, size=(5, 3, 4)).astype(object)
    ints[4, 1, 2] = 2**70
    dens = [1, 2, 3, 6, 5]
    mats = [Mat(field, a, d) for a, d in zip(ints, dens)]
    S = Mat.stack(field, mats, (3, 4))
    ref = np.stack([_values(field, a, d) for a, d in zip(ints, dens)])
    assert _same(S, ref)
    # a 2**70 entry makes the stack object over Q; without it the entries fit again
    assert S.num.dtype == (object if field.p is None else np.int64)
    assert Mat.stack(field, mats[:4], (3, 4)).num.dtype == np.int64
    assert Mat.concat(field, [S[:2], S[2:4]]).num.dtype == np.int64
    # gathers keep the denominator and read the same slices
    for key in ([4, 0, 4], (slice(None), slice(1, None)), (np.array([[1], [3]]), 0)):
        got = S[key]
        assert got.den == S.den and _same(got, ref[key])
    # broadcast products: every matrix of the stack times one matrix, and
    # every pair of a stack of 5 and a stack of 2
    B = [Mat(field, rng.integers(-4, 5, size=(4, 2)), d) for d in (3, 4)]
    Bs, Bref = Mat.stack(field, B, (4, 2)), np.stack([_values(field, b.num, b.den) for b in B])
    assert _same(S @ B[0], _reduce(field, ref @ Bref[0]))
    assert _same(S[:, None] @ Bs[None], _reduce(field, ref[:, None] @ Bref[None]))
    # sums and entrywise equality across denominators
    T = Mat.stack(field, [m.scale(Fraction(1, 7 if field.p is None else 3)) for m in mats],
                  (3, 4))
    Tref = np.stack([_values(field, m.num, m.den * (7 if field.p is None else 3)) for m in mats])
    assert _same(S + T, _reduce(field, ref + Tref))
    assert _same(S - T, _reduce(field, ref - Tref))
    assert S.eq(T).tolist() == (ref == Tref).tolist()
    same = Mat._of(field, S.num * 3, S.den * 3) if field.p is None else S
    assert S.eq(same).all() and S == same
    assert (S + (-S)).num.dtype == np.int64 and (S + (-S)).is_zero()


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_stacks_with_empty_leading_axes(field):
    E = Mat.stack(field, [], (3, 4))
    assert E.shape == (0, 3, 4) and E.den == 1
    B = Mat(field, np.ones((4, 2), dtype=np.int64), 5)
    assert (E @ B).shape == (0, 3, 2)
    assert (E + E).shape == (0, 3, 4) and E.eq(E).shape == (0, 3, 4)
    assert E[[]].shape == (0, 3, 4) and E[:, None].shape == (0, 1, 3, 4)
    assert (E[:, None] @ Mat.stack(field, [B, B], (4, 2))[None]).shape == (0, 2, 3, 2)
    assert E == Mat.stack(field, [], (3, 4)) and E != Mat.stack(field, [], (4, 3))
    one = Mat.stack(field, [Mat.zeros(field, 3, 4)], (3, 4))
    assert Mat.concat(field, [E, one, E]).shape == (1, 3, 4)
    with pytest.raises(ValueError):
        one[0, 0]                 # a gather must leave a matrix
    with pytest.raises(ValueError):
        Mat.stack(field, [B], (3, 4))


def test_perm_to_mat_acts_on_basis():
    P = perm_to_mat(QQ, [2, 0, 1])  # e0 -> e2, e1 -> e0, e2 -> e1
    e0 = Mat(QQ, np.array([[1], [0], [0]]))
    assert P @ e0 == Mat(QQ, np.array([[0], [0], [1]]))


def test_fraction_solve_with_denominators():
    a = Mat(QQ, np.array([[2, 1], [1, 3]]), den=2)  # [[1, 1/2], [1/2, 3/2]]
    x = Mat(QQ, np.array([[1], [3]]), den=3)
    b = a @ x
    sol = a.solve(b)
    assert sol == x


def test_rank_of_kron_is_product_of_ranks():
    a = Mat(QQ, np.array([[1, 2], [2, 4], [0, 1]]))   # rank 2
    b = Mat(QQ, np.array([[1, 1], [1, 1]]))           # rank 1
    assert a.kron(b).rank() == a.rank() * b.rank()


def _random_stack(rng, p, m, r, c):
    """m random r x c matrices mod p: zero, identity-like and rank-deficient
    products among them, besides uniform ones."""
    a = rng.integers(0, p, size=(m, r, c), dtype=np.int64)
    if m >= 4:
        a[0] = 0
        a[1] = np.eye(r, c, dtype=np.int64)
        k = max(1, min(r, c) // 2)
        a[2] = (_imatmul(rng.integers(0, p, size=(r, k)), rng.integers(0, p, size=(k, c))) % p)
        a[3] = a[2] * 2 % p  # dependent on a[2], same rank
    return a


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1, 3037000493])
def test_stacked_rank_matches_rref_mod(p):
    rng = np.random.default_rng(p % 1000)
    for m, r, c in [(0, 3, 3), (5, 0, 4), (5, 4, 0), (6, 1, 1), (8, 4, 4), (8, 3, 6),
                    (8, 6, 3), (12, 7, 7)]:
        a = _random_stack(rng, p, m, r, c)
        ranks = _rank_mod_stack(a, p)
        assert ranks.shape == (m,) and ranks.dtype == np.int64
        assert ranks.tolist() == [len(rref_mod(x, p)[1]) for x in a], (m, r, c)
    # low-rank stacks: every matrix a product through an inner dimension of 2
    a = (_imatmul(rng.integers(0, p, size=(10, 6, 2)), rng.integers(0, p, size=(10, 2, 6))) % p)
    a = a.astype(np.int64)
    assert _rank_mod_stack(a, p).tolist() == [len(rref_mod(x, p)[1]) for x in a]
    assert max(_rank_mod_stack(a, p)) <= 2


def test_stacked_rank_reads_integers_outside_the_residues():
    a = np.array([[[5, 7], [-5, 12]], [[-2, 4], [1, -2]], [[6, 0], [0, -4]]])
    assert _rank_mod_stack(a, 5).tolist() == [len(rref_mod(x, 5)[1]) for x in a] == [1, 1, 2]


def test_stacked_rank_rejects_primes_that_overflow_int64():
    with pytest.raises(ValueError, match="too large"):
        _rank_mod_stack(np.zeros((1, 2, 2), dtype=np.int64), 4294967311)


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1, 3037000493])
def test_stacked_power_matches_mat_pow(p):
    # at 2^31 - 1 and above the inner dimension times (p-1)^2 is at least
    # 2^62, so every product takes the object path
    rng = np.random.default_rng(p % 997)
    d = 5
    a = _random_stack(rng, p, 6, d, d)
    for e in (0, 1, 2, 3, d):
        got = _pow_mod_stack(a, e, p)
        assert got.shape == a.shape and got.dtype == np.int64
        for x, y in zip(a, got):
            assert np.array_equal(Mat(GF(p), x).pow(e).num, y), e
    assert _pow_mod_stack(np.zeros((0, d, d), dtype=np.int64), d, p).shape == (0, d, d)


# -- the law check of a finite algebra ------------------------------------------


def _group_algebra_level(field, scale):
    """k[S3] as the bottom level of `green_from_monoid`, on the basis
    scale * e_i: Y = kG under conjugation, whose multiplication is
    G-equivariant, and Hom_1(k, Y) = kG is a noncommutative algebra."""
    from mackeykit.catalog import builtin_group
    from mackeykit.groups import GSet
    from mackeykit.mackey import green_from_monoid
    from mackeykit.reps import Module, ModuleHom, tensor, trivial_module

    G = builtin_group("s3")
    n, t, g = G.order, G.table, np.arange(G.order)[:, None]
    Y = Module(G, field, n, gset=GSet(G, t[g, t[g.T, G.inverse[g]]]))  # [g, x]: g x g^-1
    a, b = np.divmod(np.arange(n * n), n)
    mul = np.zeros((n, n * n), dtype=np.int64)
    mul[t[a, b], np.arange(n * n)] = 1
    unit = np.zeros((n, 1), dtype=np.int64)
    unit[G.identity] = 1
    X = trivial_module(G, field)
    Gf = green_from_monoid(X, Y, ModuleHom(tensor(Y, Y), Y, Mat(field, mul)),
                           ModuleHom(X, Y, Mat(field, unit)))
    bottom = next(S for S in Gf.underlying.subgroups if S.order == 1)
    return Gf.products[bottom].scale(scale), Gf.units[bottom].scale(1 / Fraction(scale))


def _laws_by_loops(L, u):
    """The four arrays of `_algebra_laws`, one instance at a time: products
    of Fraction vectors by a triple loop over L[i, k, j], reduced mod p over
    F_p."""
    r, p = L.shape[0], L.field.p
    T = [[[Fraction(int(L.num[i, k, j]), L.den) for j in range(r)] for k in range(r)]
         for i in range(r)]

    def mul(x, y):
        out = [Fraction(0)] * r
        for i, j in itertools.product(range(r), range(r)):
            if x[i] and y[j]:
                out = [c + x[i] * y[j] * T[i][k][j] for k, c in enumerate(out)]
        return [c % p for c in out] if p else out

    e = [[Fraction(int(a == j)) for a in range(r)] for j in range(r)]
    one = [Fraction(int(u.num[a, 0]), u.den) for a in range(r)]
    return (np.array([mul(one, e[j]) == e[j] for j in range(r)]),
            np.array([mul(e[j], one) == e[j] for j in range(r)]),
            np.array([[mul(e[i], e[j]) == mul(e[j], e[i]) for j in range(r)] for i in range(r)]),
            np.array([[[mul(mul(e[i], e[j]), e[k]) == mul(e[i], mul(e[j], e[k]))
                        for k in range(r)] for j in range(r)] for i in range(r)]))


def _assert_laws_match_loops(L, u):
    got, want = _algebra_laws(L, u), _laws_by_loops(L, u)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    return got


@pytest.mark.parametrize("field,scale", [(QQ, 1), (QQ, Fraction(1, 3)), (GF(3), 1)])
def test_algebra_laws_match_a_triple_loop_on_a_noncommutative_algebra(field, scale):
    L, u = _group_algebra_level(field, scale)
    r = L.shape[0]
    left, right, comm, assoc = _assert_laws_match_loops(L, u)
    assert left.all() and right.all() and assoc.all()
    assert not comm.all() and comm.diagonal().all()
    e = int(np.flatnonzero(u.num[:, 0])[0])  # the identity element's basis index
    i, j = next((i, j) for i in range(r) for j in range(r)
                if e not in (i, j) and i != j and comm[i, j])
    k = next(k for k in range(r) if k != j)

    def tampered(at):
        num = L.num.copy()
        num[at] += 1
        return Mat(field, num, L.den)

    # one entry per law; the instances each flags are exactly the expected ones
    flagged = _assert_laws_match_loops(tampered((e, k, j)), u)[0]
    assert np.flatnonzero(~flagged).tolist() == [j]                      # u e_j gains e_k
    flagged = _assert_laws_match_loops(tampered((j, k, e)), u)[1]
    assert np.flatnonzero(~flagged).tolist() == [j]                      # e_j u gains e_k
    flagged = _assert_laws_match_loops(tampered((i, k, j)), u)[2]
    assert np.argwhere(flagged != comm).tolist() == [[i, j], [j, i]]      # e_i e_j gains e_k
    # (e_i e_j) e_m gains e_k e_m, and e_i (e_j e_m) gains it too only at m = e
    flagged = _assert_laws_match_loops(tampered((i, k, j)), u)[3]
    assert np.flatnonzero(flagged[i, j]).tolist() == [e]
