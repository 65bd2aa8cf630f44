"""Exact module theory: permutation modules, induction/restriction with
their adjunctions, double-coset decompositions, Frobenius structures,
decomposition into indecomposables, vertices, and block membership."""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mackeykit.burnside import block_decomposition
from mackeykit.catalog import BUILTIN_NAMES, builtin_group
from mackeykit.groups import GSet, group_from_generators
from mackeykit.linalg import GF, QQ, Mat, _is_local_algebra, perm_to_mat
from mackeykit.reps import (
    FrobeniusObject,
    Module,
    ModuleHom,
    block_of,
    conj_module,
    decompose,
    frobenius_object,
    hom_space,
    induce_from,
    is_summand,
    mackey_iso,
    module_from_matrices,
    module_isomorphism,
    permutation_module,
    projection_map,
    regular_module,
    relatively_projective,
    restrict_to,
    tensor,
    trivial_module,
    unit_counit,
    vertex,
)
from mackeykit import reps
from mackeykit.reps import EXHAUSTIVE_END_CAP, _relative_trace_stack, _vertex_family

FIELDS = [GF(2), GF(3), QQ]


def sign_module(field):
    """The sign representation of S3 (matrix +-1 per element)."""
    G = builtin_group("s3")
    mats = []
    for g in range(G.order):
        # parity of the permutation g of the 3 points of G/C2
        X = permutation_module(G, G.subgroups_up_to_conjugacy()[1], QQ)
        perm = X.gset.action[g]
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
        mats.append(Mat.identity(field, 1).scale(-1 if inv % 2 else 1))
    return module_from_matrices(G, field, mats)


def dense_copy(M):
    """The same module with one explicit matrix per group element, so that
    every routine takes its matrix path."""
    return module_from_matrices(M.group, M.field, [M.action(g) for g in range(M.group.order)])


def coset_modules(G, field):
    return [permutation_module(G, K, field) for K in G.subgroups_up_to_conjugacy()]


# -- module and hom validation --------------------------------------------------


def test_module_rejects_broken_permutation_action():
    G = builtin_group("c4")
    perms = np.tile(np.arange(3), (4, 1))
    perms[1] = [1, 2, 0]  # order 3 cannot embed in C4: g*g must act as [2,0,1]
    perms[3] = [1, 2, 0]
    with pytest.raises(ValueError):
        Module(G, GF(2), 3, gset=GSet(G, perms, check=False))


def test_module_rejects_broken_matrix_action():
    G = builtin_group("c2")
    mats = [Mat.identity(QQ, 2), Mat(QQ, np.array([[1, 1], [0, 1]]))]
    with pytest.raises(ValueError):
        module_from_matrices(G, QQ, mats)  # the second matrix has infinite order


def test_module_rejects_broken_matrix_action_beyond_order_24():
    # S4 x C2 (order 48): the sign of the S4 factor is a valid 1-dimensional
    # module; flipping the matrix of a single non-generator element breaks it
    G = group_from_generators(6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5],
                                  [0, 1, 2, 3, 5, 4]])
    assert G.order == 48
    signs = []
    for perm in G.perms:
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
        signs.append(Mat.identity(QQ, 1).scale(-1 if inv % 2 else 1))
    module_from_matrices(G, QQ, signs)
    g0 = next(g for g in range(G.order)
              if g != G.identity and g not in G.generators())
    signs[g0] = signs[g0].scale(-1)
    with pytest.raises(ValueError):
        module_from_matrices(G, QQ, signs)


def test_module_hom_rejects_non_equivariant():
    G = builtin_group("s3")
    M = permutation_module(G, G.trivial_subgroup(), GF(2))
    N = trivial_module(G, GF(2))
    bad = Mat(GF(2), np.eye(1, 6, dtype=np.int64))
    with pytest.raises(ValueError):
        ModuleHom(M, N, bad)
    good = Mat(GF(2), np.ones((1, 6), dtype=np.int64))
    ModuleHom(M, N, good)  # the sum of coefficients is equivariant


def test_module_hom_composition_needs_the_middle_module_itself():
    # f: k[S3/C3] -> sign; the identity of the trivial module has the same
    # dimension as sign, but id_T o f would not intertwine
    G = builtin_group("s3")
    C3 = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 3)
    X, sign, T = permutation_module(G, C3, QQ), sign_module(QQ), trivial_module(G, QQ)
    f = hom_space(X, sign)[0]
    with pytest.raises(ValueError, match="not composable"):
        ModuleHom(T, T, Mat.identity(QQ, 1)) @ f
    assert (ModuleHom(sign, sign, Mat.identity(QQ, 1)) @ f).mat == f.mat


def test_module_hom_sum_needs_the_same_source_and_target():
    G = builtin_group("s3")
    C3 = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 3)
    X = permutation_module(G, C3, QQ)
    f, g = hom_space(X, sign_module(QQ))[0], hom_space(X, trivial_module(G, QQ))[0]
    with pytest.raises(ValueError, match="cannot be added"):
        f + g
    assert (f + f).mat == f.mat.scale(2)


@pytest.mark.parametrize("name", ["s3", "d8", "s4"])
def test_module_hom_rejects_one_flipped_orbital_entry(name):
    """An orbit indicator with one entry changed is no longer constant on
    its orbit; the gather check and the dense check both reject it."""
    G = builtin_group(name)
    field = GF(3)
    mods = coset_modules(G, field)
    tried = 0
    for M in mods[:4]:
        for N in mods[:4]:
            Md, Nd = dense_copy(M), dense_copy(N)
            for h in hom_space(M, N):
                if int(h.mat.num.sum()) < 2:
                    continue  # a one-point orbit stays equivariant when flipped
                y, x = np.argwhere(h.mat.num)[0]
                bad = h.mat.num.copy()
                bad[y, x] = 0
                for src, tgt in ((M, N), (Md, Nd)):
                    with pytest.raises(ValueError, match="map does not intertwine generator"):
                        ModuleHom(src, tgt, Mat(field, bad))
                tried += 1
    assert tried > 0


@pytest.mark.parametrize("name", ["d8", "s4"])
def test_gather_check_agrees_with_dense_products(name):
    """Seeded F_3 matrices, half of them equivariant combinations of the
    orbital basis and half of those then perturbed in one entry: the gather
    verdict on the permutation modules equals the dense-product verdict."""
    G = builtin_group(name)
    field = GF(3)
    rng = np.random.default_rng(11)
    mods = coset_modules(G, field)
    verdicts = []
    for _ in range(40):
        M, N = (mods[int(i)] for i in rng.integers(0, len(mods), size=2))
        basis = hom_space(M, N)
        num = sum(int(c) * h.mat.num for c, h in zip(rng.integers(0, 3, size=len(basis)), basis))
        if rng.integers(0, 2):
            num = num.copy()
            num[rng.integers(0, N.dim), rng.integers(0, M.dim)] += int(rng.integers(1, 3))
        mat = Mat(field, np.asarray(num, dtype=np.int64))
        outcome = []
        for src, tgt in ((M, N), (dense_copy(M), dense_copy(N))):
            try:
                ModuleHom(src, tgt, mat)
                outcome.append(True)
            except ValueError:
                outcome.append(False)
        assert outcome[0] == outcome[1]
        verdicts.append(outcome[0])
    assert any(verdicts) and not all(verdicts)


def test_module_hom_shape_check():
    G = builtin_group("c2")
    M = trivial_module(G, QQ)
    with pytest.raises(ValueError):
        ModuleHom(M, M, Mat.zeros(QQ, 2, 1))


# -- hom spaces ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["s3", "d8", "a4"])
@pytest.mark.parametrize("field", FIELDS)
def test_hom_space_dimension_equals_double_coset_count(name, field):
    """dim Hom(k[G/K], k[G/H]) = |K\\G/H| over every coefficient field."""
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    for K in subs:
        for H in subs:
            M = permutation_module(G, K, field)
            N = permutation_module(G, H, field)
            expected = len(G.double_cosets(K, H))
            assert len(hom_space(M, N)) == expected, (name, K.order, H.order)


ORACLE_CASES = ([(name, field) for name in ["c2", "c3", "v4", "s3", "d8", "q8", "a4"]
                 for field in FIELDS] + [("s4", GF(2)), ("s4", GF(3))])


@pytest.mark.parametrize("name,field", ORACLE_CASES)
def test_orbital_hom_basis_equals_kronecker_basis(name, field):
    """The orbital basis between permutation modules is bit for bit the
    reduced echelon basis that the Kronecker system gives on dense copies:
    same maps, order, dtype and denominator."""
    G = builtin_group(name)
    perm = coset_modules(G, field)
    dense = [dense_copy(M) for M in perm]
    for i, (M, Md) in enumerate(zip(perm, dense)):
        for j, (N, Nd) in enumerate(zip(perm, dense)):
            fast, slow = hom_space(M, N), hom_space(Md, Nd)
            assert len(fast) == len(slow) > 0, (i, j)
            for a, b in zip(fast, slow):
                assert a.mat.num.dtype == b.mat.num.dtype, (i, j)
                assert a.mat.den == b.mat.den, (i, j)
                assert np.array_equal(a.mat.num, b.mat.num), (i, j)


def test_orbital_hom_basis_runs_no_elimination(monkeypatch):
    calls = _count_calls(monkeypatch, [(Mat, "rref"), (Mat, "nullspace")])
    G = builtin_group("s4")
    M = regular_module(G, QQ)
    assert len(hom_space(M, M)) == 24
    for X in coset_modules(G, QQ):
        hom_space(X, M)
        hom_space(M, X)
    assert calls == {"rref": 0, "nullspace": 0}


@pytest.mark.parametrize("name", ["s3", "d8", "a4", "s4"])
def test_orbital_indicators_pass_the_equivariance_check(name):
    """hom_space checks the orbit labelling once instead of each indicator;
    every indicator it returns still passes the per-map check."""
    G = builtin_group(name)
    mods = coset_modules(G, GF(3))
    for M in mods:
        for N in mods:
            for h in hom_space(M, N):
                ModuleHom(M, N, h.mat, check=True)


def test_hom_space_deterministic():
    G = builtin_group("s3")
    M = permutation_module(G, G.subgroups_up_to_conjugacy()[1], GF(2))
    a = hom_space(M, M)
    b = hom_space(M, M)
    assert [h.mat.num.tolist() for h in a] == [h.mat.num.tolist() for h in b]


def test_hom_space_endomorphisms_close_under_composition():
    G = builtin_group("s3")
    M = permutation_module(G, G.subgroups_up_to_conjugacy()[1], GF(3))
    basis = hom_space(M, M)
    span = Mat.zeros(GF(3), M.dim * M.dim, 0)
    for h in basis:
        span = span.hstack(h.mat.vec())
    for a in basis:
        for b in basis:
            prod = (a @ b).mat.vec()
            assert span.hstack(prod).rank() == span.rank()


# -- adjunctions ------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_adjunction_composites(field):
    for name in ["s3", "d8", "a4"]:
        G = builtin_group(name)
        for H in G.subgroups_up_to_conjugacy():
            Hgrp, _ = H.as_group()
            M = permutation_module(G, G.trivial_subgroup(), field)
            N = regular_module(Hgrp, field)
            ad = unit_counit(G, H, M, N)  # triangle identities checked inside
            assert ad.separable_composite().mat.is_identity()
            coh = ad.cohomological_composite().mat
            assert coh == Mat.identity(field, M.dim).scale(H.index)


def test_adjunction_rejects_misplaced_modules():
    G = builtin_group("s3")
    H = G.subgroups_up_to_conjugacy()[1]
    M = trivial_module(G, QQ)
    with pytest.raises(ValueError):
        unit_counit(G, H, M, M)  # N must live over H, not G


def test_induced_trivial_module_is_coset_module():
    for name in ["s3", "d8"]:
        G = builtin_group(name)
        for H in G.subgroups_up_to_conjugacy():
            Hgrp, _ = H.as_group()
            ind = induce_from(trivial_module(Hgrp, QQ), H)
            X = permutation_module(G, H, QQ)
            assert ind.dim == H.index
            iso = module_isomorphism(ind, X)
            assert iso is not None and iso.is_isomorphism()


def _v4_module_with_large_entries(V):
    """A 3-dimensional QV-module, V = <a, b> a Klein four group, whose
    matrices have numerators near 2**61 and denominators 3, 5 and 15."""
    a, b = V.generators()
    u, v = Fraction(2**60 + 1, 3), Fraction(1, 5)
    Aa = Mat.from_rows(QQ, [[1, -2 * u, 0], [0, -1, 0], [0, 0, 1]])
    Ab = Mat.from_rows(QQ, [[1, 0, -2 * v], [0, 1, 0], [0, 0, -1]])
    mats = [None] * V.order
    for i in (0, 1):
        for j in (0, 1):
            mats[V.mul(V.power(a, i), V.power(b, j))] = Aa.pow(i) @ Ab.pow(j)
    return module_from_matrices(V, QQ, mats)


def test_block_assembly_with_large_entries_is_exact():
    G = builtin_group("a4")
    V = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 4)
    Vgrp, _ = V.as_group()
    M = _v4_module_with_large_entries(Vgrp)
    # counit Ind_1 Res_1 M -> M: one block A(t) per coset rep t
    T = Vgrp.trivial_subgroup()
    ad = unit_counit(Vgrp, T, M, trivial_module(T.as_group()[0], QQ))
    reps, _ = Vgrp.left_transversal(T)
    eps = ad.eps_left.mat
    for c, t in enumerate(reps):
        block = Mat(QQ, eps.num[:, c * M.dim : (c + 1) * M.dim].copy(), eps.den)
        assert block == M.action(t)
    # the dense branch of induction along V <= A4, whose blocks mix all
    # three denominators, through the adjunction and the Mackey formula
    unit_counit(G, V, trivial_module(G, QQ), M)
    for K in G.subgroups_up_to_conjugacy():
        data = mackey_iso(G, K, V, M)
        assert data.right.dim == V.index * M.dim


# -- double-coset decomposition and the projection maps ---------------------------


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_mackey_iso_structure(field):
    G = builtin_group("d8")
    subs = G.subgroups_up_to_conjugacy()
    for K in subs:
        for H in subs:
            Hgrp, _ = H.as_group()
            N = regular_module(Hgrp, field)
            data = mackey_iso(G, K, H, N)
            assert len(data.components) == len(G.double_cosets(K, H))
            assert data.left.dim == H.index * N.dim
            assert sum(c.module.dim for c in data.components) == data.right.dim
            assert (data.forward.mat @ data.backward.mat).is_identity()
            assert (data.backward.mat @ data.forward.mat).is_identity()


@pytest.mark.parametrize("name", ["d8", "s4"])
def test_mackey_iso_of_a_dense_copy_keeps_the_exchange_maps(name):
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    for K in subs:
        for H in subs:
            N = regular_module(H.as_group()[0], GF(3))
            perm, dense = mackey_iso(G, K, H, N), mackey_iso(G, K, H, dense_copy(N))
            assert perm.forward.mat == dense.forward.mat
            assert perm.backward.mat == dense.backward.mat


def test_mackey_iso_component_orders():
    # the x-component is induced from K n xHx^-1, so its dimension is
    # [K : K n xHx^-1] * dim N
    G = builtin_group("s4")
    subs = G.subgroups_up_to_conjugacy()
    K = next(S for S in subs if S.order == 6)
    H = next(S for S in subs if S.order == 8)
    Hgrp, _ = H.as_group()
    N = trivial_module(Hgrp, GF(3))
    data = mackey_iso(G, K, H, N)
    for comp in data.components:
        inter = frozenset(K.elements) & G.conjugate_subgroup(comp.coset_rep, H.elements)
        assert comp.left_subgroup_order == len(inter)
        assert comp.module.dim == K.order // len(inter)


@pytest.mark.parametrize("field", FIELDS)
def test_projection_maps_are_mutually_inverse_isos(field):
    for name in ["s3", "d8"]:
        G = builtin_group(name)
        for H in G.subgroups_up_to_conjugacy():
            Hgrp, _ = H.as_group()
            X = permutation_module(G, H, field)
            Y = regular_module(Hgrp, field)
            data = projection_map(G, H, X, Y)
            assert (data.pi.mat @ data.pi_inverse.mat).is_identity()
            assert (data.pi_inverse.mat @ data.pi.mat).is_identity()
            assert (data.mirror.mat @ data.mirror_inverse.mat).is_identity()
            assert (data.mirror_inverse.mat @ data.mirror.mat).is_identity()


# -- Frobenius structure -----------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_frobenius_laws_all_subgroups(field):
    for name in ["s3", "q8"]:
        G = builtin_group(name)
        for H in G.subgroups_up_to_conjugacy():
            fro = frobenius_object(G, H, field)
            laws = fro.verify()
            assert len(laws) == 7
            assert all(l.holds for l in laws), (name, H.order, field)
            assert fro.ok


def test_frobenius_perturbed_multiplication_fails():
    G = builtin_group("s3")
    H = G.subgroups_up_to_conjugacy()[1]
    fro = frobenius_object(G, H, GF(2))
    bad = fro.mul.mat.num.copy()
    bad[0, 0] = 0  # drop e_0 * e_0
    broken = ModuleHom(fro.mul.source, fro.mul.target, Mat(GF(2), bad), check=False)
    wrong = FrobeniusObject(fro.module, broken, fro.comul, fro.unit, fro.counit)
    results = {l.name: l.holds for l in wrong.verify()}
    assert not wrong.ok
    assert not results["unit"]
    assert not results["specialness"]
    assert results["coassociativity"]  # the comultiplication was untouched


# -- reference assemblers for the exchange maps and the Frobenius laws -------------
#
# The block-by-block constructions that the library replaced with one
# block-monomial routine and with index-tensor contractions, kept here as the
# oracle: every map must agree in numerators, denominator and dtype, and every
# law verdict must agree.


def _ref_induce_mats(H, N):
    G, incl = H.parent, H.inclusion_hom()
    reps, coset, source = incl.induction_table()
    nc, d = len(reps), N.dim
    return [Mat.from_blocks(N.field, nc * d, nc * d,
                            [(int(coset[g, c]) * d, c * d, N.action(int(source[g, c])))
                             for c in range(nc)])
            for g in range(G.order)]


def _ref_adjunction_mats(G, H, M, N):
    reps, coset_of = G.left_transversal(H)
    c0 = int(coset_of[G.identity])
    t0 = reps[c0]
    Hel = H.as_group()[1]
    nc, dm, dn = len(reps), M.dim, N.dim
    eta_left = Mat.from_blocks(N.field, nc * dn, dn, [(c0 * dn, 0, N.action(Hel.index(G.inv(t0))))])
    eps_left = Mat.from_blocks(M.field, dm, nc * dm,
                               [(0, c * dm, M.action(t)) for c, t in enumerate(reps)])
    eta_right = Mat.from_blocks(M.field, nc * dm, dm,
                                [(c * dm, 0, M.action_inv(t)) for c, t in enumerate(reps)])
    eps_right = Mat.from_blocks(N.field, dn, nc * dn, [(0, c0 * dn, N.action(Hel.index(t0)))])
    return eta_left, eps_left, eta_right, eps_right


def _ref_mackey_mats(G, K, H, N):
    Hgrp, Hel = H.as_group()
    Kel = K.as_group()[1]
    d = N.dim
    w_reps, w_coset_of = G.left_transversal(H)
    fwd, bwd, base = [], [], 0
    dc = G.double_cosets(K, H)
    for x, A in zip(dc.representatives, dc.intersections):
        ts = sorted({min(G.mul(k, a) for a in A.elements) for k in Kel})  # K / (K n xHx^-1)
        for c, t in enumerate(ts):
            tx = G.mul(t, x)
            w = int(w_coset_of[tx])
            h = int(np.searchsorted(Hel, G.mul(G.inv(w_reps[w]), tx)))
            fwd.append((w * d, base + c * d, N.action(h)))
            bwd.append((base + c * d, w * d, N.action_inv(h)))
        base += len(ts) * d
    right = len(w_reps) * d
    return (Mat.from_blocks(N.field, right, base, fwd), Mat.from_blocks(N.field, base, right, bwd))


def _ref_projection_mats(G, H, X, Y):
    reps, _ = G.left_transversal(H)
    nc, dx, dy = len(reps), X.dim, Y.dim
    n = nc * dx * dy
    eye = lambda v, den: Mat(X.field, np.eye(dy, dtype=np.int64)).scale(Fraction(int(v), den))
    pi, pi_inv, mirror, mirror_inv = [], [], [], []
    for c, t in enumerate(reps):
        A, Ainv = X.action(t), X.action_inv(t)
        for i in range(dx):
            col = c * dx * dy + i * dy
            for i2 in range(dx):
                if A.num[i2, i]:
                    pi.append((i2 * nc * dy + c * dy, col, eye(A.num[i2, i], A.den)))
                if Ainv.num[i2, i]:
                    pi_inv.append((c * dx * dy + i2 * dy, i * nc * dy + c * dy,
                                   eye(Ainv.num[i2, i], Ainv.den)))
        for j in range(dy):
            k = (c * dy + j) * dx
            mirror.append((k, k, A))
            mirror_inv.append((k, k, Ainv))
    return [Mat.from_blocks(X.field, n, n, b) for b in (pi, pi_inv, mirror, mirror_inv)]


def _ref_frobenius_verdicts(fro):
    d, f = fro.module.dim, fro.module.field
    I = Mat.identity(f, d)
    mu, de, io, ep = fro.mul.mat, fro.comul.mat, fro.unit.mat, fro.counit.mat
    swap = perm_to_mat(f, [(i % d) * d + (i // d) for i in range(d * d)])
    return [
        mu @ mu.kron(I) == mu @ I.kron(mu),
        de.kron(I) @ de == I.kron(de) @ de,
        (mu @ io.kron(I) == I) and (mu @ I.kron(io) == I),
        (ep.kron(I) @ de == I) and (I.kron(ep) @ de == I),
        (mu.kron(I) @ I.kron(de) == de @ mu) and (I.kron(mu) @ de.kron(I) == de @ mu),
        mu @ de == I,
        (mu @ swap == mu) and (swap @ de == de),
    ]


def _conjugated_copy(M):
    """M with every matrix conjugated by an integer P of determinant 5, whose
    inverse over Q has denominator 5 (P is invertible over F_2 and F_3 too)."""
    d = M.dim
    num = np.eye(d, dtype=np.int64) + np.eye(d, k=1, dtype=np.int64)
    num[0, 0] = 5
    P = Mat(M.field, num)
    Pinv = P.inv()
    return module_from_matrices(M.group, M.field,
                                [P @ M.action(g) @ Pinv for g in range(M.group.order)])


MODULE_KINDS = {"perm": lambda M: M, "dense": dense_copy, "conjugated": _conjugated_copy}


def _largest_proper(G):
    subs = G.subgroups_up_to_conjugacy()
    return max((T for T in subs if T.order < G.order), key=lambda T: T.order, default=subs[0])


def _same_mat(a, b):
    return a.num.dtype == b.num.dtype and a.den == b.den and np.array_equal(a.num, b.num)


@pytest.mark.parametrize("name", list(BUILTIN_NAMES))
def test_exchange_maps_equal_the_block_assemblers(name):
    """induce (dense path), unit_counit, mackey_iso and projection_map against
    the block-by-block assemblers, and dense induction against one
    `_monomial` per group element, for permutation modules, dense copies and
    dense copies with denominators, over Q, F_2 and F_3."""
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    S = _largest_proper(G)
    compared = with_den = 0
    for field in FIELDS:
        for kind, make in MODULE_KINDS.items():
            X = make(permutation_module(G, S, field))
            for H in subs:
                Hgrp = H.as_group()[0]
                N = make(regular_module(Hgrp, field))
                pairs = []
                ind = induce_from(N, H)
                if not N.is_permutation:
                    nc, coset, source = H.index, *H.inclusion_hom().induction_table()[1:]
                    mats = [ind.action(g) for g in range(G.order)]
                    pairs += zip(mats, _ref_induce_mats(H, N))
                    pairs += zip(mats, [reps._monomial(N, nc, nc, coset[g], range(nc), source[g])
                                        for g in range(G.order)])
                ad = unit_counit(G, H, X, N)
                pairs += zip([ad.eta_left.mat, ad.eps_left.mat, ad.eta_right.mat, ad.eps_right.mat],
                             _ref_adjunction_mats(G, H, X, N))
                pr = projection_map(G, H, X, N)
                pairs += zip([pr.pi.mat, pr.pi_inverse.mat, pr.mirror.mat, pr.mirror_inverse.mat],
                             _ref_projection_mats(G, H, X, N))
                for K in subs:
                    mi = mackey_iso(G, K, H, N)
                    pairs += zip([mi.forward.mat, mi.backward.mat], _ref_mackey_mats(G, K, H, N))
                for new, ref in pairs:
                    assert _same_mat(new, ref), (name, field, kind, H.elements)
                    compared += 1
                    with_den += ref.den > 1
    assert compared > 0
    if name != "c2":  # a dimension-1 X or N is conjugated to itself
        assert with_den > 0


@pytest.mark.parametrize("name", ["c3", "v4", "s3", "q8"])
@pytest.mark.parametrize("field", FIELDS)
def test_frobenius_verdicts_equal_the_kronecker_laws_on_corruptions(name, field):
    """Seeded corruptions of the four structure maps, one entry changed or
    one map scaled: the seven tensor-law verdicts equal the Kronecker ones."""
    G = builtin_group(name)
    rng = np.random.default_rng(5)
    patterns = set()
    for H in G.subgroups_up_to_conjugacy():
        fro = frobenius_object(G, H, field)
        for trial in range(12):
            maps = [fro.mul, fro.comul, fro.unit, fro.counit]
            k = int(rng.integers(0, 4))
            m = maps[k].mat
            if trial % 3 == 0:
                new = m.scale(Fraction(int(rng.integers(1, 4)), int(rng.choice([1, 5]))))
            else:
                num = m.num.copy()
                num[int(rng.integers(0, m.nrows)), int(rng.integers(0, m.ncols))] += \
                    int(rng.integers(1, 3))
                new = Mat(field, num, m.den)
            maps[k] = ModuleHom(maps[k].source, maps[k].target, new, check=False)
            bad = FrobeniusObject(fro.module, *maps)
            got = bad.verify()
            assert [l.name for l in got] == [l.name for l in fro.verify()]
            verdicts = [l.holds for l in got]
            assert verdicts == _ref_frobenius_verdicts(bad), (H.elements, trial)
            patterns.add(tuple(verdicts))
    assert len(patterns) > 2


def test_projection_map_refuses_an_oversize_map_before_allocating():
    """S5 with the trivial H would need a 14400 x 14400 dense map."""
    G = group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])
    X = regular_module(G, GF(2))
    T = G.trivial_subgroup()
    Y = trivial_module(T.as_group()[0], GF(2))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap"):
            projection_map(G, T, X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_frobenius_laws_refuse_oversize_tensors():
    G = group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])
    fro = frobenius_object(G, G.trivial_subgroup(), GF(2))  # d = 120, d^4 > 2^22
    with pytest.raises(ValueError, match="above the cap"):
        fro.verify()


# -- tensor and conjugation ---------------------------------------------------------


def test_tensor_action_is_kronecker():
    G = builtin_group("s3")
    M = permutation_module(G, G.subgroups_up_to_conjugacy()[1], GF(3))
    N = sign_module(GF(3))
    T = tensor(M, N)
    assert T.dim == M.dim * N.dim
    for g in range(G.order):
        assert T.action(g) == M.action(g).kron(N.action(g))


def test_tensor_of_permutation_modules_is_permutation():
    G = builtin_group("d8")
    subs = G.subgroups_up_to_conjugacy()
    M = permutation_module(G, subs[2], GF(2))
    N = permutation_module(G, subs[3], GF(2))
    T = tensor(M, N)
    assert T.is_permutation
    for g in range(G.order):
        assert T.action(g) == M.action(g).kron(N.action(g))


def test_conj_module_round_trip():
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    Hgrp, _ = H.as_group()
    N = regular_module(Hgrp, GF(3))
    a = next(g for g in range(G.order) if G.conjugate_subgroup(g, H.elements)
             != frozenset(H.elements))
    Nc, ident = conj_module(G, a, H, N)
    K = H.conjugate_by(a)
    assert K.elements != H.elements
    assert Nc.group.order == K.order
    # the identification sends k to a^-1 k a, read through both relabelings
    Kel = K.as_group()[1]
    Hel = H.as_group()[1]
    for i, k in enumerate(Kel):
        assert Hel[ident(i)] == G.mul(G.inv(a), G.mul(k, a))
    # conjugating back by a^-1 recovers the original action matrices
    # (standalone groups are rebuilt per Subgroup instance, so transfer the
    # matrices onto this K's copy before the second conjugation)
    Kgrp = K.as_group()[0]
    Nc2 = module_from_matrices(Kgrp, Nc.field,
                               [Nc.action(x) for x in range(Kgrp.order)])
    back, _ = conj_module(G, G.inv(a), K, Nc2)
    assert back.group.order == Hgrp.order
    for x in range(Hgrp.order):
        assert back.action(x) == N.action(x)


def test_restriction_of_permutation_module_counts_fixed_points():
    G = builtin_group("a4")
    subs = G.subgroups_up_to_conjugacy()
    M = permutation_module(G, subs[1], QQ)
    for S in subs:
        R = restrict_to(M, S)
        Sgrp, Sel = S.as_group()
        for i, g in enumerate(Sel):
            assert R.action(i) == M.action(g)


# -- decomposition into indecomposables --------------------------------------------


def test_decompose_regular_s3_mod2():
    G = builtin_group("s3")
    D = decompose(regular_module(G, GF(2)))
    assert sorted(m.dim for m in D.summands) == [2, 2, 2]
    assert D.certified
    # transform really block-diagonalizes the action
    P = D.transform
    Pinv = P.inv()
    for g in range(G.order):
        B = Pinv @ D.module.action(g) @ P
        off = 0
        for m in D.summands:
            blk = B.num[off : off + m.dim, :]
            assert not blk[:, :off].any()
            assert not blk[:, off + m.dim :].any()
            off += m.dim
    # the three summands: one trivial-source pair and the 2-dim simple twice?
    # class structure: exactly two isomorphism classes, multiplicities 1 and 2
    mults = sorted(len(members) for _, members in D.iso_classes)
    assert mults == [1, 2]


def test_decompose_regular_s3_mod3():
    G = builtin_group("s3")
    D = decompose(regular_module(G, GF(3)))
    assert sorted(m.dim for m in D.summands) == [3, 3]
    assert len(D.iso_classes) == 2  # projective covers of trivial and sign


def test_decompose_deterministic():
    G = builtin_group("s3")
    D1 = decompose(permutation_module(G, G.trivial_subgroup(), GF(2)), seed=5)
    D2 = decompose(permutation_module(G, G.trivial_subgroup(), GF(2)), seed=5)
    assert [m.dim for m in D1.summands] == [m.dim for m in D2.summands]
    assert D1.transform.num.tolist() == D2.transform.num.tolist()
    assert D1.iso_classes == D2.iso_classes


def test_decompose_coset_module_s3_mod2():
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    D = decompose(permutation_module(G, H, GF(2)))
    assert sorted(m.dim for m in D.summands) == [1, 2]


# -- the batched searches against the one-by-one loops they replace ------------------


def _reference_combine(basis, coeffs):
    out = None
    for c, h in zip(coeffs, basis):
        if c:
            term = h.mat.scale(int(c))
            out = term if out is None else out + term
    return out


def _reference_is_scalar(m):
    return bool(np.array_equal(m.num.astype(object), np.eye(m.nrows, dtype=object) * m.num[0, 0]))


def _reference_find_splitter(X, seed):
    """The splitting search as it was written before batching: every
    candidate built and tested one Mat at a time."""
    if X.dim == 1:
        return True
    E = hom_space(X, X)
    e = len(E)
    if e == 1:
        return True
    p = X.field.p
    candidates = [h.mat for h in E]
    for i in range(min(e, 8)):
        for j in range(min(e, 8)):
            candidates.append(E[i].mat @ E[j].mat)
    rng = np.random.default_rng(seed)
    for _ in range(40 + 10 * e):
        m = _reference_combine(E, [int(c) for c in rng.integers(0, p, size=e)])
        if m is not None:
            candidates.append(m)
    for z in candidates:
        if _reference_is_scalar(z):
            continue
        if 0 < z.pow(X.dim).rank() < X.dim:
            return z
    if p**e <= EXHAUSTIVE_END_CAP:
        for coeffs in itertools.product(range(p), repeat=e):
            m = _reference_combine(E, coeffs)
            if m is None or _reference_is_scalar(m):
                continue
            if 0 < m.pow(X.dim).rank() < X.dim:
                return m
        return True
    return False


def _reference_module_isomorphism(M, N, seed=0, tries=60):
    """The F_p isomorphism search as it was written before batching."""
    if M.dim != N.dim or M.field != N.field or M.group is not N.group:
        return None
    if [M.action(c[0]).trace() for c in M.group.conjugacy_classes()] != \
            [N.action(c[0]).trace() for c in N.group.conjugacy_classes()]:
        return None
    basis = hom_space(M, N)
    if not basis:
        return None
    for h in basis:
        if h.mat.is_invertible():
            return h
    p, e = M.field.p, len(basis)
    if p**e <= EXHAUSTIVE_END_CAP:
        for coeffs in itertools.product(range(p), repeat=e):
            mat = _reference_combine(basis, coeffs)
            if mat is not None and mat.is_invertible():
                return ModuleHom(M, N, mat, check=False)
        return None
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        mat = _reference_combine(basis, [int(c) for c in rng.integers(0, p, size=e)])
        if mat is not None and mat.is_invertible():
            return ModuleHom(M, N, mat, check=False)
    return None


def _same_search_result(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b
    mat_a = a.mat if isinstance(a, ModuleHom) else a
    mat_b = b.mat if isinstance(b, ModuleHom) else b
    return mat_a == mat_b


REFERENCE_CASES = [(name, p) for name in ["c2", "c3", "c4", "v4", "s3", "q8", "d8", "a4", "s4"]
                   for p in (2, 3) if builtin_group(name).order % p == 0] + [("s4", 5)]


def _hom_stack(M, N):
    """hom_space(M, N) as one stack [e, dim N, dim M]."""
    return Mat.stack(M.field, [h.mat for h in hom_space(M, N)], (N.dim, M.dim))


@pytest.mark.parametrize("name,p", REFERENCE_CASES)
def test_batched_searches_pick_the_candidates_of_the_one_by_one_loops(name, p, monkeypatch):
    """Every k[G/H], and every dense module decompose splits off on the way:
    the batched splitter and isomorphism searches return the matrix (or the
    verdict) of the one-by-one loops, and decompose run on the loops gives
    the same transform, summands, isomorphism classes and certification.
    decompose hands each search a basis read off the blocks of
    P^-1 End(M) P; the wrappers check it against hom_space of the summands."""
    from mackeykit import reps
    G = builtin_group(name)
    batched_split, batched_iso = reps._find_splitter, reps.module_isomorphism
    batched_search = reps._isomorphism_in
    calls = {"split": 0, "iso": 0}

    def split(X, B, seed):
        assert B == _hom_stack(X, X), (name, p, X)
        want = _reference_find_splitter(X, seed)
        assert _same_search_result(batched_split(X, B, seed), want), (name, p, X)
        calls["split"] += 1
        return want

    def search(M, N, B, seed, tries=60):
        assert B == _hom_stack(M, N), (name, p, M, N)
        want = _reference_module_isomorphism(M, N, seed, tries)
        assert _same_search_result(batched_search(M, N, B, seed, tries), want), (name, p, M)
        return want

    def iso(M, N, seed=0):
        want = _reference_module_isomorphism(M, N, seed)
        assert _same_search_result(batched_iso(M, N, seed), want), (name, p, M)
        calls["iso"] += 1
        return want

    modules = coset_modules(G, GF(p))
    for M in modules:
        got = decompose(M)
        with monkeypatch.context() as mp:
            mp.setattr(reps, "_find_splitter", split)
            mp.setattr(reps, "_isomorphism_in", search)
            want = decompose(M)
        assert [S.dim for S in got.summands] == [S.dim for S in want.summands]
        assert got.transform == want.transform
        assert got.iso_classes == want.iso_classes
        assert got.certified == want.certified
    for M in modules:  # permutation modules against each other
        for N in modules:
            if M.dim == N.dim:
                iso(M, N)
    assert calls["split"] >= len([M for M in modules if M.dim > 1])


# -- the exact locality test of End(M) -------------------------------------------------


def _ends_reached(M, monkeypatch):
    """(X, B) for every call decompose(M) makes to the splitting search."""
    seen, real = [], reps._find_splitter

    def spy(X, B, seed):
        seen.append((X, B))
        return real(X, B, seed)
    with monkeypatch.context() as mp:
        mp.setattr(reps, "_find_splitter", spy)
        decompose(M)
    return seen


def _some_element_splits(B, seed=0):
    """Whether an element of the span of B splits the module: all p^e
    combinations are tried when there are at most EXHAUSTIVE_END_CAP (the
    enumeration pinned to the one-by-one loops above), else seeded samples,
    and None means that no sample splits."""
    e, d, p = B.shape[0], B.shape[1], B.field.p
    exhaustive = p**e <= EXHAUSTIVE_END_CAP
    section = ((p**e, reps._every_combination(B)) if exhaustive
               else (40 + 10 * e, reps._sampled(B, seed)))
    if reps._first_passing([section], reps._splitting(d, p), d * d) is not None:
        return True
    return False if exhaustive else None


def _is_local(B):
    return _is_local_algebra(reps._end_structure(B))


@pytest.mark.parametrize("name,p", REFERENCE_CASES)
def test_locality_test_agrees_with_the_exhaustive_search(name, p, monkeypatch):
    """Every End that decomposing a k[G/H] (the regular module included)
    reaches is local exactly when no element of it splits the module."""
    checked = 0
    for M in coset_modules(builtin_group(name), GF(p)):
        for X, B in _ends_reached(M, monkeypatch):
            if B.shape[0] == 1:
                continue
            splits = _some_element_splits(B)
            assert splits is not None, (name, p, X.dim, B.shape[0])
            assert _is_local(B) == (not splits), (name, p, X.dim, B.shape[0])
            checked += 1
    assert checked > 0


def _cyclic(n):
    return group_from_generators(n, [[(i + 1) % n for i in range(n)]])


@pytest.mark.parametrize("n,dims", [(3, [1, 2]), (7, [1, 3, 3])])
def test_locality_test_sees_residue_fields_larger_than_f2(n, dims):
    # x^n - 1 over F_2 is (x - 1) times irreducible factors of degree 2 (n = 3)
    # and 3, 3 (n = 7): F_2[Cn] is F_2 + F_4 or F_2 + F_8 + F_8, commutative and
    # not local, and each field summand is a leaf whose End is that field
    M = regular_module(_cyclic(n), GF(2))
    assert not _is_local(reps._end_basis(M))
    D = decompose(M)
    assert sorted(S.dim for S in D.summands) == dims and D.certified
    for S in D.summands:
        B = reps._end_basis(S)
        assert B.shape[0] == S.dim  # End(S) is the field F_(2^dim S)
        assert _is_local(B) and _some_element_splits(B) is False


def test_locality_test_on_a_local_noncommutative_end():
    # F_2[Q8] is local (a 2-group) and not commutative, so the commutator ideal
    # N is a nonzero nilpotent ideal
    M = regular_module(builtin_group("q8"), GF(2))
    B = reps._end_basis(M)
    L = reps._end_structure(B)
    assert not np.array_equal(L.num, L.num.transpose(2, 1, 0))
    assert _is_local_algebra(L) and _some_element_splits(B) is False
    D = decompose(M)
    assert len(D.summands) == 1 and D.certified


@pytest.mark.parametrize("p", [2, 3])
def test_locality_test_rejects_an_end_whose_basis_and_products_do_not_split(p):
    # End of the regular F_p[S4]-module is not local, yet every basis element
    # and every product of the first eight is invertible or nilpotent: only a
    # sampled combination splits it
    M = regular_module(builtin_group("s4"), GF(p))
    B = reps._end_basis(M)
    splits = reps._splitting(M.dim, p)
    assert not splits(B.num).any()
    assert not splits(np.stack([(B[i] @ B[j]).num for i in range(8) for j in range(8)])).any()
    assert not _is_local(B)
    assert isinstance(reps._find_splitter(M, B, 0), Mat)


@pytest.mark.parametrize("name,p,which", [("q8", 2, 0), ("s4", 2, 0), ("s4", 3, 0), ("d8", 2, 3),
                                          ("s3", 3, 0)])
def test_locality_test_reads_a_basis_that_is_not_echelon(name, p, which):
    # a random invertible change of coefficients spans the same End: the
    # test reduces it first, so tensor and verdict are those of the echelon basis
    G = builtin_group(name)
    M = permutation_module(G, G.subgroups_up_to_conjugacy()[which], GF(p))
    B = reps._end_basis(M)
    e, rng = B.shape[0], np.random.default_rng(5)
    while True:
        C = Mat(GF(p), rng.integers(0, p, size=(e, e)))
        if C.is_invertible():
            break
    mixed = (C @ B.reshape(e, -1)).reshape(B.shape)
    assert mixed != B
    assert reps._end_structure(mixed) == reps._end_structure(B)
    assert _is_local(mixed) == _is_local(B)


LARGE_PRIME = 3037000493  # the largest p that Field admits, (p - 1)^2 < 2^63


def _dense_conjugate(M, rng):
    """M with every matrix replaced by P^-1 A(g) P for a random dense P."""
    d, f = M.dim, M.field
    while True:
        P = Mat(f, rng.integers(0, f.p, size=(d, d)))
        if P.is_invertible():
            break
    Pinv = P.inv()
    return module_from_matrices(M.group, f, [Pinv @ M.action(g) @ P for g in range(M.group.order)])


def _reference_structure(B):
    """L[i, k, j] with every product in Python integers and every
    coordinate solved for, not read at the pivots."""
    e, d, p = B.shape[0], B.shape[1], B.field.p
    A = B.num.astype(object)
    basis = Mat(B.field, B.num.transpose(0, 2, 1).reshape(e, d * d).T.copy())
    L = np.zeros((e, e, e), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            prod = (A[i] @ A[j]) % p
            x = basis.solve(Mat(B.field, prod.T.reshape(-1, 1).astype(np.int64)))
            assert x is not None
            L[i, :, j] = x.num[:, 0]
    return L


def test_locality_test_is_exact_at_the_largest_prime():
    p, rng = LARGE_PRIME, np.random.default_rng(11)
    F = GF(p)
    assert p % 3 == 2  # x^2 + x + 1 is irreducible: the rotation module's End is F_(p^2)
    C3 = _cyclic(3)
    s = C3.generators()[0]
    A = Mat(F, np.array([[0, -1], [1, -1]]))
    power = {C3.power(s, k): A.pow(k) for k in range(3)}
    rotation = module_from_matrices(C3, F, [power[g] for g in range(3)])
    # End of 1 + 1 + rotation is M_2(F_p) x F_(p^2), e = 6 on d = 4, so no vector
    # generates the module: the pivots leave whole columns of the echelon
    # basis and a structure constant is a sum of products of dense residues
    trivial = trivial_module(C3, F)
    cases = [(rotation, True),
             (reps.direct_sum([rotation, trivial])[0], False),
             (reps.direct_sum([trivial, trivial, rotation])[0], False),
             (regular_module(builtin_group("s3"), F), False)]
    wraps = False
    for M, local in cases:
        X = _dense_conjugate(M, rng)
        B = reps._end_basis(X)
        L = reps._end_structure(B)
        assert np.array_equal(L.num, _reference_structure(B)), X.dim
        assert _is_local_algebra(L) is local, X.dim
        # plain int64 products of these residues wrap silently
        wraps |= not np.array_equal((B.num @ B.num) % p,
                                    (B.num.astype(object) @ B.num.astype(object)) % p)
    assert wraps and cases[-1][0].dim >= 6


def test_locality_test_rejects_the_s3_coset_modules_at_a_large_prime():
    # at p = 1000003 a random combination splits these modules with
    # probability about 2/p, so the sampled search misses; the test sees that
    # End is not local (at p <= 101 they split as 1+1, 1+2 and 1+2+1+2)
    G, F = builtin_group("s3"), GF(1000003)
    for K in G.subgroups_up_to_conjugacy()[:-1]:
        M = permutation_module(G, K, F)
        assert M.dim in (2, 3, 6)
        assert not _is_local(reps._end_basis(M)), M.dim


def test_find_splitter_refuses_a_non_local_end_that_nothing_splits(monkeypatch):
    # a broken invariant: an enumerated End that is not local has a splitter
    M = permutation_module(builtin_group("d8"), builtin_group("d8").subgroups_up_to_conjugacy()[0],
                           GF(2))
    B = reps._end_basis(M)
    assert reps._find_splitter(M, B, 0) is True
    monkeypatch.setattr(reps, "_is_local_algebra", lambda L: False)
    with pytest.raises(reps.DecompositionError, match="broken invariant"):
        reps._find_splitter(M, B, 0)


def test_vertex_reads_only_the_verdict(monkeypatch):
    # the regular F_2[S4]-module is refused after its basis and the locality
    # test, without the sampled search that finds its splitter
    monkeypatch.setattr(reps, "_sampled", None)
    monkeypatch.setattr(reps, "_every_combination", None)
    with pytest.raises(ValueError, match="requires an indecomposable"):
        vertex(regular_module(builtin_group("s4"), GF(2)))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1000003, LARGE_PRIME])
def test_sampled_windows_draw_the_one_by_one_stream(p):
    for e in (1, 2, 5, 9, 24):
        B = Mat(GF(p), np.zeros((e, 1, 1), dtype=np.int64))
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reps, "_combinations", lambda B, coeffs: seen.append(coeffs) or coeffs)
            make = reps._sampled(B, 3)
            for lo, hi in ((0, 4), (4, 20), (20, 21), (21, 85)):
                make(lo, hi)
        rng = np.random.default_rng(3)
        want = np.array([rng.integers(0, p, size=e) for _ in range(85)])
        assert np.array_equal(np.concatenate(seen), want), (p, e)


# -- isomorphism testing -------------------------------------------------------------


def test_module_isomorphism_finds_change_of_basis():
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    M = permutation_module(G, H, GF(3))
    P = Mat(GF(3), np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    Pinv = P.inv()
    N = module_from_matrices(G, GF(3), [P @ M.action(g) @ Pinv for g in range(G.order)])
    iso = module_isomorphism(M, N)
    assert iso is not None
    assert iso.is_isomorphism()
    for g in range(G.order):
        assert iso.mat @ M.action(g) == N.action(g) @ iso.mat


def test_module_isomorphism_rejects_different_characters():
    assert module_isomorphism(trivial_module(builtin_group("s3"), QQ),
                              sign_module(QQ)) is None


def test_module_isomorphism_rejects_different_dims():
    G = builtin_group("s3")
    assert module_isomorphism(trivial_module(G, GF(2)),
                              regular_module(G, GF(2))) is None


# -- split summands -------------------------------------------------------------------


def test_trivial_is_summand_of_three_point_module_mod2():
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    w = is_summand(trivial_module(G, GF(2)), permutation_module(G, H, GF(2)))
    assert w is not None
    assert (w.retraction.mat @ w.injection.mat).is_identity()


def test_trivial_is_not_summand_of_two_point_module_mod2():
    # k[G/C3] over F2 is the regular F2[C2]-module pulled back: indecomposable,
    # nontrivial, so the trivial module does not split off
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 3)
    assert is_summand(trivial_module(G, GF(2)), permutation_module(G, H, GF(2))) is None


def test_is_summand_requires_prime_field():
    G = builtin_group("s3")
    with pytest.raises(ValueError):
        is_summand(trivial_module(G, QQ), regular_module(G, QQ))


# -- relative projectivity, vertices, blocks -------------------------------------------


def test_trivial_module_vertex_is_sylow():
    for name, p, order in [("s3", 2, 2), ("s3", 3, 3), ("d8", 2, 8),
                           ("a4", 2, 4), ("a4", 3, 3), ("s4", 3, 3)]:
        G = builtin_group(name)
        v = vertex(trivial_module(G, GF(p)))
        assert v.vertex.order == order, (name, p)
        # every class above the vertex is relatively projective
        assert all(S.order >= order or S not in v.relatively_projective_classes
                   for S in v.checked_classes)


def test_projective_summand_has_trivial_vertex():
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    D = decompose(permutation_module(G, H, GF(2)))
    two_dim = next(m for m in D.summands if m.dim == 2)
    assert vertex(two_dim).vertex.order == 1


def test_relative_projectivity_direct():
    G = builtin_group("s3")
    sylow2 = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    triv = trivial_module(G, GF(2))
    assert relatively_projective(triv, sylow2)
    assert not relatively_projective(triv, G.trivial_subgroup())


def _count_calls(monkeypatch, targets):
    """Wrap each (owner, name) so that its calls are counted in the returned dict."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        orig = getattr(owner, name)

        def counted(*a, _orig=orig, _name=name, **k):
            calls[_name] += 1
            return _orig(*a, **k)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_permutation_verdicts_run_no_elimination(monkeypatch):
    calls = _count_calls(monkeypatch, [(Mat, "rref"), (Mat, "solve"),
                                       (reps, "_relative_trace_stack")])
    checked = 0
    for name in ("s4", "d8", "a4"):
        G = builtin_group(name)
        for field in (GF(2), GF(3), QQ):
            for M in [trivial_module(G, field)] + coset_modules(G, field):
                for S in G.subgroups_up_to_conjugacy():
                    relatively_projective(M, S)
                    checked += 1
    assert checked > 300
    assert calls == {"rref": 0, "solve": 0, "_relative_trace_stack": 0}


@pytest.mark.parametrize("name", ["s3", "d8", "a4", "s4"])
def test_decompose_of_a_coset_module_solves_no_system(name, monkeypatch):
    """End(k[G/H]) is the orbital basis, and every summand's End and Hom is
    read off its blocks: one hom_space call and no Kronecker system."""
    calls = _count_calls(monkeypatch, [(reps, "hom_space"), (Mat, "kron")])
    G = builtin_group(name)
    for p in (2, 3):
        for M in coset_modules(G, GF(p)):
            calls.update(hom_space=0, kron=0)
            decompose(M)
            assert calls == {"hom_space": int(M.dim > 1), "kron": 0}, (p, M.dim)


def test_permutation_verdict_reads_every_point_of_an_orbit():
    """S3 on the three cosets of a C2 at p = 2, relative to a C2 that moves
    the least coset: its stabiliser index there is 2, but the module is
    relatively S-projective through the point that S fixes."""
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    M = permutation_module(G, H, GF(2))
    act = M.gset.action
    moving = {H.conjugate_by(a) for a in range(G.order)}
    moving = [S for S in moving if (act[S.mask, 0] != 0).any()]
    assert len(moving) == 2
    for S in moving:
        stab0 = act[:, 0] == 0
        assert (stab0.sum() // (stab0 & S.mask).sum()) % 2 == 0  # the least point says no
        assert relatively_projective(M, S)
        assert relatively_projective(dense_copy(M), S)  # Higman's trace agrees


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_the_zero_module_is_projective_relative_to_every_subgroup(field):
    G = builtin_group("s3")
    zero = module_from_matrices(G, field, [Mat.zeros(field, 0, 0)] * G.order)
    assert _relative_trace_stack(zero, G.trivial_subgroup()).shape == (0, 0, 0)
    assert all(relatively_projective(zero, S) for S in G.subgroups_up_to_conjugacy())


def _ref_relative_trace_span(M, S):
    """Tr^G_S(phi) = sum_t A(t) phi A(t)^-1 over a basis of End_kS(Res M),
    one Mat product at a time."""
    G = M.group
    resM = restrict_to(M, S)
    transversal, _ = G.left_transversal(S)
    out = []
    for h in hom_space(resM, resM):
        acc = None
        for t in transversal:
            term = M.action(t) @ h.mat @ M.action_inv(t)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


@pytest.mark.parametrize("name", ["d8", "s4"])
def test_relative_trace_by_gathers_equals_dense_conjugation(name):
    G = builtin_group(name)
    field = GF(2)
    p_classes = [S for S in G.subgroups_up_to_conjugacy() if S.order & (S.order - 1) == 0]
    for M in coset_modules(G, field):
        Md = dense_copy(M)
        for S in p_classes:
            T, Td = _relative_trace_stack(M, S), _relative_trace_stack(Md, S)
            assert T == Td, (M.dim, S.order)
            assert [Mat(field, t) for t in Td.num] == _ref_relative_trace_span(Md, S)


@pytest.mark.parametrize("name,orders", [("d8", (1, 2, 4, 8)), ("s4", (3, 6, 12))])
def test_scott_module_vertices_agree_with_dense_copies(name, orders):
    """The Scott modules k[G/H] of the modules-fp workload: the vertex and
    the relatively projective classes are the same on the dense copy."""
    G = builtin_group(name)
    for H in G.subgroups_up_to_conjugacy():
        if H.order not in orders:
            continue
        M = permutation_module(G, H, GF(2))
        fast, slow = vertex(M), vertex(dense_copy(M))
        assert fast.vertex is slow.vertex
        assert fast.relatively_projective_classes == slow.relatively_projective_classes


def test_vertex_rejects_decomposable():
    G = builtin_group("s3")
    with pytest.raises(ValueError):
        vertex(regular_module(G, GF(2)))


def _cyclic_9():
    return group_from_generators(9, [[1, 2, 3, 4, 5, 6, 7, 8, 0]])


def test_vertex_refuses_a_leaf_that_was_only_sampled():
    # End of the regular F_3[C9]-module has 3^9 > EXHAUSTIVE_END_CAP elements,
    # so the search can only sample it and proves nothing
    G = _cyclic_9()
    M = regular_module(G, GF(3))
    assert 3**9 > EXHAUSTIVE_END_CAP
    with pytest.raises(ValueError, match="could not be certified"):
        vertex(M)
    # the Higman scan itself still runs when indecomposability is not required
    assert vertex(M, require_indecomposable=False).vertex.order == 1


def test_vertex_accepts_a_certified_leaf():
    G = _cyclic_9()
    C3 = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 3)
    assert vertex(permutation_module(G, C3, GF(3))).vertex.order == 3
    assert vertex(trivial_module(G, GF(3))).vertex.order == 9


def test_block_membership_s3_mod2():
    G = builtin_group("s3")
    blocks = block_decomposition(G, GF(2))
    bi_triv = block_of(trivial_module(G, GF(2)), blocks)
    assert blocks[bi_triv].dimension == 2  # the principal block
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    D = decompose(permutation_module(G, H, GF(2)))
    two_dim = next(m for m in D.summands if m.dim == 2)
    bi_simple = block_of(two_dim, blocks)
    assert blocks[bi_simple].dimension == 4
    assert bi_simple != bi_triv


# -- Green correspondence --------------------------------------------------------


@pytest.mark.parametrize("name", ["s3", "d8", "a4", "s4"])
def test_green_vertex_family_has_the_classes_of_all_elements_outside_h(name):
    # over D\G/D the family is smaller, but meets the same G-classes as
    # D n gDg^-1 over every g outside H
    G = builtin_group(name)
    lat = G.subgroup_lattice()
    for D in G.subgroups_up_to_conjugacy():
        for H in lat.subgroups:
            if not G.normalizer(D) <= H or H.order == G.order:
                continue
            family = _vertex_family(G, H, D)
            brute = {D.intersection(D.conjugate_by(g)) for g in range(G.order) if g not in H}
            assert set(family) <= brute
            assert ({lat.class_index(S) for S in family}
                    == {lat.class_index(S) for S in brute})


# -- the dense action stack against the per-element loops it replaced ----------------
#
# A dense module keeps its action as one numerator stack; the loops below are
# the one-Mat-at-a-time versions of verify_action, the Fitting splits of
# decompose, the relative trace and block_of, kept as oracles (dense
# induction is checked with the exchange maps above).  Dense copies and
# copies conjugated by an integer matrix with a rational inverse make
# denominators and object dtype occur.


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _ref_verify_action(G, mats):
    if not mats[G.identity].is_identity():
        raise ValueError("identity does not act as the identity")
    for s in G.generators():
        for g in range(G.order):
            if mats[s] @ mats[g] != mats[G.table[s, g]]:
                raise ValueError(f"action is not a homomorphism at pair {(s, g)}")


@pytest.mark.parametrize("name", list(BUILTIN_NAMES))
def test_verify_action_rejects_a_corrupted_stack_at_the_double_loops_pair(name):
    G = builtin_group(name)
    rng = np.random.default_rng(3)
    for field in FIELDS:
        for kind in ("dense", "conjugated"):
            M = MODULE_KINDS[kind](permutation_module(G, _largest_proper(G), field))
            mats = [M.action(g) for g in range(G.order)]
            assert _outcome(_ref_verify_action, G, mats) is None
            for g0 in (G.identity, G.generators()[-1], int(rng.integers(G.order))):
                bad = list(mats)
                num = bad[g0].num.copy()
                num[0, -1] += 1
                bad[g0] = Mat(field, num, bad[g0].den)
                want = _outcome(_ref_verify_action, G, bad)
                assert want is not None
                assert _outcome(module_from_matrices, G, field, bad) == want, (field, kind, g0)


def _ref_split(X, seed=0):
    """decompose's recursion with its per-element split Pinv @ A(g) @ P."""
    z = X.dim == 1 or reps._find_splitter(X, _hom_stack(X, X), seed)
    if isinstance(z, bool):
        return [X], Mat.identity(X.field, X.dim)
    zn = z.pow(X.dim)
    ker = zn.nullspace()
    im_basis, piv = zn.T.rref()
    P = ker.hstack(Mat(X.field, im_basis.num[: len(piv), :].T.copy(), im_basis.den))
    Pinv, a = P.inv(), ker.ncols
    sub1, sub2 = [], []
    for g in range(X.group.order):
        C = Pinv @ X.action(g) @ P
        assert not C.num[:a, a:].any() and not C.num[a:, :a].any()
        sub1.append(Mat(X.field, C.num[:a, :a].copy(), C.den))
        sub2.append(Mat(X.field, C.num[a:, a:].copy(), C.den))
    l1, Q1 = _ref_split(module_from_matrices(X.group, X.field, sub1), seed)
    l2, Q2 = _ref_split(module_from_matrices(X.group, X.field, sub2), seed)
    return l1 + l2, P @ Mat.block_diag(X.field, [Q1, Q2])


@pytest.mark.parametrize("name", list(BUILTIN_NAMES))
def test_decompose_equals_the_per_element_split(name):
    G = builtin_group(name)
    for field in (GF(2), GF(3)):
        for kind, make in MODULE_KINDS.items():
            for M in coset_modules(G, field):
                if M.dim > 12:
                    continue
                X = make(M)
                D = decompose(X)
                leaves, P = _ref_split(X)
                assert _same_mat(D.transform, P), (field, kind, M.dim)
                assert [m.dim for m in D.summands] == [m.dim for m in leaves]
                for new, ref in zip(D.summands, leaves):
                    for g in range(G.order):
                        assert _same_mat(new.action(g), ref.action(g))
                # the whole group, not just the certificate's generators
                Pinv = P.inv()
                for g in range(G.order):
                    assert Pinv @ X.action(g) @ P == Mat.block_diag(
                        field, [m.action(g) for m in leaves])


def _is_positive_multiple(t, ref):
    """Mat(t) = c * ref for some c > 0 (over Q; c = 1 over F_p)."""
    f = ref.field
    if f.p is not None:
        return Mat(f, t) == ref
    nz = np.flatnonzero(ref.num)
    if nz.size == 0:
        return not t.any()
    i, j = np.unravel_index(nz[0], ref.shape)
    c = Fraction(int(t[i, j])) / ref.entry(i, j)
    return c > 0 and Mat(f, t) == ref.scale(c)


def _ref_relatively_projective(M, S):
    traces = _ref_relative_trace_span(M, S)
    stacked = Mat.from_blocks(M.field, M.dim * M.dim, len(traces),
                              [(0, j, t.vec()) for j, t in enumerate(traces)])
    return stacked.solve(Mat.identity(M.field, M.dim).vec()) is not None


@pytest.mark.parametrize("name", list(BUILTIN_NAMES))
def test_relative_traces_equal_the_per_element_sums(name):
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    seen_den = False
    for field in FIELDS:
        for kind, make in MODULE_KINDS.items():
            M = make(permutation_module(G, _largest_proper(G), field))
            seen_den |= any(M.action(g).den > 1 for g in range(G.order))
            for S in subs:
                T, ref = _relative_trace_stack(M, S), _ref_relative_trace_span(M, S)
                assert T.shape[0] == len(ref)
                assert all(_is_positive_multiple(t, r) for t, r in zip(T.num, ref)), (field, kind)
                assert relatively_projective(M, S) == _ref_relatively_projective(M, S)
    assert seen_den or name == "c2"


def _ref_block_of(M, blocks):
    """block_of's scale-and-add loop, reading each idempotent's denominator."""
    hit = []
    for bi, b in enumerate(blocks):
        acc = Mat.zeros(M.field, M.dim, M.dim)
        for g in range(M.group.order):
            c = Fraction(int(b.idempotent_elements[g]), b.idempotent_den)
            if c:
                acc = acc + M.action(g).scale(c)
        if acc.is_identity():
            hit.append(bi)
        elif not acc.is_zero():
            raise ArithmeticError(f"block idempotent {bi} acts neither as 0 nor as 1")
    if len(hit) != 1:
        raise ArithmeticError(f"module does not lie in a single block: hits {hit}")
    return hit[0]


@pytest.mark.parametrize("name", list(BUILTIN_NAMES))
def test_block_of_equals_the_scale_and_add_loop(name):
    G = builtin_group(name)
    compared = 0
    for field in FIELDS:
        blocks = _outcome(block_decomposition, G, field)
        if isinstance(blocks, str):  # not split over Q
            continue
        for kind, make in MODULE_KINDS.items():
            for M in [trivial_module(G, field)] + coset_modules(G, field):
                X = make(M)
                assert _outcome(block_of, X, blocks) == _outcome(_ref_block_of, X, blocks)
                compared += 1
    assert compared > 0


def test_block_of_over_q_reads_the_idempotent_denominator():
    G = builtin_group("s3")
    blocks = block_decomposition(G, QQ)
    assert sorted(b.idempotent_den for b in blocks) == [3, 6, 6]
    X = permutation_module(G, next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2), QQ)
    # columns e0 - e1, e1 - e2 span the 2-dimensional simple summand, e0 + e1 + e2 the trivial
    P = Mat(QQ, np.array([[1, 0, 1], [-1, 1, 1], [0, -1, 1]]))
    Pinv = P.inv()
    assert Pinv.den == 3
    two = module_from_matrices(G, QQ, [Mat(QQ, (C := Pinv @ X.action(g) @ P).num[:2, :2].copy(),
                                           C.den) for g in range(G.order)])
    dims = [blocks[block_of(M, blocks)].dimension
            for M in (trivial_module(G, QQ), sign_module(QQ), two)]
    assert dims == [1, 1, 4]


def test_dense_module_is_a_snapshot_of_its_matrices():
    G = builtin_group("s3")
    X = permutation_module(G, G.subgroups_up_to_conjugacy()[1], QQ)
    for M in (dense_copy(X), _conjugated_copy(X)):
        mats = [M.action(g) for g in range(G.order)]
        before = [m.to_fractions() for m in mats]
        N = module_from_matrices(G, QQ, mats)
        for m in mats:      # edits to what was passed in
            m.num[...] = 7
        mats[1] = Mat.identity(QQ, 3)
        for g in range(G.order):   # edits to what was read back
            N.action(g).num[...] = 5
        assert [N.action(g).to_fractions() for g in range(G.order)] == before
        N.verify_action()


def test_every_naturality_check_goes_through_one_routine(monkeypatch):
    """A group table, an injective hom, a G-set, a groupoid's action, a
    functor's endpoints and cocycle, a natural iso, a module's action, a
    module map, hom_space's orbit labelling and its dense basis are each one
    call of groups._unnatural."""
    from mackeykit import groupoids, groups

    real, calls = groups._unnatural, []

    def spy(*args, **kwargs):
        calls.append(args[1].shape)
        return real(*args, **kwargs)

    for module in (groups, groupoids, reps):
        monkeypatch.setattr(module, "_unnatural", spy)

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    Hgrp, el = H.as_group()
    gpd = groupoids.groupoid_from_group(G)
    ident = groupoids.GroupoidFunctor(gpd, gpd, [0], list(range(G.order)))
    X, sign = permutation_module(G, H, QQ), sign_module(QQ)
    assert count(groups.group_from_table, G.table.tolist()) == 1
    assert count(groups.InjectiveHom, Hgrp, G, el) == 1
    assert count(GSet, G, X.gset.action) == 1
    assert count(gpd.verify) == 1
    assert count(groupoids.GroupoidFunctor, gpd, gpd, [0], list(range(G.order))) == 2
    assert count(groupoids.NaturalIso, ident, ident, [G.identity]) == 1
    assert count(module_from_matrices, G, QQ, [sign.action(g) for g in range(G.order)]) == 1
    assert count(ModuleHom, X, X, Mat.identity(QQ, X.dim)) == 1
    assert count(ModuleHom, sign, sign, Mat.identity(QQ, 1)) == 1
    assert count(hom_space, X, X) == 1
    assert count(hom_space, sign, sign) == 1


def test_hom_space_checks_its_dense_basis_as_one_stack(monkeypatch):
    """The nullspace basis of a dense hom space is checked as one stack: a
    basis with one entry moved is refused, naming a generator."""
    G = builtin_group("s3")
    C3 = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 3)
    X, sign = permutation_module(G, C3, QQ), sign_module(QQ)
    assert len(hom_space(X, sign)) == 1
    real = reps._echelon_basis

    def moved(S):
        E = real(S)
        num = E.num.copy()
        num[0, 0, 0] += E.den
        return Mat(QQ, num, E.den)

    monkeypatch.setattr(reps, "_echelon_basis", moved)
    with pytest.raises(ValueError, match="^map does not intertwine generator [0-9]+$"):
        hom_space(X, sign)
