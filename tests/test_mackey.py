"""Mackey and Green functors as verified tables: the Hom functor, the
Burnside functor, convolution monoids, and the axiom checker itself
(including a surgical negative control that trips exactly one clause)."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest

from mackeykit.burnside import burnside_multiply, burnside_vector, gset_from_subgroup, gset_restrict
from mackeykit.catalog import builtin_group
from mackeykit.linalg import GF, QQ, Mat
from mackeykit.mackey import (
    GreenFunctorData,
    OrdinaryMackeyFunctor,
    burnside_green_functor,
    cohomological_check,
    green_from_monoid,
    hom_decategorify,
    verify_green_axioms,
    verify_mackey_axioms,
)
from mackeykit.reps import (
    MAX_DENSE_ENTRIES,
    Module,
    ModuleHom,
    frobenius_object,
    module_from_matrices,
    permutation_module,
    tensor,
    trivial_module,
)

MACKEY_CLAUSES = [
    "identity-maps",
    "restriction-functoriality",
    "transfer-functoriality",
    "conjugation-functoriality",
    "conjugation-restriction-compatibility",
    "conjugation-transfer-compatibility",
    "mackey-formula",
]


def test_lattice_subgroups_cover_everything():
    G = builtin_group("s3")
    subs = G.subgroup_lattice().subgroups
    assert len(subs) == 6
    orders = [S.order for S in subs]
    assert orders == sorted(orders)
    assert orders == [1, 2, 2, 2, 3, 6]


def test_burnside_functor_validates_each_subgroup_once(monkeypatch):
    from mackeykit import groups
    from mackeykit.catalog import group_from_spec

    G = group_from_spec({"degree": 4, "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]})  # D8
    calls = []
    orig = groups.Subgroup.__post_init__

    def counted(self):
        calls.append(self.elements)
        orig(self)

    monkeypatch.setattr(groups.Subgroup, "__post_init__", counted)
    Gf = burnside_green_functor(G)
    assert len(calls) == len(set(calls)) == len(G.all_subgroups()) == 10
    assert Gf.mackey_report.ok and Gf.green_report.ok


def test_mackey_check_reads_double_cosets_off_the_lattice_table(monkeypatch, tmp_path, capsys):
    from importlib import resources

    from mackeykit.cli import run
    from mackeykit.groups import FiniteGroup

    spec = tmp_path / "s4.json"  # a fresh group, with no lattice built yet
    spec.write_text(resources.files("mackeykit.data").joinpath("s4.json").read_text())
    calls = []
    orig = FiniteGroup.double_cosets

    def counted(self, left, right):
        calls.append((left, right))
        return orig(self, left, right)

    monkeypatch.setattr(FiniteGroup, "double_cosets", counted)
    assert run(["mackey-check", "--group", str(spec), "--functor", "burnside"]) == 0
    capsys.readouterr()
    assert calls == []


# -- the constant functor (trivial Hom) ---------------------------------------


def test_constant_functor_shape_and_transfers():
    G = builtin_group("s3")
    M = hom_decategorify(trivial_module(G, QQ), trivial_module(G, QQ))
    for S in M.subgroups:
        assert M.levels[S].dim == 1
    sets = {S: frozenset(S.elements) for S in M.subgroups}
    for K in M.subgroups:
        for H in M.subgroups:
            if sets[K] <= sets[H]:
                assert M.res[(K, H)].num.tolist() == [[1]]
                # transfer of the identity map is [H:K] times the identity
                assert M.tr[(K, H)] == Mat.identity(QQ, 1).scale(H.order // K.order)
    rep = verify_mackey_axioms(M)
    assert rep.ok
    coh = cohomological_check(M)
    assert coh.ok and coh.instances > 0


def test_burnside_functor_is_not_cohomological():
    G = builtin_group("c2")
    Gf = burnside_green_functor(G)
    coh = cohomological_check(Gf.underlying)
    assert coh.instances == 3  # (1,1), (1,C2), (C2,C2)
    assert len(coh.failures) == 1
    assert "(0,)" in coh.failures[0]


# -- the Hom functor -----------------------------------------------------------


def orbit_pair_count(S, X, Y):
    """Number of S-orbits on basis(X) x basis(Y) — the dimension of the
    intertwiner space of two permutation modules over any field."""
    pairs = {(a, b) for a in range(X.dim) for b in range(Y.dim)}
    count = 0
    while pairs:
        a, b = pairs.pop()
        count += 1
        for g in S.elements:
            pairs.discard((int(X.gset.action[g, a]), int(Y.gset.action[g, b])))
    return count


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_hom_functor_level_dimensions_match_orbit_counts(field):
    G = builtin_group("s3")
    subs = G.subgroups_up_to_conjugacy()
    X = permutation_module(G, subs[1], field)  # 3 points
    Y = permutation_module(G, subs[2], field)  # 2 points
    M = hom_decategorify(X, Y)
    for S in M.subgroups:
        assert M.levels[S].dim == orbit_pair_count(S, X, Y)


def test_hom_functor_endomorphism_dims_frozen():
    G = builtin_group("s3")
    X = permutation_module(G, G.subgroups_up_to_conjugacy()[1], GF(2))
    M = hom_decategorify(X, X)
    dims_by_order = {}
    for S in M.subgroups:
        dims_by_order.setdefault(S.order, set()).add(M.levels[S].dim)
    assert dims_by_order == {1: {9}, 2: {5}, 3: {3}, 6: {2}}


@pytest.mark.parametrize("name,field", [("s3", GF(2)), ("c4", QQ)])
def test_hom_functor_passes_all_axioms(name, field):
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    X = permutation_module(G, subs[1], field)
    Y = permutation_module(G, subs[-1], field)  # the one-point module
    rep = verify_mackey_axioms(hom_decategorify(X, Y))
    assert [c.name for c in rep.checks] == MACKEY_CLAUSES
    assert rep.ok, rep.summary()
    assert all(c.instances > 0 for c in rep.checks)


def test_hom_functor_rejects_mismatched_modules():
    G = builtin_group("s3")
    with pytest.raises(ValueError):
        hom_decategorify(trivial_module(G, GF(2)), trivial_module(G, GF(3)))


# -- the Burnside functor and its G-set shadows ----------------------------------


@pytest.mark.parametrize("name", ["c2", "c3", "v4", "s3"])
def test_burnside_functor_builds_and_reverifies(name):
    G = builtin_group(name)
    Gf = burnside_green_functor(G)
    M = Gf.underlying
    full = next(S for S in M.subgroups if S.order == G.order)
    assert M.levels[full].dim == len(G.subgroups_up_to_conjugacy())
    triv = next(S for S in M.subgroups if S.order == 1)
    assert M.levels[triv].dim == 1
    # construction already verified both axiom suites; re-run independently
    assert verify_mackey_axioms(M).ok
    assert verify_green_axioms(Gf).ok


def _level_class_index(G, M, K, elements):
    """Column index of the K-class of the given subgroup in level K."""
    target = frozenset(elements)
    for li, lab in enumerate(M.levels[K].labels):
        labset = frozenset(lab)
        if len(labset) == len(target) and any(
                G.conjugate_subgroup(k, target) == labset for k in K.elements):
            return li
    raise AssertionError("subgroup matched no level class")


@pytest.mark.parametrize("name", ["s3", "d8"])
def test_burnside_restriction_matches_gset_restriction(name):
    """Columns of res^G_K equal the honest orbit decomposition of the
    restricted coset G-sets."""
    G = builtin_group(name)
    Gf = burnside_green_functor(G)
    M = Gf.underlying
    full = next(S for S in M.subgroups if S.order == G.order)
    for K in M.subgroups:
        Kgrp, Kel = K.as_group()
        kcls = Kgrp.subgroups_up_to_conjugacy()
        # map Kgrp subgroup classes onto the functor's level-K columns
        remap = [_level_class_index(G, M, K, tuple(Kel[i] for i in c.elements))
                 for c in kcls]
        for j, lab in enumerate(M.levels[full].labels):
            X = gset_from_subgroup(G, G.subgroup(lab))
            v = burnside_vector(gset_restrict(K, X))
            expected = np.zeros(M.levels[K].dim, dtype=np.int64)
            for ci, mult in enumerate(v):
                expected[remap[ci]] += mult
            assert M.res[(K, full)].col(j).num.ravel().tolist() == expected.tolist()


@pytest.mark.parametrize("name", ["s3", "d8"])
def test_burnside_top_level_product_matches_burnside_multiply(name):
    G = builtin_group(name)
    Gf = burnside_green_functor(G)
    M = Gf.underlying
    full = next(S for S in M.subgroups if S.order == G.order)
    d = M.levels[full].dim
    cls = G.subgroups_up_to_conjugacy()
    remap = [_level_class_index(G, M, full, c.elements) for c in cls]
    for i in range(d):
        for j in range(d):
            a = np.zeros(d, dtype=np.int64)
            b = np.zeros(d, dtype=np.int64)
            a[remap[i]] = 1
            b[remap[j]] = 1
            prod = burnside_multiply(G, np.eye(d, dtype=np.int64)[i],
                                     np.eye(d, dtype=np.int64)[j])
            expected = np.zeros(d, dtype=np.int64)
            for ci, mult in enumerate(prod):
                expected[remap[ci]] += mult
            got = Gf.product(full, Mat(QQ, a.reshape(-1, 1)),
                             Mat(QQ, b.reshape(-1, 1)))
            assert got.num.ravel().tolist() == expected.tolist()


def test_burnside_transfer_is_induction_of_gsets():
    # tr^G_K [K/S] = [G/S]: the transfer matrix sends the class of S in
    # level K to the class of S in level G
    G = builtin_group("s3")
    Gf = burnside_green_functor(G)
    M = Gf.underlying
    full = next(S for S in M.subgroups if S.order == G.order)
    for K in M.subgroups:
        t = M.tr[(K, full)]
        for j, lab in enumerate(M.levels[K].labels):
            expected = np.zeros(M.levels[full].dim, dtype=np.int64)
            expected[_level_class_index(G, M, full, lab)] = 1
            assert t.col(j).num.ravel().tolist() == expected.tolist()


def test_green_product_handles_denominators():
    G = builtin_group("s3")
    Gf = burnside_green_functor(G)
    M = Gf.underlying
    full = next(S for S in M.subgroups if S.order == G.order)
    d = M.levels[full].dim
    x = Mat.identity(QQ, d).col(0)
    y = Mat.identity(QQ, d).col(1)
    half = x.scale(Fraction(1, 2))
    assert Gf.product(full, half, y) == Gf.product(full, x, y).scale(Fraction(1, 2))


# -- negative control: one corrupted transfer, one failing clause ------------------


def test_corrupted_transfer_fails_exactly_the_mackey_formula():
    """Adding the unit class [S3/S3] to the [C3/C3] column of tr^{S3}_{C3}
    evades every functoriality and conjugation clause (C3 is normal and no
    composite transfer routes through that column) but cannot satisfy the
    double-coset formula."""
    G = builtin_group("s3")
    M = burnside_green_functor(G).underlying
    full = next(S for S in M.subgroups if S.order == 6)
    c3 = next(S for S in M.subgroups if S.order == 3)
    row = M.levels[full].labels.index(tuple(full.elements))
    col = M.levels[c3].labels.index(tuple(c3.elements))
    t = M.tr[(c3, full)]
    num = t.num.copy()
    num[row, col] += 1
    bad_tr = dict(M.tr)
    bad_tr[(c3, full)] = Mat(M.field, num, t.den)
    M2 = OrdinaryMackeyFunctor(G, M.field, M.levels, M.res, bad_tr, M.conj)
    rep = verify_mackey_axioms(M2)
    assert not rep.ok
    for c in rep.checks:
        if c.name == "mackey-formula":
            assert len(c.failures) > 0
        else:
            assert c.ok, f"{c.name} unexpectedly failed: {c.failures[:2]}"


def test_corrupted_restriction_is_caught():
    # a blunter corruption for contrast: any change to res^{C2}_{S3} must
    # break at least one clause
    G = builtin_group("s3")
    M = burnside_green_functor(G).underlying
    full = next(S for S in M.subgroups if S.order == 6)
    c2 = next(S for S in M.subgroups if S.order == 2)
    r = M.res[(c2, full)]
    num = r.num.copy()
    num[0, 0] += 1
    bad_res = dict(M.res)
    bad_res[(c2, full)] = Mat(M.field, num, r.den)
    M2 = OrdinaryMackeyFunctor(G, M.field, M.levels, bad_res, M.tr, M.conj)
    assert not verify_mackey_axioms(M2).ok


# -- Green functors from convolution monoids ---------------------------------------


@pytest.mark.parametrize("order", [2, 3, 6])
@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_pointwise_monoid_green_functor(order, field):
    """Functions on G/H with pointwise multiplication give a Green functor;
    all Green axioms (and the underlying Mackey axioms) hold."""
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == order)
    fro = frobenius_object(G, H, field)
    X = trivial_module(G, field)
    Gf = green_from_monoid(X, fro.module, fro.mul, fro.unit)
    assert verify_mackey_axioms(Gf.underlying).ok
    assert verify_green_axioms(Gf).ok
    # pointwise multiplication is commutative at every level
    for S in Gf.underlying.subgroups:
        d = Gf.underlying.levels[S].dim
        for i in range(d):
            for j in range(d):
                ei = Mat.identity(field, d).col(i)
                ej = Mat.identity(field, d).col(j)
                assert Gf.product(S, ei, ej) == Gf.product(S, ej, ei)


def test_group_algebra_monoid_green_functor():
    """k[C2] under the conjugation action (trivial here) with the group
    multiplication as monoid: the level at the trivial subgroup is the
    group algebra itself."""
    G = builtin_group("c2")
    f = GF(3)
    Y = module_from_matrices(G, f, [Mat.identity(f, 2) for _ in range(2)])
    mul_mat = np.zeros((2, 4), dtype=np.int64)
    for a in range(2):
        for b in range(2):
            mul_mat[G.mul(a, b), a * 2 + b] = 1
    unit_mat = np.zeros((2, 1), dtype=np.int64)
    unit_mat[G.identity, 0] = 1
    X = trivial_module(G, f)
    mul = ModuleHom(tensor(Y, Y), Y, Mat(f, mul_mat))
    unit = ModuleHom(X, Y, Mat(f, unit_mat))
    Gf = green_from_monoid(X, Y, mul, unit)
    assert verify_mackey_axioms(Gf.underlying).ok
    assert verify_green_axioms(Gf).ok
    triv = next(S for S in Gf.underlying.subgroups if S.order == 1)
    L = Gf.products[triv]
    assert L.num.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    # transfer from the bottom level doubles (relative trace over 2 cosets)
    full = next(S for S in Gf.underlying.subgroups if S.order == 2)
    assert Gf.underlying.tr[(triv, full)] == Mat.identity(f, 2).scale(2)


def test_green_from_monoid_rejects_nonassociative_multiplication():
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    fro = frobenius_object(G, H, QQ)
    bad = fro.mul.mat.num.copy()
    bad[0, 0] += 1
    broken = ModuleHom(fro.mul.source, fro.mul.target, Mat(QQ, bad), check=False)
    with pytest.raises(ValueError):
        green_from_monoid(trivial_module(G, QQ), fro.module, broken, fro.unit)


def test_green_from_monoid_rejects_nontrivial_comonoid():
    G = builtin_group("s3")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    fro = frobenius_object(G, H, QQ)
    with pytest.raises(ValueError):
        green_from_monoid(fro.module, fro.module, fro.mul, fro.unit)


def test_green_functor_data_refuses_a_level_of_the_wrong_shape():
    """S3's top level is 4-dimensional: three products, or a unit with
    three rows, name the level instead of failing inside the axiom suite."""
    Gf = burnside_green_functor(builtin_group("s3"))
    top = next(S for S in Gf.underlying.subgroups if S.order == 6)
    assert Gf.products[top].shape == (4, 4, 4)
    message = "^" + re.escape(f"level {top.elements} of dimension 4 needs a 4x4x4 product "
                              "stack and a 4x1 unit over QQ") + "$"
    for products, units in (({**Gf.products, top: Gf.products[top][:3]}, Gf.units),
                            (Gf.products, {**Gf.units, top: Gf.units[top][:3]})):
        with pytest.raises(ValueError, match=message):
            GreenFunctorData(Gf.underlying, products, units)
    with pytest.raises(ValueError, match="^level .* over QQ$"):
        GreenFunctorData(Gf.underlying, {**Gf.products, top: Mat(GF(2), Gf.products[top].num)},
                         Gf.units)


def test_green_from_monoid_checks_the_laws_of_a_monoid_past_the_dense_cap():
    """d = 46, whose d^4 associativity tensor would pass MAX_DENSE_ENTRIES:
    the batched law check never builds it, so the zero multiplication
    reaches the laws and is refused for its unit."""
    from mackeykit.groups import GSet

    G = builtin_group("c2")
    Y = Module(G, QQ, 46, gset=GSet(G, np.tile(np.arange(46), (G.order, 1))))
    X = trivial_module(G, QQ)
    mul = ModuleHom(tensor(Y, Y), Y, Mat.zeros(QQ, 46, 46 ** 2), check=False)
    unit = ModuleHom(X, Y, Mat.zeros(QQ, 46, 1), check=False)
    assert 46 ** 4 > MAX_DENSE_ENTRIES
    with pytest.raises(ValueError, match="^input multiplication is not unital$"):
        green_from_monoid(X, Y, mul, unit)


def test_every_algebra_law_check_goes_through_one_routine(monkeypatch):
    """Z(kG), the crossed Burnside ring, the Frobenius monoid and comonoid,
    the input of green_from_monoid and every Green functor level are checked
    by linalg._algebra_laws, once each."""
    from mackeykit import burnside, linalg, mackey, reps

    dims = []

    def spy(L, u):
        dims.append(L.shape[0])
        return linalg._algebra_laws(L, u)

    for module in (burnside, reps, mackey):
        monkeypatch.setattr(module, "_algebra_laws", spy)
    G = builtin_group("s3")
    assert burnside.CenterOfGroupAlgebra(G, GF(2)).dim == 3 and dims == [3]
    dims.clear()
    xb = burnside.CrossedBurnsideAlgebra(G)
    assert dims == [xb.rank]
    dims.clear()
    fro = frobenius_object(G, next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2), QQ)
    assert fro.ok and dims == [3, 3]
    dims.clear()
    Gf = green_from_monoid(trivial_module(G, QQ), fro.module, fro.mul, fro.unit)
    assert dims == [3]
    dims.clear()
    assert verify_green_axioms(Gf).ok
    assert dims == [Gf.products[S].shape[0] for S in Gf.underlying.subgroups]
