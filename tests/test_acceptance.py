"""Acceptance suite: ten criteria, one test (one pass/fail line) each.

Each test sweeps its full grid, uses an independent oracle where one is
required, and pins wall-clock budgets where stated.  Budgets: criterion 1
under 60 s, criterion 2 under 120 s, criterion 8 under 5 s, criterion 9
under 600 s.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from mackeykit.burnside import (
    CenterOfGroupAlgebra,
    CrossedBurnsideAlgebra,
    _frobenius_fixed_space,
    block_decomposition,
)
from mackeykit.catalog import BUILTIN_NAMES, builtin_group
from mackeykit.groupoids import verify_isocomma_decomposition
from mackeykit.linalg import GF, QQ, Mat
from mackeykit.mackey import (
    burnside_green_functor,
    cohomological_check,
    hom_decategorify,
    verify_green_axioms,
    verify_mackey_axioms,
)
from mackeykit.reps import (
    decompose,
    frobenius_object,
    green_correspondent,
    mackey_iso,
    module_isomorphism,
    permutation_module,
    projection_map,
    regular_module,
    trivial_module,
    unit_counit,
    vertex,
)

GROUPS = list(BUILTIN_NAMES)
FIELDS = [GF(2), GF(3), QQ]
XBURN_GROUPS = ["c2", "c3", "v4", "s3", "d8", "q8"]


def _report(tag: str, detail: str) -> None:
    print(f"{tag}: PASS ({detail})")


# -- criterion 1: isocomma components match double cosets ------------------------


def test_c01_isocomma_double_coset_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    for name in GROUPS:
        G = builtin_group(name)
        subs = G.subgroups_up_to_conjugacy()
        for K in subs:
            for H in subs:
                rep = verify_isocomma_decomposition(G, K, H)
                assert rep.counts_match, (name, K.elements, H.elements)
                for c in rep.checks:
                    assert c.isomorphic, (name, K.elements, H.elements, c)
                    assert c.expected_group_order == c.vertex_group_order
                assert rep.ok
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs == 304
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _report("C1 isocomma vs double cosets", f"{pairs} class pairs, {elapsed:.1f}s")


# -- criteria 2 and 3: adjunction composite identities ----------------------------


def test_c02_separable_counit_section():
    t0 = time.perf_counter()
    inst = 0
    for name in GROUPS:
        G = builtin_group(name)
        for H in G.subgroups_up_to_conjugacy():
            Hgrp, _ = H.as_group()
            hsubs = Hgrp.subgroups_up_to_conjugacy()
            for field in FIELDS:
                M = trivial_module(G, field)
                for S in hsubs:
                    N = permutation_module(Hgrp, S, field)
                    ad = unit_counit(G, H, M, N)
                    assert ad.separable_composite().mat.is_identity(), (
                        name, H.elements, S.elements, field.p)
                    inst += 1
    elapsed = time.perf_counter() - t0
    assert inst == 426
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    _report("C2 separable section", f"{inst} grid instances, {elapsed:.1f}s")


def test_c03_cohomological_composite_is_index():
    t0 = time.perf_counter()
    inst = 0
    for name in GROUPS:
        G = builtin_group(name)
        gsubs = G.subgroups_up_to_conjugacy()
        for H in gsubs:
            Hgrp, _ = H.as_group()
            for field in FIELDS:
                N = trivial_module(Hgrp, field)
                for K in gsubs:
                    M = permutation_module(G, K, field)
                    ad = unit_counit(G, H, M, N)
                    expected = Mat.identity(field, M.dim).scale(H.index)
                    assert ad.cohomological_composite().mat == expected, (
                        name, H.elements, K.elements, field.p)
                    inst += 1
    elapsed = time.perf_counter() - t0
    assert inst == 912
    _report("C3 cohomological composite", f"{inst} grid instances, {elapsed:.1f}s")


# -- criterion 4: double-coset comparison and projection maps ----------------------


def test_c04_mackey_iso_and_projection_maps():
    t0 = time.perf_counter()
    inst_m = 0
    for name in GROUPS:
        G = builtin_group(name)
        gsubs = G.subgroups_up_to_conjugacy()
        for K in gsubs:
            for H in gsubs:
                Hgrp, _ = H.as_group()
                hsubs = Hgrp.subgroups_up_to_conjugacy()
                for field in FIELDS:
                    for S in hsubs:
                        N = permutation_module(Hgrp, S, field)
                        data = mackey_iso(G, K, H, N)
                        assert (data.forward.mat @ data.backward.mat).is_identity()
                        assert (data.backward.mat @ data.forward.mat).is_identity()
                        inst_m += 1
    inst_p = 0
    for name in GROUPS:
        G = builtin_group(name)
        gsubs = G.subgroups_up_to_conjugacy()
        for K in gsubs:
            for H in gsubs:
                Hgrp, _ = H.as_group()
                hsubs = Hgrp.subgroups_up_to_conjugacy()
                for field in FIELDS:
                    X = permutation_module(G, K, field)
                    for S in hsubs:
                        Y = permutation_module(Hgrp, S, field)
                        data = projection_map(G, H, X, Y)
                        assert (data.pi.mat @ data.pi_inverse.mat).is_identity()
                        assert (data.pi_inverse.mat @ data.pi.mat).is_identity()
                        assert (data.mirror.mat @ data.mirror_inverse.mat).is_identity()
                        assert (data.mirror_inverse.mat @ data.mirror.mat).is_identity()
                        inst_p += 1
    elapsed = time.perf_counter() - t0
    assert inst_m == 3183 and inst_p == 3183
    _report("C4 exchange isomorphisms",
            f"{inst_m} double-coset + {inst_p} projection instances, {elapsed:.1f}s")


# -- criterion 5: the seven Frobenius laws ------------------------------------------


def test_c05_frobenius_laws_on_grid():
    t0 = time.perf_counter()
    laws_checked = 0
    for name in GROUPS:
        G = builtin_group(name)
        for H in G.subgroups_up_to_conjugacy():
            for field in FIELDS:
                fro = frobenius_object(G, H, field)
                laws = fro.verify()
                assert len(laws) == 7
                for law in laws:
                    assert law.holds, (name, H.elements, field.p, law.name)
                laws_checked += 7
    elapsed = time.perf_counter() - t0
    assert laws_checked == 966
    _report("C5 Frobenius laws", f"{laws_checked} laws, {elapsed:.1f}s")


# -- criterion 6: crossed Burnside ring vs pair-class oracle -------------------------


def _pair_class_count_oracle(G) -> int:
    """G-orbits of pairs (subgroup S, element of the centralizer of S),
    enumerated from scratch."""
    pairs = set()
    for S in G.all_subgroups():
        for a in range(G.order):
            if all(G.mul(a, s) == G.mul(s, a) for s in S):
                pairs.add((S, a))
    count = 0
    seen = set()
    for pair in sorted(pairs):
        if pair in seen:
            continue
        count += 1
        S, a = pair
        for g in range(G.order):
            seen.add((G.conjugate_subgroup(g, S), G.conj(g, a)))
    return count


def test_c06_crossed_burnside_ring():
    t0 = time.perf_counter()
    ranks = {}
    for name in XBURN_GROUPS:
        G = builtin_group(name)
        xb = CrossedBurnsideAlgebra(G)
        assert xb.rank == _pair_class_count_oracle(G), name
        ranks[name] = xb.rank
        unit = xb.basis[xb.unit_index]
        assert unit.subgroup == tuple(range(G.order))
        assert unit.element == G.identity
        # exhaustive associativity on the structure constants
        L = xb.algebra.left_mult.num
        for i in range(xb.rank):
            for j in range(xb.rank):
                lhs = np.tensordot(L[i, :, j], L, axes=(0, 0))
                assert np.array_equal(lhs, L[i] @ L[j]), (name, i, j)
    assert ranks["c2"] == 4
    # (1, sigma)^2 = 2 (1, 1) by the double-coset formula, from scratch:
    G = builtin_group("c2")
    sigma = 1
    acc = {}
    for g in range(G.order):  # double cosets 1\G/1 are the single elements
        key = ((0,), G.mul(sigma, G.conj(g, sigma)))
        acc[key] = acc.get(key, 0) + 1
    assert acc == {((0,), G.identity): 2}
    xb = CrossedBurnsideAlgebra(G)
    e = np.zeros(4, dtype=np.int64)
    e[xb.basis_index((0,), sigma)] = 1
    out = xb.multiply(e, e)
    expected = np.zeros(4, dtype=np.int64)
    expected[xb.basis_index((0,), G.identity)] = 2
    assert out.tolist() == expected.tolist()
    elapsed = time.perf_counter() - t0
    _report("C6 crossed Burnside ring",
            f"ranks {ranks}, associativity exhaustive, {elapsed:.1f}s")


# -- criterion 7: the map onto the center is a unital epimorphism --------------------


def test_c07_rho_coh_unital_surjective_homomorphism():
    t0 = time.perf_counter()
    for name in XBURN_GROUPS:
        xb = CrossedBurnsideAlgebra(builtin_group(name))
        for p in (2, 3):
            rep = xb.verify_rho_coh(GF(p))
            assert rep["unital"], (name, p)
            assert rep["homomorphism"], (name, p)
            assert rep["surjective"], (name, p)
    elapsed = time.perf_counter() - t0
    _report("C7 center epimorphism", f"6 groups x p in {{2,3}}, {elapsed:.1f}s")


# -- criterion 8: blocks of S3 vs the exhaustive center oracle -----------------------


def _primitive_idempotents_by_enumeration(G, field):
    """Scan the whole finite center (p^classes vectors) inside kG itself:
    expand each class-sum vector to a coefficient per group element,
    multiply by the group table, keep the idempotents, and filter the
    primitive ones by refinability.  Returns the number of idempotents and
    the primitive ones as class-sum columns."""
    p = field.p
    classes = G.conjugacy_classes()
    class_of = np.empty(G.order, dtype=np.int64)
    for i, C in enumerate(classes):
        class_of[list(C)] = i

    def times(U, V):
        # row by row, (U V)[a b] collects U[a] V[b]
        out = np.zeros_like(U)
        for a in range(G.order):
            out[:, G.table[a]] += U[:, a : a + 1] * V
        return out % p

    coeffs = np.array(list(itertools.product(range(p), repeat=len(classes))), dtype=np.int64)
    elements = coeffs[:, class_of]
    idems = coeffs[(times(elements, elements) == elements).all(axis=1)]
    E = idems[:, class_of]
    n = len(idems)
    e, f = np.divmod(np.arange(n * n), n)
    refines = (times(E[e], E[f]) == E[f]).all(axis=1).reshape(n, n)  # e f = f
    nonzero = E.any(axis=1)
    prim = [Mat(field, idems[a].reshape(-1, 1)) for a in range(n)
            if nonzero[a] and not any(refines[a, b] and nonzero[b] and b != a
                                      for b in range(n))]
    return n, prim


def test_c08_s3_blocks_match_center_enumeration():
    t0 = time.perf_counter()
    G = builtin_group("s3")
    for p, n_idems in [(2, 4), (3, 2)]:
        field = GF(p)
        total, prim = _primitive_idempotents_by_enumeration(G, field)
        assert total == n_idems  # {0, 1, e, 1-e} for p=2; {0, 1} for p=3
        blocks = block_decomposition(G, field)
        got = sorted(tuple(map(int, b.idempotent_classes.num.ravel())) for b in blocks)
        want = sorted(tuple(map(int, e.num.ravel())) for e in prim)
        assert got == want, p
        assert sum(b.dimension for b in blocks) == G.order
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    _report("C8 S3 blocks vs center scan",
            f"8 and 27 center vectors enumerated, {elapsed:.1f}s")


def test_blocks_match_center_enumeration_for_every_builtin_group():
    # every built-in group and prime with p^(number of classes) <= 20000
    cases = 0
    for name in BUILTIN_NAMES:
        G = builtin_group(name)
        r = len(G.conjugacy_classes())
        for p in (q for q in range(2, 150) if all(q % d for d in range(2, q))):
            if p ** r > 20000:
                break
            field = GF(p)
            _, prim = _primitive_idempotents_by_enumeration(G, field)
            blocks = block_decomposition(G, field)
            got = sorted(tuple(map(int, b.idempotent_classes.num.ravel())) for b in blocks)
            want = sorted(tuple(map(int, e.num.ravel())) for e in prim)
            assert got == want, (name, p)
            assert _frobenius_fixed_space(CenterOfGroupAlgebra(G, field).algebra).ncols == len(prim)
            cases += 1
    assert cases == 79


# -- criterion 9: Green correspondence for (S4, S3, C3) at p = 3 ---------------------


def _distinct_indecomposables(modules, seed=0):
    """Iso-class representatives of all indecomposable summands of the
    given modules (exhaustive decomposition)."""
    reps = []
    for M in modules:
        for leaf in decompose(M, seed=seed).summands:
            if not any(leaf.dim == r.dim and module_isomorphism(leaf, r) is not None
                       for r in reps):
                reps.append(leaf)
    return reps


def test_c09_green_correspondence_s4():
    t0 = time.perf_counter()
    field = GF(3)
    G = builtin_group("s4")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 6)
    D = G.subgroup(x for x in H.elements
                   if G.power(x, 3) == G.identity)  # the Sylow 3-subgroup of H
    assert D.order == 3
    assert set(G.normalizer(D).elements) <= set(H.elements)
    Hgrp, _ = H.as_group()

    # generating set on both sides: all coset modules plus the regular module
    h_modules = [permutation_module(Hgrp, S, field)
                 for S in Hgrp.subgroups_up_to_conjugacy()]
    h_modules.append(regular_module(Hgrp, field))
    g_modules = [permutation_module(G, K, field)
                 for K in G.subgroups_up_to_conjugacy()]
    g_modules.append(regular_module(G, field))
    assert all(m.dim <= 48 for m in h_modules + g_modules)

    h_inde = _distinct_indecomposables(h_modules)
    h_side = [m for m in h_inde if vertex(m).vertex.order == 3]
    g_inde = _distinct_indecomposables(g_modules)
    g_side = [m for m in g_inde if vertex(m).vertex.order == 3]
    assert len(h_side) == 2 and all(m.dim == 1 for m in h_side)
    assert len(g_side) == 2 and all(m.dim == 1 for m in g_side)

    hits = []
    for n in h_side:
        gc = green_correspondent(G, H, D, n)
        # unique vertex-D summand, multiplicity one
        assert len(gc.correspondent_indices) == 1
        # the round trip Res_H f(n) >= n is witnessed by a split pair
        rt = gc.round_trip
        assert (rt.retraction.mat @ rt.injection.mat).is_identity()
        # the correspondent lands in the discovered vertex-C3 family
        matched = [i for i, m in enumerate(g_side)
                   if m.dim == gc.correspondent.dim
                   and module_isomorphism(gc.correspondent, m) is not None]
        assert len(matched) == 1
        hits.append(matched[0])
    assert sorted(hits) == [0, 1]  # a bijection onto the G-side family
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    _report("C9 Green correspondence", f"2 <-> 2 classes, round trips, {elapsed:.1f}s")


# -- criterion 10: ordinary functor axioms -------------------------------------------


def _perm_by_order(G, order, field):
    S = next(S for S in G.subgroups_up_to_conjugacy() if S.order == order)
    return permutation_module(G, S, field)


def _hom_pair_grid():
    """20 deterministic (X, Y) pairs across groups, module shapes, fields."""
    out = []

    def add(name, xspec, yspec, field):
        G = builtin_group(name)

        def build(spec):
            if spec == "reg":
                return regular_module(G, field)
            if spec == "triv":
                return trivial_module(G, field)
            return _perm_by_order(G, spec, field)

        out.append((name, build(xspec), build(yspec), field))

    add("c2", "reg", "reg", GF(2))
    add("c2", "reg", "triv", GF(3))
    add("c2", "triv", "reg", QQ)
    add("c3", "reg", "reg", GF(3))
    add("c3", "reg", "triv", GF(2))
    add("c4", 2, 2, GF(2))
    add("c4", "reg", 2, QQ)
    add("v4", 2, 2, GF(2))
    add("v4", 2, "triv", GF(3))
    add("s3", 2, 2, GF(2))
    add("s3", 2, 3, GF(3))
    add("s3", 3, 3, QQ)
    add("s3", "reg", "triv", GF(2))
    add("d8", 4, 2, GF(2))
    add("d8", 4, "triv", QQ)
    add("q8", 4, 4, GF(3))
    add("q8", 2, "triv", GF(2))
    add("a4", 4, "triv", GF(2))
    add("a4", 3, "triv", GF(3))
    add("s4", 8, "triv", GF(3))
    return out


def test_c10_ordinary_functor_axioms():
    t0 = time.perf_counter()
    pairs = _hom_pair_grid()
    assert len(pairs) == 20
    for name, X, Y, field in pairs:
        M = hom_decategorify(X, Y)
        rep = verify_mackey_axioms(M)
        assert rep.ok, (name, X.dim, Y.dim, field.p, rep.summary())
        assert len(rep.checks) == 7
        assert all(c.instances > 0 for c in rep.checks)

    for name in GROUPS:
        G = builtin_group(name)
        Gf = burnside_green_functor(G)  # construction verifies and raises on failure
        assert verify_mackey_axioms(Gf.underlying).ok, name
        assert verify_green_axioms(Gf).ok, name
        # negative control: transfers do not satisfy the cohomological
        # identity on any group with more than one subgroup level
        coh = cohomological_check(Gf.underlying)
        assert coh.failures, name
    elapsed = time.perf_counter() - t0
    _report("C10 functor axiom suites",
            f"20 hom pairs + 9 Burnside functors, {elapsed:.1f}s")
