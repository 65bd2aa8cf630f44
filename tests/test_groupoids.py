"""Finite groupoids, isocomma construction, skeletons, and the match with
double cosets."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from mackeykit import groupoids
from mackeykit.catalog import builtin_group
from mackeykit.groups import FiniteGroup, group_from_generators, group_from_table
from mackeykit.groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    NaturalIso,
    find_isomorphism,
    functor_from_hom,
    groupoid_from_group,
    isocomma,
    skeletonize,
    verify_isocomma_decomposition,
)


def test_groupoid_from_group_shape():
    G = builtin_group("s3")
    gpd = groupoid_from_group(G)
    assert gpd.n_objects == 1
    assert gpd.n_morphisms == 6
    assert gpd.identity_mor(0) == G.identity
    for f in range(6):
        for g in range(6):
            assert gpd.compose(f, g) == G.mul(f, g)
        assert gpd.compose(f, gpd.inverse(f)) == G.identity


def test_functor_validation_rejects_broken_map():
    G = builtin_group("c4")
    gpd = groupoid_from_group(G)
    with pytest.raises(ValueError):
        # swaps identity and the order-2 element: not a homomorphism
        GroupoidFunctor(gpd, gpd, [0], [2, 1, 0, 3])
    # the trivial group has no generator, so only π(e) = e sees this one
    one = groupoid_from_group(group_from_table([[0]]))
    assert one.generators.size == 0
    with pytest.raises(ValueError, match="identity"):
        GroupoidFunctor(one, gpd, [0], [1])


def test_groupoid_action_rejects_a_table_wrong_in_one_non_generator_column():
    """S4 on its four points: the action law is checked at the generators
    only, so a column that is no generator's, corrupted alone (still a
    permutation of the objects), is the control that the generators reach
    it."""
    G = group_from_generators(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    action = np.ascontiguousarray(G.perms.T)  # action[x, γ] = γ(x)
    gpd = FiniteGroupoid([G], action)
    gpd.verify()
    col = next(g for g in range(G.order)
               if g != G.identity and g not in gpd.generators.tolist())
    broken = action.copy()
    broken[[0, 1], col] = broken[[1, 0], col]
    with pytest.raises(ValueError, match="^generator [0-9]+ does not act compatibly$"):
        FiniteGroupoid([G], broken).verify()


def test_natural_iso_rejects_non_natural_components():
    G = builtin_group("s3")
    gpd = groupoid_from_group(G)
    ident = GroupoidFunctor(gpd, gpd, [0], list(range(6)))
    # conjugation by a non-central element is a different functor; the
    # identity component is not natural between ident and itself unless
    # the component is central
    noncentral = 1
    with pytest.raises(ValueError):
        NaturalIso(ident, ident, [noncentral])


def test_isocomma_objects_are_group_elements_for_inclusions():
    G = builtin_group("s3")
    subs = G.subgroups_up_to_conjugacy()
    K, H = subs[1], subs[2]
    C = groupoid_from_group(G)
    i = functor_from_hom(H.inclusion_hom(), target_gpd=C)
    j = functor_from_hom(K.inclusion_hom(), target_gpd=C)
    ic = isocomma(i, j)
    # objects (x, y, g): one object on each side, g ranges over G
    assert ic.groupoid.n_objects == G.order
    assert sorted(ic.objects) == [(0, 0, g) for g in range(G.order)]
    # morphisms (h, k) with k g h^-1 = g': |H| * |K| * |G| / ... = each object
    # emits |H|*|K| arrows
    assert ic.groupoid.n_morphisms == G.order * H.order * K.order


def test_isocomma_gamma_components():
    G = builtin_group("d8")
    subs = G.subgroups_up_to_conjugacy()
    K, H = subs[2], subs[3]
    C = groupoid_from_group(G)
    i = functor_from_hom(H.inclusion_hom(), target_gpd=C)
    j = functor_from_hom(K.inclusion_hom(), target_gpd=C)
    ic = isocomma(i, j)   # NaturalIso construction verifies naturality
    for idx, (x, y, g) in enumerate(ic.objects):
        assert ic.gamma.component(idx) == g


def test_skeleton_components_match_double_cosets_s3():
    G = builtin_group("s3")
    subs = G.subgroups_up_to_conjugacy()
    K = next(S for S in subs if S.order == 2)
    H = next(S for S in subs if S.order == 3)
    rep = verify_isocomma_decomposition(G, K, H)
    assert rep.ok
    dc = G.double_cosets(K, H)
    assert len(rep.checks) == len(dc.representatives)
    for c in rep.checks:
        x = c.coset_representative
        inter = frozenset(K.elements) & G.conjugate_subgroup(x, H.elements)
        assert c.expected_group_order == len(inter)
        assert c.vertex_group_order == len(inter)
        assert c.isomorphic


def test_skeleton_edge_cases():
    G = builtin_group("a4")
    one = G.trivial_subgroup()
    full = G.full_subgroup()
    # K = H = G: a single component with vertex group G
    rep = verify_isocomma_decomposition(G, full, full)
    assert rep.ok and len(rep.checks) == 1
    assert rep.checks[0].vertex_group_order == G.order
    # K = 1, H = 1: |G| components, all trivial vertex groups
    rep = verify_isocomma_decomposition(G, one, one)
    assert rep.ok and len(rep.checks) == G.order
    assert all(c.vertex_group_order == 1 for c in rep.checks)
    # mixed
    rep = verify_isocomma_decomposition(G, one, full)
    assert rep.ok and len(rep.checks) == 1


def _vertex_group(gpd, comp):
    """The automorphisms of the representative as a table-checked group, in
    `aut_morphisms` order; an element outside them looks up -1, which the
    table check rejects."""
    auts = np.asarray(comp.aut_morphisms) % gpd.order
    pos = np.full(gpd.order, -1)
    pos[auts] = np.arange(auts.size)
    return FiniteGroup(pos[gpd._mul(auts[:, None], auts)], 0)


def _class_pairs(*names):
    return [(name, a, b) for name in names
            for a in range(len(builtin_group(name).subgroups_up_to_conjugacy()))
            for b in range(len(builtin_group(name).subgroups_up_to_conjugacy()))]


@pytest.mark.parametrize("name,left,right", _class_pairs("s3", "d8"))
def test_skeleton_connecting_morphisms(name, left, right):
    G = builtin_group(name)
    C = groupoid_from_group(G)
    subs = G.subgroups_up_to_conjugacy()
    K, H = subs[left], subs[right]
    i = functor_from_hom(H.inclusion_hom(), target_gpd=C)
    j = functor_from_hom(K.inclusion_hom(), target_gpd=C)
    ic = isocomma(i, j)
    sk = skeletonize(ic.groupoid)
    gpd = ic.groupoid
    Hg, Kg = H.as_group()[0], K.as_group()[0]

    def mor(o, h, k):
        return (o * H.order + h) * K.order + k

    # brute force against the componentwise definition: (h, k) at g ends
    # at k g h^-1, composes factorwise and inverts factorwise
    for o, (_, _, g) in enumerate(ic.objects):
        for h in range(H.order):
            for k in range(K.order):
                f = mor(o, h, k)
                t = gpd.target(f)
                assert gpd.source(f) == o
                assert ic.objects[t][2] == G.mul(G.mul(K.elements[k], g),
                                                 G.inv(H.elements[h]))
                assert gpd.inverse(f) == mor(t, Hg.inv(h), Kg.inv(k))
                for h2 in range(H.order):
                    for k2 in range(K.order):
                        assert (gpd.compose(mor(t, h2, k2), f)
                                == mor(o, Hg.mul(h2, h), Kg.mul(k2, k)))
    for comp in sk.components:
        for o in comp.objects:
            m = comp.to_representative[o]
            assert gpd.source(m) == o and gpd.target(m) == comp.representative
        # the vertex group is closed under composition and is a group
        auts = comp.aut_morphisms
        assert auts[0] == gpd.identity_mor(comp.representative)
        assert sorted(gpd.compose(a, b) for a in auts for b in auts) == sorted(auts * len(auts))
        assert _vertex_group(gpd, comp).order == len(auts)


def test_functor_check_is_exact_on_s4_isocomma():
    # one wrong image among the 13,824 morphisms of the S4 x S4 isocomma:
    # morphism 1 is (h, k) = (e, k) at object 0, which p sends to e; p's
    # cocycle written out as one row per object, with that one entry changed
    G = builtin_group("s4")
    C = groupoid_from_group(G)
    i = functor_from_hom(G.full_subgroup().inclusion_hom(), target_gpd=C)
    ic = isocomma(i, i)
    S = ic.groupoid
    pi = np.repeat(ic.p.pi, S.n_objects, axis=0)
    GroupoidFunctor(S, ic.p.target_gpd, ic.p.obj_map, pi)
    assert ic.p.mor(1) == ic.p.target_gpd.identity_mor(0) and pi[0, 1] == G.identity
    pi[0, 1] = 1
    with pytest.raises(ValueError):
        GroupoidFunctor(S, ic.p.target_gpd, ic.p.obj_map, pi)


def test_find_isomorphism_positive_and_negative():
    c4 = builtin_group("c4")
    v4 = builtin_group("v4")
    assert find_isomorphism(c4, v4) is None
    iso = find_isomorphism(c4, c4)
    assert iso is not None
    for a in range(4):
        for b in range(4):
            assert iso[c4.mul(a, b)] == c4.mul(iso[a], iso[b])
    # D8 and Q8 have the same order profile apart from involutions
    assert find_isomorphism(builtin_group("d8"), builtin_group("q8")) is None


def test_isomorphic_subgroup_images():
    # the two Klein-four classes inside S4 are isomorphic as groups
    G = builtin_group("s4")
    v4s = [S for S in G.subgroups_up_to_conjugacy() if S.order == 4]
    groups = [S.as_group()[0] for S in v4s]
    v4_like = [g for g in groups if all(o in (1, 2) for o in g.element_orders())]
    assert len(v4_like) == 2
    assert find_isomorphism(v4_like[0], v4_like[1]) is not None


@pytest.mark.parametrize("name", ["c4", "v4", "s3", "q8"])
def test_full_isocomma_sweep_small(name):
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    for K in subs:
        for H in subs:
            rep = verify_isocomma_decomposition(G, K, H)
            assert rep.ok
            assert rep.counts_match


def _isocomma_of(G, K, H):
    C = groupoid_from_group(G)
    return isocomma(functor_from_hom(H.inclusion_hom(), target_gpd=C),
                    functor_from_hom(K.inclusion_hom(), target_gpd=C))


def test_cocycle_check_rejects_a_broken_pi_on_s4_isocomma():
    # p(γ at x) = (p(x), π(γ)) with π(h, k) = h.  π changed at one element
    # that is neither the identity nor a generator, alike at every object,
    # keeps every endpoint but is no longer a hom: it agrees with π on the
    # generators, which determine a hom
    G = builtin_group("s4")
    ic = _isocomma_of(G, G.full_subgroup(), G.full_subgroup())
    S, T = ic.groupoid, ic.p.target_gpd
    pi = ic.p.pi[0].copy()
    gens = set(S.generators.tolist())
    bad = next(g for g in range(S.order) if g != S.identity and g not in gens)
    pi[bad] = (pi[bad] + 1) % T.order
    with pytest.raises(ValueError, match="composition"):
        GroupoidFunctor(S, T, ic.p.obj_map, pi)


def test_natural_iso_rejects_a_moved_component_on_a_multi_object_isocomma():
    # S4 with K = H of order 6: the component at g moved to kg, another
    # element of its double coset and another morphism 0 -> 0 of G
    G = builtin_group("s4")
    K = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 6)
    ic = _isocomma_of(G, K, K)
    gpd, F, Gf = ic.groupoid, ic.gamma.F, ic.gamma.G
    assert gpd.n_objects == G.order
    c = ic.gamma.components.copy()
    o = 5
    c[o] = G.mul(next(k for k in K.elements if k != G.identity), c[o])
    assert c[o] != ic.gamma.components[o]
    T = F.target_gpd
    assert T.source(c[o]) == T.source(ic.gamma.components[o])
    assert T.target(c[o]) == T.target(ic.gamma.components[o])
    # brute force: some square fails, and only at morphisms into or out of o
    fails = [f for f in range(gpd.n_morphisms)
             if T.compose(c[gpd.target(f)], F.mor(f)) != T.compose(Gf.mor(f), c[gpd.source(f)])]
    assert fails and all(o in (gpd.source(f), gpd.target(f)) for f in fails)
    with pytest.raises(ValueError, match="naturality"):
        NaturalIso(F, Gf, c)


def test_vertex_group_must_map_onto_the_recorded_intersection(monkeypatch):
    # K = H of order 2 in S4: the double coset of the identity has
    # intersection K.  A record naming a conjugate of K instead is isomorphic
    # to the vertex group, but q does not map onto it
    G = builtin_group("s4")
    K = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 2)
    assert verify_isocomma_decomposition(G, K, K).ok
    real = FiniteGroup.double_cosets
    dc = real(G, K, K)
    assert dc.representatives[0] == G.identity
    assert dc.intersections[0].elements == K.elements
    wrong = next(K.conjugate_by(g) for g in range(G.order)
                 if K.conjugate_by(g).elements != K.elements)
    gpd = _isocomma_of(G, K, K).groupoid
    vertex = _vertex_group(gpd, skeletonize(gpd).components[0])
    assert find_isomorphism(vertex, wrong.as_group()[0]) is not None

    def patched(self, left, right):
        rec = real(self, left, right)
        return dataclasses.replace(rec, intersections=[wrong] + rec.intersections[1:])

    monkeypatch.setattr(FiniteGroup, "double_cosets", patched)
    rep = verify_isocomma_decomposition(G, K, K)
    assert rep.counts_match and not rep.ok
    assert [c.isomorphic for c in rep.checks] == [False] + [True] * (len(rep.checks) - 1)
    assert rep.checks[0].expected_group_order == rep.checks[0].vertex_group_order == 2


A5 = (5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])


def test_a5_isocomma_sweep_matches_the_lattice_double_cosets():
    G = group_from_generators(*A5)
    lat = G.subgroup_lattice()
    assert len(lat.subgroups) == 59 and len(lat.classes) == 9
    subs = G.subgroups_up_to_conjugacy()
    for K in subs:
        for H in subs:
            rep = verify_isocomma_decomposition(G, K, H)
            assert rep.ok
            _, x, a = lat.double_cosets(lat.position[K], [lat.position[H]])
            orders = [lat.subgroups[s].order for s in a.tolist()]
            assert [c.coset_representative for c in rep.checks] == x.tolist()
            assert [c.vertex_group_order for c in rep.checks] == orders
            assert [c.expected_group_order for c in rep.checks] == orders
            assert [c.coset_size for c in rep.checks] == [K.order * H.order // n for n in orders]


def test_isocomma_verification_makes_no_isomorphism_search(monkeypatch):
    calls = []
    monkeypatch.setattr(groupoids, "find_isomorphism", lambda *a: calls.append(a))
    G = builtin_group("s4")
    subs = G.subgroups_up_to_conjugacy()
    assert all(verify_isocomma_decomposition(G, K, H).ok for K in subs for H in subs)
    assert calls == []


def _coset_equivalence(G, H):
    """E: G⋉G/H -> H with π(x, g) = t_{g·x}⁻¹ g t_x, t_x the least element
    of the coset x, and the maps it needs: the groupoid, H's element list,
    the t_x and the full table π in G's element ids."""
    cosets = sorted({min(G.mul(g, h) for h in H.elements) for g in range(G.order)})
    coset_of = {G.mul(t, h): x for x, t in enumerate(cosets) for h in H.elements}
    t = np.array(cosets)
    action = np.array([[coset_of[G.mul(g, int(tx))] for g in range(G.order)] for tx in t])
    gpd = FiniteGroupoid([G], action)
    gpd.verify()
    pi_G = G.table[G.inverse[t[action]], G.table[np.arange(G.order), t[:, None]]]
    Hg, Hel = H.as_group()
    pos = np.full(G.order, -1)
    pos[list(Hel)] = np.arange(len(Hel))
    return gpd, Hg, t, pi_G, pos[pi_G]


def test_a_functor_whose_cocycle_varies_by_object():
    # S4 ⋉ S4/H for H of order 3 is equivalent to H: E sends every coset to
    # the one object, its cocycle differs from object to object
    G = builtin_group("s4")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 3)
    gpd, Hg, t, pi_G, pi_H = _coset_equivalence(G, H)
    assert gpd.n_objects == 8 and (pi_H >= 0).all()
    assert len({row.tobytes() for row in pi_H}) > 1
    one = groupoid_from_group(Hg)
    E = GroupoidFunctor(gpd, one, np.zeros(8, dtype=np.int64), pi_H)
    assert E.mor(3 * G.order + 5) == pi_H[3, 5]
    broken = pi_H.copy()
    broken[2, 7] = Hg.mul(int(broken[2, 7]), 1)
    with pytest.raises(ValueError):
        GroupoidFunctor(gpd, one, np.zeros(8, dtype=np.int64), broken)
    # incl ∘ E ≅ the projection G⋉G/H -> G, with component t_x at x
    C = groupoid_from_group(G)
    incl_E = groupoids._compose_functors(functor_from_hom(H.inclusion_hom(), C, one), E)
    assert np.array_equal(incl_E.pi, pi_G)
    projection = GroupoidFunctor(gpd, C, np.zeros(8, dtype=np.int64), np.arange(G.order))
    # the identity of G⋉G/H has a one-row cocycle; E after it is E again
    ident = GroupoidFunctor(gpd, gpd, np.arange(8), np.arange(G.order))
    assert np.array_equal(groupoids._compose_functors(E, ident).pi, pi_H)
    # the same cocycle over two swapped objects breaks endpoints only
    with pytest.raises(ValueError, match="endpoints"):
        GroupoidFunctor(gpd, gpd, [1, 0, 2, 3, 4, 5, 6, 7], np.arange(G.order))
    NaturalIso(incl_E, projection, t)
    with pytest.raises(ValueError, match="naturality"):
        NaturalIso(incl_E, projection, np.roll(t, 1))
