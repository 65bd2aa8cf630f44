"""Group tables, subgroup enumeration, conjugacy, transversals, double
cosets — each checked against brute-force oracles that do not share code
with the implementation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from mackeykit.catalog import BUILTIN_NAMES, builtin_group
from mackeykit.groups import (
    FiniteGroup,
    InjectiveHom,
    group_from_generators,
    group_from_table,
    gset_from_subgroup,
)

SMALL = ["c2", "c3", "c4", "v4", "s3", "d8", "q8", "a4"]


# -- independent oracles ----------------------------------------------------


def closure_oracle(G: FiniteGroup, gens) -> frozenset:
    cur = {G.identity, *gens}
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                nxt.add(G.mul(a, b))
            nxt.add(G.inv(a))
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def all_subgroups_oracle(G: FiniteGroup) -> set:
    """BFS over single-element extensions of known subgroups."""
    triv = frozenset([G.identity])
    found = {triv}
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        for x in range(G.order):
            if x in S:
                continue
            T = closure_oracle(G, set(S) | {x})
            if T not in found:
                found.add(T)
                frontier.append(T)
    return found


def conjugacy_classes_oracle(G: FiniteGroup) -> set:
    return {frozenset(G.conj(g, x) for g in range(G.order)) for x in range(G.order)}


# -- table validity ----------------------------------------------------------


def test_rejects_non_associative_table():
    # a quasigroup that is not a group: modify one entry of C3's table
    t = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    t[1][1] = 1  # breaks both latin-square and associativity structure
    with pytest.raises(ValueError):
        group_from_table(t)


@pytest.mark.parametrize("a,b,reason", [(1, 130, "do not reach"), (2, 131, "not associative")])
def test_rejects_non_associative_loop_above_order_256(a, b, reason):
    # Z_258 with the intercalate at rows/columns a and b switched: still a
    # Latin square with identity 0, but not associative.  Switching 1 and 130
    # cuts the right-multiplication cycle of the generator 1; switching 2
    # and 131 leaves it and fails Light's test
    n = 258
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    t[a, a], t[a, b], t[b, a], t[b, b] = t[a, b], t[a, a], t[b, b], t[b, a]
    with pytest.raises(ValueError, match=reason):
        group_from_table(t.tolist())


def test_rejects_table_without_identity():
    with pytest.raises(ValueError):
        group_from_table([[1, 1], [1, 1]])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_tables_are_groups(name):
    G = builtin_group(name)
    n = G.order
    t = G.table
    for a, b, c in itertools.islice(itertools.product(range(n), repeat=3), 4000):
        assert t[t[a, b], c] == t[a, t[b, c]]
    for a in range(n):
        assert t[a, G.identity] == a and t[G.identity, a] == a
        assert t[a, G.inv(a)] == G.identity


def test_builtin_shapes():
    orders = {"c2": 2, "c3": 3, "c4": 4, "v4": 4, "s3": 6, "d8": 8, "q8": 8,
              "a4": 12, "s4": 24}
    abelian = {"c2", "c3", "c4", "v4"}
    class_counts = {"c2": 2, "c3": 3, "c4": 4, "v4": 4, "s3": 3, "d8": 5,
                    "q8": 5, "a4": 4, "s4": 5}
    for name in BUILTIN_NAMES:
        G = builtin_group(name)
        assert G.order == orders[name]
        assert G.is_abelian() == (name in abelian)
        assert len(G.conjugacy_classes()) == class_counts[name]


def test_element_orders_v4_q8():
    v4 = builtin_group("v4")
    assert sorted(int(x) for x in v4.element_orders()) == [1, 2, 2, 2]
    q8 = builtin_group("q8")
    assert sorted(int(x) for x in q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]


# -- subgroups ---------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_all_subgroups_against_bfs_oracle(name):
    G = builtin_group(name)
    assert set(G.all_subgroups()) == all_subgroups_oracle(G)


def test_s4_subgroup_counts_by_order():
    # classical subgroup census of S4: 30 subgroups, 11 conjugacy classes
    G = builtin_group("s4")
    subs = G.all_subgroups()
    assert len(subs) == 30
    by_order = {}
    for s in subs:
        by_order[len(s)] = by_order.get(len(s), 0) + 1
    assert by_order == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    assert len(G.subgroups_up_to_conjugacy()) == 11


def _cycle(degree, *cycles):
    perm = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return perm


def _sl23_on_nonzero_vectors():
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]

    def act(a, b, c, d):
        return [vecs.index(((a * x + b * y) % 3, (c * x + d * y) % 3)) for x, y in vecs]
    return 8, [act(1, 1, 0, 1), act(1, 0, 1, 1)]


@pytest.mark.parametrize("spec,count,classes", [
    (_sl23_on_nonzero_vectors(), 15, 7),
    ((6, [_cycle(6, (0, 1, 2)), _cycle(6, (0, 1)), _cycle(6, (3, 4, 5)), _cycle(6, (3, 4))]),
     60, 22),
    ((5, [_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (0, 1, 2))]), 59, 9),
    ((6, [_cycle(6, (0, 1, 2, 3)), _cycle(6, (0, 1)), _cycle(6, (4, 5))]), 98, 33),
    ((5, [_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (0, 1))]), 156, 19),
    ((1, []), 1, 1),
], ids=["SL(2,3)", "S3xS3", "A5", "C2xS4", "S5", "trivial"])
def test_subgroup_counts_of_generated_groups(spec, count, classes):
    # classical censuses: subgroups, and their conjugacy classes
    G = group_from_generators(*spec)
    subs = G.all_subgroups()
    assert len(subs) == len(set(subs)) == count
    assert len(G.subgroups_up_to_conjugacy()) == classes
    assert subs == sorted(subs, key=lambda s: (len(s), tuple(sorted(s))))
    for s in subs:
        assert G.subgroup_from_generators(s) is G.subgroup(s)


def relabelled(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G's table under a random bijection of its elements, as a table-form
    group (so the identity is usually not element 0)."""
    p = np.random.default_rng(seed).permutation(G.order)
    t = np.empty_like(G.table)
    t[np.ix_(p, p)] = p[G.table]
    return group_from_table(t.tolist())


@pytest.mark.parametrize("name", ["s4", "d8", "q8", "a4"])
@pytest.mark.parametrize("seed", [0, 1])
def test_all_subgroups_list_matches_oracle_on_relabellings(name, seed):
    G = relabelled(builtin_group(name), seed)
    want = sorted(all_subgroups_oracle(G), key=lambda s: (len(s), tuple(sorted(s))))
    assert G.all_subgroups() == want
    lat = G.subgroup_lattice()
    index = {frozenset(S.elements): i for i, S in enumerate(lat.subgroups)}
    for i, S in enumerate(want):
        for g in range(G.order):
            assert lat.conj[g, i] == index[frozenset(G.conj(g, x) for x in S)]


@pytest.mark.parametrize("name", ["s3", "q8", "a4", "s4"])
def test_subgroup_from_generators_against_closure_oracle(name):
    rng = np.random.default_rng(3)
    for G in (builtin_group(name), relabelled(builtin_group(name), 2)):
        for k in (0, 1, 1, 2, 2, 3):
            gens = [int(x) for x in rng.integers(0, G.order, size=k)]
            assert set(G.subgroup_from_generators(gens).elements) == closure_oracle(G, gens)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_element_orders_against_powers(name):
    G = relabelled(builtin_group(name), 4)
    for a in range(G.order):
        x, k = a, 1
        while x != G.identity:
            x, k = G.mul(x, a), k + 1
        assert G.element_orders()[a] == k


@pytest.mark.parametrize("name", SMALL)
def test_subgroup_classes_partition_all_subgroups(name):
    G = builtin_group(name)
    subs = set(G.all_subgroups())
    seen = set()
    for S in G.subgroups_up_to_conjugacy():
        orbit = {G.conjugate_subgroup(g, S.elements) for g in range(G.order)}
        assert orbit <= subs
        assert not (orbit & seen)
        seen |= orbit
    assert seen == subs


def test_subgroup_validation():
    G = builtin_group("s3")
    with pytest.raises(ValueError):
        G.subgroup([0, 1])  # not closed unless 1 is an involution generator set
    # closure via generators always works
    S = G.subgroup_from_generators([1])
    assert set(S.elements) == set(closure_oracle(G, [1]))


def test_conjugacy_classes_against_oracle():
    for name in SMALL:
        G = builtin_group(name)
        impl = {frozenset(c) for c in G.conjugacy_classes()}
        assert impl == conjugacy_classes_oracle(G)


def test_centralizer_normalizer_oracle():
    G = builtin_group("d8")
    for S in G.subgroups_up_to_conjugacy():
        cent = {g for g in range(G.order)
                if all(G.conj(g, x) == x for x in S.elements)}
        norm = {g for g in range(G.order)
                if G.conjugate_subgroup(g, S.elements) == frozenset(S.elements)}
        assert set(G.centralizer(S.elements).elements) == cent
        assert set(G.normalizer(S).elements) == norm


# -- transversals and double cosets ------------------------------------------


@pytest.mark.parametrize("name", ["s3", "d8", "a4", "s4"])
def test_left_transversal_partitions_group(name):
    G = builtin_group(name)
    for S in G.subgroups_up_to_conjugacy():
        reps, coset_of = G.left_transversal(S)
        assert len(reps) == G.order // S.order
        cover = set()
        for i, t in enumerate(reps):
            coset = {G.mul(t, h) for h in S.elements}
            assert min(coset) == t  # minimal representative convention
            for g in coset:
                assert coset_of[g] == i
            cover |= coset
        assert cover == set(range(G.order))


def double_coset_count_oracle(G: FiniteGroup, K, H) -> int:
    """Burnside's lemma for the K x H action g |-> k g h^-1."""
    total = 0
    for k in K.elements:
        for h in H.elements:
            total += sum(1 for g in range(G.order)
                         if G.mul(G.mul(k, g), G.inv(h)) == g)
    assert total % (K.order * H.order) == 0
    return total // (K.order * H.order)


@pytest.mark.parametrize("make", [
    *(lambda name=name: builtin_group(name) for name in BUILTIN_NAMES),
    lambda: relabelled(builtin_group("s4"), 1),
    lambda: relabelled(builtin_group("q8"), 2),
    lambda: group_from_generators(5, [_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (0, 1, 2))]),
], ids=[*BUILTIN_NAMES, "s4-relabelled", "q8-relabelled", "A5"])
def test_lattice_double_coset_table(make):
    G = make()
    lat = G.subgroup_lattice()
    every = np.arange(len(lat.subgroups))
    for k, K in enumerate(lat.subgroups):
        j, xs, meets = lat.double_cosets(k, every[::-1])
        for i, H in enumerate(reversed(lat.subgroups)):
            sel = j == i
            assert xs[sel].tolist() == G.double_cosets(K, H).representatives
            for x, t in zip(xs[sel].tolist(), meets[sel].tolist()):
                assert (frozenset(lat.subgroups[t].elements)
                        == frozenset(K.elements) & G.conjugate_subgroup(x, H.elements))
        assert np.all(np.diff(j) >= 0)


@pytest.mark.parametrize("name", ["s3", "d8", "a4", "s4"])
def test_double_cosets_against_burnside_oracle(name):
    G = builtin_group(name)
    subs = G.subgroups_up_to_conjugacy()
    for K in subs:
        for H in subs:
            dc = G.double_cosets(K, H)
            assert len(dc.representatives) == double_coset_count_oracle(G, K, H)
            # cosets partition G with size |K||H| / |K n xHx^-1|
            sizes = dc.coset_sizes()
            assert sum(sizes) == G.order
            for x, size, A in zip(dc.representatives, sizes, dc.intersections):
                inter = frozenset(K.elements) & G.conjugate_subgroup(x, H.elements)
                assert frozenset(A.elements) == inter and A is G.subgroup(inter)
                assert size == K.order * H.order // len(inter)
                assert int(dc.assignment[x]) == dc.representatives.index(x)
                assert x == min(G.mul(G.mul(k, x), h)
                                for k in K.elements for h in H.elements)


# -- as_group / inclusion ----------------------------------------------------


def test_as_group_is_isomorphic_onto_elements():
    G = builtin_group("s4")
    for S in G.subgroups_up_to_conjugacy():
        Sgrp, el = S.as_group()
        assert Sgrp.order == S.order
        assert tuple(sorted(el)) == el == S.elements
        for i in range(Sgrp.order):
            for j in range(Sgrp.order):
                assert el[Sgrp.mul(i, j)] == G.mul(el[i], el[j])


def test_inclusion_hom_composition():
    G = builtin_group("s4")
    A4 = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 12)
    inc = A4.inclusion_hom()
    A4grp = inc.source
    V = next(S for S in A4grp.subgroups_up_to_conjugacy() if S.order == 4)
    inner = V.inclusion_hom()
    comp = inc.compose(inner)
    for i in range(V.order):
        assert comp(i) == inc(inner(i))


def test_injective_hom_refusals():
    """Every refusal of InjectiveHom, on maps S3 -> S4 made from the
    inclusion.  The hom law is checked at the generators only, so the map
    wrong at one element that is no generator, still injective and still
    sending e to e, is the control that the generators reach that element."""
    G = builtin_group("s4")
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == 6)
    Hgrp, el = H.as_group()
    InjectiveHom(Hgrp, G, el)
    e, gens = Hgrp.identity, Hgrp.generators()
    x = next(a for a in range(Hgrp.order) if a != e and a not in gens)
    y = next(a for a in range(Hgrp.order) if a not in (e, x))
    outside = next(g for g in range(G.order) if g not in H)

    def replaced(**images):
        m = list(el)
        for a, g in images.items():
            m[{"e": e, "x": x, "y": y}[a]] = g
        return tuple(m)

    with pytest.raises(ValueError, match="^hom map has wrong length$"):
        InjectiveHom(Hgrp, G, el[:-1])
    with pytest.raises(ValueError, match="^hom map out of range$"):
        InjectiveHom(Hgrp, G, replaced(x=-1))
    with pytest.raises(ValueError, match="^hom is not injective$"):
        InjectiveHom(Hgrp, G, replaced(x=el[y]))
    with pytest.raises(ValueError, match="^hom does not preserve the identity$"):
        InjectiveHom(Hgrp, G, replaced(e=el[y], y=el[e]))
    wrong = replaced(x=outside)
    assert len(set(wrong)) == Hgrp.order and wrong[e] == G.identity
    with pytest.raises(ValueError, match="^map is not a homomorphism$"):
        InjectiveHom(Hgrp, G, wrong)


def test_group_from_generators_bfs_order():
    # S3 from a transposition and a 3-cycle: identity first, then BFS layers
    G = group_from_generators(3, [[1, 0, 2], [1, 2, 0]])
    assert G.order == 6
    assert G.identity == 0
    oracle = all_subgroups_oracle(G)
    assert set(G.all_subgroups()) == oracle


def test_conjugate_subgroup_is_group_action():
    G = builtin_group("d8")
    S = next(T for T in G.subgroups_up_to_conjugacy() if T.order == 2)
    for g in range(G.order):
        for h in range(G.order):
            lhs = G.conjugate_subgroup(g, G.conjugate_subgroup(h, S.elements))
            rhs = G.conjugate_subgroup(G.mul(g, h), S.elements)
            assert lhs == rhs


# -- the subgroup registry ---------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lattice_tables_against_brute_force(name):
    G = builtin_group(name)
    lat = G.subgroup_lattice()
    sets = [frozenset(S.elements) for S in lat.subgroups]
    assert len(set(sets)) == len(sets) and set(sets) == set(G.all_subgroups())
    index = {s: i for i, s in enumerate(sets)}
    reps = G.subgroups_up_to_conjugacy()
    for i, S in enumerate(sets):
        orbit = set()
        for g in range(G.order):
            conj = frozenset(G.conj(g, x) for x in S)
            assert lat.conj[g, i] == index[conj]
            assert lat.subgroups[i].conjugate_by(g) is lat.subgroups[index[conj]]
            orbit.add(index[conj])
        same_class = {j for j in range(len(sets)) if lat.class_of[j] == lat.class_of[i]}
        assert same_class == orbit
        assert index[frozenset(reps[lat.class_of[i]].elements)] in orbit
        stabiliser = {g for g in range(G.order) if lat.conj[g, i] == i}
        assert set(G.normalizer(lat.subgroups[i]).elements) == stabiliser


@pytest.mark.parametrize("name,seed", [*((n, None) for n in BUILTIN_NAMES),
                                       ("s4", 5), ("q8", 6)])
def test_containment_table_against_sets(name, seed):
    G = builtin_group(name) if seed is None else relabelled(builtin_group(name), seed)
    lat = G.subgroup_lattice()
    sets = [set(S.elements) for S in lat.subgroups]
    assert lat.contain.shape == (len(sets), len(sets))
    for k, S in enumerate(lat.subgroups):
        for h, T in enumerate(lat.subgroups):
            assert lat.contain[k, h] == (S <= T) == (sets[k] <= sets[h])


def test_all_subgroups_follows_the_lattice_and_is_a_fresh_list():
    G = relabelled(builtin_group("d8"), 3)
    subs = G.all_subgroups()
    assert subs == [frozenset(S.elements) for S in G.subgroup_lattice().subgroups]
    subs.pop()
    subs[0] = frozenset([G.identity, 0])
    assert G.all_subgroups() == [frozenset(S.elements) for S in G.subgroup_lattice().subgroups]


def test_cached_tables_are_read_only():
    # a caller that writes into a cached table gets an error, and the next
    # caller the table as it was
    G = builtin_group("s4")
    lat = G.subgroup_lattice()
    hom = lat.classes[3].inclusion_hom()
    tables = [G.element_orders(), lat.conj, lat.class_of, lat.contain,
              *hom.induction_table()[1:]]
    before = [t.copy() for t in tables]
    for t in tables:
        with pytest.raises(ValueError, match="read-only"):
            t[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            t *= 2
    after = [G.element_orders(), lat.conj, lat.class_of, lat.contain,
             *hom.induction_table()[1:]]
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_subgroups_are_interned(name):
    G = builtin_group(name)
    for S in G.subgroup_lattice().subgroups:
        assert G.subgroup(S.elements) is S
        assert G.subgroup(list(reversed(S.elements))) is S
        assert G.subgroup_from_generators(S.elements) is S
        assert S.conjugate_by(G.identity) is S
        assert S.intersection(G.full_subgroup()) is S
        assert G.normalizer(S) is G.normalizer(S.conjugate_by(0))
    X = gset_from_subgroup(G, G.trivial_subgroup())
    assert X.stabilizer(0) is G.trivial_subgroup()


def test_lattice_build_packs_each_mask_once(monkeypatch):
    from mackeykit import groups

    calls = []
    orig = groups._mask_key

    def counted(mask):
        calls.append(1)
        return orig(mask)

    G = group_from_generators(5, [_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (0, 1))])  # S5
    monkeypatch.setattr(groups, "_mask_key", counted)
    lat = G.subgroup_lattice()
    assert len(calls) == len(lat.subgroups) == 156
    assert all(S.key == orig(S.mask) for S in lat.subgroups)


def test_conjugates_of_a_fresh_group_build_as_group_once():
    # conjugating builds no lattice, and before and after the lattice is
    # built the conjugate is one interned object
    G = group_from_generators(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    H = G.subgroup_from_generators([1])
    first = H.conjugate_by(5).as_group()
    assert G._lattice is None
    assert H.conjugate_by(5).as_group() is first
    assert G.subgroup(first[1]).as_group() is first
    G.subgroup_lattice()
    assert H.conjugate_by(5).as_group() is first


def test_subgroup_membership_and_containment_against_sets():
    G = builtin_group("s4")
    subs = G.subgroup_lattice().subgroups
    for A in subs:
        assert [g in A for g in range(-1, G.order + 1)] == \
            [g in set(A.elements) for g in range(-1, G.order + 1)]
        for B in subs:
            assert (A <= B) == (set(A.elements) <= set(B.elements))
            assert set(A.intersection(B).elements) == set(A.elements) & set(B.elements)


@pytest.mark.parametrize("name", ["d8", "a4", "s4"])
def test_conjugacy_and_subconjugacy_against_brute_force(name):
    G = builtin_group(name)
    reps = G.subgroups_up_to_conjugacy()
    for A in reps:
        conjugates = {G.conjugate_subgroup(g, A.elements) for g in range(G.order)}
        for B in G.subgroup_lattice().subgroups:
            Bset = frozenset(B.elements)
            assert A.is_conjugate_to(B) == (Bset in conjugates)
            assert A.is_subconjugate_to(B) == any(c <= Bset for c in conjugates)


def test_non_subgroups_still_raise():
    G = builtin_group("s4")
    bad = [0, 1, 2]
    for _ in range(2):  # a rejected set is not interned
        with pytest.raises(ValueError):
            G.subgroup(bad)
    with pytest.raises(ValueError):
        G.subgroup([])
    with pytest.raises(ValueError):
        G.subgroup([0, G.order])
    with pytest.raises(ValueError):
        G.subgroup([0, -1])
