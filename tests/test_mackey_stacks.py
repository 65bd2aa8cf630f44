"""The stacked Mackey/Green functors against slow references: the batched
axiom suites against per-instance loops over `Mat` products, on sound
functors and on seeded single-entry corruptions."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from mackeykit import mackey
from mackeykit.catalog import builtin_group
from mackeykit.linalg import GF, QQ, Mat
from mackeykit.mackey import (
    FAILURE_LIST_CAP,
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
    frobenius_object,
    module_from_matrices,
    permutation_module,
    trivial_module,
)

FIELDS = [QQ, GF(2), GF(3)]


# -- the batched suites against per-instance loops ---------------------------------


def reference_clause(name, instances):
    count, fails, total = 0, [], 0
    for desc, ok in instances:
        count += 1
        if not ok:
            total += 1
            if len(fails) < FAILURE_LIST_CAP:
                fails.append(desc)
    return name, count, fails, total


def reference_mackey(M):
    """The suite as one `Mat` product per instance."""
    G, f, subs = M.group, M.field, M.subgroups
    res, tr, conj = M.res, M.tr, M.conj
    cj = {(g, H): H.conjugate_by(g) for g in range(G.order) for H in subs}

    def identity_maps():
        for H in subs:
            d = M.levels[H].dim
            yield (f"res at {H.elements}", res[(H, H)] == Mat.identity(f, d))
            yield (f"tr at {H.elements}", tr[(H, H)] == Mat.identity(f, d))
            for h in H.elements:
                yield (f"c_{h} on {H.elements}", conj[(h, H)] == Mat.identity(f, d))

    chains = [(K, L, H) for K, L in M.containments for H in subs if L <= H]

    def res_chain():
        for K, L, H in chains:
            yield (f"res {K.elements}<={L.elements}<={H.elements}",
                   res[(K, H)] == res[(K, L)] @ res[(L, H)])

    def tr_chain():
        for K, L, H in chains:
            yield (f"tr {K.elements}<={L.elements}<={H.elements}",
                   tr[(K, H)] == tr[(L, H)] @ tr[(K, L)])

    def conj_chain():
        for H in subs:
            for h in range(G.order):
                for g in range(G.order):
                    yield (f"c_{g} c_{h} on {H.elements}",
                           conj[(g, cj[(h, H)])] @ conj[(h, H)] == conj[(G.mul(g, h), H)])

    def conj_res():
        for K, H in M.containments:
            for g in range(G.order):
                yield (f"c_{g} res {K.elements}<={H.elements}",
                       conj[(g, K)] @ res[(K, H)] == res[(cj[(g, K)], cj[(g, H)])] @ conj[(g, H)])

    def conj_tr():
        for K, H in M.containments:
            for g in range(G.order):
                yield (f"c_{g} tr {K.elements}<={H.elements}",
                       conj[(g, H)] @ tr[(K, H)] == tr[(cj[(g, K)], cj[(g, H)])] @ conj[(g, K)])

    def mackey_formula():
        for L in subs:
            inner = [S for S in subs if S <= L]
            for K in inner:
                for H in inner:
                    rhs = Mat.zeros(f, M.levels[K].dim, M.levels[H].dim)
                    dc = G.double_cosets(K, H)
                    for x, A in zip(dc.representatives, dc.intersections):
                        if x in L:
                            B = cj[(G.inv(x), A)]
                            rhs = rhs + tr[(A, K)] @ conj[(x, B)] @ res[(B, H)]
                    yield (f"mackey L={L.elements} K={K.elements} H={H.elements}",
                           res[(K, L)] @ tr[(H, L)] == rhs)

    return [
        reference_clause("identity-maps", identity_maps()),
        reference_clause("restriction-functoriality", res_chain()),
        reference_clause("transfer-functoriality", tr_chain()),
        reference_clause("conjugation-functoriality", conj_chain()),
        reference_clause("conjugation-restriction-compatibility", conj_res()),
        reference_clause("conjugation-transfer-compatibility", conj_tr()),
        reference_clause("mackey-formula", mackey_formula()),
    ]


def reference_cohomological(M):
    return reference_clause("cohomological", (
        (f"tr res at {K.elements}<={H.elements} != {H.order // K.order} id",
         M.tr[(K, H)] @ M.res[(K, H)]
         == Mat.identity(M.field, M.levels[H].dim).scale(H.order // K.order))
        for K, H in M.containments))


def reference_green(Gf):
    """The Green suite with products as per-coordinate sums of `Mat`s."""
    M = Gf.underlying
    f = M.field
    Ls_of, units = Gf.products, Gf.units

    def product(H, u, v):
        out = Mat.zeros(f, v.nrows, 1)
        L = Ls_of[H]
        for i in range(u.nrows):
            c = u.num[i, 0]
            if c:
                out = out + (L[i] @ v).scale(int(c) if f.p is not None else Fraction(int(c), u.den))
        return out

    def e(d, j):
        return Mat.identity(f, d).col(j)

    def level_rings():
        for H in M.subgroups:
            d, Ls, u = M.levels[H].dim, Ls_of[H], units[H]
            for j in range(d):
                yield (f"unit at {H.elements} col {j}",
                       product(H, u, e(d, j)) == e(d, j) and product(H, e(d, j), u) == e(d, j))
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        yield (f"assoc at {H.elements} ({i},{j},{k})",
                               product(H, Ls[i].col(j), e(d, k))
                               == Ls[i] @ product(H, e(d, j), e(d, k)))

    def res_hom():
        for K, H in M.containments:
            r, dH = M.res[(K, H)], M.levels[H].dim
            yield (f"res unit {K.elements}<={H.elements}", r @ units[H] == units[K])
            for i in range(dH):
                for j in range(dH):
                    yield (f"res hom {K.elements}<={H.elements} ({i},{j})",
                           r @ product(H, e(dH, i), e(dH, j))
                           == product(K, r @ e(dH, i), r @ e(dH, j)))

    def frobenius():
        for K, H in M.containments:
            r, t = M.res[(K, H)], M.tr[(K, H)]
            dH, dK = M.levels[H].dim, M.levels[K].dim
            for i in range(dH):
                x = e(dH, i)
                for j in range(dK):
                    y = e(dK, j)
                    yield (f"frobenius-left {K.elements}<={H.elements} ({i},{j})",
                           t @ product(K, r @ x, y) == product(H, x, t @ y))
                    yield (f"frobenius-right {K.elements}<={H.elements} ({i},{j})",
                           t @ product(K, y, r @ x) == product(H, t @ y, x))

    return [
        reference_clause("level-ring-laws", level_rings()),
        reference_clause("restriction-ring-homomorphism", res_hom()),
        reference_clause("frobenius-formulas", frobenius()),
    ]


def assert_suites_agree(Gf):
    """Batched and reference suites give the same counts and failure lists;
    returns the largest number of failing instances in one Mackey or Green
    clause."""
    M = Gf.underlying
    got = ([(c.name, c.instances, c.failures) for c in verify_mackey_axioms(M).checks]
           + [(c.name, c.instances, c.failures) for c in verify_green_axioms(Gf).checks])
    coh = cohomological_check(M)
    got.append((coh.name, coh.instances, coh.failures))
    want = reference_mackey(M) + reference_green(Gf) + [reference_cohomological(M)]
    assert got == [w[:3] for w in want]
    return max(w[3] for w in want[:-1])


def rescaled(Gf, scale):
    """The same Green functor in the basis scale(H) e_i at level H (scale
    constant on conjugacy classes), so its maps carry denominators."""
    M = Gf.underlying
    s = {H: Fraction(scale(H)) for H in M.subgroups}
    res = {(K, H): m.scale(s[H] / s[K]) for (K, H), m in M.res.items()}
    tr = {(K, H): m.scale(s[K] / s[H]) for (K, H), m in M.tr.items()}
    M2 = OrdinaryMackeyFunctor(M.group, M.field, M.levels, res, tr, M.conj)
    products = {H: L.scale(s[H]) for H, L in Gf.products.items()}
    units = {H: u.scale(1 / s[H]) for H, u in Gf.units.items()}
    return GreenFunctorData(M2, products, units)


def corrupted(Gf, kind, seed):
    """Gf with one entry of one map of the given kind moved by one (by 1/2
    over Q), chosen by the seed."""
    rng = np.random.default_rng(seed)
    M = Gf.underlying
    shift = Mat.identity(M.field, 1).scale(Fraction(1, 2) if M.field.p is None else 1)
    maps = {"res": dict(M.res), "tr": dict(M.tr), "conj": dict(M.conj),
            "T": {(H, i): L[i] for H, L in Gf.products.items() for i in range(L.shape[0])}}
    table = maps[kind]
    keys = [key for key, m in table.items() if m.nrows and m.ncols]
    key = keys[rng.integers(len(keys))]
    m = table[key]
    r, c = int(rng.integers(m.nrows)), int(rng.integers(m.ncols))
    bump = np.zeros(m.shape, dtype=np.int64)
    bump[r, c] = 1
    table[key] = m + Mat(M.field, bump).scale(shift.entry(0, 0))
    M2 = OrdinaryMackeyFunctor(M.group, M.field, M.levels, maps["res"], maps["tr"], maps["conj"])
    products = {H: Mat.stack(M.field, [maps["T"][(H, i)] for i in range(L.shape[0])], L.shape[1:])
                for H, L in Gf.products.items()}
    return GreenFunctorData(M2, products, Gf.units)


def monoid_functor(name, field, order):
    G = builtin_group(name)
    H = next(S for S in G.subgroups_up_to_conjugacy() if S.order == order)
    fro = frobenius_object(G, H, field)
    return green_from_monoid(trivial_module(G, field), fro.module, fro.mul, fro.unit)


def burnside_over_q(name, scale):
    return rescaled(burnside_green_functor(builtin_group(name)), scale)


FUNCTORS = {
    "burnside-s3-q-denominators": lambda: burnside_over_q(
        "s3", lambda H: Fraction(2, 3) if H.order == 2 else (3 if H.order == 3 else 1)),
    "burnside-s3-q-wide-sums": lambda: burnside_over_q(
        "s3", lambda H: 2 ** (11 * H.order + 2 * (H.order > 1))),
    "burnside-v4-q-wide": lambda: burnside_over_q("v4", lambda H: 2 ** (40 * H.order)),
    "monoid-s3-f2": lambda: monoid_functor("s3", GF(2), 2),
    "monoid-s3-f3": lambda: monoid_functor("s3", GF(3), 1),
    "monoid-d8-q": lambda: monoid_functor("d8", QQ, 2),
}


@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_batched_suites_match_reference_on_sound_functors(name):
    Gf = FUNCTORS[name]()
    assert assert_suites_agree(Gf) == 0
    assert verify_mackey_axioms(Gf.underlying).ok and verify_green_axioms(Gf).ok


def test_wide_entries_take_the_object_path():
    Gf = FUNCTORS["burnside-v4-q-wide"]()
    assert Gf.underlying._res.flat.num.dtype == object and Gf._L[-1].num.dtype == object
    assert any(m.num.dtype == object for m in Gf.underlying.res.values())


def test_double_coset_sums_past_the_int64_bound_are_exact(monkeypatch):
    """The stacks of this functor are int64 and every product stays under
    the int64 bound, but some Mackey-formula sums of double-coset terms
    would pass 2^62: those are summed in Python integers."""
    Gf = FUNCTORS["burnside-s3-q-wide-sums"]()
    M = Gf.underlying
    assert M._res.flat.num.dtype == M._tr.flat.num.dtype == np.int64
    widened = []
    orig = mackey._isum_segments

    def spy(a, starts):
        out = orig(a, starts)
        if a.dtype != object and len(a) * int(np.abs(a).max()) >= 2 ** 62:
            widened.append(out.dtype)
        return out

    monkeypatch.setattr(mackey, "_isum_segments", spy)
    assert verify_mackey_axioms(M).ok
    assert widened and all(dt == object for dt in widened)


def test_structure_maps_read_back_as_read_only_snapshots():
    Gf = FUNCTORS["monoid-s3-f3"]()
    M = Gf.underlying
    key = M.containments[0]
    for table, k in ((M.res, key), (M.tr, key), (M.conj, (0, key[1])),
                     (Gf.products, key[1]), (Gf.units, key[1])):
        with pytest.raises(TypeError):
            table[k] = table[k]
    M.res[key].num[...] = 2    # edits that copy only: the stacks keep the map
    assert verify_mackey_axioms(M).ok


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["res", "tr", "conj", "T"])
@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_batched_suites_match_reference_on_corruptions(name, kind, seed):
    worst = assert_suites_agree(corrupted(FUNCTORS[name](), kind, seed))
    assert worst > 0


def test_a_corruption_beyond_the_failure_cap_is_reported_alike():
    """A corrupted conjugation breaks more instances than the cap lists."""
    Gf = FUNCTORS["burnside-s3-q-denominators"]()
    M = Gf.underlying
    conj = dict(M.conj)
    H = M.subgroups[-1]
    conj[(1, H)] = conj[(1, H)].scale(2)
    bad = GreenFunctorData(OrdinaryMackeyFunctor(M.group, M.field, M.levels, M.res, M.tr, conj),
                           Gf.products, Gf.units)
    assert assert_suites_agree(bad) > FAILURE_LIST_CAP
    assert len(verify_mackey_axioms(bad.underlying).clause(
        "conjugation-functoriality").failures) == FAILURE_LIST_CAP


def sign_module(field):
    """The sign representation of S3, as one matrix per element."""
    G = builtin_group("s3")
    X = permutation_module(G, G.subgroups_up_to_conjugacy()[1], field)  # 3 points
    signs = [round(np.linalg.det(np.eye(3)[X.gset.action[g]])) for g in range(G.order)]
    return module_from_matrices(G, field, [Mat.identity(field, 1).scale(s) for s in signs])


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_batched_mackey_suite_matches_reference_with_zero_levels(field):
    """Hom(k, sign) vanishes at the levels C2 and S3, whose blocks are empty."""
    G = builtin_group("s3")
    M = hom_decategorify(trivial_module(G, field), sign_module(field))
    assert [M.levels[S].dim for S in M.subgroups] == [1, 0, 0, 0, 1, 0]
    key = (M.subgroups[0], M.subgroups[4])  # the trivial group in C3
    bad = OrdinaryMackeyFunctor(G, field, M.levels, M.res, {**M.tr, key: M.tr[key].scale(2)},
                                M.conj)
    for N in (M, bad):
        got = [(c.name, c.instances, c.failures) for c in verify_mackey_axioms(N).checks]
        coh = cohomological_check(N)
        assert got == [r[:3] for r in reference_mackey(N)]
        assert (coh.name, coh.instances, coh.failures) == reference_cohomological(N)[:3]
