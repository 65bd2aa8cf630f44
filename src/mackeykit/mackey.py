"""Ordinary (1-categorical) Mackey and Green functors as finite data.

A functor here is a table: one free module per subgroup of G (all
subgroups, not just class representatives, so conjugation maps are total),
a restriction and a transfer matrix per containment K <= H, and a
conjugation matrix per pair (g, H).  `verify_mackey_axioms` checks, over
every chain and every triple, the four axioms: functoriality of
restriction and transfer, functoriality of conjugation (with inner
conjugations acting trivially), compatibility of conjugation with both
maps, and the double-coset (Mackey) formula

    res^L_K tr^L_H = sum over KxH in L of tr^K_{K n xHx^-1} c_x res^H_{x^-1Kx n H}.

Transfers in the Hom-functor are the relative trace f |-> sum_t Y(t) f X(t)^-1
over a transversal, which is the composite of the pinned unit/counit pair.

Every map is keyed by interned subgroups (one `Subgroup` object per
subgroup of G, compared by identity), so containment is `K <= H` and the
classes at each level are read off the group's `SubgroupLattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .groups import FiniteGroup, Subgroup
from .linalg import Field, Mat, QQ
from .reps import Module, ModuleHom, hom_space, restrict_to

__all__ = [
    "OrdinaryMackeyFunctor",
    "GreenFunctorData",
    "CheckResult",
    "MackeyAxiomReport",
    "verify_mackey_axioms",
    "verify_green_axioms",
    "cohomological_check",
    "hom_decategorify",
    "green_from_monoid",
    "burnside_green_functor",
    "all_subgroups_sorted",
]

FAILURE_LIST_CAP = 12


def all_subgroups_sorted(G: FiniteGroup) -> List[Subgroup]:
    """Every subgroup of G (not just class representatives), sorted by
    (order, element tuple)."""
    return list(G.subgroup_lattice().subgroups)


def _containments(subs: List[Subgroup]) -> List[Tuple[Subgroup, Subgroup]]:
    """Every containment K <= H among `subs`, in (K, H) order."""
    return [(K, H) for K in subs for H in subs if K <= H]


@dataclass
class LevelData:
    subgroup: Subgroup
    dim: int
    labels: Tuple


class OrdinaryMackeyFunctor:
    """Plain data holder; the equations live in verify_mackey_axioms."""

    def __init__(
        self,
        group: FiniteGroup,
        field: Field,
        levels: Dict[Subgroup, LevelData],
        res: Dict[Tuple[Subgroup, Subgroup], Mat],
        tr: Dict[Tuple[Subgroup, Subgroup], Mat],
        conj: Dict[Tuple[int, Subgroup], Mat],
    ):
        self.group = group
        self.field = field
        self.levels = levels
        self.res = res
        self.tr = tr
        self.conj = conj
        self.subgroups = sorted(levels.keys(), key=lambda S: (S.order, S.elements))
        self.containments = _containments(self.subgroups)
        self.conjugate: Dict[Tuple[int, Subgroup], Subgroup] = {}  # (g, H) -> gHg^-1
        for K, H in self.containments:
            r = res.get((K, H))
            t = tr.get((K, H))
            if r is None or t is None:
                raise ValueError(f"missing maps for {K.elements} <= {H.elements}")
            if r.shape != (levels[K].dim, levels[H].dim):
                raise ValueError("restriction matrix has wrong shape")
            if t.shape != (levels[H].dim, levels[K].dim):
                raise ValueError("transfer matrix has wrong shape")
        for g in range(group.order):
            for H in self.subgroups:
                c = conj.get((g, H))
                if c is None:
                    raise ValueError(f"missing conjugation ({g}, {H.elements})")
                tgt = self.conjugate[(g, H)] = H.conjugate_by(g)
                if c.shape != (levels[tgt].dim, levels[H].dim):
                    raise ValueError("conjugation matrix has wrong shape")

    def level(self, S: Subgroup) -> LevelData:
        return self.levels[S]


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_clause(name: str, instances) -> CheckResult:
    """Run one clause: `instances` yields (description, holds) pairs; the
    first FAILURE_LIST_CAP failing descriptions are kept."""
    inst, fails = 0, []
    for desc, ok in instances:
        inst += 1
        if not ok and len(fails) < FAILURE_LIST_CAP:
            fails.append(desc)
    return CheckResult(name, inst, fails)


@dataclass
class MackeyAxiomReport:
    checks: List[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def clause(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else f"{len(c.failures)} FAILED"
            lines.append(f"{c.name}: {c.instances} instances, {status}")
            for f in c.failures[:3]:
                lines.append(f"    {f}")
        return "\n".join(lines)


def verify_mackey_axioms(M: OrdinaryMackeyFunctor) -> MackeyAxiomReport:
    """Exhaustive check of the four Mackey-functor axioms over all chains,
    conjugation pairs, and double-coset triples."""
    G = M.group
    lat = G.subgroup_lattice()
    subs = M.subgroups
    f = M.field
    cj = M.conjugate

    def identity_maps():
        for H in subs:
            d = M.levels[H].dim
            yield (f"res at {H.elements}", M.res[(H, H)] == Mat.identity(f, d))
            yield (f"tr at {H.elements}", M.tr[(H, H)] == Mat.identity(f, d))
            for h in H.elements:
                yield (f"c_{h} on {H.elements}",
                       M.conj[(h, H)] == Mat.identity(f, d))

    chains = [(K, L, H) for K, L in M.containments for H in subs if L <= H]

    def res_chain():
        for K, L, H in chains:
            yield (f"res {K.elements}<={L.elements}<={H.elements}",
                   M.res[(K, H)] == M.res[(K, L)] @ M.res[(L, H)])

    def tr_chain():
        for K, L, H in chains:
            yield (f"tr {K.elements}<={L.elements}<={H.elements}",
                   M.tr[(K, H)] == M.tr[(L, H)] @ M.tr[(K, L)])

    def conj_chain():
        for H in subs:
            for h in range(G.order):
                Hh = cj[(h, H)]
                for g in range(G.order):
                    yield (f"c_{g} c_{h} on {H.elements}",
                           M.conj[(g, Hh)] @ M.conj[(h, H)]
                           == M.conj[(G.mul(g, h), H)])

    def conj_res():
        for K, H in M.containments:
            for g in range(G.order):
                yield (f"c_{g} res {K.elements}<={H.elements}",
                       M.conj[(g, K)] @ M.res[(K, H)]
                       == M.res[(cj[(g, K)], cj[(g, H)])] @ M.conj[(g, H)])

    def conj_tr():
        for K, H in M.containments:
            for g in range(G.order):
                yield (f"c_{g} tr {K.elements}<={H.elements}",
                       M.conj[(g, H)] @ M.tr[(K, H)]
                       == M.tr[(cj[(g, K)], cj[(g, H)])] @ M.conj[(g, K)])

    def mackey():
        for L in subs:
            inner = [S for S in subs if S <= L]
            for K in inner:
                for H in inner:
                    lhs = M.res[(K, L)] @ M.tr[(H, L)]
                    rhs = Mat.zeros(f, M.levels[K].dim, M.levels[H].dim)
                    xs, meets = lat.double_cosets(lat.position[K], lat.position[H])
                    inside = L.mask[xs]  # the double cosets KxH inside L are K\L/H
                    for x, a in zip(xs[inside].tolist(), meets[inside].tolist()):
                        A = lat.subgroups[a]             # K n xHx^-1
                        B = cj[(G.inv(x), A)]            # x^-1Kx n H
                        rhs = rhs + M.tr[(A, K)] @ M.conj[(x, B)] @ M.res[(B, H)]
                    yield (f"mackey L={L.elements} K={K.elements} H={H.elements}",
                           lhs == rhs)

    return MackeyAxiomReport([
        _run_clause("identity-maps", identity_maps()),
        _run_clause("restriction-functoriality", res_chain()),
        _run_clause("transfer-functoriality", tr_chain()),
        _run_clause("conjugation-functoriality", conj_chain()),
        _run_clause("conjugation-restriction-compatibility", conj_res()),
        _run_clause("conjugation-transfer-compatibility", conj_tr()),
        _run_clause("mackey-formula", mackey()),
    ])


def cohomological_check(M: OrdinaryMackeyFunctor) -> CheckResult:
    """tr o res = [H:K] . id at every containment; the report lists failures
    (a functor need not be cohomological — the Burnside one is not)."""
    def instances():
        for K, H in M.containments:
            idx = H.order // K.order
            yield (f"tr res at {K.elements}<={H.elements} != {idx} id",
                   M.tr[(K, H)] @ M.res[(K, H)]
                   == Mat.identity(M.field, M.levels[H].dim).scale(idx))
    return _run_clause("cohomological", instances())


# ---------------------------------------------------------------------------
# Hom decategorification


def _coords_in_basis(basis: List[Mat], targets: List[Mat], field: Field) -> Mat:
    """Coordinates of matrices in a list basis (by column-stacking), one
    column per target; hard error when a target is outside the span."""
    if not basis:
        if all(t.is_zero() for t in targets):
            return Mat.zeros(field, 0, len(targets))
        raise ArithmeticError("element outside the (empty) hom space")
    n = basis[0].nrows * basis[0].ncols

    def stack(ms: List[Mat]) -> Mat:
        return Mat.from_blocks(field, n, len(ms), [(0, j, m.vec()) for j, m in enumerate(ms)])

    sol = stack(basis).solve(stack(targets))
    if sol is None:
        raise ArithmeticError("image left the expected hom space")
    return sol


def hom_decategorify(X: Module, Y: Module) -> OrdinaryMackeyFunctor:
    """The Mackey functor H |-> Hom_kH(Res X, Res Y).

    Restriction is literal inclusion of intertwiners, conjugation is
    f |-> Y(g) f X(g)^-1, and the transfer is the relative trace
    f |-> sum_t Y(t) f X(t)^-1 over minimal coset representatives, each
    expressed in the echelon basis of the target hom space (with membership
    verified exactly).
    """
    return _hom_functor(X, Y)[0]


def _hom_functor(X: Module, Y: Module) -> Tuple[OrdinaryMackeyFunctor, Dict[Subgroup, List[Mat]]]:
    """`hom_decategorify` and the hom basis of every level."""
    if X.group is not Y.group or X.field != Y.field:
        raise ValueError("modules must share group and field")
    G, f = X.group, X.field
    subs = all_subgroups_sorted(G)
    bases: Dict[Subgroup, List[Mat]] = {}
    levels: Dict[Subgroup, LevelData] = {}
    for S in subs:
        hs = hom_space(restrict_to(X, S), restrict_to(Y, S))
        bases[S] = [h.mat for h in hs]
        levels[S] = LevelData(S, len(hs), tuple(range(len(hs))))
    res: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    tr: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    transversals = {K: G.left_transversal(K)[0] for K in subs}
    for K, H in _containments(subs):
        res[(K, H)] = _coords_in_basis(bases[K], bases[H], f)
        ts = [t for t in transversals[K] if t in H]  # the cosets tK inside H
        traces = []
        for b in bases[K]:
            acc = None
            for t in ts:
                term = Y.action(t) @ b @ X.action_inv(t)
                acc = term if acc is None else acc + term
            traces.append(acc)
        tr[(K, H)] = _coords_in_basis(bases[H], traces, f)
    conj: Dict[Tuple[int, Subgroup], Mat] = {}
    for g in range(G.order):
        for H in subs:
            tgt = H.conjugate_by(g)
            conj[(g, H)] = _coords_in_basis(
                bases[tgt], [Y.action(g) @ b @ X.action_inv(g) for b in bases[H]], f)
    return OrdinaryMackeyFunctor(G, f, levels, res, tr, conj), bases


# ---------------------------------------------------------------------------
# Green functors


@dataclass
class GreenFunctorData:
    underlying: OrdinaryMackeyFunctor
    products: Dict[Subgroup, List[Mat]]  # left multiplication per basis element
    units: Dict[Subgroup, Mat]           # unit column per level
    # the axiom reports a constructor that verifies has already run
    mackey_report: Optional[MackeyAxiomReport] = None
    green_report: Optional[MackeyAxiomReport] = None

    def product(self, H: Subgroup, u: Mat, v: Mat) -> Mat:
        f = self.underlying.field
        out = Mat.zeros(f, v.nrows, 1)
        for i, L in enumerate(self.products[H]):
            c = u.num[i, 0]
            if c:
                s = int(c) if f.p is not None else Fraction(int(c), u.den)
                out = out + (L @ v).scale(s)
        return out


def verify_green_axioms(Gf: GreenFunctorData) -> MackeyAxiomReport:
    """Per-level ring laws, restrictions as unital ring maps, and both
    Frobenius (projection) formulas on all containments and basis pairs."""
    M = Gf.underlying
    f = M.field
    subs = M.subgroups

    def level_rings():
        for H in subs:
            d = M.levels[H].dim
            Ls = Gf.products[H]
            u = Gf.units[H]
            for j in range(d):
                ej = Mat.identity(f, d).col(j)
                yield (f"unit at {H.elements} col {j}",
                       Gf.product(H, u, ej) == ej and Gf.product(H, ej, u) == ej)
            for i in range(d):
                for j in range(d):
                    eij = Ls[i].col(j)
                    for k in range(d):
                        ek = Mat.identity(f, d).col(k)
                        lhs = Gf.product(H, eij, ek)
                        rhs = Ls[i] @ Gf.product(H, Mat.identity(f, d).col(j), ek)
                        yield (f"assoc at {H.elements} ({i},{j},{k})", lhs == rhs)

    def res_hom():
        for K, H in M.containments:
            r = M.res[(K, H)]
            dH = M.levels[H].dim
            yield (f"res unit {K.elements}<={H.elements}",
                   r @ Gf.units[H] == Gf.units[K])
            for i in range(dH):
                ei = Mat.identity(f, dH).col(i)
                for j in range(dH):
                    ej = Mat.identity(f, dH).col(j)
                    lhs = r @ Gf.product(H, ei, ej)
                    rhs = Gf.product(K, r @ ei, r @ ej)
                    yield (f"res hom {K.elements}<={H.elements} ({i},{j})", lhs == rhs)

    def frobenius():
        for K, H in M.containments:
            r, t = M.res[(K, H)], M.tr[(K, H)]
            dH, dK = M.levels[H].dim, M.levels[K].dim
            for i in range(dH):
                x = Mat.identity(f, dH).col(i)
                for j in range(dK):
                    y = Mat.identity(f, dK).col(j)
                    lhs = t @ Gf.product(K, r @ x, y)
                    rhs = Gf.product(H, x, t @ y)
                    yield (f"frobenius-left {K.elements}<={H.elements} ({i},{j})",
                           lhs == rhs)
                    lhs2 = t @ Gf.product(K, y, r @ x)
                    rhs2 = Gf.product(H, t @ y, x)
                    yield (f"frobenius-right {K.elements}<={H.elements} ({i},{j})",
                           lhs2 == rhs2)

    return MackeyAxiomReport([
        _run_clause("level-ring-laws", level_rings()),
        _run_clause("restriction-ring-homomorphism", res_hom()),
        _run_clause("frobenius-formulas", frobenius()),
    ])


def green_from_monoid(X: Module, Y: Module, mul: ModuleHom, unit: ModuleHom) -> GreenFunctorData:
    """Green functor structure on H |-> Hom_kH(Res X, Res Y) by convolution
    with the multiplication of Y; X must be the trivial comonoid (dim 1,
    trivial action), so the comultiplication is the canonical isomorphism
    k = k (x) k.

    The multiplication is verified associative and unital before anything
    is built; non-associative input is a contract violation.
    """
    G, f = Y.group, Y.field
    if X.dim != 1 or any(not X.action(g).is_identity() for g in range(G.order)):
        raise ValueError("X must be the trivial comonoid")
    d = Y.dim
    I = Mat.identity(f, d)
    if mul.mat.shape != (d, d * d) or unit.mat.shape != (d, 1):
        raise ValueError("multiplication/unit have wrong shapes")
    if mul.mat @ mul.mat.kron(I) != mul.mat @ I.kron(mul.mat):
        raise ValueError("input multiplication is not associative")
    if mul.mat @ unit.mat.kron(I) != I or mul.mat @ I.kron(unit.mat) != I:
        raise ValueError("input multiplication is not unital")
    M, bases = _hom_functor(X, Y)
    products: Dict[Subgroup, List[Mat]] = {}
    units: Dict[Subgroup, Mat] = {}
    for S, basis in bases.items():
        # k = k(x)k -> Y(x)Y -> Y
        products[S] = [_coords_in_basis(basis, [mul.mat @ a.kron(b) for b in basis], f)
                       for a in basis]
        units[S] = _coords_in_basis(basis, [unit.mat], f)
    return GreenFunctorData(M, products, units)


# ---------------------------------------------------------------------------
# the Burnside Green functor


def burnside_green_functor(G: FiniteGroup) -> GreenFunctorData:
    """The Burnside-ring Green functor: level H is the free module on
    H-classes of subgroups S <= H (the classes of transitive H-sets H/S);
    res / tr / conj / product all come from counting double cosets:

        res^H_K [H/S]   = sum over KhS of [K/(K n hSh^-1)]
        tr^H_K  [K/S]   = [H/S]
        c_g     [H/S]   = [gHg^-1 / gSg^-1]
        [H/S] . [H/T]   = sum over ShT of [H/(S n hTh^-1)]

    The full Mackey axiom suite and the Green axioms are run before the
    functor is returned, which carries their reports; any failure is a
    hard error.
    """
    f = QQ
    lat = G.subgroup_lattice()
    subs = lat.subgroups
    pos = lat.position
    # level H: the H-classes of subgroups of H, and each subgroup's class
    classes: Dict[Subgroup, List[Subgroup]] = {}
    class_of: Dict[Subgroup, np.ndarray] = {}
    levels: Dict[Subgroup, LevelData] = {}
    for H in subs:
        reps, class_of[H] = lat.classes_in(H)
        classes[H] = [subs[i] for i in reps]
        levels[H] = LevelData(H, len(reps), tuple(S.elements for S in classes[H]))

    def count_intersections(K: Subgroup, S: Subgroup, L: Subgroup, level: Subgroup) -> np.ndarray:
        """Over the double cosets KhS inside L: how many K n hSh^-1 fall
        in each class of the level."""
        hs, meets = lat.double_cosets(pos[K], pos[S])
        return np.bincount(class_of[level][meets[L.mask[hs]]], minlength=len(classes[level]))

    res: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    tr: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    for K, H in _containments(subs):
        clH, clK = classes[H], classes[K]
        res[(K, H)] = Mat(f, np.stack([count_intersections(K, S, H, K) for S in clH], axis=1))
        tmat = np.zeros((len(clH), len(clK)), dtype=np.int64)
        tmat[class_of[H][[pos[S] for S in clK]], np.arange(len(clK))] = 1
        tr[(K, H)] = Mat(f, tmat)
    conj: Dict[Tuple[int, Subgroup], Mat] = {}
    for g in range(G.order):
        for H in subs:
            tgt = H.conjugate_by(g)
            clH, clT = classes[H], classes[tgt]
            cmat = np.zeros((len(clT), len(clH)), dtype=np.int64)
            cmat[class_of[tgt][lat.conj[g, [pos[S] for S in clH]]], np.arange(len(clH))] = 1
            conj[(g, H)] = Mat(f, cmat)
    M = OrdinaryMackeyFunctor(G, f, levels, res, tr, conj)

    products: Dict[Subgroup, List[Mat]] = {}
    units: Dict[Subgroup, Mat] = {}
    for H in subs:
        cl = classes[H]
        r = len(cl)
        products[H] = [Mat(f, np.stack([count_intersections(S, T, H, H) for T in cl], axis=1))
                       for S in cl]
        u = np.zeros((r, 1), dtype=np.int64)
        u[[i for i, S in enumerate(cl) if S.order == H.order][0], 0] = 1
        units[H] = Mat(f, u)
    mrep = verify_mackey_axioms(M)
    if not mrep.ok:
        raise ArithmeticError("Burnside functor failed the Mackey axioms:\n" + mrep.summary())
    Gf = GreenFunctorData(M, products, units, mrep)
    Gf.green_report = verify_green_axioms(Gf)
    if not Gf.green_report.ok:
        raise ArithmeticError("Burnside functor failed the Green axioms:\n"
                              + Gf.green_report.summary())
    return Gf
