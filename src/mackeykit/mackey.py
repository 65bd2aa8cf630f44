"""Ordinary (1-categorical) Mackey and Green functors as finite data.

A functor here is a table: one free module per subgroup of G (all
subgroups, not just class representatives, so conjugation maps are total),
a restriction and a transfer matrix per containment K <= H, and a
conjugation matrix per pair (g, H).  Each kind of map is kept as one stack:
the exact integer numerators of all its matrices in one array, over one
common denominator (1 over F_p), read back by gathers.  A Green functor adds
one structure tensor per level, T_H[i, j, k] = the coefficient of e_k in
e_i e_j, and a unit.

`verify_mackey_axioms` checks, over every chain and every triple, the four
axioms: functoriality of restriction and transfer, functoriality of
conjugation (with inner conjugations acting trivially), compatibility of
conjugation with both maps, and the double-coset (Mackey) formula

    res^L_K tr^L_H = sum over KxH in L of tr^K_{K n xHx^-1} c_x res^H_{x^-1Kx n H}.

Each clause is a batched exact contraction over the stacks, one batch per
subgroup (per containment for the Mackey formula and the Green clauses):
products and sums go through `linalg._imatmul` and `linalg._isum_segments`,
which stay in float64 or int64 under their overflow bounds and use Python
integers beyond them; results are reduced mod p over F_p, and compared over
Q by cross-multiplying the stacks' denominators (`linalg._frac_eq`).
A clause yields one boolean per instance, in a fixed order, and only the
first FAILURE_LIST_CAP failures are described.

Transfers in the Hom-functor are the relative trace f |-> sum_t Y(t) f X(t)^-1
over a transversal, which is the composite of the pinned unit/counit pair;
every image is solved for in the echelon hom basis that `hom_space` returns.

Subgroups are the group's interned `Subgroup`s; inside the stacks a
subgroup is its id in the `SubgroupLattice`, whose `conj` table gives every
gHg^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, Subgroup
from .linalg import Field, Mat, QQ, _common, _compact, _frac_eq, _isum_segments, _mm
from .reps import Module, ModuleHom, _monoid_laws, hom_space, restrict_to

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


def _containment_table(subs: Sequence[Subgroup]) -> np.ndarray:
    """contain[k, h] is whether subs[k] <= subs[h]; its nonzero entries in
    row-major order are the containments in (K, H) order."""
    masks = np.array([S.mask for S in subs], dtype=np.float64)
    return masks @ (1.0 - masks).T == 0


# ---------------------------------------------------------------------------
# exact stacked arithmetic


def _starts(sizes: Sequence[int]) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=np.int64)
    return np.cumsum(sizes) - sizes


class _Stack:
    """One kind of structure map: the integer numerators of all its
    matrices, row-major one after another in one array that ends in a zero,
    over one common denominator.  Block (i, j) begins at start[i, j] and is
    nr[i, j] x nc[i, j] (0 x 0 where there is none); `shape` holds the three
    tables side by side."""

    def __init__(self, parts: Sequence[np.ndarray], den: int, start: np.ndarray,
                 nr: np.ndarray, nc: np.ndarray, p: Optional[int]):
        flat = np.concatenate([np.asarray(a).ravel() for a in parts]
                              + [np.zeros(1, dtype=np.int64)])
        if p is not None:
            flat = (flat % p).astype(np.int64)
        self.flat = _compact(flat) if flat.dtype == object else flat.astype(np.int64)
        self.den = den
        self.shape = np.stack(np.broadcast_arrays(start, nr, nc), axis=-1)

    def blocks(self, i, j, dr: int, dc: int) -> np.ndarray:
        """The blocks (i, j), with i and j broadcast as index arrays, each
        zero-padded to dr x dc."""
        m = self.shape[i, j][..., None, None, :]
        s, r, c = m[..., 0], m[..., 1], m[..., 2]
        a, b = np.arange(dr)[:, None], np.arange(dc)
        return self.flat[np.where((a < r) & (b < c), s + a * c + b, -1)]

    def block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j) itself, a view of the stack."""
        s, r, c = (int(v) for v in self.shape[i, j])
        return self.flat[s:s + r * c].reshape(r, c)

    def mat(self, field: Field, i: int, j: int) -> Mat:
        return Mat(field, self.block(i, j).copy(), self.den)


@dataclass
class LevelData:
    subgroup: Subgroup
    dim: int
    labels: Tuple


class OrdinaryMackeyFunctor:
    """A Mackey functor as data; the equations live in verify_mackey_axioms.

    It is built from a level at every subgroup and matrices keyed by
    subgroups: `res[(K, H)]` (dim K x dim H) and `tr[(K, H)]` (dim H x
    dim K) for every K <= H, and `conj[(g, H)]` for every g and H, between
    levels of equal dimension.  The maps are kept as three stacks, which
    `res`, `tr` and `conj` read back as read-only mappings of `Mat` copies:
    snapshots taken at construction, so editing a dict passed in, or one of
    the `Mat`s read back, changes neither the functor nor its verdicts.
    """

    def __init__(
        self,
        group: FiniteGroup,
        field: Field,
        levels: Dict[Subgroup, LevelData],
        res: Dict[Tuple[Subgroup, Subgroup], Mat],
        tr: Dict[Tuple[Subgroup, Subgroup], Mat],
        conj: Dict[Tuple[int, Subgroup], Mat],
    ):
        lat = group.subgroup_lattice()
        subs = lat.subgroups
        if set(levels) != set(subs):
            raise ValueError("a functor needs one level at every subgroup")
        dims = [levels[S].dim for S in subs]
        rs, ts = [], []
        for k, h in zip(*np.nonzero(_containment_table(subs))):
            K, H = subs[k], subs[h]
            r, t = res.get((K, H)), tr.get((K, H))
            if r is None or t is None:
                raise ValueError(f"missing maps for {K.elements} <= {H.elements}")
            if r.shape != (dims[k], dims[h]):
                raise ValueError("restriction matrix has wrong shape")
            if t.shape != (dims[h], dims[k]):
                raise ValueError("transfer matrix has wrong shape")
            rs.append(r)
            ts.append(t)
        cs = []
        for h, H in enumerate(subs):
            for g in range(group.order):
                c = conj.get((g, H))
                if c is None:
                    raise ValueError(f"missing conjugation ({g}, {H.elements})")
                if c.shape != (dims[lat.conj[g, h]], dims[h]) or dims[lat.conj[g, h]] != dims[h]:
                    raise ValueError("conjugation matrix has wrong shape")
                cs.append(c)
        (rs, rd), (ts, td), (cs, cd) = _common(rs), _common(ts), _common(cs)
        G = group.order
        cs = [np.stack(cs[h * G:(h + 1) * G]) for h in range(len(subs))]
        self._build(group, field, levels, rs, rd, ts, td, cs, cd)

    @classmethod
    def _of(cls, group: FiniteGroup, field: Field, levels: Dict[Subgroup, LevelData],
            res: List[np.ndarray], tr: List[np.ndarray], conj: List[np.ndarray]
            ) -> "OrdinaryMackeyFunctor":
        """The functor of integer blocks: res and tr one per containment in
        (K, H) order, conj one (|G|, d, d) stack per subgroup."""
        M = cls.__new__(cls)
        M._build(group, field, levels, res, 1, tr, 1, conj, 1)
        return M

    def _build(self, group, field, levels, res, res_den, tr, tr_den, conj, conj_den) -> None:
        lat = group.subgroup_lattice()
        self.group, self.field, self.levels = group, field, levels
        self.subgroups = list(lat.subgroups)
        self.position = lat.position
        n, p = len(self.subgroups), field.p
        self._dims = dims = np.array([levels[S].dim for S in self.subgroups], dtype=np.int64)
        self._contain = _containment_table(self.subgroups)
        self._pairs = np.nonzero(self._contain)
        self._cj = lat.conj
        self.containments = [(self.subgroups[k], self.subgroups[h]) for k, h in zip(*self._pairs)]
        rows, cols = dims[:, None] * self._contain, dims * self._contain
        start = np.zeros((n, n), dtype=np.int64)
        start[self._pairs] = _starts([a.size for a in res])
        self._res = _Stack(res, res_den, start, rows, cols, p)
        start[self._pairs] = _starts([a.size for a in tr])
        self._tr = _Stack(tr, tr_den, start, cols, rows, p)
        sq = np.broadcast_to(dims, (group.order, n))
        start = _starts([a.size for a in conj]) + np.arange(group.order)[:, None] * dims ** 2
        self._conj = _Stack(conj, conj_den, start, sq, sq, p)

    def level(self, S: Subgroup) -> LevelData:
        return self.levels[S]

    @cached_property
    def res(self) -> Mapping[Tuple[Subgroup, Subgroup], Mat]:
        return MappingProxyType({KH: self._res.mat(self.field, k, h)
                                 for KH, k, h in zip(self.containments, *self._pairs)})

    @cached_property
    def tr(self) -> Mapping[Tuple[Subgroup, Subgroup], Mat]:
        return MappingProxyType({KH: self._tr.mat(self.field, k, h)
                                 for KH, k, h in zip(self.containments, *self._pairs)})

    @cached_property
    def conj(self) -> Mapping[Tuple[int, Subgroup], Mat]:
        return MappingProxyType({(g, H): self._conj.mat(self.field, g, h)
                                 for g in range(self.group.order)
                                 for h, H in enumerate(self.subgroups)})


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_clause(name: str, segments) -> CheckResult:
    """Run one clause: `segments` yields (ok, describe) pairs in instance
    order, `ok` one boolean per instance and `describe(i)` the text of its
    i-th instance; the first FAILURE_LIST_CAP failures are described."""
    count, fails = 0, []
    for ok, describe in segments:
        ok = np.asarray(ok, dtype=bool).ravel()
        count += ok.size
        fails += [describe(int(i)) for i in np.flatnonzero(~ok)[:FAILURE_LIST_CAP - len(fails)]]
    return CheckResult(name, count, fails)


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


def _dmax(dims: np.ndarray) -> int:
    return int(dims.max(initial=0))


_BATCH_ENTRIES = 1 << 18


def _parts(count: int, entries: int) -> List[np.ndarray]:
    """Consecutive index batches covering range(count), with at most
    _BATCH_ENTRIES / entries items in each (and at least one)."""
    step = max(1, _BATCH_ENTRIES // max(entries, 1))
    return [np.arange(i, min(i + step, count)) for i in range(0, count, step)]


def verify_mackey_axioms(M: OrdinaryMackeyFunctor) -> MackeyAxiomReport:
    """Exhaustive check of the four Mackey-functor axioms over all chains,
    conjugation pairs, and double-coset triples."""
    G, p = M.group, M.field.p
    lat = G.subgroup_lattice()
    subs, dims, contain, cj = M.subgroups, M._dims, M._contain, M._cj
    R, T, C = M._res, M._tr, M._conj
    n, order = len(subs), G.order
    els = [S.elements for S in subs]
    gs = np.arange(order)
    pairs = list(zip(*M._pairs))

    def identity_maps():
        D = _dmax(dims)
        ids = np.arange(n)
        # the identity of each level, padded
        eye = (np.arange(D)[:, None] == np.arange(D)) & (np.arange(D) < dims[:, None, None])
        res_ok = _frac_eq(R.blocks(ids, ids, D, D), R.den, eye, 1).all(axis=(1, 2))
        tr_ok = _frac_eq(T.blocks(ids, ids, D, D), T.den, eye, 1).all(axis=(1, 2))
        for h, H in enumerate(subs):
            c_ok = _frac_eq(C.blocks(np.array(H.elements), h, D, D), C.den, eye[h], 1).all(axis=(1, 2))
            yield (np.concatenate([[res_ok[h], tr_ok[h]], c_ok]),
                   lambda i, H=H: (f"res at {H.elements}", f"tr at {H.elements}")[i] if i < 2
                   else f"c_{H.elements[i - 2]} on {H.elements}")

    # chains K <= L <= H, in (K, L, H) order
    chain = contain[:, :, None] & contain[None, :, :]
    res_ok3 = np.ones((n, n, n), dtype=bool)
    tr_ok3 = np.ones((n, n, n), dtype=bool)
    for l in range(n):
        ks, hs = np.flatnonzero(contain[:, l]), np.flatnonzero(contain[l])
        dk, dh, dl = _dmax(dims[ks]), _dmax(dims[hs]), dims[l]
        kh = (ks[:, None], hs)
        prod = _mm(R.blocks(ks, l, dk, dl)[:, None], R.blocks(l, hs, dl, dh)[None], p)
        ok = _frac_eq(prod, R.den ** 2, R.blocks(*kh, dk, dh), R.den)
        res_ok3[ks[:, None], l, hs] = ok.all(axis=(2, 3))
        prod = _mm(T.blocks(l, hs, dh, dl)[None], T.blocks(ks, l, dl, dk)[:, None], p)
        ok = _frac_eq(prod, T.den ** 2, T.blocks(*kh, dh, dk), T.den)
        tr_ok3[ks[:, None], l, hs] = ok.all(axis=(2, 3))
    chains = np.transpose(np.nonzero(chain))

    def chain_text(kind):
        return lambda i: "{} {}<={}<={}".format(kind, *(els[s] for s in chains[i]))

    # conjugation: per subgroup H, for all pairs (h, g), and per containment
    # K <= H for all g
    conj_ok = np.ones((n, order, order), dtype=bool)    # [H, h, g]
    cr_ok = np.ones((n, n, order), dtype=bool)
    ct_ok = np.ones((n, n, order), dtype=bool)
    for h in range(n):
        d = dims[h]
        CH = C.blocks(gs, h, d, d)                            # c_g on H
        for hs in _parts(order, order * d * d):
            lhs = _mm(C.blocks(gs, cj[hs, h][:, None], d, d), CH[hs, None], p)  # c_g c_h
            conj_ok[h, hs] = _frac_eq(lhs, C.den ** 2, CH[G.table.T[hs]], C.den).all(axis=(2, 3))
        inner = np.flatnonzero(contain[:, h])
        dk = _dmax(dims[inner])
        for ks in _parts(len(inner), order * dk * max(dk, d)):
            ks = inner[ks]
            CK = C.blocks(gs, ks[:, None], dk, dk)            # [K, g]: c_g on K
            moved = (cj[:, ks].T, cj[:, h])                   # gKg^-1 <= gHg^-1
            lhs = _mm(CK, R.blocks(ks, h, dk, d)[:, None], p)
            cr_ok[ks, h] = (lhs == _mm(R.blocks(*moved, dk, d), CH, p)).all(axis=(2, 3))
            lhs = _mm(CH, T.blocks(ks, h, d, dk)[:, None], p)
            ct_ok[ks, h] = (lhs == _mm(T.blocks(*moved, d, dk), CK, p)).all(axis=(2, 3))

    def conj_text(kind):
        def text(i):
            c, g = divmod(i, order)
            K, H = pairs[c]
            return f"c_{g} {kind} {els[K]}<={els[H]}"
        return text

    # the Mackey formula: per K, the terms tr c_x res of every double coset
    # KxH, read off the lattice's records; then per L >= K the sums over
    # K\L/H for every H <= L
    D, every = _dmax(dims), np.arange(n)
    mk_ok = np.ones((n, n, n), dtype=bool)   # [L, K, H]
    for k in range(n):
        recs = [lat.double_cosets(k, h) for h in range(n)]
        th = np.repeat(every, [len(xs) for xs, _ in recs])
        tx = np.concatenate([xs for xs, _ in recs])
        ta = np.concatenate([a for _, a in recs])             # K n xHx^-1
        tb = cj[G.inverse[tx], ta]                            # x^-1Kx n H
        dk, da = dims[k], _dmax(dims[ta])
        terms = _mm(_mm(T.blocks(ta, k, dk, da), C.blocks(tx, tb, da, da), p),
                    R.blocks(tb, th, da, D), p)
        above = np.flatnonzero(contain[k])
        for ls in _parts(len(above), n * D * D):
            ls = above[ls]
            dl = _dmax(dims[ls])
            lhs = _mm(R.blocks(k, ls, dk, dl)[:, None], T.blocks(every, ls[:, None], dl, D), p)
            for l, lhs_l in zip(ls, lhs):
                sel = contain[th, l] & subs[l].mask[tx]       # K\L/H for every H <= L
                hs, first = np.unique(th[sel], return_index=True)
                rhs = _isum_segments(terms[sel], first)
                if p is not None:
                    rhs %= p
                mk_ok[l, k, hs] = _frac_eq(lhs_l[hs], R.den * T.den,
                                      rhs, T.den * C.den * R.den).all(axis=(1, 2))
    triples = np.transpose(np.nonzero(contain.T[:, :, None] & contain.T[:, None, :]))

    def mackey_text(i):
        L, K, H = (els[s] for s in triples[i])
        return f"mackey L={L} K={K} H={H}"

    return MackeyAxiomReport([
        _run_clause("identity-maps", identity_maps()),
        _run_clause("restriction-functoriality", [(res_ok3[chain], chain_text("res"))]),
        _run_clause("transfer-functoriality", [(tr_ok3[chain], chain_text("tr"))]),
        _run_clause("conjugation-functoriality", [(conj_ok, lambda i: "c_{2} c_{1} on {0}".format(
            els[i // order ** 2], *divmod(i % order ** 2, order)))]),
        _run_clause("conjugation-restriction-compatibility",
                    [(cr_ok[contain], conj_text("res"))]),
        _run_clause("conjugation-transfer-compatibility",
                    [(ct_ok[contain], conj_text("tr"))]),
        _run_clause("mackey-formula",
                    [(mk_ok[contain.T[:, :, None] & contain.T[:, None, :]], mackey_text)]),
    ])


def cohomological_check(M: OrdinaryMackeyFunctor) -> CheckResult:
    """tr o res = [H:K] . id at every containment; the report lists failures
    (a functor need not be cohomological — the Burnside one is not)."""
    R, T, p = M._res, M._tr, M.field.p
    orders = np.array([S.order for S in M.subgroups], dtype=np.int64)
    ok = np.ones(M._contain.shape, dtype=bool)
    for h, d in enumerate(M._dims):
        ks = np.flatnonzero(M._contain[:, h])
        dk = _dmax(M._dims[ks])
        prod = _mm(T.blocks(ks, h, d, dk), R.blocks(ks, h, dk, d), p)
        want = (orders[h] // orders[ks])[:, None, None] * np.eye(d, dtype=np.int64)
        ok[ks, h] = _frac_eq(prod, T.den * R.den, want if p is None else want % p, 1).all(axis=(1, 2))

    def text(i):
        K, H = M.containments[i]
        return f"tr res at {K.elements}<={H.elements} != {H.order // K.order} id"
    return _run_clause("cohomological", [(ok[M._contain], text)])


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
    lat = G.subgroup_lattice()
    subs, cj = lat.subgroups, lat.conj
    bases: Dict[Subgroup, List[Mat]] = {}
    levels: Dict[Subgroup, LevelData] = {}
    for S in subs:
        hs = hom_space(restrict_to(X, S), restrict_to(Y, S))
        bases[S] = [h.mat for h in hs]
        levels[S] = LevelData(S, len(hs), tuple(range(len(hs))))
    res: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    tr: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    transversals = {K: G.left_transversal(K)[0] for K in subs}
    for k, h in zip(*np.nonzero(_containment_table(subs))):
        K, H = subs[k], subs[h]
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
        for h, H in enumerate(subs):
            conj[(g, H)] = _coords_in_basis(
                bases[subs[cj[g, h]]], [Y.action(g) @ b @ X.action_inv(g) for b in bases[H]], f)
    return OrdinaryMackeyFunctor(G, f, levels, res, tr, conj), bases


# ---------------------------------------------------------------------------
# Green functors


class GreenFunctorData:
    """A Mackey functor with a unital ring at every level.

    It is built from `products[H]`, the matrices of left multiplication by
    each basis element of level H, and `units[H]`, the unit columns.  Level
    H keeps one structure tensor T_H[i, j, k] (the coefficient of e_k in
    e_i e_j) and a unit vector, each kind over one common denominator;
    `products` and `units` read them back as read-only snapshots of `Mat`s.
    """

    def __init__(self, underlying: OrdinaryMackeyFunctor, products: Dict[Subgroup, List[Mat]],
                 units: Dict[Subgroup, Mat], mackey_report: Optional["MackeyAxiomReport"] = None,
                 green_report: Optional["MackeyAxiomReport"] = None):
        subs = underlying.subgroups
        ls, den = _common([L for S in subs for L in products[S]])
        us, uden = _common([units[S] for S in subs])
        at = np.cumsum([0, *underlying._dims])
        tensors = [np.stack([L.T for L in ls[a:b]]) if b > a else np.zeros((0, 0, 0), np.int64)
                   for a, b in zip(at, at[1:])]
        self._build(underlying, tensors, den, [u[:, 0] for u in us], uden,
                    mackey_report, green_report)

    @classmethod
    def _of(cls, underlying: OrdinaryMackeyFunctor, tensors: List[np.ndarray],
            units: List[np.ndarray]) -> "GreenFunctorData":
        """Integer structure tensors and units, one per subgroup id."""
        Gf = cls.__new__(cls)
        Gf._build(underlying, tensors, 1, units, 1, None, None)
        return Gf

    def _build(self, underlying, tensors, den, units, unit_den, mackey_report, green_report):
        self.underlying = underlying
        self._T, self._T_den = tensors, den
        self._u, self._u_den = units, unit_den
        self.mackey_report = mackey_report
        self.green_report = green_report

    @cached_property
    def products(self) -> Mapping[Subgroup, Tuple[Mat, ...]]:
        f = self.underlying.field
        return MappingProxyType({S: tuple(Mat(f, Ti.T.copy(), self._T_den) for Ti in T)
                                 for S, T in zip(self.underlying.subgroups, self._T)})

    @cached_property
    def units(self) -> Mapping[Subgroup, Mat]:
        f = self.underlying.field
        return MappingProxyType({S: Mat(f, u[:, None].copy(), self._u_den)
                                 for S, u in zip(self.underlying.subgroups, self._u)})

    def product(self, H: Subgroup, u: Mat, v: Mat) -> Mat:
        """u v at level H: the sum over i, j of u_i v_j T_H[i, j, :]."""
        M = self.underlying
        T, p = self._T[M.position[H]], M.field.p
        d = T.shape[0]
        uT = _mm(u.num.T, T.reshape(d, d * d), p).reshape(d, d)
        return Mat(M.field, _mm(v.num.T, uT, p).T, u.den * v.den * self._T_den)


def verify_green_axioms(Gf: GreenFunctorData) -> MackeyAxiomReport:
    """Per-level ring laws, restrictions as unital ring maps, and both
    Frobenius (projection) formulas on all containments and basis pairs."""
    M = Gf.underlying
    p, dims, R, Tr = M.field.p, M._dims, M._res, M._tr
    Ts, td, us, ud = Gf._T, Gf._T_den, Gf._u, Gf._u_den

    def level_rings():
        for H, T, u, d in zip(M.subgroups, Ts, us, dims):
            flat = T.reshape(d, d * d)
            one = np.eye(d, dtype=np.int64)
            left = _mm(u[None], flat, p).reshape(d, d)                              # u e_j
            right = _mm(u[None], T.transpose(1, 0, 2).reshape(d, d * d), p).reshape(d, d)  # e_j u
            yield ((_frac_eq(left, ud * td, one, 1) & _frac_eq(right, ud * td, one, 1)).all(axis=1),
                   lambda j, H=H: f"unit at {H.elements} col {j}")
            lhs = _mm(T.reshape(d * d, d), flat, p)                                 # (e_i e_j) e_k
            rhs = _mm(T.reshape(d * d, d)[None], T, p)                             # e_i (e_j e_k)
            yield ((lhs.reshape(d, d, d, d) == rhs.reshape(d, d, d, d)).all(axis=3),
                   lambda i, H=H, d=d: "assoc at {} ({},{},{})".format(
                       H.elements, i // (d * d), i // d % d, i % d))

    res_segments, frobenius_segments = [], []
    for (K, H), k, h in zip(M.containments, *M._pairs):
        dk, dh = dims[k], dims[h]
        r, t = R.block(k, h), Tr.block(k, h)
        TK, TH = Ts[k], Ts[h]
        unit = _frac_eq(_mm(r, us[h][:, None], p), R.den * ud, us[k][:, None], ud).all()
        lhs = _mm(TH.reshape(dh * dh, dh), r.T, p).reshape(dh, dh, dk)   # r(e_i e_j)
        rx = _mm(r.T, TK.reshape(dk, dk * dk), p).reshape(dh, dk, dk)   # r(e_i) e_j
        rhs = _mm(r.T[None], rx, p)                                      # r(e_i) r(e_j)
        hom = _frac_eq(lhs, R.den * td, rhs, R.den ** 2 * td).all(axis=2)
        res_segments.append((np.concatenate([[unit], hom.ravel()]),
                             lambda i, K=K, H=H, dh=dh: f"res unit {K.elements}<={H.elements}"
                             if i == 0 else "res hom {}<={} ({},{})".format(
                                 K.elements, H.elements, *divmod(i - 1, dh))))
        xr = _mm(r.T, TK.transpose(1, 0, 2).reshape(dk, dk * dk), p).reshape(dh, dk, dk)
        # t(r(x) y) = x t(y) and t(y r(x)) = t(y) x, with xr[i, j] = e_j r(e_i)
        left = _frac_eq(_mm(rx, t.T, p), R.den * td * Tr.den, _mm(t.T[None], TH, p), Tr.den * td)
        right = _frac_eq(_mm(xr, t.T, p), R.den * td * Tr.den,
                    _mm(t.T[None], TH.transpose(1, 0, 2), p), Tr.den * td)
        frobenius_segments.append((np.stack([left.all(axis=2), right.all(axis=2)], axis=2),
                                   lambda i, K=K, H=H, dk=dk: "frobenius-{} {}<={} ({},{})".format(
                                       ("left", "right")[i % 2], K.elements, H.elements,
                                       *divmod(i // 2, dk))))

    return MackeyAxiomReport([
        _run_clause("level-ring-laws", level_rings()),
        _run_clause("restriction-ring-homomorphism", res_segments),
        _run_clause("frobenius-formulas", frobenius_segments),
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
    if mul.mat.shape != (d, d * d) or unit.mat.shape != (d, 1):
        raise ValueError("multiplication/unit have wrong shapes")
    assoc, unital = _monoid_laws(mul.mat.num.reshape(d, d, d), mul.mat.den,
                                 unit.mat.num, unit.mat.den, f.p)
    if not assoc:
        raise ValueError("input multiplication is not associative")
    if not unital:
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
    lat = G.subgroup_lattice()
    subs, cj = lat.subgroups, lat.conj
    # level H: the H-classes of subgroups of H, and each subgroup's class
    reps, class_of = zip(*(lat.classes_in(H) for H in subs))
    class_of = np.stack(class_of)        # [h, i]: class of S_i in level h, -1 outside H
    dims = [len(r) for r in reps]
    levels = {H: LevelData(H, d, tuple(subs[i].elements for i in r))
              for H, d, r in zip(subs, dims, reps)}

    def count_intersections(k: int, s: int, l: int, level: int) -> np.ndarray:
        """Over the double cosets KhS inside L: how many K n hSh^-1 fall
        in each class of the level."""
        hs, meets = lat.double_cosets(k, s)
        return np.bincount(class_of[level][meets[subs[l].mask[hs]]], minlength=dims[level])

    res, tr = [], []
    for k, h in zip(*np.nonzero(_containment_table(subs))):
        res.append(np.stack([count_intersections(k, s, h, k) for s in reps[h]], axis=1))
        tmat = np.zeros((dims[h], dims[k]), dtype=np.int64)
        tmat[class_of[h][reps[k]], np.arange(dims[k])] = 1
        tr.append(tmat)
    conj = []
    for h in range(len(subs)):
        cmat = np.zeros((G.order, dims[h], dims[h]), dtype=np.int64)
        cmat[np.arange(G.order)[:, None], class_of[cj[:, h][:, None], cj[:, reps[h]]],
             np.arange(dims[h])] = 1
        conj.append(cmat)
    M = OrdinaryMackeyFunctor._of(G, QQ, levels, res, tr, conj)

    tensors = [np.array([[count_intersections(s, t, h, h) for t in r] for s in r],
                        dtype=np.int64).reshape(d, d, d)
               for h, (r, d) in enumerate(zip(reps, dims))]
    units = [(r == h).astype(np.int64) for h, r in enumerate(reps)]
    mrep = verify_mackey_axioms(M)
    if not mrep.ok:
        raise ArithmeticError("Burnside functor failed the Mackey axioms:\n" + mrep.summary())
    Gf = GreenFunctorData._of(M, tensors, units)
    Gf.mackey_report = mrep
    Gf.green_report = verify_green_axioms(Gf)
    if not Gf.green_report.ok:
        raise ArithmeticError("Burnside functor failed the Green axioms:\n"
                              + Gf.green_report.summary())
    return Gf
