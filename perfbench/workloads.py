"""The four workloads: seeded inputs, op lists and their oracles.

An op is one in-process CLI job (`mackeykit.cli.run`) or one public
library call, looked up on its module when it runs so that the tracer's
wrappers see it.  `Op.run` is the timed call; `Op.check` compares its result
with an oracle computed by `oracle.py` and returns the problems found (an
empty list means the op is verified).  Oracle values are computed on first
use and cached, outside the timed call.

The seed relabels every group by a random bijection of its elements (the
program only ever sees the relabelled table-form spec files) and shuffles
the op order.  The op mix, and so every op id, is the same for all seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from oracle import Group, bits, cycles, p_part, perm_group, primes_dividing, relabel, table_spec

DEFAULT_SEED = 0
# pass k runs round k % ROUNDS: the op list built afresh on new relabellings
# (so no pass reuses the caches an earlier pass filled); CLI reports are
# pinned for every round at the default seed
ROUNDS = 8
WORKLOADS = ["cli-mix", "modules-fp", "modules-q", "lattice"]


def _affine_3x3() -> Tuple[int, List[List[int]]]:
    """C3^2 : C4 as affine maps of F_3^2 (translations and (x,y) -> (-y,x))."""
    pt = lambda x, y: (x % 3) + 3 * (y % 3)  # noqa: E731
    t1, t2, r = [0] * 9, [0] * 9, [0] * 9
    for x in range(3):
        for y in range(3):
            t1[pt(x, y)] = pt(x + 1, y)
            t2[pt(x, y)] = pt(x, y + 1)
            r[pt(x, y)] = pt(-y, x)
    return 9, [t1, t2, r]


def _sl23() -> Tuple[int, List[List[int]]]:
    """SL(2,3) acting on the eight non-zero vectors of F_3^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def act(m):
        return [idx[((m[0][0] * x + m[0][1] * y) % 3, (m[1][0] * x + m[1][1] * y) % 3)]
                for x, y in vecs]
    return 8, [act([[1, 1], [0, 1]]), act([[1, 0], [1, 1]])]


# groups beyond the built-ins, as permutation generators
EXTRA_GROUPS: Dict[str, Tuple[int, List[List[int]]]] = {
    "c4xc2": (6, [cycles(6, (0, 1, 2, 3)), cycles(6, (4, 5))]),
    "d10": (5, [cycles(5, (0, 1, 2, 3, 4)), cycles(5, (1, 4), (2, 3))]),
    "d12": (6, [cycles(6, (0, 1, 2, 3, 4, 5)), cycles(6, (1, 5), (2, 4))]),
    "f20": (5, [cycles(5, (0, 1, 2, 3, 4)), cycles(5, (1, 2, 4, 3))]),
    "d16": (8, [cycles(8, (0, 1, 2, 3, 4, 5, 6, 7)), cycles(8, (1, 7), (2, 6), (3, 5))]),
    "c3xs3": (6, [cycles(6, (0, 1, 2)), cycles(6, (3, 4, 5)), cycles(6, (3, 4))]),
    "sl23": _sl23(),
    "c7_c3": (7, [cycles(7, (0, 1, 2, 3, 4, 5, 6)), cycles(7, (1, 2, 4), (3, 6, 5))]),
    "s3xs3": (6, [cycles(6, (0, 1, 2)), cycles(6, (0, 1)), cycles(6, (3, 4, 5)),
                  cycles(6, (3, 4))]),
    "a4xc3": (7, [cycles(7, (0, 1, 2)), cycles(7, (0, 1), (2, 3)), cycles(7, (4, 5, 6))]),
    "c3sq_c4": _affine_3x3(),
    "c2xs4": (6, [cycles(6, (0, 1, 2, 3)), cycles(6, (0, 1)), cycles(6, (4, 5))]),
    "a5": (5, [cycles(5, (0, 1, 2, 3, 4)), cycles(5, (0, 1, 2))]),
}


@dataclass
class Op:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]


class Inputs:
    """Seeded, relabelled copies of the groups, each written as a spec file
    under `workdir` (a path relative to the checkout root, so reports name
    the same file in every checkout).

    Every call of `fresh` draws a new random bijection, so ops spread over
    many labellings: the program's cost depends on the labelling (a
    table-form group gets a greedy generating set), and a run that averages
    over many labellings varies less from seed to seed.
    """

    def __init__(self, root: str, workdir: str, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.round = 0
        self._base: Dict[str, Group] = {}
        self._drawn: Dict[str, int] = {}
        os.makedirs(os.path.join(root, workdir), exist_ok=True)

    def start_round(self, r: int) -> None:
        """Draws repeat exactly when a round is built again."""
        self.round = r
        self._drawn.clear()

    def base(self, name: str) -> Group:
        """The group in the benchmark's own labelling."""
        if name not in self._base:
            if name in EXTRA_GROUPS:
                degree, gens = EXTRA_GROUPS[name]
            else:
                path = os.path.join(self.root, "src", "mackeykit", "data", f"{name}.json")
                with open(path) as fh:
                    spec = json.load(fh)
                degree, gens = spec["degree"], spec["generators"]
            self._base[name] = Group(perm_group(degree, gens))
        return self._base[name]

    def fresh(self, name: str) -> "Relabelled":
        k = self._drawn.get(name, 0)
        self._drawn[name] = k + 1
        return Relabelled(name, f"{self.round}-{k}", self.base(name), self)


class Relabelled:
    """One relabelled copy: the bijection sigma from the base labelling and
    the spec file the program reads.  Subgroups are named by their own-code
    class index on the base table, so op ids do not depend on the seed."""

    def __init__(self, name: str, tag: str, base: Group, inputs: Inputs):
        self.name = name
        self.base = base
        self.table, self.sigma = relabel(base.t, random.Random(f"{inputs.seed}:{name}:{tag}"))
        self.path = os.path.join(inputs.workdir, f"{name}-{tag}.json")
        with open(os.path.join(inputs.root, self.path), "w") as fh:
            fh.write(table_spec(self.table, name))
        self._group: Optional[Group] = None

    @property
    def order(self) -> int:
        return self.base.n

    @property
    def group(self) -> Group:
        """The relabelled table as an own-code group."""
        if self._group is None:
            self._group = Group(self.table)
        return self._group

    def classes(self) -> List[int]:
        return self.base.subgroup_classes()

    def gens(self, mask: int) -> List[int]:
        return [self.sigma[x] for x in self.base.generators_of(mask)]

    def selector(self, mask: int) -> str:
        return ",".join(str(g) for g in self.gens(mask))

    def image(self, mask: int) -> int:
        """Base-table bitmask -> the same subgroup's bitmask after relabelling."""
        return self.mask_of(self.sigma[x] for x in bits(mask))

    def mask_of(self, elements: Iterable[int]) -> int:
        """Relabelled element list -> bitmask on the relabelled table."""
        out = 0
        for x in elements:
            out |= 1 << x
        return out

    def class_of_order(self, order: int) -> int:
        return next(m for m in self.classes() if bin(m).count("1") == order)


def _lazy(fn: Callable[[], Any]) -> Callable[[], Any]:
    box: List[Any] = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# ---------------------------------------------------------------------------
# CLI jobs


class CliOps:
    """Builds in-process CLI jobs.  Each job's result is (exit code, stdout);
    the check parses the JSON report and applies the oracle, and, for the
    default seed, compares the report's sha256 with its pin."""

    def __init__(self, pins: Optional[Dict[str, str]]):
        self.pins = pins
        self.hashes: Dict[str, str] = {}
        self.round = 0

    def op(self, op_id: str, argv: List[str], oracle: Callable[[Dict], List[str]],
           code: int = 0, status: str = "pass", reason: Optional[str] = None) -> Op:
        from mackeykit import cli
        key = f"{op_id}@{self.round}"

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.run(argv)
            return rc, buf.getvalue()

        def check(result) -> List[str]:
            rc, text = result
            problems = []
            if rc != code:
                problems.append(f"exit code {rc}, expected {code}")
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                return problems + ["report is not JSON"]
            if report.get("status") != status:
                problems.append(f"status {report.get('status')!r}, expected {status!r}")
            if reason is not None and reason not in str(report.get("reason")):
                problems.append(f"reason {report.get('reason')!r} lacks {reason!r}")
            if not problems and status == "pass":
                problems += oracle(report["payload"])
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.hashes[key] = digest
            if self.pins is not None and self.pins.get(key) != digest:
                problems.append("report differs from its pinned sha256")
            return problems

        return Op(op_id, run, check)


def _expect(label: str, got, want) -> List[str]:
    return [] if got == want else [f"{label}: got {got}, expected {want}"]


def _isocomma_oracle(g: Relabelled, K: int, H: int) -> Callable[[Dict], List[str]]:
    def expected():
        base = g.base
        Hel = bits(H)
        orders = []
        for x in base.double_coset_reps(K, H):
            conj = 0
            for h in Hel:
                conj |= 1 << base.conj(x, h)
            orders.append(bin(K & conj).count("1"))
        return sorted(orders)
    expected = _lazy(expected)

    def oracle(payload: Dict) -> List[str]:
        comps = payload["components"]
        problems = _expect("component vertex-group orders",
                           sorted(c["vertex_group_order"] for c in comps), expected())
        if not payload["counts_match"] or not all(c["isomorphic"] for c in comps):
            problems.append("a component does not match its double coset")
        return problems
    return oracle


def cli_mix(inputs: Inputs, lib: "Library", cli: CliOps) -> List[Op]:
    """How CLI users meet the package: each job reloads its group from file.
    isocomma on subgroup-class pairs of d8, q8, a4, s4 (groupoids), verify
    at p = 2, p = 3 and over Q, mackey-check with both functors (mackey),
    vertex and green-corr on S4 at p = 3, and the refusal of the decomposable
    S4 regular module at p = 3 and p = 2 (exit code 2)."""
    ops: List[Op] = []
    # isocomma on a fixed subset of subgroup-class pairs: (i, j) with
    # (i * classes + j) % stride == 0
    for name, stride in (("s4", 15), ("d8", 6), ("q8", 4), ("a4", 3)):
        cl = inputs.base(name).subgroup_classes()
        for i, K in enumerate(cl):
            for j, H in enumerate(cl):
                if (i * len(cl) + j) % stride:
                    continue
                g = inputs.fresh(name)
                ops.append(cli.op(
                    f"isocomma:{name}:{i}:{j}",
                    ["isocomma", "--group", g.path, "--left", g.selector(K),
                     "--right", g.selector(H)],
                    _isocomma_oracle(g, K, H)))
    for name, prime in (("c2", 2), ("c2", 3), ("c2", None), ("c3", 2), ("c3", 3),
                        ("c3", None), ("c4", 3), ("v4", None)):
        g = inputs.fresh(name)
        argv = ["verify", "--group", g.path] + ([] if prime is None else ["--prime", str(prime)])

        def oracle(payload, g=g):
            c = len(g.classes())
            phases = {p["name"]: p["instances"] for p in payload["phases"]}
            return (_expect("isocomma instances", phases["isocomma-decompositions"], c * c)
                    + _expect("adjunction instances", phases["adjunction-units-counits"], c))
        ops.append(cli.op(f"verify:{name}:{prime or 'Q'}", argv, oracle))
    for name, functor, prime in (("c4", "burnside", None), ("v4", "burnside", None),
                                 ("s3", "burnside", None), ("s3", "constant", None),
                                 ("a4", "constant", 2)):
        g = inputs.fresh(name)
        argv = ["mackey-check", "--group", g.path, "--functor", functor]
        if prime is not None:
            argv += ["--prime", str(prime)]

        def oracle(payload, g=g, functor=functor):
            levels = payload["levels"]
            problems = _expect("levels", len(levels), len(g.base.subgroups()))
            if functor == "constant":
                problems += _expect("constant level dims", set(levels.values()), {1})
            return problems
        ops.append(cli.op(f"mackey-check:{name}:{functor}", argv, oracle))
    for label, vertex_order in (("trivial", 3), ("perm8", 1)):
        g = inputs.fresh("s4")
        module = "trivial" if label == "trivial" else "perm:" + g.selector(g.class_of_order(8))
        ops.append(cli.op(
            f"vertex:s4:3:{label}",
            ["vertex", "--group", g.path, "--prime", "3", "--module", module],
            lambda payload, v=vertex_order: _expect("vertex order",
                                                    payload["vertex"]["order"], v)))
    # the regular module is decomposable: refused with exit code 2, after a
    # hom space whose size (and the run's peak RSS) grows with the number of
    # generators the program picks for the relabelled table, so two copies
    # per pass make that peak less a matter of one draw
    for p in (3, 2):
        g = inputs.fresh("s4")
        ops.append(cli.op(
            f"vertex:s4:{p}:regular",
            ["vertex", "--group", g.path, "--prime", str(p), "--module", "regular"],
            lambda payload: [], code=2, status="error", reason="indecomposable"))
    # Green correspondence for (S4, S3, C3) at p = 3: the trivial module's
    # correspondent is the trivial module
    g = inputs.fresh("s4")
    S3, C3 = _s3_and_c3(g.base)
    ops.append(cli.op(
        "green-corr:s4:3:trivial",
        ["green-corr", "--group", g.path, "--prime", "3", "--vertex", g.selector(C3),
         "--inside", g.selector(S3), "--module", "trivial"],
        lambda payload: (_expect("correspondent dim", payload["correspondent_dim"], 1)
                         + _expect("multiplicity", payload["correspondent_multiplicity"], 1)
                         + _expect("round trip", payload["round_trip"], True))))
    return ops


def _s3_and_c3(s4: Group) -> Tuple[int, int]:
    """A subgroup S3 of S4 and the C3 inside it (N_S4(C3) = S3)."""
    S3 = next(m for m in s4.subgroup_classes() if bin(m).count("1") == 6)
    C3 = next(m for m in s4.subgroups() if bin(m).count("1") == 3 and m & S3 == m)
    return S3, C3


LATTICE_GROUPS = ["c4xc2", "d10", "d12", "d16", "c3xs3", "f20", "c7_c3", "sl23", "s3xs3",
                  "a4xc3", "c3sq_c4", "c2xs4", "a5"]
# xburn on these (rank <= 60); d12, d16, c3xs3 and sl23 also qualify but are
# left out to keep a pass under nine seconds
XBURN_GROUPS = ["d10", "f20", "c7_c3", "c3sq_c4", "a5"]


def lattice(inputs: Inputs, lib: "Library", cli: CliOps) -> List[Op]:
    """Subgroup lattices and Burnside rings, under a tenth of the time in
    every other workload: group, tom and blocks at each prime dividing |G|
    on LATTICE_GROUPS, xburn on XBURN_GROUPS, and xburn on C4 x C2, whose
    rank 64 is refused by the cap of 60 only after every product is made."""
    ops: List[Op] = []
    for name in LATTICE_GROUPS:
        base = inputs.base(name)

        def group_oracle(payload, base=base):
            classes = base.subgroup_classes()
            return (_expect("conjugacy classes", len(payload["conjugacy_classes"]),
                            base.class_count())
                    + _expect("subgroup classes", len(payload["subgroup_classes"]), len(classes))
                    + _expect("subgroup class orders",
                              sorted(s["order"] for s in payload["subgroup_classes"]),
                              sorted(bin(m).count("1") for m in classes))
                    + _expect("element orders", sorted(payload["element_orders"]),
                              sorted(base.element_order(a) for a in range(base.n))))
        g = inputs.fresh(name)
        ops.append(cli.op(f"group:{name}", ["group", "--group", g.path], group_oracle))

        g = inputs.fresh(name)

        def tom_oracle(payload, g=g, cache={}):
            reps = tuple(g.mask_of(s["elements"]) for s in payload["subgroup_classes"])
            if reps not in cache:
                cache[reps] = g.group.marks(reps)
            return (_expect("subgroup classes", len(reps), len(g.classes()))
                    + _expect("marks", payload["marks"], cache[reps]))
        ops.append(cli.op(f"tom:{name}", ["tom", "--group", g.path], tom_oracle))
        for p in primes_dividing(base.n):
            g = inputs.fresh(name)
            ops.append(cli.op(
                f"blocks:{name}:{p}",
                ["blocks", "--group", g.path, "--prime", str(p)],
                lambda payload, n=base.n: (
                    _expect("dimension sum", payload["dimension_sum"], n)
                    + _expect("block dims", sum(b["dimension"] for b in payload["blocks"]), n))))
        g = inputs.fresh(name)
        if name == "c4xc2":  # rank 64: refused by the cap, exit code 2
            ops.append(cli.op(f"xburn:{name}", ["xburn", "--group", g.path],
                              lambda payload: [], code=2, status="error",
                              reason="rank 64 exceeds"))
        elif name in XBURN_GROUPS:
            ops.append(cli.op(
                f"xburn:{name}", ["xburn", "--group", g.path],
                lambda payload, base=base: (
                    _expect("rank", payload["rank"], base.pair_class_count())
                    + _expect("burnside subring", payload["burnside_subring_embeds"], True))))
    return ops


# ---------------------------------------------------------------------------
# library calls


def _mat_product_is(A, B, scalar: int = 1) -> bool:
    """A @ B == scalar * I, computed here with numpy integers."""
    p = A.field.p
    if p is not None:  # entries are below p, so int64 products cannot overflow
        prod = A.num.astype(np.int64) @ B.num.astype(np.int64)
        want = np.identity(prod.shape[0], dtype=np.int64) * scalar
        return prod.shape[0] == prod.shape[1] and bool(np.all((prod - want) % p == 0))
    prod = A.num.astype(object) @ B.num.astype(object)
    want = np.identity(prod.shape[0], dtype=object) * (scalar * A.den * B.den)
    return prod.shape[0] == prod.shape[1] and bool(np.all(prod == want))


class Variant:
    """One relabelled copy loaded through the library."""

    def __init__(self, rel: Relabelled):
        from mackeykit.catalog import load_group
        self.rel = rel
        self.G = load_group(rel.path)
        self._perm: Dict[Tuple[int, Any], Any] = {}

    def subgroup(self, mask: int):
        return self.G.subgroup_from_generators(self.rel.gens(mask))

    def perm(self, mask: int, field):
        from mackeykit.reps import permutation_module
        if (mask, field) not in self._perm:
            self._perm[(mask, field)] = permutation_module(self.G, self.subgroup(mask), field)
        return self._perm[(mask, field)]


class Library:
    """One round's library inputs: every op gets its own relabelled copy of
    its group, loaded before the round's pass; ops that use the subgroup
    lattice have it warmed there too."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    def copy(self, name: str, lattice: bool = False) -> Variant:
        v = Variant(self.inputs.fresh(name))
        if lattice:
            v.G.subgroups_up_to_conjugacy()
            v.G.conjugacy_classes()
        return v

    def base(self, name: str) -> Group:
        return self.inputs.base(name)

    def small_classes(self, name: str, max_index: int = 12) -> List[Tuple[int, int]]:
        base = self.base(name)
        return [(i, m) for i, m in enumerate(base.subgroup_classes())
                if base.n // bin(m).count("1") <= max_index]


def _field_name(field) -> str:
    return "Q" if field.p is None else f"F{field.p}"


def _hom_ops(lib: Library, name: str, field, stride: int) -> List[Op]:
    from mackeykit import reps
    cl = lib.small_classes(name)
    base = lib.base(name)
    ops = []
    for a, (i, K) in enumerate(cl):
        for b, (j, L) in enumerate(cl):
            if (a * len(cl) + b) % stride:
                continue
            v = lib.copy(name)
            want = _lazy(lambda K=K, L=L: base.orbital_count(
                range(base.n), base.coset_fixed(K), base.coset_fixed(L)))
            ops.append(Op(
                f"hom_space:{name}:{_field_name(field)}:{i}:{j}",
                lambda X=v.perm(K, field), Y=v.perm(L, field): reps.hom_space(X, Y),
                lambda basis, want=want: _expect("hom dimension", len(basis), want())))
    return ops


def _exchange_ops(lib: Library, name: str, field, pairs: Sequence[Tuple[int, int]],
                  projections: Sequence[int], adjunctions: Sequence[int]) -> List[Op]:
    """mackey_iso on class pairs (K, H), projection_map and unit_counit at
    classes H, all with permutation modules (regular, trivial, k[G/H])."""
    from mackeykit import reps
    from mackeykit.reps import regular_module, trivial_module
    base = lib.base(name)
    cl = base.subgroup_classes()
    ops = []
    fname = _field_name(field)
    for i, j in pairs:
        v = lib.copy(name)
        K, H = v.subgroup(cl[i]), v.subgroup(cl[j])
        N = regular_module(H.as_group()[0], field)
        count = _lazy(lambda i=i, j=j: len(base.double_coset_reps(cl[i], cl[j])))

        def check(data, N=N, H=H, count=count):
            problems = _expect("components", len(data.components), count())
            problems += _expect("dimension", data.forward.mat.shape,
                                (H.index * N.dim, H.index * N.dim))
            if not (_mat_product_is(data.forward.mat, data.backward.mat)
                    and _mat_product_is(data.backward.mat, data.forward.mat)):
                problems.append("exchange map and its inverse do not compose to 1")
            return problems
        ops.append(Op(f"mackey_iso:{name}:{fname}:{i}:{j}",
                      lambda G=v.G, K=K, H=H, N=N: reps.mackey_iso(G, K, H, N), check))
    for j in projections:
        v = lib.copy(name)
        H = v.subgroup(cl[j])
        X = v.perm(cl[j], field)
        Y = regular_module(H.as_group()[0], field)

        def check(data, X=X, Y=Y, H=H):
            n = H.index * X.dim * Y.dim
            problems = _expect("dimension", data.pi.mat.shape, (n, n))
            if not all(_mat_product_is(a.mat, b.mat) for a, b in (
                    (data.pi, data.pi_inverse), (data.pi_inverse, data.pi),
                    (data.mirror, data.mirror_inverse), (data.mirror_inverse, data.mirror))):
                problems.append("projection map and its inverse do not compose to 1")
            return problems
        ops.append(Op(f"projection_map:{name}:{fname}:{j}",
                      lambda G=v.G, H=H, X=X, Y=Y: reps.projection_map(G, H, X, Y), check))
    for j in adjunctions:
        v = lib.copy(name)
        H = v.subgroup(cl[j])
        M = v.perm(cl[-2], field)
        N = trivial_module(H.as_group()[0], field)

        def check(ad, H=H):
            problems = []
            if not _mat_product_is(ad.eps_right.mat, ad.eta_left.mat):
                problems.append("eps_right o eta_left is not 1")
            if not _mat_product_is(ad.eps_left.mat, ad.eta_right.mat, H.index):
                problems.append("eps_left o eta_right is not [G:H]")
            return problems
        ops.append(Op(f"unit_counit:{name}:{fname}:{j}",
                      lambda G=v.G, H=H, M=M, N=N: reps.unit_counit(G, H, M, N), check))
    return ops


def modules_fp(inputs: Inputs, lib: Library, cli: CliOps) -> List[Op]:
    """reps and the F_p kernel: hom_space on pairs of permutation modules,
    decompose on each, vertices, the (S4, S3, C3) Green correspondent at
    p = 3, and the exchange isomorphisms, over F_2 and F_3."""
    from mackeykit.linalg import GF
    from mackeykit import reps
    from mackeykit.reps import trivial_module
    F2, F3 = GF(2), GF(3)
    ops: List[Op] = []
    for name, field, stride in (("s4", F3, 3), ("s4", F2, 5), ("a4", F2, 2), ("a4", F3, 2),
                                ("d8", F2, 4)):
        ops += _hom_ops(lib, name, field, stride)
    for name, field in (("s4", F2), ("s4", F3), ("a4", F2), ("a4", F3), ("d8", F2)):
        for i, m in lib.small_classes(name):
            M = lib.copy(name).perm(m, field)
            p_group = name == "d8"

            def check(res, M=M, p_group=p_group):
                problems = _expect("summand dims", sum(S.dim for S in res.summands), M.dim)
                if p_group:  # modules induced from a p-group's subgroups are indecomposable
                    problems += _expect("summands", len(res.summands), 1)
                return problems
            ops.append(Op(f"decompose:{name}:{_field_name(field)}:{i}",
                          lambda M=M: reps.decompose(M), check))
    # vertices: trivial modules have a Sylow subgroup as vertex; an
    # indecomposable k[G/H] is the Scott module of H, whose vertex is a
    # Sylow p-subgroup of H
    for name, field in (("s4", F2), ("s4", F3), ("a4", F2), ("a4", F3), ("d8", F2)):
        M = trivial_module(lib.copy(name, lattice=True).G, field)
        want = p_part(lib.base(name).n, field.p)
        ops.append(Op(f"vertex:{name}:{_field_name(field)}:trivial", lambda M=M: reps.vertex(M),
                      lambda res, want=want: _expect("vertex order", res.vertex.order, want)))
    s4 = lib.base("s4").subgroup_classes()
    scott = [("d8", F2, i) for i in range(len(lib.base("d8").subgroup_classes()))]
    scott += [("s4", F2, i) for i, m in enumerate(s4) if bin(m).count("1") in (3, 6, 12)]
    for name, field, i in scott:
        m = lib.base(name).subgroup_classes()[i]
        M = lib.copy(name, lattice=True).perm(m, field)
        want = p_part(bin(m).count("1"), field.p)
        ops.append(Op(f"vertex:{name}:{_field_name(field)}:{i}", lambda M=M: reps.vertex(M),
                      lambda res, want=want: _expect("vertex order", res.vertex.order, want)))
    # Green correspondence for (S4, S3, C3) at p = 3
    v = lib.copy("s4", lattice=True)
    S3, C3 = _s3_and_c3(v.rel.base)
    H, D = v.subgroup(S3), v.subgroup(C3)
    n = trivial_module(H.as_group()[0], F3)

    def green_check(gc):
        rt = gc.round_trip
        return (_expect("correspondent dim", gc.correspondent.dim, 1)
                + _expect("multiplicity", len(gc.correspondent_indices), 1)
                + ([] if _mat_product_is(rt.retraction.mat, rt.injection.mat)
                   else ["round-trip retraction o injection is not 1"]))
    ops.append(Op("green_correspondent:s4:F3:trivial",
                  lambda G=v.G: reps.green_correspondent(G, H, D, n), green_check))
    ops += _exchange_ops(lib, "s4", F3, [(1, 4), (3, 6), (5, 8), (8, 8)], [4, 7], [])
    ops += _exchange_ops(lib, "a4", F2, [(1, 2), (2, 3)], [2], [])
    return ops


def modules_q(inputs: Inputs, lib: Library, cli: CliOps) -> List[Op]:
    """The modules-fp shapes that are defined over Q: linalg through the
    Fraction RREF.  The S4 regular endomorphism space (about 15 s as one op)
    is left out: it would not fit a run."""
    from mackeykit.linalg import QQ
    from mackeykit import mackey
    from mackeykit.reps import regular_module, trivial_module
    ops: List[Op] = []
    for name, stride in (("s4", 4), ("a4", 2), ("d8", 1)):
        ops += _hom_ops(lib, name, QQ, stride)
    ops += _exchange_ops(lib, "s4", QQ, [(1, 4), (3, 6), (5, 8)], [4, 7], [3, 5, 7])
    ops += _exchange_ops(lib, "d8", QQ, [(1, 3), (4, 5)], [3], [2])
    # the Q-field hom-pair shapes of the acceptance suite's criterion 10; a
    # level's dimension is the number of orbits of its subgroup on X x Y
    for name, xs, ys in (("c2", "triv", "reg"), ("c4", "reg", 2), ("s3", 3, 3),
                         ("d8", 4, "triv")):
        v = lib.copy(name, lattice=True)
        g = v.rel

        def mask(spec):
            if spec == "reg":
                return 1 << g.base.e
            if spec == "triv":
                return (1 << g.order) - 1
            return g.class_of_order(spec)
        mx, my = mask(xs), mask(ys)
        X, Y = v.perm(mx, QQ), v.perm(my, QQ)

        def run(X=X, Y=Y):
            M = mackey.hom_decategorify(X, Y)
            return M, mackey.verify_mackey_axioms(M)

        def check(result, g=g, mx=mx, my=my):
            M, rep = result
            fx, fy = g.group.coset_fixed(g.image(mx)), g.group.coset_fixed(g.image(my))
            problems = [] if rep.ok else ["Mackey axioms fail"]
            problems += _expect("levels", len(M.subgroups), len(g.base.subgroups()))
            for S in M.subgroups:
                want = g.group.orbital_count(S.elements, fx, fy)
                if M.levels[S].dim != want:
                    problems.append(f"level {S.elements}: dim {M.levels[S].dim}, "
                                    f"expected {want}")
            return problems
        ops.append(Op(f"hom_decategorify:{name}:Q:{xs}:{ys}", run, check))
    return ops


BUILDERS = {"cli-mix": cli_mix, "modules-fp": modules_fp, "modules-q": modules_q,
            "lattice": lattice}


class Workload:
    """A workload at one seed: `round(k)` builds the op list for pass k, in
    the same seeded order every round."""

    def __init__(self, name: str, root: str, workdir: str, seed: int,
                 pins: Optional[Dict[str, str]]):
        self.inputs = Inputs(root, os.path.join(workdir, name), seed)
        self.cli = CliOps(pins if seed == DEFAULT_SEED else None)
        self._builder = BUILDERS[name]
        self._seed = seed
        self._order: Optional[List[int]] = None

    def round(self, k: int) -> List[Op]:
        r = k % ROUNDS
        self.inputs.start_round(r)
        self.cli.round = r
        ops = self._builder(self.inputs, Library(self.inputs), self.cli)
        if self._order is None:
            self._order = list(range(len(ops)))
            random.Random(self._seed).shuffle(self._order)
        return [ops[i] for i in self._order]
