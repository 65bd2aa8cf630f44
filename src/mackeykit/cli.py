"""Command-line front door: group ingestion, computation subcommands, and
verification suites with machine-readable reports.

Subcommands: group, isocomma, tom, xburn, blocks, vertex, green-corr,
mackey-check, verify.  Exit code 0 = every checked identity holds, 1 = at
least one identity fails, 2 = malformed input or a computation cap was
exceeded, 3 = an unexpected internal error (status "internal-error").  JSON
reports are deterministic (sorted keys, no timing block unless --timing is
given), so identical requests with identical seeds produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from .burnside import (
    CrossedBurnsideAlgebra,
    NotSplitOverRationals,
    block_decomposition,
    table_of_marks,
)
from .catalog import BUILTIN_NAMES, load_group
from .groupoids import verify_isocomma_decomposition
from .groups import FiniteGroup, Subgroup
from .linalg import GF, QQ, Field, Mat
from .mackey import (
    burnside_green_functor,
    cohomological_check,
    green_from_monoid,
    hom_decategorify,
    verify_green_axioms,
    verify_mackey_axioms,
)
from .reps import (
    DecompositionError,
    Module,
    _refuse_oversize,
    decompose,
    frobenius_object,
    green_correspondent,
    mackey_iso,
    permutation_module,
    projection_map,
    regular_module,
    trivial_module,
    unit_counit,
    vertex,
)

__all__ = ["main", "run"]

SCHEMA_VERSION = 1


class CliError(Exception):
    """Malformed request or exceeded cap; maps to exit code 2."""


def _parse_field(prime: Optional[int]) -> Field:
    if prime is None:
        return QQ
    return GF(prime)


def _parse_subgroup(G: FiniteGroup, spec: str) -> Subgroup:
    """A comma-separated list of generating element ids; '' selects the trivial subgroup."""
    spec = spec.strip()
    if spec == "":
        return G.trivial_subgroup()
    try:
        gens = [int(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise CliError(f"bad subgroup selector {spec!r}: {exc}") from exc
    for g in gens:
        if not 0 <= g < G.order:
            raise CliError(f"generator index {g} outside group of order {G.order}")
    return G.subgroup_from_generators(gens)


def _parse_module(G: FiniteGroup, spec: str, field: Field,
                  inside: Optional[Subgroup] = None) -> Module:
    """Module selectors: 'regular', 'trivial', or 'perm:<gens>' for the
    permutation module on cosets of the generated subgroup.  With `inside`,
    the module lives over that subgroup and perm generators are ambient
    element indices inside it."""
    base = G if inside is None else inside.as_group()[0]
    if spec == "regular":
        return regular_module(base, field)
    if spec == "trivial":
        return trivial_module(base, field)
    if spec.startswith("perm:"):
        if inside is None:
            S = _parse_subgroup(G, spec[5:])
        else:
            Hel = inside.as_group()[1]
            Ssub = _parse_subgroup(G, spec[5:])
            missing = [x for x in Ssub.elements if x not in Hel]
            if missing:
                raise CliError(f"perm generators {missing} are not inside the subgroup")
            S = base.subgroup(Hel.index(x) for x in Ssub.elements)
        return permutation_module(base, S, field)
    raise CliError(f"bad module selector {spec!r} (use regular|trivial|perm:<gens>)")


def _subgroup_payload(S: Subgroup) -> Dict:
    return {"elements": list(S.elements), "order": S.order}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, failures) where failures is a
# list of human-readable failed-identity descriptions


def _cmd_group(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    classes = G.conjugacy_classes()
    subs = G.subgroups_up_to_conjugacy()
    payload = {
        "order": G.order,
        "abelian": G.is_abelian(),
        "element_orders": [int(x) for x in G.element_orders()],
        "conjugacy_classes": [list(c) for c in classes],
        "subgroup_classes": [_subgroup_payload(S) for S in subs],
        "generators": G.generators(),
    }
    return payload, []


def _cmd_isocomma(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    K = _parse_subgroup(G, args.left)
    H = _parse_subgroup(G, args.right)
    rep = verify_isocomma_decomposition(G, K, H)
    payload = {
        "left": _subgroup_payload(K),
        "right": _subgroup_payload(H),
        "components": [
            {
                "coset_representative": c.coset_representative,
                "coset_size": c.coset_size,
                "expected_group_order": c.expected_group_order,
                "vertex_group_order": c.vertex_group_order,
                "isomorphic": c.isomorphic,
            }
            for c in rep.checks
        ],
        "counts_match": rep.counts_match,
    }
    failures = []
    if not rep.counts_match:
        failures.append("component count differs from the double-coset count")
    for c in rep.checks:
        if not (c.isomorphic and c.expected_group_order == c.vertex_group_order):
            failures.append(
                f"component at coset {c.coset_representative} is not K n gHg^-1")
    return payload, failures


def _cmd_tom(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    marks = table_of_marks(G)
    subs = G.subgroups_up_to_conjugacy()
    payload = {
        "subgroup_classes": [_subgroup_payload(S) for S in subs],
        "marks": [[int(x) for x in row] for row in marks],
    }
    return payload, []


def _cmd_xburn(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    xb = CrossedBurnsideAlgebra(G)
    payload = {
        "rank": xb.rank,
        "basis": [
            {"subgroup": list(pc.subgroup), "element": pc.element}
            for pc in xb.basis
        ],
        # structure_constants[i][j]: e_i e_j on the basis
        "structure_constants": xb.algebra.left_mult.num.transpose(0, 2, 1).tolist(),
        "burnside_subring_embeds": xb.verify_burnside_subring(),
    }
    failures = []
    if not payload["burnside_subring_embeds"]:
        failures.append("untwisted pairs do not multiply like the Burnside ring")
    if args.prime is not None:
        rho = xb.verify_rho_coh(GF(args.prime))
        payload["rho_coh"] = rho
        for key, ok in rho.items():
            if not ok:
                failures.append(f"rho_coh {key} fails over F_{args.prime}")
    return payload, failures


def _cmd_blocks(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    blocks = block_decomposition(G, GF(args.prime))
    payload = {
        "prime": args.prime,
        "count": len(blocks),
        "blocks": [
            {
                "index": b.index,
                "dimension": b.dimension,
                "idempotent_class_coefficients": b.idempotent_classes.to_jsonable(),
            }
            for b in blocks
        ],
        "dimension_sum": sum(b.dimension for b in blocks),
    }
    failures = []
    if payload["dimension_sum"] != G.order:
        failures.append("block dimensions do not sum to |G|")
    return payload, failures


def _cmd_vertex(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    field = GF(args.prime)
    M = _parse_module(G, args.module, field)
    res = vertex(M)
    payload = {
        "prime": args.prime,
        "module": args.module,
        "dim": M.dim,
        "vertex": _subgroup_payload(res.vertex),
        "relatively_projective_class_orders": sorted(
            S.order for S in res.relatively_projective_classes),
    }
    return payload, []


def _cmd_green_corr(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    field = GF(args.prime)
    D = _parse_subgroup(G, args.vertex)
    H = _parse_subgroup(G, args.inside) if args.inside else G.normalizer(D)
    n = _parse_module(G, args.module, field, inside=H)
    gc = green_correspondent(G, H, D, n, seed=args.seed)
    payload = {
        "prime": args.prime,
        "vertex": _subgroup_payload(D),
        "inside": _subgroup_payload(H),
        "module": args.module,
        "module_dim": n.dim,
        "induced_dim": gc.induced.dim,
        "correspondent_dim": gc.correspondent.dim,
        "correspondent_multiplicity": len(gc.correspondent_indices),
        "other_summand_vertex_orders": sorted(
            S.order for _, S in gc.other_vertices),
        "round_trip": gc.round_trip is not None,
    }
    failures = []
    if len(gc.correspondent_indices) != 1:
        failures.append("correspondent does not occur with multiplicity one")
    if gc.round_trip is None:
        failures.append("module is not a summand of the restricted correspondent")
    return payload, failures


def _clauses_payload(report) -> List[Dict]:
    return [
        {"name": c.name, "instances": c.instances, "failures": c.failures}
        for c in report.checks
    ]


def _cmd_mackey_check(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    failures: List[str] = []
    if args.functor == "burnside":
        try:
            Gf = burnside_green_functor(G)
        except ArithmeticError as exc:
            # construction verifies; surface the first failing identity
            return {"functor": "burnside"}, [str(exc).splitlines()[0]]
        M, mrep, grep = Gf.underlying, Gf.mackey_report, Gf.green_report
    else:
        field = _parse_field(args.prime)
        X = trivial_module(G, field)
        M = hom_decategorify(X, X)
        mrep = verify_mackey_axioms(M)
        from .reps import ModuleHom, tensor

        mul = ModuleHom(tensor(X, X), X, Mat.identity(field, 1))
        unit = ModuleHom(X, X, Mat.identity(field, 1))
        grep = verify_green_axioms(green_from_monoid(X, X, mul, unit))
    coh = cohomological_check(M)
    payload = {
        "functor": args.functor,
        "levels": {str(list(S.elements)): M.levels[S].dim for S in M.subgroups},
        "mackey_clauses": _clauses_payload(mrep),
        "green_clauses": _clauses_payload(grep),
        "cohomological": {
            "instances": coh.instances,
            "failures": coh.failures,
            "holds": coh.ok,
        },
    }
    for c in mrep.checks + grep.checks:
        for f in c.failures:
            failures.append(f"{c.name}: {f}")
    return payload, failures


def _cmd_verify(G: FiniteGroup, args) -> Tuple[Dict, List[str]]:
    """The full identity grid on one group: isocomma decompositions,
    adjunction triangles and composites, double-coset comparison and
    projection maps, Frobenius laws, crossed Burnside ring, blocks (with a
    prime), and the Burnside Mackey/Green functor axioms."""
    field = _parse_field(args.prime)
    failures: List[str] = []
    phases: List[Dict] = []
    subs = G.subgroups_up_to_conjugacy()
    for H in subs:  # the projection maps' sizes are known before any phase runs
        _refuse_oversize((H.index * H.index) ** 2, "projection map")

    def phase(name: str, instances: int) -> None:
        phases.append({"name": name, "instances": instances})

    n = 0
    for K in subs:
        for H in subs:
            n += 1
            rep = verify_isocomma_decomposition(G, K, H)
            if not rep.ok:
                failures.append(
                    f"isocomma: skeleton of K={K.elements} H={H.elements} "
                    "does not match the double-coset decomposition")
    phase("isocomma-decompositions", n)

    n = 0
    for H in subs:
        n += 1
        Hgrp = H.as_group()[0]
        M = trivial_module(G, field)
        N = trivial_module(Hgrp, field)
        try:
            adj = unit_counit(G, H, M, N)  # triangle identities hard-checked
        except ArithmeticError as exc:
            failures.append(f"adjunction: triangles at H={H.elements}: {exc}")
            continue
        sep = adj.separable_composite()
        if not sep.mat.is_identity():
            failures.append(f"adjunction: eps_r o eta_l != id at H={H.elements}")
        coh = adj.cohomological_composite()
        if coh.mat != Mat.identity(field, M.dim).scale(H.index):
            failures.append(
                f"adjunction: eps_l o eta_r != [G:H] id at H={H.elements}")
    phase("adjunction-units-counits", n)

    n = 0
    for K in subs:
        for H in subs:
            n += 1
            Hgrp = H.as_group()[0]
            try:
                mackey_iso(G, K, H, trivial_module(Hgrp, field))
            except ArithmeticError as exc:
                failures.append(
                    f"double-coset comparison at K={K.elements} H={H.elements}: {exc}")
    phase("double-coset-comparisons", n)

    n = 0
    for H in subs:
        n += 1
        Hgrp = H.as_group()[0]
        try:
            projection_map(G, H, permutation_module(G, H, field),
                           trivial_module(Hgrp, field))
        except ArithmeticError as exc:
            failures.append(f"projection map at H={H.elements}: {exc}")
    phase("projection-maps", n)

    n = 0
    for H in subs:
        for law in frobenius_object(G, H, field).verify():
            n += 1
            if not law.holds:
                failures.append(f"frobenius: {law.name} fails for cosets of {H.elements}")
    phase("frobenius-laws", n)

    xb = CrossedBurnsideAlgebra(G)  # unit/commutativity/associativity verified
    if not xb.verify_burnside_subring():
        failures.append("crossed-burnside: untwisted subring does not match marks")
    rho = xb.verify_rho_coh(field if field.p is not None else QQ)
    for key, ok in rho.items():
        if not ok:
            failures.append(f"crossed-burnside: rho_coh {key} fails")
    phase("crossed-burnside", xb.rank)

    payload: Dict = {"field": f"F_{args.prime}" if args.prime else "Q"}
    if args.prime is not None:
        blocks = block_decomposition(G, GF(args.prime))
        if sum(b.dimension for b in blocks) != G.order:
            failures.append("blocks: dimensions do not sum to |G|")
        payload["block_dimensions"] = sorted(b.dimension for b in blocks)
        phase("blocks", len(blocks))

    try:
        mrep = burnside_green_functor(G).mackey_report  # both axiom suites run inside
        for c in mrep.checks:
            for f in c.failures:
                failures.append(f"mackey-functor {c.name}: {f}")
        phase("mackey-functor-axioms", sum(c.instances for c in mrep.checks))
    except ArithmeticError as exc:
        failures.append(f"mackey-functor: {str(exc).splitlines()[0]}")
        phase("mackey-functor-axioms", 0)

    payload["phases"] = phases
    return payload, failures


# ---------------------------------------------------------------------------


_HANDLERS = {
    "group": _cmd_group,
    "isocomma": _cmd_isocomma,
    "tom": _cmd_tom,
    "xburn": _cmd_xburn,
    "blocks": _cmd_blocks,
    "vertex": _cmd_vertex,
    "green-corr": _cmd_green_corr,
    "mackey-check": _cmd_mackey_check,
    "verify": _cmd_verify,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `run` shares it."""
    top = argparse.ArgumentParser(
        prog="mackeykit",
        description="Exact verification toolkit for induction/restriction "
        "calculus over finite groups.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, prime_required: bool = False) -> None:
        p.add_argument("--group", required=True,
                       help=f"built-in name ({', '.join(BUILTIN_NAMES)}) or "
                       "path to a JSON group spec")
        p.add_argument("--prime", type=int, default=None, required=prime_required,
                       help="prime p for F_p computations")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized splitting searches")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report "
                       "(omitted by default so reports are reproducible)")

    common(sub.add_parser("group", help="load a group and report its shape"))
    p = sub.add_parser("isocomma", help="verify the isocomma skeleton against "
                       "double cosets for one subgroup pair")
    common(p)
    p.add_argument("--left", required=True, help="generators of K (comma-separated "
                   "element ids; '' for the trivial subgroup)")
    p.add_argument("--right", required=True, help="generators of H ('' for the trivial subgroup)")
    common(sub.add_parser("tom", help="table of marks"))
    common(sub.add_parser("xburn", help="crossed Burnside ring: basis, "
                          "structure constants, verification"))
    common(sub.add_parser("blocks", help="block decomposition of kG"),
           prime_required=True)
    p = sub.add_parser("vertex", help="vertex of an indecomposable module")
    common(p, prime_required=True)
    p.add_argument("--module", required=True,
                   help="regular | trivial | perm:<gens>")
    p = sub.add_parser("green-corr", help="Green correspondent of a module")
    common(p, prime_required=True)
    p.add_argument("--vertex", required=True, help="generators of the vertex D")
    p.add_argument("--inside", default=None,
                   help="generators of H >= N_G(D) (default: the normalizer)")
    p.add_argument("--module", required=True,
                   help="module over H: regular | trivial | perm:<gens>")
    p = sub.add_parser("mackey-check", help="Mackey/Green functor axiom suite")
    common(p)
    p.add_argument("--functor", choices=("burnside", "constant"), default="burnside")
    common(sub.add_parser("verify", help="run the full identity grid on a group"))
    return top


def _render_text(report: Dict) -> str:
    lines = [f"{report['subcommand']} on {report['group']['ref']} "
             f"(order {report['group']['order']}): {report['status']}"]
    if report.get("reason"):
        lines.append(f"reason: {report['reason']}")
    payload = report.get("payload") or {}
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, (int, str, bool)):
            lines.append(f"  {key}: {val}")
        elif isinstance(val, list) and all(isinstance(x, int) for x in val):
            lines.append(f"  {key}: {val}")
        else:
            lines.append(f"  {key}: ({type(val).__name__})")
    if "timing_ms" in report:
        lines.append(f"  timing_ms: {report['timing_ms']}")
    return "\n".join(lines) + "\n"


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0

    report: Dict = {"schema_version": SCHEMA_VERSION, "subcommand": args.subcommand,
                    "seed": args.seed}
    t0 = time.perf_counter()
    try:
        G = load_group(args.group)
    except FileNotFoundError as exc:
        report.update(status="error", group={"ref": args.group, "order": None},
                      payload=None, reason=f"cannot load group: {exc}")
        _emit(report, args)
        return 2
    except (ValueError, KeyError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        report.update(status="error", group={"ref": args.group, "order": None},
                      payload=None, reason=f"malformed group spec: {exc}")
        _emit(report, args)
        return 2
    report["group"] = {"ref": args.group, "order": G.order}

    if args.prime is not None and args.prime < 2:
        report.update(status="error", payload=None,
                      reason=f"--prime must be a prime, got {args.prime}")
        _emit(report, args)
        return 2

    try:
        payload, failures = _HANDLERS[args.subcommand](G, args)
        status = "pass" if not failures else "fail"
        report.update(status=status, payload=payload)
        if failures:
            report["reason"] = failures[0]
            report["failures"] = failures
        code = 0 if not failures else 1
    except CliError as exc:
        report.update(status="error", payload=None, reason=str(exc))
        code = 2
    except (NotSplitOverRationals, DecompositionError) as exc:
        report.update(status="error", payload=None,
                      reason=f"computation refused: {exc}")
        code = 2
    except ValueError as exc:
        report.update(status="error", payload=None, reason=str(exc))
        code = 2
    except ArithmeticError as exc:
        report.update(status="fail", payload=None,
                      reason=str(exc).splitlines()[0])
        code = 1
    except Exception as exc:  # a fault in mackeykit itself, reported not raised
        traceback.print_exc(file=sys.stderr)
        report.update(status="internal-error", payload=None,
                      reason=f"{type(exc).__name__}: {exc}")
        code = 3
    if args.timing:
        report["timing_ms"] = {"total": round((time.perf_counter() - t0) * 1000.0, 3)}
    _emit(report, args)
    return code


def _emit(report: Dict, args) -> None:
    if getattr(args, "format", "json") == "text":
        sys.stdout.write(_render_text(report))
    else:
        sys.stdout.write(_dumps(report) + "\n")


_ESCAPE = json.encoder.encode_basestring_ascii  # json.dumps of a str
_SCALAR = {str: _ESCAPE, int: int.__repr__, bool: lambda b: "true" if b else "false",
           type(None): lambda _: "null"}


def _dumps(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, whose `indent` means
    CPython's pure-Python encoder: containers are laid out by joins here,
    and scalars written as json writes them."""
    write = _SCALAR.get(type(obj))
    if write is not None:
        return write(obj)
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = (_ESCAPE(k if isinstance(k, str) else json.dumps(k)) + ": " + _dumps(obj[k], inner)
                 for k in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if all(type(x) is int for x in obj):
        return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + indent + "]"
    return "[" + inner + ("," + inner).join(_dumps(x, inner) for x in obj) + indent + "]"


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
