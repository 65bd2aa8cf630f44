"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public entry points of each mackeykit layer
and `Tracer.uninstall` puts the originals back.  A timed wrapper records
calls and self time (time inside the call minus time inside wrapped
callees); a counting wrapper records calls only, for functions so hot
that timing them would swamp the measurement (their time stays with the
enclosing timed call).  Functions imported with `from .x import f` are
bound again in every importing module, so each binding is replaced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ["catalog", "groups", "linalg", "groupoids", "burnside", "reps", "mackey", "cli"]


def _field_key(args) -> str:
    return "q" if args[0].field.p is None else "fp"


# (layer, module, qualified name, metric, kind); metric None counts toward
# the layer's self time only.  kind: "time", "time_by_field" (metric split by
# Mat.field) or "count".
ENTRY_POINTS: List[Tuple[str, str, str, Optional[str], str]] = [
    ("catalog", "catalog", "load_group", "load", "time"),
    ("catalog", "catalog", "builtin_group", "load", "time"),
    ("groups", "groups", "FiniteGroup.all_subgroups", "lattice", "time"),
    ("groups", "groups", "FiniteGroup.subgroups_up_to_conjugacy", "lattice", "time"),
    ("groups", "groups", "FiniteGroup.conjugacy_classes", None, "time"),
    ("groups", "groups", "FiniteGroup.double_cosets", "double_cosets", "time"),
    ("groups", "groups", "FiniteGroup.normalizer", "normalizer", "time"),
    ("groups", "groups", "FiniteGroup.centralizer", None, "time"),
    ("groups", "groups", "FiniteGroup.left_transversal", None, "time"),
    ("groups", "groups", "FiniteGroup.conjugate_subgroup", "conjugate_subgroup", "count"),
    ("groups", "groups", "Subgroup.__post_init__", "subgroup", "count"),
    ("linalg", "linalg", "Mat.__matmul__", "matmul", "time_by_field"),
    ("linalg", "linalg", "Mat.rref", "rref", "time_by_field"),
    ("linalg", "linalg", "Mat.kron", None, "time"),
    ("linalg", "linalg", "Mat.nullspace", None, "time"),
    ("linalg", "linalg", "Mat.solve", None, "time"),
    ("linalg", "linalg", "Mat.inv", None, "time"),
    ("linalg", "linalg", "Mat.__init__", "mat", "count"),
    ("groupoids", "groupoids", "verify_isocomma_decomposition", None, "time"),
    ("groupoids", "groupoids", "isocomma", "isocomma", "time"),
    ("groupoids", "groupoids", "FiniteGroupoid.verify", "verify", "time"),
    ("groupoids", "groupoids", "skeletonize", "skeleton", "time"),
    ("groupoids", "groupoids", "find_isomorphism", None, "time"),
    ("groupoids", "groupoids", "FiniteGroupoid.compose", "compose", "count"),
    ("burnside", "burnside", "CrossedBurnsideAlgebra.__init__", "xburn", "time"),
    ("burnside", "burnside", "CrossedBurnsideAlgebra.canonical_pair", "canonical_pair", "count"),
    ("burnside", "burnside", "CrossedBurnsideAlgebra.verify_burnside_subring", None, "time"),
    ("burnside", "burnside", "CrossedBurnsideAlgebra.verify_rho_coh", "rho_coh", "time"),
    ("burnside", "burnside", "table_of_marks", "tom", "time"),
    ("burnside", "burnside", "block_decomposition", "blocks", "time"),
    ("reps", "reps", "hom_space", "hom_space", "time"),
    ("reps", "reps", "decompose", "decompose", "time"),
    ("reps", "reps", "vertex", "vertex", "time"),
    ("reps", "reps", "green_correspondent", "green", "time"),
    ("reps", "reps", "mackey_iso", "exchange", "time"),
    ("reps", "reps", "projection_map", "exchange", "time"),
    ("reps", "reps", "unit_counit", "exchange", "time"),
    ("reps", "reps", "induce", "induce", "time"),
    ("reps", "reps", "frobenius_object", "frobenius", "time"),
    ("reps", "reps", "FrobeniusObject.verify", "frobenius", "time"),
    ("reps", "reps", "is_summand", None, "time"),
    ("reps", "reps", "module_isomorphism", None, "time"),
    ("reps", "reps", "permutation_module", None, "time"),
    ("reps", "reps", "restrict", None, "time"),
    ("reps", "reps", "tensor", None, "time"),
    ("reps", "reps", "ModuleHom.__init__", "module_hom", "count"),
    ("mackey", "mackey", "burnside_green_functor", "green_functor", "time"),
    ("mackey", "mackey", "green_from_monoid", "green_functor", "time"),
    ("mackey", "mackey", "verify_mackey_axioms", "axioms", "time"),
    ("mackey", "mackey", "verify_green_axioms", "axioms", "time"),
    ("mackey", "mackey", "cohomological_check", "axioms", "time"),
    ("mackey", "mackey", "hom_decategorify", "hom_decat", "time"),
    ("cli", "cli", "run", None, "time"),
]

# the per-layer metrics reported, by name and unit; each value is read off
# the accumulated statistics by `Tracer.metrics`
PER_LAYER_METRICS: List[Tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("catalog.load_s", "s"),
        ("groups.lattice_s", "s"),
        ("groups.subgroup_new", "count"),
        ("groups.conjugate_subgroup_calls", "count"),
        ("groups.double_cosets_calls", "count"),
        ("groups.double_cosets_s", "s"),
        ("groups.normalizer_s", "s"),
        ("linalg.matmul_calls.fp", "count"),
        ("linalg.matmul_s.fp", "s"),
        ("linalg.rref_calls.fp", "count"),
        ("linalg.rref_s.fp", "s"),
        ("linalg.matmul_calls.q", "count"),
        ("linalg.matmul_s.q", "s"),
        ("linalg.rref_calls.q", "count"),
        ("linalg.rref_s.q", "s"),
        ("linalg.object_share.q", "ratio"),
        ("linalg.mat_new", "count"),
        ("groupoids.isocomma_s", "s"),
        ("groupoids.isocomma_calls", "count"),
        ("groupoids.compose_calls", "count"),
        ("groupoids.verify_s", "s"),
        ("groupoids.skeleton_s", "s"),
        ("burnside.xburn_s", "s"),
        ("burnside.canonical_pair_calls", "count"),
        ("burnside.tom_s", "s"),
        ("burnside.blocks_s", "s"),
        ("burnside.rho_coh_s", "s"),
        ("reps.hom_space_s", "s"),
        ("reps.hom_space_calls", "count"),
        ("reps.decompose_s", "s"),
        ("reps.vertex_s", "s"),
        ("reps.green_s", "s"),
        ("reps.exchange_s", "s"),
        ("reps.module_hom_new", "count"),
        ("reps.induce_s", "s"),
        ("reps.frobenius_s", "s"),
        ("mackey.green_functor_s", "s"),
        ("mackey.axioms_s", "s"),
        ("mackey.hom_decat_s", "s"),
        ("trace_overhead", "ratio"),
    ]
)


class Tracer:
    """Accumulates (calls, self seconds) per (layer, metric, field) key."""

    def __init__(self) -> None:
        self.stats: Dict[Tuple[str, Optional[str], str], list] = defaultdict(
            lambda: [0, 0.0])
        # Q-field matmul/rref calls, and those on object-dtype numerators
        self.q_calls = 0
        self.q_object_calls = 0
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ---- wrappers --------------------------------------------------------

    def _timed(self, fn: Callable, layer: str, metric: Optional[str],
               by_field: bool) -> Callable:
        stack, stats, perf = self._stack, self.stats, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                field = ""
                if by_field:
                    field = _field_key(args)
                    if field == "q":
                        tracer.q_calls += 1
                        if any(getattr(getattr(a, "num", None), "dtype", None) == object
                               for a in args):
                            tracer.q_object_calls += 1
                entry = stats[(layer, metric, field)]
                entry[0] += 1
                entry[1] += dt - child

        return wrapper

    def _counted(self, fn: Callable, layer: str, metric: Optional[str]) -> Callable:
        entry = self.stats[(layer, metric, "")]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- patching --------------------------------------------------------

    def install(self) -> None:
        for modname in {entry[1] for entry in ENTRY_POINTS}:
            importlib.import_module("mackeykit." + modname)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "mackeykit" or name.startswith("mackeykit.")}
        for layer, modname, qual, metric, kind in ENTRY_POINTS:
            home = mods["mackeykit." + modname]
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[attr]
                wrapped = (self._counted(orig, layer, metric) if kind == "count"
                           else self._timed(orig, layer, metric, kind == "time_by_field"))
                self._set(owner, attr, wrapped)
                continue
            orig = getattr(home, qual)
            wrapped = (self._counted(orig, layer, metric) if kind == "count"
                       else self._timed(orig, layer, metric, kind == "time_by_field"))
            for mod in mods.values():
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, name, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    # ---- results ---------------------------------------------------------

    def metrics(self, overhead: float) -> Dict[str, Dict[str, float]]:
        calls: Dict[str, int] = defaultdict(int)
        secs: Dict[str, float] = defaultdict(float)
        for (layer, metric, field), (n, s) in self.stats.items():
            secs[f"{layer}.self_s"] += s
            if metric is None:
                continue
            suffix = f".{field}" if field else ""
            calls[f"{layer}.{metric}_calls{suffix}"] += n
            calls[f"{layer}.{metric}_new{suffix}"] += n
            secs[f"{layer}.{metric}_s{suffix}"] += s
        share = self.q_object_calls / self.q_calls if self.q_calls else 0.0
        out = {}
        for name, unit in PER_LAYER_METRICS:
            if name == "trace_overhead":
                value = overhead
            elif name == "linalg.object_share.q":
                value = share
            elif unit == "count":
                value = calls.get(name, 0)
            else:
                value = secs.get(name, 0.0)
            out[name] = {"value": value, "unit": unit}
        return out
