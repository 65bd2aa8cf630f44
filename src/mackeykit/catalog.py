"""Built-in example groups, shipped as JSON specs under mackeykit/data.

A group spec is a JSON object with either permutation generators
({"degree": n, "generators": [[...], ...]}) or a raw multiplication table
({"table": [[...], ...]}) of JSON integers (no floats, bools or strings),
and an optional "name" and "names" (one label per element, table form only).
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import Dict

from .groups import FiniteGroup, group_from_generators, group_from_table

__all__ = ["BUILTIN_NAMES", "builtin_group", "group_from_spec", "load_group"]

BUILTIN_NAMES = ["c2", "c3", "c4", "v4", "s3", "d8", "q8", "a4", "s4"]


def group_from_spec(spec: Dict) -> FiniteGroup:
    if "generators" in spec:
        return group_from_generators(spec["degree"], spec["generators"])
    if "table" in spec:
        return group_from_table(spec["table"], names=spec.get("names"))
    raise ValueError("group spec needs either 'generators' or 'table'")


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroup:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown built-in group {name!r}; choices: {', '.join(BUILTIN_NAMES)}")
    text = resources.files("mackeykit.data").joinpath(f"{name}.json").read_text()
    return group_from_spec(json.loads(text))


def load_group(ref: str) -> FiniteGroup:
    """Resolve a group reference: a built-in name or a path to a spec file."""
    if ref in BUILTIN_NAMES:
        return builtin_group(ref)
    with open(ref) as fh:
        return group_from_spec(json.load(fh))
