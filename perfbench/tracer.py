"""Spans around scmkit's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every module attribute
that holds it, so a call is caught where the caller looks the name up
(``scmkit.cli.bootstrap_interval``, ``scmkit.estimate.eval_estimand``, ...).
Nothing in ``src/`` changes.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs; a dotted attribute is a method on a class.
TRACED = [
    ("cli", "run"),
    ("graph", "parse_graph"),
    ("graph", "d_separated"),
    ("graph", "testable_implications"),
    ("identify", "parse_query"),
    ("identify", "identify"),
    ("expr", "eval_estimand"),
    ("expr", "simplify"),
    ("expr", "render"),
    ("estimate", "load_table"),
    ("estimate", "empirical_joint"),
    ("estimate", "plug_in"),
    ("estimate", "bootstrap_interval"),
    ("scm", "parse_scm"),
    ("scm", "joint_counterfactual"),
    ("scm", "observational_joint"),
    ("scm", "sample"),
    ("pnps", "pn_ps_exact"),
    ("pnps", "pnps_bounds"),
    ("mediation", "mediation_effects_scm"),
    ("mediation", "mediation_effects_data"),
    ("recover", "parse_mgraph"),
    ("recover", "recoverability"),
    ("recover", "recover_estimate"),
    ("fitcheck", "g_squared_ci"),
    ("fitcheck", "fit_indices"),
    ("discover", "discover_cpdag"),
    ("discover", "DataOracle.independent"),
    ("discover", "GraphOracle.independent"),
]


def _note(name: str, args: tuple, result, error: BaseException | None) -> dict | None:
    """Counts taken from a traced call's arguments, result or exception."""
    if name == "expr.eval_estimand":
        return {"cells": len(args[1].mass), "zero": type(error).__name__ == "ConditioningOnZero"}
    if error is not None:
        return None
    if name == "estimate.load_table":
        return {"rows": result.n}
    if name in ("scm.joint_counterfactual", "scm.observational_joint",
                "mediation.mediation_effects_scm"):
        return {"states": args[0].exo_state_count()}
    if name == "identify.identify":
        return {"refused": type(result).__name__ == "NonIdentifiable"}
    if name == "fitcheck.g_squared_ci":
        return {"rows": args[0].n, "used": result[3], "pooled": result[4]}
    if name.endswith(".independent"):
        return {"independent": bool(result)}
    return None


class Tracer:
    """Records (name, start, end, parent, call id, note) per traced call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.call_id = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, clock(), 0.0, parent, self.call_id, None]
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                span[5] = _note(name, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every scmkit namespace that holds a traced function."""
        homes = {name: importlib.import_module(f"scmkit.{name}") for name, _ in TRACED}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "scmkit" or n.startswith("scmkit.")]
        for mod_name, attr in TRACED:
            home = homes[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(f"{mod_name}.{meth}", fn))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self, call_ids: set[int]) -> dict[str, float]:
        """Total self time per span name: duration minus direct child spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, cid, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, cid, _) in enumerate(self.spans):
            if cid in call_ids:
                out[name] += end - start - child_time[i]
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "call", "note")
        path.write_text(
            json.dumps([dict(zip(keys, s)) for s in self.spans]), encoding="utf-8"
        )
