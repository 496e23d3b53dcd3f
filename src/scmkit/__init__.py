"""Exact causal inference engine over finite discrete structural causal models.

Assumptions go in as a causal graph, queries in the three-layer hierarchy go
in as text, data go in as categorical tables; out come a symbolic estimand
(or a certified refusal), a plug-in estimate with confidence, and fit
indices.  Counterfactual, mediation, missing-data and discovery tooling round
out the engine at desk scale.

The names below are loaded from their home modules on first use, so
``import scmkit`` loads no submodule and symbolic work never loads numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "graph": (
        "Admg", "CiStatement", "c_components", "d_separated", "parse_graph",
        "serialize_graph", "testable_implications",
    ),
    "expr": (
        "JointTable", "ProbTerm", "Sum", "Product", "Quotient", "One", "ONE", "Val",
        "eval_estimand", "parse_estimand", "render", "simplify",
    ),
    "scm": (
        "CounterfactualQuery", "DiscreteScm", "EndogenousVar", "ExogenousVar",
        "counterfactual_query", "intervene", "joint_counterfactual",
        "latent_projection", "observational_joint", "parse_scm", "sample",
        "serialize_scm",
    ),
    "query": ("CausalQuery", "QueryTerm", "parse_query", "query_layer"),
    "identify": (
        "Identified", "NonIdentifiable", "backdoor_sets", "identify",
        "nonidentifiability_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "ScmkitError"]


class ScmkitError(Exception):
    """Base of scmkit's refusals.  Each class keeps a builtin base as well
    (``ValueError`` or ``ArithmeticError``), and its ``exit_code`` is the
    command line's exit status: 1 for an input error, 3 when the data cannot
    support the request."""

    exit_code = 1


def _undecodable(path) -> str:
    """``line N: ...`` for the first byte of a file that UTF-8 cannot decode,
    its lines split as Python's text files split them."""
    with open(path, "rb") as fh:
        try:
            fh.read().decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            data, at = exc.object, exc.start
            # the byte is no line break, so its line is the last one counted
            return (f"line {len(data[:at + 1].splitlines())}: "
                    f"cannot decode byte 0x{data[at]:02x} as UTF-8: {exc.reason}")
    return "file changed while it was read"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(__all__ + [name for name in globals() if name.startswith("__")])


class _Package(types.ModuleType):
    """The package module, keeping an exported function bound over its
    same-named submodule.

    Importing ``scmkit.identify`` makes the import system bind that submodule
    as the package attribute ``identify``; the function ``identify`` is what
    ``scmkit.identify`` and ``from scmkit import identify`` must give.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _HOME.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
