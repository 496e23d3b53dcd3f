"""Estimand code runs in constant stack depth.

``expr``, ``identify`` and ``evaluate`` walk estimands through ``expr._walk``,
which keeps its frames on an explicit stack, so the depth of an estimand
never meets the interpreter's recursion limit.  One test runs deep estimands
under a tiny limit; another reads the source of the three modules and checks
that no function reaches itself through calls, so recursion cannot come back
unnoticed.
"""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scmkit"

DEEP = r'''
import sys

from scmkit.expr import JointTable, eval_estimand, parse_estimand, render, simplify
from scmkit.graph import parse_graph
from scmkit.identify import identify, parse_query

sys.setrecursionlimit(200)
n = 1200
names = [f"V{i}" for i in range(n)]
g = parse_graph("".join(f"var {v}\n" for v in names)
                + "".join(f"{a} -> {b}\n" for a, b in zip(names, names[1:])))
e = simplify(identify(g, parse_query(f"P(V{n - 1}|do(V{n - 2}))")).estimand)
text = render(e)
assert parse_estimand(text) is e and render(parse_estimand(text)) == text
others = sorted(f"v{i}" for i in range(n - 2))
given = ",".join(sorted(others + [f"v{n - 2}"]))
assert text == "".join(f"sum_{{{v}}} P({v}) * " for v in others) + f"P(v{n - 1}|{given})"

nested = "(" * 2000 + "P(x)" + ")" * 2000
assert render(simplify(parse_estimand(nested))) == "P(x)"
right = "P(x) / (" * 1999 + "P(x) / P(y)" + ")" * 1999
assert render(simplify(parse_estimand(right))) == right
left = "/".join(["P(x)"] * 2000)
assert render(simplify(parse_estimand(left))) == "1" + " / P(x)" * 1998

t = JointTable(("X",), {"X": ("0", "1")}, {("0",): 0.5, ("1",): 0.5})
alternating = "P(x) / (" * 1000 + "P(x)" + ")" * 1000
assert eval_estimand(parse_estimand(alternating), t, {"X": "0"}) == 0.5
assert eval_estimand(parse_estimand(nested), t, {"X": "0"}) == 0.5
print("ok")
'''


def test_deep_estimands_run_under_a_small_recursion_limit():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", DEEP], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"


# --- call-cycle guard --------------------------------------------------------------

# a method reached through anything but ``self``, ``cls`` or a class name is
# matched by name to every method so named, except the names of builtin
# string and container methods
BUILTIN_METHODS = set().union(*(dir(t) for t in (str, list, tuple, dict, set, frozenset)))


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Each function's references to the functions and methods of
    ``sources`` (module name -> source text), by qualified name.

    A reference counts whether or not it is called, so a function passed as
    a callback is an edge too; a class name stands for its ``__new__`` and
    ``__init__``.  Names bound by imports or builtins lead nowhere.
    """
    defs = []  # (qualified name, def, module, class, enclosing function)
    methods: dict[str, dict[str, str]] = {}
    bases: dict[str, list[str]] = {}
    top: dict[str, str] = {}
    nested: dict[str, dict[str, str]] = {}
    opaque = set(dir(builtins))
    for module, text in sources.items():
        todo = [(ast.parse(text), module, None, None)]
        while todo:
            node, prefix, cls, fn = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    methods[child.name] = {}
                    bases[child.name] = [b.id for b in child.bases if isinstance(b, ast.Name)]
                    todo.append((child, f"{prefix}.{child.name}", child.name, fn))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    defs.append((name, child, module, cls, fn))
                    if fn is not None:
                        nested.setdefault(fn, {})[child.name] = name
                    elif cls is not None:
                        methods[cls][child.name] = name
                    else:
                        top[child.name] = name
                    todo.append((child, name, None, name))
                else:
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        opaque.update(a.asname or a.name.split(".")[0] for a in child.names)
                    todo.append((child, prefix, cls, fn))
    opaque -= set(top) | set(methods)
    by_name: dict[str, set[str]] = {}
    for cls_methods in methods.values():
        for attr, name in cls_methods.items():
            by_name.setdefault(attr, set()).add(name)

    def method(cls: str, attr: str) -> set[str]:
        found, todo = set(), [cls]
        while todo:
            c = todo.pop()
            if attr in methods.get(c, {}):
                found.add(methods[c][attr])
            todo += bases.get(c, [])
        return found

    enclosing = {name: fn for name, _, _, _, fn in defs}
    edges: dict[str, set[str]] = {}
    for name, fn_def, _, cls, _ in defs:
        out = edges[name] = set()
        todo = list(ast.iter_child_nodes(fn_def))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # scanned as a definition of its own
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass")):
                todo += node.args[:1]  # a type check builds no instance
                continue
            todo.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                scope, hit = name, None
                while scope is not None and hit is None:
                    hit = nested.get(scope, {}).get(node.id)
                    scope = enclosing.get(scope)
                if hit is not None:
                    out.add(hit)
                elif node.id in top:
                    out.add(top[node.id])
                elif node.id in methods:
                    out |= method(node.id, "__new__") | method(node.id, "__init__")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                receiver = node.value
                if isinstance(receiver, ast.Call):  # an object built by a call
                    receiver = receiver.func
                receiver = receiver.id if isinstance(receiver, ast.Name) else None
                if receiver in ("self", "cls") and cls is not None:
                    out |= method(cls, node.attr)
                elif receiver in methods:
                    out |= method(receiver, node.attr)
                elif receiver not in opaque and node.attr not in BUILTIN_METHODS:
                    out |= by_name.get(node.attr, set())
    return edges


def on_cycles(edges: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves."""
    found = set()
    for start in edges:
        seen, todo = set(), list(edges[start])
        while todo:
            name = todo.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(edges.get(name, ()))
    return found


def test_no_function_in_expr_identify_or_evaluate_lies_on_a_call_cycle():
    sources = {m: (SRC / f"{m}.py").read_text(encoding="utf-8")
               for m in ("expr", "identify", "evaluate")}
    edges = call_graph(sources)
    assert {"expr._walk", "expr.simplify", "expr.render", "expr._Parser.parse",
            "expr._Parser.expr", "identify._standardize", "identify._id",
            "evaluate._Evaluation.eval"} <= set(edges)
    assert on_cycles(edges) == set()


def test_the_guard_sees_recursion_through_names_methods_and_callbacks():
    source = """
import functools

def direct(e):
    return direct(e.body)

def outer(e):
    def walk(node):
        return [walk(k) for k in node.kids]
    return walk(e)

def ping(e):
    return list(map(pong, e.kids))

def pong(e):
    return ping(e)

def through_class(e):
    if isinstance(e, Node):
        return e
    return Node(e)

def lone(e):
    return functools.reduce(max, e.values(), 0)

class Node:
    def __new__(cls, e):
        return through_class(e.inner)

    def render(self):
        return ",".join(k.render() for k in self.kids)

    def index(self, k):
        return self.items.index(k)
"""
    assert on_cycles(call_graph({"m": source})) == {
        "m.direct", "m.outer.walk", "m.ping", "m.pong", "m.through_class",
        "m.Node.__new__", "m.Node.render",
    }
