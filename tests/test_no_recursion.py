"""No new recursive walker in ``src/``.

Each module's call graph is read from its AST: an edge for every ``f(...)``
that names a function visible from the caller (nested, enclosing or
module level) and every ``self.f(...)`` to a method of the caller's class.
No function may lie on a cycle of that graph, so a recursive walker added
anywhere fails here.
"""

import ast
from pathlib import Path

import ultraexp

SRC = Path(ultraexp.__file__).parent

ALLOWED: set[str] = set()

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of scope's own body; a function or class defined there is
    yielded but not entered."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _functions(tree):
    """(qualname, node, enclosing class qualname or None) of every function."""
    out = []
    stack = [(node, "", None) for node in _own_nodes(tree) if isinstance(node, _SCOPES)]
    while stack:
        node, prefix, cls = stack.pop()
        name = prefix + node.name
        if not isinstance(node, ast.ClassDef):
            out.append((name, node, cls))
            cls = None
        else:
            cls = name
        stack += [(child, name + ".", cls) for child in _own_nodes(node)
                  if isinstance(child, _SCOPES)]
    return out


def _call_graph(tree):
    funcs = _functions(tree)
    names = {name for name, _, _ in funcs}
    classes = {cls for _, _, cls in funcs}  # a bare name never resolves in one
    graph = {}
    for name, fn, cls in funcs:
        edges = set()
        for f in (n.func for n in _own_nodes(fn) if isinstance(n, ast.Call)):
            if isinstance(f, ast.Name):
                scope = name  # innermost first: nested, enclosing, module level
                while True:
                    target = f"{scope}.{f.id}" if scope else f.id
                    if target in names and scope not in classes:
                        edges.add(target)
                        break
                    if not scope:
                        break
                    scope = scope.rpartition(".")[0]
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == "self" and cls and f"{cls}.{f.attr}" in names):
                edges.add(f"{cls}.{f.attr}")
        graph[name] = edges
    return graph


def _on_cycles(graph):
    """The nodes that can reach themselves."""
    found = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            node = stack.pop()
            if node == start:
                found.add(start)
                break
            if node not in seen:
                seen.add(node)
                stack.extend(graph[node])
    return found


def _recursive(text, module):
    return {f"{module}.{name}" for name in _on_cycles(_call_graph(ast.parse(text)))}


def test_only_the_bounded_functions_recurse():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _recursive(path.read_text(), path.stem)
    assert found == ALLOWED


def test_the_scan_sees_each_kind_of_recursion():
    text = '''
def direct(n):
    return direct(n - 1)

def ping(n):
    return pong(n)

def pong(n):
    return ping(n)

def outer():
    def inner(d):
        yield from inner(d + 1)
    return inner(0)

def twice():
    def middle():
        def deepest(n):
            return middle() + deepest(n)
        return deepest(0)
    return middle()

def shadowed():
    def direct():
        return 1
    return direct()

class Walker:
    def visit(self, node):
        return [self.visit(c) for c in node]

    def plain(self, x):
        return x.plain()

    def direct(self, n):
        return direct(n)  # the module-level function, not this method
'''
    assert _recursive(text, "m") == {
        "m.direct", "m.ping", "m.pong", "m.outer.inner", "m.twice.middle",
        "m.twice.middle.deepest", "m.Walker.visit",
    }
