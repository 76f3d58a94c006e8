"""Answers the benchmark checks deplog's outputs against.

Each is computed here from the definitions, without calling deplog:

* ``phi1_two_sat``: a team satisfies =(x,y) | =(u,v) iff its rows can be
  coloured left/right so that no two left rows clash on x -> y and no two
  right rows clash on u -> v; that is a 2-SAT instance.
* ``phi2_by_choice``: a team satisfies (=(x,y) | =(u,v)) | =(u,v) iff for
  some choice function g on x the rows with y != g(x) leave every u value
  with at most two v values (by downward closure the left side may take
  every row with y = g(x)).  Used to build the fixed phi2 verdict list.
* ``size1_truth``: at domain size 1 every term denotes 0 and every team
  reached by evaluation has exactly one row, so a sentence of either kind
  is true iff its matrix holds classically with relation atoms read off
  the structure, equalities true, positive dependence atoms true and
  negated ones false.
* ``structure_count``: structures per signature and size, by the formula.

``same_tree`` compares syntax trees without recursion: the dataclass
``==`` recurses once per level and overflows the stack on the long
chains the rewrite workload produces.
"""
from __future__ import annotations

import dataclasses
import itertools


def phi1_two_sat(rows) -> bool:
    """=(x,y) | =(u,v) on rows (x, y, u, v), by 2-SAT over 'row i is left'."""
    rows = sorted(rows)
    m = len(rows)
    # literal 2i: row i left; 2i+1: row i right
    implies: list[list[int]] = [[] for _ in range(2 * m)]
    for i, j in itertools.combinations(range(m), 2):
        a, b = rows[i], rows[j]
        if a[0] == b[0] and a[1] != b[1]:  # not both left
            implies[2 * i].append(2 * j + 1)
            implies[2 * j].append(2 * i + 1)
        if a[2] == b[2] and a[3] != b[3]:  # not both right
            implies[2 * i + 1].append(2 * j)
            implies[2 * j + 1].append(2 * i)
    comp = _components(implies)
    return all(comp[2 * i] != comp[2 * i + 1] for i in range(m))


def _components(graph: list[list[int]]) -> list[int]:
    """Strongly connected component id per node (iterative Tarjan)."""
    n = len(graph)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, k = work.pop()
            if k == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if k < len(graph[v]):
                work.append((v, k + 1))
                w = graph[v][k]
                if index[w] < 0:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def phi2_by_choice(rows, size: int) -> bool:
    """(=(x,y) | =(u,v)) | =(u,v) on rows (x, y, u, v) over domain size."""
    rows = list(rows)
    for g in itertools.product(range(size), repeat=size):
        fan: dict[int, set[int]] = {}
        for x, y, u, v in rows:
            if y != g[x]:
                fan.setdefault(u, set()).add(v)
        if all(len(vs) <= 2 for vs in fan.values()):
            return True
    return False


def size1_truth(sentence, nonempty: frozenset[str]) -> bool:
    """Truth at domain size 1 of a dependence sentence or a function
    sentence; ``nonempty`` names the relations holding at the single
    point."""
    todo = [getattr(sentence, "matrix", sentence)]
    values: list[bool] = []
    post: list = []
    # iterative post-order walk, so long chains cannot exhaust the stack
    while todo:
        node = todo.pop()
        kind = type(node).__name__
        if kind in ("Exists", "Forall"):
            todo.append(node.body)
        elif kind in ("And", "Or"):
            post.append(kind)
            todo.append(node.right)
            todo.append(node.left)
        else:
            post.append(_literal(node, kind, nonempty))
    for item in reversed(post):
        if item == "And":
            a, b = values.pop(), values.pop()
            values.append(a and b)
        elif item == "Or":
            a, b = values.pop(), values.pop()
            values.append(a or b)
        else:
            values.append(item)
    (value,) = values
    return value


def _literal(node, kind: str, nonempty: frozenset[str]) -> bool:
    if kind == "RelAtom":
        return (node.rel in nonempty) != node.negated
    if kind in ("Equal", "DepAtom"):
        return not node.negated
    if kind == "Bool":
        return node.value
    raise ValueError(f"unexpected node {kind}")


def structure_count(relations: dict[str, int], functions: dict[str, int],
                    constants: int, size: int) -> int:
    total = 2 ** sum(size ** ar for ar in relations.values())
    for ar in functions.values():
        total *= size ** (size ** ar)
    return total * size ** constants


def same_tree(a, b) -> bool:
    """Structural equality of two syntax trees (iterative)."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if len(x) != len(y):
                return False
            todo.extend(zip(x, y))
        elif dataclasses.is_dataclass(x):
            todo.extend((getattr(x, f.name), getattr(y, f.name))
                        for f in dataclasses.fields(x))
        elif x != y:
            return False
    return True
