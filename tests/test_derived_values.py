"""Each derived value is kept in one place.

A value computed from others and kept for a second read (a memo) is a
second copy of a fact: when two memos hold the same fact, one of them is
waste, and the two can drift apart.  The places src keeps such values
are pinned here: every string key written into an instance ``__dict__``,
and every ``functools.lru_cache`` and ``functools.cached_property``.  A
new memo fails this test until it is added on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import btbranch

SRC = Path(btbranch.__file__).parent

#: (module, function, key) for every key written into an instance __dict__
DICT_KEYS = {
    ("mat2", "_trace_det", "_trace_det"),  # a matrix's (tr, det)
    ("mat2", "Datum.disc", "_disc"),  # Delta
    ("existence", "_search_tables", "_search_tables"),  # the norm-form tables
}

#: (module, site, decorator) for every lru_cache and cached_property; a
#: site is the decorated function, or the attribute a call result is
#: assigned to
CACHES = {
    ("defects", "QuadPoly.roots", "cached_property"),
    ("defects", "_classify", "lru_cache"),  # the one classification memo
    ("existence", "_box_terms", "lru_cache"),
    ("gf2", "FieldConfig.tables", "cached_property"),
    ("tree", "Window.nbrs", "lru_cache"),
    ("tree", "Window.vertices", "cached_property"),
}

_MEMOS = {"lru_cache", "cached_property"}


def _is_dict(node, aliases):
    """node is x.__dict__, or a name bound to one."""
    return ((isinstance(node, ast.Attribute) and node.attr == "__dict__")
            or (isinstance(node, ast.Name) and node.id in aliases))


def _dict_keys(func):
    """The constant keys func writes into an instance __dict__: by
    subscript assignment or by setdefault, on x.__dict__ or an alias."""
    aliases = {t.id for node in ast.walk(func) if isinstance(node, ast.Assign)
               and _is_dict(node.value, ()) for t in node.targets
               if isinstance(t, ast.Name)}
    keys = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and _is_dict(node.value, aliases)):
            key = node.slice
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setdefault"
              and _is_dict(node.func.value, aliases) and node.args):
            key = node.args[0]
        else:
            continue
        keys.add(key.value if isinstance(key, ast.Constant) else
                 ast.unparse(key))
    return keys


def _functions(tree):
    """(qualified name, node) for every function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _memo_name(node):
    """lru_cache or cached_property if node names or calls one."""
    if isinstance(node, ast.Call):
        return _memo_name(node.func)
    name = getattr(node, "id", getattr(node, "attr", None))
    return name if name in _MEMOS else None


def _caches(tree, module):
    found = set()
    for name, func in _functions(tree):
        for deco in func.decorator_list:
            if memo := _memo_name(deco):
                found.add((module, name, memo))
        cls = name.rpartition(".")[0]
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            for call in ast.walk(node.value):
                if isinstance(call, ast.Call) and (memo := _memo_name(call)):
                    for t in node.targets:
                        attr = t.attr if isinstance(t, ast.Attribute) else t.id
                        found.add((module, f"{cls}.{attr}" if cls else attr,
                                   memo))
    return found


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _dict_reads(node):
    return sum(isinstance(n, ast.Attribute) and n.attr == "__dict__"
               for n in ast.walk(node))


def test_only_the_pinned_keys_are_written_into_an_instance_dict():
    modules = _modules()
    found = {(module, name, key) for module, tree in modules.items()
             for name, func in _functions(tree) for key in _dict_keys(func)}
    assert found == DICT_KEYS
    # the scan reads functions and methods: no __dict__ sits elsewhere
    for tree in modules.values():
        assert _dict_reads(tree) == sum(_dict_reads(func)
                                        for _, func in _functions(tree))


def test_only_the_pinned_sites_cache_a_value():
    found = set().union(*(_caches(tree, module)
                          for module, tree in _modules().items()))
    assert found == CACHES


def test_every_use_of_a_memo_decorator_is_a_pinned_site():
    # the scan above reads decorators and assignments; a memo used any
    # other way (a module-level call, a nested function) would hide from
    # it, so every name it could hide behind is counted here
    uses = sum(1 for tree in _modules().values() for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute))
               and _memo_name(node))
    assert uses == len(CACHES)
