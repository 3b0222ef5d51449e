"""Which statements of ``src/crlab`` does a pytest run never execute?

    PYTHONPATH=src python tools/linetrace.py -q -m "not long" -p no:cacheprovider

Run from the root of a checkout; the arguments go to pytest unchanged.  A
``sys.settrace`` hook (the standard library's; ``coverage`` is not needed)
records every line event in ``src/crlab``.  A statement is an ast statement
other than a docstring; it ran when some recorded line falls inside it and
inside no statement nested in it.  Tests that start a subprocess are not
traced inside it.  Prints pytest's exit code, the statement counts and each
statement that never ran as ``file:line``; exits with pytest's code.
"""

import ast
import os
import sys
import threading

SRC = os.path.abspath(os.path.join("src", "crlab"))
hits = {}


def _local(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _call(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(SRC):
        return None
    hits.setdefault(path, set()).add(frame.f_lineno)
    return _local


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path):
    """(first line, last line, node) of each statement of a file, docstrings
    of functions and classes excepted (they are not executed)."""
    tree = ast.parse(open(path).read())
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and _is_docstring(node.body[0])}
    return [(min([n.lineno] + [d.lineno for d in getattr(n, "decorator_list", [])]),
             n.end_lineno, n)
            for n in ast.walk(tree) if isinstance(n, ast.stmt) and id(n) not in docstrings]


def main(argv):
    sys.settrace(_call)
    threading.settrace(_call)
    import pytest
    code = pytest.main(argv)
    sys.settrace(None)
    threading.settrace(None)
    total, missing = 0, []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        stmts = statements(path)
        total += len(stmts)
        ran = set()
        for line in hits.get(path, ()):
            inner = [(last - first, id(n)) for first, last, n in stmts if first <= line <= last]
            if inner:
                ran.add(min(inner)[1])
        missing += [f"{name}:{n.lineno}" for _, _, n in sorted(stmts, key=lambda s: s[0])
                    if id(n) not in ran]
    print(f"pytest exit code {int(code)}; {total} statements, {len(missing)} never run")
    print("\n".join(missing))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
