"""Per-layer spans around ``crlab`` entry points, installed from outside.

Each entry point is named ``<module>.<attr>`` or ``<module>.<Class>.<attr>``
relative to ``crlab``.  Functions are swapped in every loaded ``crlab.*``
module that binds the same object (``from .linalg import commutator`` makes
a second binding), methods are swapped on their class, and generator
functions are timed over the whole consumption of the generator they
return.  An entry point that no longer exists is reported as absent.

A span's self time is its duration minus the time covered by wrapped spans
nested inside it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

ENTRY_POINTS = (
    "cli.main",
    "serialize.read_subspace",
    "serialize.dumps_canonical",
    "commrank.max_commutator_rank",
    "commrank.satisfies_rank_condition",
    "commrank.check_dimension_bound",
    "linalg.commutator",
    "linalg.Mat.rank",
    "linalg.Mat.inverse",
    "linalg.Mat.kernel_basis",
    "linalg.Mat.charpoly",
    "linalg.Mat.matmul",
    "linalg.rref_rows",
    "linalg.VectorSpan.add",
    "subspace.MatrixSubspace.span",
    "subspace.MatrixSubspace.contains",
    "subspace.MatrixSubspace.conjugate",
    "subspace.MatrixSubspace.random_element",
    "invariant_spaces.search_max_dimension",
    "invariant_spaces.enumerate_invariant_spaces",
    "invariant_spaces.InvariantSpaceSpec.realize",
    "verify.structure_check",
    "verify.find_distinct_eigenvalue_element",
    "triangularize.classify_rank_one_family",
    "triangularize.triangularize_rank_one",
    "triangularize.verify_triangular",
    "numberfield.irreducible_factors",
    "numberfield.roots_in_field",
)

# entry-point names whose attribute is spelled differently
_ATTR = {"matmul": "__matmul__"}


class Tracer:
    """Counts calls and accumulates self time while installed."""

    def __init__(self):
        self.entry_points = ENTRY_POINTS
        self.calls = dict.fromkeys(ENTRY_POINTS, 0)
        self.self_s = dict.fromkeys(ENTRY_POINTS, 0.0)
        self.absent = []
        self._stack = []  # child time accumulated by each open span
        self._undo = []

    def reset(self):
        for name in self.entry_points:
            self.calls[name] = 0
            self.self_s[name] = 0.0

    # -- span accounting --------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, name, start):
        dur = time.perf_counter() - start
        child = self._stack.pop()
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1] += dur

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    start = self._enter()
                    try:
                        item = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self._leave(name, start)
                    yield item
            wrapper = gen_wrapper
        else:
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                start = self._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leave(name, start)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "crlab" or key.startswith("crlab."))]
        self.absent = []
        for name in self.entry_points:
            module, *path = name.split(".")
            attr = _ATTR.get(path[-1], path[-1])
            try:
                owner = importlib.import_module(f"crlab.{module}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    self._set(owner, attr, type(raw)(self._wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self._wrap(name, raw))
                continue
            wrapper = self._wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._set(m, key, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
