"""Spans recorded around ddvar's public functions, from outside the package.

A Tracer replaces functions and methods with timing wrappers: module-level
functions in every ddvar module that holds a reference to them (so
`from .krylov import pcg` call sites are traced too), and methods on their
classes.  Each call appends one span (name, start, end, parent span,
operation id, value) to flat in-memory arrays; `uninstall` puts every
original back.  Spans are analysed and written out after the run.

A span's self time is its duration minus the durations of its direct
children, so the self times of nested spans of one layer add up to the
time that layer held the thread outside the other traced layers.
"""

import array
import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np

# Layers with metrics, by ddvar module.  control, config and cli cost
# microseconds per call and stay inside their callers' self time.
LAYER_MODULES = ("model", "covariance", "observations", "krylov", "assim",
                 "comm", "schwarz", "impact", "grid", "experiment")


def _resolve(target):
    """(owner, attribute, function) for "module.func" or "module.Cls.meth".

    Returns None when the module, class or function no longer exists, so a
    later API change drops the span instead of breaking the run.
    """
    parts = target.split(".")
    try:
        owner = importlib.import_module(f"ddvar.{parts[0]}")
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = vars(owner).get(part)
        if not inspect.isclass(owner):
            return None
    fn = vars(owner).get(parts[-1])
    if not inspect.isfunction(fn):
        return None
    return owner, parts[-1], fn


def public_targets():
    """Every public function and method of the layer modules.

    Methods include __init__ of classes that write their own constructor;
    dataclass constructors only store fields.
    """
    out = []
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"ddvar.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append(f"{short}.{name}")
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not inspect.isfunction(fn):
                        continue
                    if attr == "__init__":
                        if dataclasses.is_dataclass(obj):
                            continue
                    elif attr.startswith("_"):
                        continue
                    out.append(f"{short}.{name}.{attr}")
    return out


class Tracer:
    """Flat span store plus the wrappers that fill it.

    hooks maps a span name to f(args, result) -> float, stored as the
    span's value (an iteration count, a byte count); a hook may also keep
    what it needs from the result, since only the value is stored.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.value = array.array("d")
        self.op_id = -1
        self.installed = set()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        hook = self.hooks.get(name)
        stack = self._stack
        clock = time.perf_counter
        ids, starts, ends = self.name_id, self.start, self.end
        parents, ops, values = self.parent, self.op, self.value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            values.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                values[i] = hook(args, result)
            return result

        return traced

    def install(self, targets):
        """Wrap each resolvable target; unknown ones are skipped."""
        modules = [m for name, m in sys.modules.items()
                   if name == "ddvar" or name.startswith("ddvar.")]
        for target in targets:
            found = _resolve(target)
            if found is None or target in self.installed:
                continue
            owner, attr, fn = found
            wrapper = self._wrap(target, fn)
            self.installed.add(target)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        self.installed.clear()

    def spans(self):
        """The spans as numpy arrays, with self times."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n).copy()
        end = np.frombuffer(self.end, dtype=float, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32,
                                  count=n).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
            "value": np.frombuffer(self.value, dtype=float, count=n).copy(),
            "self": dur - covered,
        }

    def save(self, path):
        """Write the spans and the name table to an .npz file."""
        data = self.spans()
        np.savez(path, names=np.asarray(self.names), **data)
