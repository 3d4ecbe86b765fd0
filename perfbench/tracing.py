"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the spinsqueeze layers, plus the
``__post_init__`` validation of the four state classes, from outside the
package: nothing under src/ knows about it.  The modules re-import names with
``from .x import y`` and the package re-exports them, so one function is
bound in several module namespaces (and in the ``verification.SUITES``
table); the tracer replaces it at every one of those sites and puts every
original back in ``restore``.

Spans (name, start, end, parent) are kept in flat arrays in memory and
summarised once the traced pass is over.  A function that calls itself
through its wrapper (``render_json``) records one span for the outermost
call only.
"""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "spinsqueeze"
LAYERS = ("cli", "statefile", "states", "operators", "reductions", "squeezing",
          "entanglement", "report", "verification", "sampling")
VALIDATED_CLASSES = ("PureState", "DensityMatrix", "SymmetricState", "MixtureTerm")
VALIDATE = "states.validate"
MARK = "__perfbench_wrapper__"

# Per-call quantities recorded next to a span, keyed by span name.
MEASURES = {
    "statefile.load_document": lambda args, result: os.path.getsize(args[0]),
    "statefile.dumps": lambda args, result: len(result),
    # three dense (N+1)x(N+1) complex128 matrices; computed, not measured
    "operators.dicke_collective_operators": lambda args, result: 3 * (args[0] + 1) ** 2 * 16,
}


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _validated_classes():
    states = importlib.import_module(f"{PACKAGE}.states")
    return [getattr(states, name) for name in VALIDATED_CLASSES]


def wrapper_sites():
    """Every place where a tracer wrapper is bound right now (should be none)."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{attr}[{key!r}]"
                          for key, item in value.items() if getattr(item, MARK, False)]
    for cls in _validated_classes():
        if getattr(vars(cls).get("__post_init__"), MARK, False):
            found.append(f"{cls.__qualname__}.__post_init__")
    return found


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.extra = {}
        self.current = -1
        self._patches = []

    def __len__(self):
        return len(self.names)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.current)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self.current = idx
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.current = self.parents[idx]

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        tracer = self
        names = self.names
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.current >= 0 and names[tracer.current] is name:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.extra[idx] = measure(args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        """Bind a wrapper in place of each traced function at every site."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[item]
        for cls in _validated_classes():
            original = vars(cls)["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self._wrap(VALIDATE, original))

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def summarize(self, lo, hi):
        """Per-name totals over the spans with indices lo..hi-1.

        Returns a dict with, per span name: ``calls``; ``s``, the time of
        calls not nested in a call of the same name; ``self_s``, the time not
        covered by spans of other layers beneath it (same-layer callees count
        as the caller's own time); ``extra``, the sum of MEASURES values;
        ``root_calls``, calls keyed by the name of the outermost span (the
        command) they ran under.  ``layer_s`` holds, per layer, the time of
        spans not nested in another span of that layer.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        calls, seconds, self_s, extra = Counter(), defaultdict(float), defaultdict(float), Counter()
        root_calls, layer_s = defaultdict(Counter), defaultdict(float)
        open_stack, name_depth, layer_depth = [], Counter(), Counter()
        duration, foreign, owner, root = {}, defaultdict(float), {}, {}
        for i in range(lo, hi):
            parent = parents[i]
            while open_stack and open_stack[-1] != parent:
                j = open_stack.pop()
                name_depth[names[j]] -= 1
                layer_depth[names[j].partition(".")[0]] -= 1
            name = names[i]
            layer = name.partition(".")[0]
            d = duration[i] = ends[i] - starts[i]
            calls[name] += 1
            if name_depth[name] == 0:
                seconds[name] += d
            if layer_depth[layer] == 0:
                layer_s[layer] += d
            if parent >= lo:
                root[i] = root[parent]
                if names[parent].partition(".")[0] == layer:
                    owner[i] = owner[parent]
                else:
                    owner[i] = i
                    foreign[owner[parent]] += d
            else:
                root[i] = owner[i] = i
            root_calls[names[root[i]]][name] += 1
            if i in self.extra:
                extra[name] += self.extra[i]
            open_stack.append(i)
            name_depth[name] += 1
            layer_depth[layer] += 1
        for i, own in owner.items():
            if own == i:
                self_s[names[i]] += duration[i] - foreign[i]
        return {"calls": calls, "s": seconds, "self_s": self_s, "extra": extra,
                "root_calls": root_calls, "layer_s": layer_s}
