"""Per-module tracing from outside the package.

The tracer replaces the public functions of each sixport module with thin
wrappers that record a span per call, and patches every ``sixport.*``
namespace that re-imports them (``sixport.cli.minimize_variance`` is the same
function object as ``sixport.scan.minimize_variance``).  Spans stay in memory
while the traced code runs; self times and work counts are computed from
them afterwards.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

#: modules whose public functions form a layer, in report order
LAYERS = ("interferometer", "states", "series", "oracle", "moments", "scan",
          "verification")

#: extra callables traced under a layer: (module, class, method, span name)
_METHODS = (("series", "FormalSeries", "__mul__", "mul"),
            ("series", "FormalSeries", "from_terms", "from_terms"))

#: the optimiser ``scan`` imports; its whole time, the objective's calls
#: included, is reported as scan.refine_s, and no span inside it adds to any
#: layer's self time, so the self times and refine_s add up to the traced time
_REFINE = ("scan", "_nm_minimize", "scan.refine")


class Tracer:
    """Span recorder; install() patches the package, remove() restores it.

    ``namespaces`` are further modules whose imported names get the wrappers,
    such as the benchmark's own module that calls the package.
    """

    def __init__(self, namespaces=()):
        self.namespaces = tuple(namespaces)
        self.spans = []          # [name, layer, parent index, t0 ns, t1 ns, raised]
        self._stack = []
        self._patched = []       # (owner, attribute, original value)
        self._evaluations = 0
        self._box_cells = 0

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans = []
        self._stack.clear()
        self._evaluations = 0
        self._box_cells = 0

    def _wrap(self, fn, name, layer, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            if before is not None:
                before(args, kwargs)
            rec = [name, layer, stack[-1] if stack else -1, clock(), 0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"sixport.{layer}")
                   for layer in LAYERS}
        importlib.import_module("sixport.cli")
        oracle = modules["oracle"]
        default_cutoff = oracle.default_cutoff
        spec_type = oracle.HeraldSpec
        state_sig = inspect.signature(oracle.herald_state)
        dist_sig = inspect.signature(oracle.herald_distribution)

        def herald_state_cells(args, kwargs):
            bound = state_sig.bind(*args, **kwargs).arguments
            spec = bound["spec"]
            cutoff = bound.get("cutoff")
            if cutoff is None:
                cutoff = default_cutoff(spec)
            self._box_cells += (cutoff + 1) * (spec.m2 + 1) * (spec.m3 + 1)

        def distribution_cells(args, kwargs):
            b = dist_sig.bind(*args, **kwargs).arguments
            cutoff = b.get("cutoff")
            if cutoff is None:
                cutoff = default_cutoff(
                    spec_type(b["n2"], b["n3"], 0, 0, b["alpha_mag"], b["phi"]))
            self._box_cells += (cutoff + 1) * (b["herald_max"] + 1) ** 2

        def count_evaluations(result):
            self._evaluations += int(result.evaluations)

        hooks = {
            ("oracle", "herald_state"): (herald_state_cells, None),
            ("oracle", "herald_distribution"): (distribution_cells, None),
            ("scan", "minimize_variance"): (None, count_evaluations),
        }

        replacements = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                before, after = hooks.get((layer, attr), (None, None))
                replacements[id(value)] = (value, self._wrap(
                    value, f"{layer}.{attr}", layer, before, after))

        module_name, attr, span_name = _REFINE
        refine = getattr(modules[module_name], attr)
        replacements[id(refine)] = (refine, self._wrap(
            refine, span_name, span_name))

        package = [m for name, m in sys.modules.items()
                   if name == "sixport" or name.startswith("sixport.")]
        for module in package + list(self.namespaces):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

        for layer, cls_name, method, span in _METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, f"{layer}.{span}", layer))
            else:
                wrapped = self._wrap(raw, f"{layer}.{span}", layer)
            self._patched.append((cls, method, raw))
            setattr(cls, method, wrapped)

    def remove(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    # -- summaries ---------------------------------------------------------

    def work_counts(self) -> dict:
        """Deterministic counts of the traced work (identical on a rerun)."""
        counts = {f"{layer}.calls": 0 for layer in LAYERS}
        named = {"series.mul": 0, "series.series_exp": 0,
                 "moments.moment_component": 0}
        errors = 0
        for name, layer, _, _, _, raised in self.spans:
            key = f"{layer}.calls"
            if key in counts:
                counts[key] += 1
            if name in named:
                named[name] += 1
            if raised and layer == "oracle":
                errors += 1
        counts["series.mul_calls"] = named["series.mul"]
        counts["series.exp_calls"] = named["series.series_exp"]
        counts["moments.component_calls"] = named["moments.moment_component"]
        counts["oracle.box_cells"] = self._box_cells
        counts["oracle.errors"] = errors
        counts["scan.evaluations"] = self._evaluations
        return counts

    def self_times(self) -> dict:
        """Seconds per layer: span durations minus their child spans.

        Refinement spans count whole under scan.refine_s; the spans nested in
        them count nowhere else.
        """
        child = [0] * len(self.spans)
        in_refine = [False] * len(self.spans)
        for i, (_, layer, parent, t0, t1, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                # a parent is recorded before its children
                in_refine[i] = in_refine[parent] or self.spans[parent][1] == _REFINE[2]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        refine = 0
        for i, (_, layer, _, t0, t1, _) in enumerate(self.spans):
            if in_refine[i]:
                continue
            if layer == _REFINE[2]:
                refine += t1 - t0
                continue
            out[f"{layer}.self_s"] += (t1 - t0 - child[i]) * 1e-9
        out["scan.refine_s"] = refine * 1e-9
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span: index, parent, name, start/end ns, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,t0_ns,t1_ns,raised\n")
            for i, (name, _, parent, t0, t1, raised) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0},{t1},{int(raised)}\n")
