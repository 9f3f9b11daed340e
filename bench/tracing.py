"""Spans and counters around sphertrop's layer boundaries, for the traced run.

Modules import layer functions by name (``luna_vust`` binds
``relint_common_point``, ``tropicalize`` binds ``minor_valuation_profile``),
so a wrapper installed on one module would miss calls made through the
others.  :meth:`Tracer.install` therefore replaces every binding of each
function in every loaded ``sphertrop`` module, and every class attribute
holding a traced method; :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory as parallel arrays (layer, parent span, request,
start, end).  A layer's self time is the duration of its spans minus the
time their traced child spans cover.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

# span name -> (owner path, attribute) pairs it wraps
SPANS = {
    "puiseux.minor_profile": (("puiseux", "minor_valuation_profile"),),
    "puiseux.parse": (("puiseux", "parse_puiseux"),),
    "tropicalize.trop_point": (("tropicalize", "trop_point"),),
    "lattice.feasible": (("lattice", "feasible_point"),),
    "lattice.relint": (("lattice", "relint_meets"), ("lattice", "relint_common_point")),
    "lattice.dual_description": (("lattice", "dual_description"),),
    "lattice.cone_init": (("lattice.Cone", "__init__"),),
    "lattice.faces": (("lattice.Cone", "faces"),),
    "lattice.snf": (
        ("lattice", "smith_normal_form"),
        ("lattice", "quotient_projection"),
        ("lattice", "saturation_basis"),
    ),
    "luna_vust.validate_fan": (("luna_vust", "validate_colored_fan"),),
    "luna_vust.star": (("luna_vust", "star"),),
    "luna_vust.decolor": (("luna_vust", "decolor"),),
    "catalog.builtin_space": (("catalog", "builtin_space"),),
    "documents.load": (("documents", "load_text"),),
    "documents.dump": (("documents", "dumps"),),
    "balance.check": (("balance", "check_balancing"),),
    "balance.solve": (("balance", "solve_colored_weights"),),
}

COUNTERS = (
    "puiseux.mul.calls",
    "puiseux.mul.terms_out",
    "luna_vust.cf2.pairs",
    "luna_vust.cf2.witnesses",
    "documents.bytes_in",
    "documents.bytes_out",
)

# A repeat is a call whose argument was already seen earlier in the run:
# work a cache could skip.
REPEAT_KEYS = {
    "lattice.dual_description": lambda vectors, dim: (tuple(tuple(v) for v in vectors), dim),
    "lattice.cone_init": lambda self, gens, ambient_dim=None, _normals=None: (
        tuple(tuple(g) for g in gens),
        ambient_dim,
    ),
    "catalog.builtin_space": lambda name, n=None: (name, n),
}

INTERACTIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "interactions.json")


def _resolve(path):
    module, _, cls = path.partition(".")
    owner = sys.modules["sphertrop." + module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.layer = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = []
        self.request_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.seen = {name: set() for name in REPEAT_KEYS}
        self.repeats = dict.fromkeys(REPEAT_KEYS, 0)
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        index = self.names.index(name)
        key = REPEAT_KEYS.get(name)
        seen = self.seen.get(name)
        layer, parent, request = self.layer, self.parent, self.request
        start, end, stack = self.start, self.end, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(k)
            sid = len(start)
            layer.append(index)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            start.append(clock())
            end.append(0.0)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _wrap(self, name, fn):
        traced = self._span(name, fn)
        counts = self.counts
        if name == "lattice.cone_init":

            def init(self_, generators, *args, **kwargs):
                # materialise once: the repeat key and Cone both iterate it
                return traced(self_, list(generators), *args, **kwargs)

            return init
        if fn.__name__ == "relint_common_point":

            def relint_common_point(*args, **kwargs):
                # validate_colored_fan's CF2 check is its only caller here
                witness = traced(*args, **kwargs)
                counts["luna_vust.cf2.pairs"] += 1
                counts["luna_vust.cf2.witnesses"] += witness is not None
                return witness

            return relint_common_point
        if name == "documents.load":

            def load_text(text):
                counts["documents.bytes_in"] += len(text)
                return traced(text)

            return load_text
        if name == "documents.dump":

            def dumps(doc):
                text = traced(doc)
                counts["documents.bytes_out"] += len(text)
                return text

            return dumps
        return traced

    def _count_mul(self, fn):
        counts = self.counts

        def mul(a, b):
            out = fn(a, b)
            if out is not NotImplemented:
                counts["puiseux.mul.calls"] += 1
                counts["puiseux.mul.terms_out"] += len(out.terms)
            return out

        return mul

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every sphertrop module and class."""
        owners = []
        for modname, module in list(sys.modules.items()):
            if modname == "sphertrop" or modname.startswith("sphertrop."):
                owners.append(module)
                owners.extend(v for v in vars(module).values() if isinstance(v, type))
        found = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._undo.append((owner, attr, original))
                    found += 1
        if not found:
            raise RuntimeError("no binding of %r found to trace" % (original,))

    def install(self):
        for name, targets in SPANS.items():
            for owner, attr in targets:
                original = getattr(_resolve(owner), attr)
                self._replace_everywhere(original, self._wrap(name, original))
        mul = _resolve("puiseux.PuiseuxPoly").__mul__
        self._replace_everywhere(mul, self._count_mul(mul))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self):
        """``{span name: (self seconds, calls)}`` from the recorded spans."""
        covered = [0.0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for sid, index in enumerate(self.layer):
            self_s[index] += self.end[sid] - self.start[sid] - covered[sid]
            calls[index] += 1
        return {name: (self_s[i], calls[i]) for i, name in enumerate(self.names)}

    def metrics(self, names):
        """Values for the per-layer metric ``names``, each with its unit."""
        totals = self.layer_totals()
        values = {}
        for name in names:
            layer, _, field = name.rpartition(".")
            if field == "self_s":
                values[name] = (totals[layer][0], "s")
            elif field == "calls" and layer in totals:
                values[name] = (totals[layer][1], "count")
            elif field == "repeat_ratio":
                calls = totals[layer][1]
                values[name] = (self.repeats[layer] / calls if calls else 0.0, "ratio")
            elif name == "luna_vust.cf2.witness_ratio":
                pairs = self.counts["luna_vust.cf2.pairs"]
                values[name] = (self.counts["luna_vust.cf2.witnesses"] / pairs if pairs else 0.0, "ratio")
            elif name in self.counts:
                values[name] = (self.counts[name], "bytes" if ".bytes_" in name else "count")
        return values

    def idle_layers(self, workload):
        """Layers the interaction table calls busy on ``workload`` that saw no call."""
        with open(INTERACTIONS) as fh:
            table = json.load(fh)
        totals = self.layer_totals()
        idle = []
        for row in table["layers"]:
            if workload not in row["on"]:
                continue
            for metric in row["metrics"]:
                layer = metric.rpartition(".")[0]
                if layer in totals:
                    calls = totals[layer][1]
                else:
                    calls = self.counts.get(layer + ".calls", self.counts.get(layer + ".pairs"))
                if calls == 0 and layer not in idle:
                    idle.append(layer)
        return idle
