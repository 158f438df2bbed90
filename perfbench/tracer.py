"""Span tracer that wraps the public functions of each ``qgroth`` module from
outside the library.

Every wrapped call records a span: name, start, end, parent span and request
id.  A request's spans stay in memory until the request ends; then they are
folded into per-name call counts and self times and dropped, because one D4
``canonical`` request records several hundred thousand spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field

# (span name, module, attribute path, ratio) -- the ratio is "repeat" (share of
# calls whose arguments already occurred in the same request) or "zero" (share
# of calls that returned 0).
SPANS = [
    ("cli.main", "qgroth.cli", "main", None),
    ("cartan.root_coords", "qgroth.cartan", "CartanDatum.root_coords", None),
    ("cartan.alpha_coords", "qgroth.cartan", "CartanDatum.alpha_coords", None),
    ("cartan.sprod", "qgroth.cartan", "CartanDatum.sprod", None),
    ("quiver.QuiverContext", "qgroth.quiver", "QuiverContext.__init__", None),
    ("qcartan.quantum_cartan", "qgroth.qcartan", "quantum_cartan", None),
    ("qcartan.n_pair", "qgroth.qcartan", "QuantumCartan.n_pair", None),
    ("laurent.mul", "qgroth.laurent", "HalfLaurent.__mul__", None),
    ("laurent.add", "qgroth.laurent", "HalfLaurent.__add__", None),
    ("laurent.exact_div", "qgroth.laurent", "HalfLaurent.exact_div", None),
    ("torus.element_mul", "qgroth.torus", "TorusElement.__mul__", None),
    ("torus.YTorus.pair2", "qgroth.torus", "YTorus.pair2", None),
    ("torus.nakajima_leq", "qgroth.torus", "YTorus.nakajima_leq", None),
    ("torus.XTorus.pair2", "qgroth.torus", "XTorus.pair2", None),
    ("torus.divide_right", "qgroth.torus", "divide_right", None),
    ("characters.kr", "qgroth.characters", "CategoryQ.kr", "repeat"),
    ("characters.dominant_pairs", "qgroth.characters", "CategoryQ.dominant_pairs", None),
    ("characters.truncated_standard", "qgroth.characters", "CategoryQ.truncated_standard", None),
    ("characters.truncated_simple", "qgroth.characters", "CategoryQ.truncated_simple", None),
    ("characters.bar_invariant_correction", "qgroth.characters", "bar_invariant_correction", None),
    ("characters.expand_in_dominant_basis", "qgroth.characters", "expand_in_dominant_basis", None),
    ("characters.fundamental_tchar", "qgroth.characters", "fundamental_tchar", None),
    ("characters.simple_tchar", "qgroth.characters", "simple_tchar", None),
    ("characters.dominant_below", "qgroth.characters", "dominant_below", None),
    ("qgroup.minor", "qgroth.qgroup", "QGroupSide.minor", "repeat"),
    ("qgroup.e_tilde", "qgroth.qgroup", "QGroupSide.e_tilde", None),
    ("qgroup.b_tilde", "qgroth.qgroup", "QGroupSide.b_tilde", None),
    ("presentation.x_gen", "qgroth.presentation", "Presentation.x_gen", "repeat"),
    ("presentation.verify_relations", "qgroth.presentation", "Presentation.verify_relations", None),
    ("hall.hall_number", "qgroth.hall", "hall_number", "zero"),
    ("hall.toen_gamma", "qgroth.hall", "toen_gamma", "zero"),
    ("hall.iso_class", "qgroth.hall", "iso_class", None),
    ("hall.derived_mul", "qgroth.hall", "DerivedHall.mul", None),
    ("hall.uscalar_mul", "qgroth.hall", "UScalar.__mul__", None),
]

MODULES = ("cli", "cartan", "quiver", "qcartan", "laurent", "torus", "characters",
           "qgroup", "presentation", "hall")


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    out = [e - s for s, e in zip(starts, ends)]
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0
        run_s = run_e = None
        for k in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if run_e is None or s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = s, e
            elif e > run_e:
                run_e = e
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


def restored(bindings) -> bool:
    """True when every (owner, attribute, original) binding holds its original."""
    return all(vars(owner).get(attr) is original for owner, attr, original in bindings)


@dataclass
class RequestTrace:
    """Per-name totals of one request's spans."""

    request: int
    root_ns: int  # duration of the request's cli.main span
    calls: list[int]
    self_ns: list[int]
    consistent: bool  # the spans' self times sum to the cli.main duration


@dataclass
class Tracer:
    """Records spans for the wrapped functions while installed."""

    request: int = -1
    names: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("i"))
    starts: array = field(default_factory=lambda: array("q"))
    ends: array = field(default_factory=lambda: array("q"))
    stack: list = field(default_factory=lambda: [-1])
    seen: list = field(default_factory=lambda: [set() for _ in SPANS])
    ratio_hits: list = field(default_factory=lambda: [0] * len(SPANS))
    patches: list = field(default_factory=list)  # (owner, attribute, original)

    def _wrap(self, fn, sid: int, ratio: str | None):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter_ns
        hits = self.ratio_hits

        def span(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        if ratio == "repeat":
            seen = self.seen[sid]

            def traced(*args, **kwargs):
                key = (id(args[0]), args[1:], tuple(sorted(kwargs.items())))
                if key in seen:
                    hits[sid] += 1
                else:
                    seen.add(key)
                return span(*args, **kwargs)

        elif ratio == "zero":

            def traced(*args, **kwargs):
                out = span(*args, **kwargs)
                if out == 0:
                    hits[sid] += 1
                return out

        else:
            traced = span
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every span target in the loaded qgroth modules."""
        for sid, (_, modname, path, ratio) in enumerate(SPANS):
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, sid, ratio)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            # a module function is also imported by value into other modules
            for mod in list(sys.modules.values()):
                if mod is None or not (mod.__name__ == "qgroth" or mod.__name__.startswith("qgroth.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list:
        """Put every original back; returns the (owner, attribute, original)
        bindings that were restored."""
        undone = []
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)
            undone.append((owner, attr, original))
        return undone

    def begin(self, request: int) -> None:
        self.request = request

    def end(self) -> RequestTrace:
        """Fold the current request's spans into per-name totals and drop them."""
        if self.stack != [-1]:
            raise RuntimeError("request ended inside an open span")
        own = self_times(self.starts, self.ends, self.parents)
        calls = [0] * len(SPANS)
        self_ns = [0] * len(SPANS)
        for sid, s in zip(self.names, own):
            calls[sid] += 1
            self_ns[sid] += s
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        root_ns = sum(self.ends[i] - self.starts[i] for i in roots)
        consistent = len(roots) == 1 and self.names[roots[0]] == 0 and sum(own) == root_ns
        trace = RequestTrace(self.request, root_ns, calls, self_ns, consistent)
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]
        for s in self.seen:
            s.clear()
        return trace
