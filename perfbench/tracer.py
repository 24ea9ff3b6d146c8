"""Profile-hook span recorder for the traced benchmark run.

A ``sys.setprofile`` hook watches every Python call made while an op runs.
At each outermost entry into a ``broughton.<module>`` it opens a span
(layer, start, end, parent span, op id); re-entries into a layer that is
already open on the stack stay inside the open span.  Calls into the
standard ``fractions`` module are timed and counted the same way but kept
as aggregates only, because there are millions of them.  Named functions
are counted on every call.  Everything stays in memory until ``dump``.

Times include the hook's own cost, so they show shares, not absolute cost.
"""

from __future__ import annotations

import sys
import time

LAYERS = (
    "cli", "report", "arrangement", "decompose", "parser",
    "squarefree", "bipoly", "unipoly", "fractions",
)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}
_FRACTIONS = _LAYER_INDEX["fractions"]

# (module, qualified name) -> counter; counted on every call.
COUNTED = {
    ("broughton.arrangement", "check_hypotheses"): "arrangement.check_hypotheses_calls",
    ("broughton.squarefree", "squarefree_decompose"): "squarefree.decompose_calls",
    ("broughton.unipoly", "gcd"): "unipoly.gcd_calls",
    ("broughton.unipoly", "UniPoly.__divmod__"): "unipoly.divmod_calls",
    ("broughton.unipoly", "UniPoly.__mul__"): "unipoly.mul_calls",
    ("broughton.unipoly", "resultant"): "unipoly.resultant_calls",
    ("broughton.bipoly", "resultant_y"): "bipoly.resultant_y_calls",
}
COUNTERS = tuple(COUNTED.values())
_COUNTER_INDEX = {name: i for i, name in enumerate(COUNTERS)}

# Functions whose frames are inspected for size statistics.
_UNIPOLY_INIT = ("broughton.unipoly", "UniPoly.__init__")
_RESULTANT_Y = ("broughton.bipoly", "resultant_y")
_NO_SPECIAL, _ON_INIT_RETURN, _ON_RESULTANT_CALL = 0, 1, 2


def _layer_of(module: str) -> int:
    if module == "fractions":
        return _FRACTIONS
    if module.startswith("broughton."):
        return _LAYER_INDEX.get(module[len("broughton."):], -1)
    return -1


def _coeff_bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Recorder:
    """Collects spans and counters over any number of ops."""

    def __init__(self):
        self.spans = []  # [layer, start_ns, end_ns, parent, op_id, child_ns]
        self.calls = [0] * len(LAYERS)
        self.busy_ns = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        self.counts = [0] * len(COUNTERS)
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.sylvester_dim_max = 0
        self._codes = {}
        self._frames = []  # (layer, counter, special) of each live frame
        self._depth = [0] * len(LAYERS)
        self._open = []  # indices into spans of the open broughton layers
        self._fraction_start = 0
        self._op_id = -1

    def _classify(self, frame):
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        key = (module, getattr(code, "co_qualname", code.co_name))
        counter = _COUNTER_INDEX.get(COUNTED.get(key), -1)
        special = (_ON_INIT_RETURN if key == _UNIPOLY_INIT
                   else _ON_RESULTANT_CALL if key == _RESULTANT_Y
                   else _NO_SPECIAL)
        info = (_layer_of(module), counter, special)
        self._codes[code] = info
        return info

    def _hook(self, frame, event, arg):
        if event == "call":
            info = self._codes.get(frame.f_code) or self._classify(frame)
            layer, counter, special = info
            if counter >= 0:
                self.counts[counter] += 1
            if special == _ON_RESULTANT_CALL:
                local = frame.f_locals
                dim = len(local["a"].coeffs) + len(local["b"].coeffs) - 2
                self.sylvester_dim_max = max(self.sylvester_dim_max, dim)
            self._frames.append(info)
            if layer >= 0:
                if not self._depth[layer]:
                    self._enter(layer)
                self._depth[layer] += 1
        elif event == "return" and self._frames:
            layer, _, special = self._frames.pop()
            if special == _ON_INIT_RETURN:
                self._measure(frame.f_locals.get("self"))
            if layer >= 0:
                self._depth[layer] -= 1
                if not self._depth[layer]:
                    self._leave(layer)

    def _enter(self, layer):
        now = time.perf_counter_ns()
        self.calls[layer] += 1
        if layer == _FRACTIONS:
            self._fraction_start = now
            return
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([layer, now, 0, parent, self._op_id, 0])

    def _leave(self, layer):
        now = time.perf_counter_ns()
        if layer == _FRACTIONS:
            elapsed = now - self._fraction_start
            self.busy_ns[layer] += elapsed
            self.self_ns[layer] += elapsed
            if self._open:
                self.spans[self._open[-1]][5] += elapsed
            return
        span = self.spans[self._open.pop()]
        span[2] = now
        elapsed = now - span[1]
        self.busy_ns[layer] += elapsed
        self.self_ns[layer] += elapsed - span[5]
        if self._open:
            self.spans[self._open[-1]][5] += elapsed

    def _measure(self, poly):
        coeffs = getattr(poly, "_coeffs", ())
        if coeffs:
            self.max_degree = max(self.max_degree, len(coeffs) - 1)
            self.max_coeff_bits = max(self.max_coeff_bits, max(map(_coeff_bits, coeffs)))

    def run(self, op_id, fn, *args):
        """Call ``fn(*args)`` with the hook installed; return its result."""
        self._op_id = op_id
        sys.setprofile(self._hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            self._frames.clear()
            self._open.clear()
            self._depth = [0] * len(LAYERS)

    def count(self, name: str) -> int:
        return self.counts[_COUNTER_INDEX[name]]

    def layer_metrics(self) -> dict:
        """Per-layer calls, busy and self time, named counts and sizes."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.busy_ms"] = self.busy_ns[i] / 1e6
            out[f"{layer}.self_ms"] = self.self_ns[i] / 1e6
        for name, value in zip(COUNTERS, self.counts):
            out[name] = value
        out["unipoly.max_degree"] = self.max_degree
        out["unipoly.max_coeff_bits"] = self.max_coeff_bits
        out["bipoly.sylvester_dim_max"] = self.sylvester_dim_max
        return out

    def dump(self) -> dict:
        """Everything recorded, as JSON-ready primitives."""
        return {
            "layers": list(LAYERS),
            "spans": [[LAYERS[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "calls": self.calls,
            "busy_ns": self.busy_ns,
            "self_ns": self.self_ns,
            "counts": self.counts,
            "max_degree": self.max_degree,
            "max_coeff_bits": self.max_coeff_bits,
            "sylvester_dim_max": self.sylvester_dim_max,
        }

    def merge(self, other: dict, op_id: int):
        """Fold in a dump from a child process, re-basing its span indices."""
        base = len(self.spans)
        for layer, start, end, parent, _ in other["spans"]:
            self.spans.append([_LAYER_INDEX[layer], start, end,
                               parent + base if parent >= 0 else -1, op_id, 0])
        for i in range(len(LAYERS)):
            self.calls[i] += other["calls"][i]
            self.busy_ns[i] += other["busy_ns"][i]
            self.self_ns[i] += other["self_ns"][i]
        for i in range(len(COUNTERS)):
            self.counts[i] += other["counts"][i]
        self.max_degree = max(self.max_degree, other["max_degree"])
        self.max_coeff_bits = max(self.max_coeff_bits, other["max_coeff_bits"])
        self.sylvester_dim_max = max(self.sylvester_dim_max, other["sylvester_dim_max"])
