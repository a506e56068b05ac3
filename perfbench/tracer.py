"""Per-layer tracing by wrapping the library's public functions.

A ``Tracer`` replaces each traced function in every ``polycert`` module that
holds it (``from .upoly import interpolate`` makes a second reference in
``polycert.oracles``), and each traced method on its class.  A timed layer
opens a span: its duration, and its self time (duration minus the time of
the traced spans nested inside it), are added to the layer's totals, and the
call is counted on the edge from the enclosing layer.  A counted layer only
adds to its counters, so its time stays in the enclosing span.  Totals stay
in memory and are written out when the run ends.

Nothing is wrapped until ``install`` runs, so untraced runs execute the
library unchanged.
"""

from __future__ import annotations

import inspect
import sys
import time

_now = time.perf_counter_ns


def _long_operand(args, result):
    _, a, b = args
    return {"long_calls": int(max(len(a), len(b)) >= 33)}


def _messages(args, result):
    # run_protocol returns (verdict, transcript); verify_transcript takes one
    t = result[1] if isinstance(result, tuple) else args[0]
    return {"messages": len(t.messages)}


def _nbytes_result(args, result):
    return {"bytes": len(result)}


def _nbytes_arg(args, result):
    return {"bytes": len(args[1])}


def _methods(cls):
    """Names of the plain functions defined on cls itself, dunders excluded."""
    return [k for k, v in vars(cls).items()
            if inspect.isfunction(v) and not (k.startswith("__") and k.endswith("__"))]


def layer_targets():
    """(layer, owner, attribute, timed, counter) for every traced function."""
    from polycert import (adversary, experiments, ff, instances, matfield,
                          oracles, polymat, protocols, provers, transcript, upoly)

    targets = [
        ("ff.inv", ff.PrimeField, "inv", False, None),
        ("upoly.interpolate", upoly, "interpolate", True, "points"),
        ("upoly.mul", upoly, "_mul_coeffs", True, _long_operand),
        ("upoly.divmod", upoly.Poly, "__divmod__", True, None),
        ("upoly.xgcd", upoly, "xgcd", True, None),
        ("upoly.horner", upoly.Poly, "__call__", False, None),
        ("polymat.eval_at", polymat.PolyMat, "eval_at", True, None),
        ("matfield.pluq", matfield, "pluq", True, None),
        ("transcript.save", transcript.Transcript, "save", True, None),
        ("transcript.load", transcript.Transcript, "from_json_dict", True, None),
        ("transcript.load", transcript.Transcript, "load", True, None),
        ("transcript.digest", transcript.Transcript, "digest", True, None),
        ("transcript.encode", transcript.Message, "encode", False, _nbytes_result),
        ("transcript.absorb", transcript.ChallengeSource, "absorb", True, _nbytes_arg),
        ("transcript.draw", transcript.ChallengeSource, "draw", False, None),
        ("protocols", protocols, "run_protocol", True, _messages),
        ("protocols", protocols, "verify_transcript", True, _messages),
    ]
    for name in ("materialize", "apply_field_mat", "left_apply", "apply_poly_mat"):
        targets.append(("polymat.toeplitz", polymat.ToeplitzOp, name, True, None))
    for name in ("det_bareiss", "rank_and_profile", "hermite_form", "popov_form",
                 "kernel_basis_left", "saturation_basis", "rational_solve_left"):
        targets.append((f"oracles.{name}", oracles, name, True, None))
    for name in _methods(provers.HonestProver):
        targets.append(("provers", provers.HonestProver, name, True, None))
    for cls in vars(adversary).values():
        if isinstance(cls, type) and cls.__module__ == adversary.__name__:
            for name in _methods(cls):
                targets.append(("adversary", cls, name, True, None))
    for name, fn in vars(instances).items():
        if callable(fn) and getattr(fn, "__module__", None) == instances.__name__:
            targets.append(("instances", instances, name, True, None))
    for name in ("make_false_instance", "generate_true_instance", "strict_sigma"):
        targets.append(("experiments", experiments, name, True, None))
    return targets


class Tracer:
    def __init__(self):
        self._stack = []      # open spans: [layer, child_ns]
        self._patched = []    # (namespace, attribute, original)
        self.reset()

    def reset(self):
        self.layers = {}      # layer -> {"calls", "total_ns", "self_ns", ...}
        self.edges = {}       # (enclosing layer, layer) -> [calls, total_ns]

    def snapshot(self) -> dict:
        return {
            "layers": {k: dict(v) for k, v in sorted(self.layers.items())},
            "edges": [
                {"from": a, "to": b, "calls": c, "total_ms": ns / 1e6}
                for (a, b), (c, ns) in sorted(self.edges.items())
            ],
        }

    # -- wrappers --------------------------------------------------------------

    def _stats(self, layer):
        s = self.layers.get(layer)
        if s is None:
            s = self.layers[layer] = {"calls": 0, "total_ns": 0, "self_ns": 0}
        return s

    def _add(self, s, counter, args, result):
        if counter is None:
            return
        if counter == "points":
            s["points"] = s.get("points", 0) + len(args[1])
            return
        for k, v in counter(args, result).items():
            s[k] = s.get(k, 0) + v

    def _wrap(self, layer, fn, timed, counter):
        tracer = self
        stack = self._stack
        # interpolate takes its points as any iterable; counting them must
        # not consume a zip, so hand the function a list
        listify = counter == "points"

        if not timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                s = tracer._stats(layer)
                s["calls"] += 1
                tracer._add(s, counter, args, result)
                return result
            return counted

        def spanned(*args, **kwargs):
            if listify:
                args = (args[0], list(args[1])) + args[2:]
            frame = [layer, 0]
            parent = stack[-1][0] if stack else "op"
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                s = tracer._stats(layer)
                s["calls"] += 1
                s["total_ns"] += dur
                s["self_ns"] += dur - frame[1]
                e = tracer.edges.get((parent, layer))
                if e is None:
                    e = tracer.edges[(parent, layer)] = [0, 0]
                e[0] += 1
                e[1] += dur
            tracer._add(s, counter, args, result)
            return result
        return spanned

    # -- installation -------------------------------------------------------------

    def install(self, callers=()):
        """Wrap every traced function; ``callers`` are further modules (the
        benchmark's own) whose references are replaced too."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "polycert" or k.startswith("polycert.")] + list(callers)
        for layer, owner, attr, timed, counter in layer_targets():
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                wrapped = self._wrap(layer, raw.__func__ if isinstance(raw, classmethod)
                                     else raw, timed, counter)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, timed, counter)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
