"""Per-layer spans and counts, recorded from outside the program.

The layers are bellkit modules.  ``Tracer.install`` wraps every public
function of each layer module (and the private ones another module imports,
such as ``identities._support_alpha_values``) and binds the wrapper under
every name, in every ``bellkit`` module namespace, that held the original.
``Tracer.remove`` puts the originals back and checks that no wrapper is left.

A span opens when a call enters a layer from a different one; a call that
stays inside its layer is counted but opens no span, so a layer's span
covers everything it does until it calls out.  Each span is kept on a stack
(name, start, parent) while it is open and folded into its layer's totals
when it closes: its duration minus the time covered by its child spans is
the layer's self time.  Spans are not kept after they close because one
traced certify pass opens about 5 * 10^5 of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "identities", "transforms", "egf", "bell", "partitions", "rationals")

#: functions whose calls get their own counter, besides the per-layer ones
COUNTED = {
    "partitions.enumerate_pi": "partitions.enumerate_calls",
    "partitions.w_coefficient": "partitions.w_calls",
    "rationals.binomial_general": "rationals.binomial_calls",
}

_WRAPPED = "__bench_original__"


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = Counter()  # spans opened per layer
        self.counts = Counter()
        self.bell_keys: set = set()
        self._stack = [["bench", 0.0, 0.0]]  # name, start, time in child spans
        self._bound: list[tuple[object, str, object]] = []  # module, name, original

    # --- hooks on results -------------------------------------------------

    def _on_result(self, qualname: str, args, result) -> None:
        layer = qualname.partition(".")[0]
        if qualname == "partitions.enumerate_pi":
            self.counts["partitions.vectors"] += len(result)
        elif qualname == "bell.bell_eval":
            n, k, x = args[:3]
            self.counts["bell.eval_calls"] += 1
            self.bell_keys.add((n, k, x.values[: max(n - k + 1, 0)]))
        elif qualname == "identities.support_alpha_pole":
            self.counts["identities.pole_skips"] += result is not None
        elif qualname == "identities.tau_samples":
            self.counts["identities.pole_skips"] += len(result[1])
        elif layer == "identities" and hasattr(result, "passed"):
            self.counts["identities.checks"] += 1
            self.counts["identities.passed"] += bool(result.passed)
        elif layer == "egf" and hasattr(result, "coeffs"):
            self.counts["egf.coeffs"] += len(result.coeffs)

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        stack = self._stack
        counter = COUNTED.get(qualname)
        counts = self.counts
        on_result = self._on_result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                on_result(qualname, args, result)
                return result
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = perf_counter() - frame[1]
                self.self_s[layer] += duration - frame[2]
                self.spans[layer] += 1
                stack[-1][2] += duration
            on_result(qualname, args, result)
            return result

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def install(self) -> None:
        targets = _targets()
        wrappers = {
            key: self._wrap(fn, qualname.partition(".")[0], qualname)
            for key, (fn, qualname) in targets.items()
        }
        for mod in _bellkit_modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._bound.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def remove(self) -> None:
        """Restore every patched name, then check that none is left wrapped."""
        for mod, name, original in self._bound:
            setattr(mod, name, original)
        for mod, name, original in self._bound:
            if getattr(mod, name) is not original:
                raise RuntimeError(f"{mod.__name__}.{name} was not restored")
        for mod in _bellkit_modules():
            for name, obj in vars(mod).items():
                if hasattr(obj, _WRAPPED):
                    raise RuntimeError(f"{mod.__name__}.{name} is still wrapped")

    @property
    def patched(self) -> int:
        return len(self._bound)

    def metrics(self) -> dict[str, float]:
        c = self.counts
        evals = c["bell.eval_calls"]
        checks = c["identities.checks"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({f"{layer}.calls": self.spans[layer] for layer in LAYERS})
        for name in ("partitions.enumerate_calls", "partitions.vectors",
                     "partitions.w_calls", "rationals.binomial_calls",
                     "identities.checks", "identities.pole_skips", "egf.coeffs"):
            out[name] = c[name]
        out["bell.distinct_ratio"] = len(self.bell_keys) / evals if evals else 0.0
        out["identities.pass_ratio"] = c["identities.passed"] / checks if checks else 0.0
        return out


def _targets() -> dict[int, tuple[object, str]]:
    """id(original) -> (original, "layer.name") for every function to wrap."""
    modules = _bellkit_modules()
    targets = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bellkit.{layer}")
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") and not any(
                v is obj for other in modules if other is not mod for v in vars(other).values()
            ):
                continue
            targets[id(obj)] = (obj, f"{layer}.{name}")
    return targets


def _bellkit_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if key == "bellkit" or key.startswith("bellkit.")
    ]
