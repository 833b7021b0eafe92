"""Per-layer tracing for the benchmark's traced run, from outside the program.

``Tracer.install`` wraps the public functions and methods of the pptlab
layers (``models``, ``ppt``, ``memory``, ``correlations``, ``tomography``,
``tensor_ops``), plus ``cli.run`` and ``scipy.linalg.expm``, and rebinds
every module attribute that refers to a wrapped function, because modules
import each other's functions by name (``from .ppt import build_ppt``).
``Tracer.uninstall`` restores the originals.

Spans are aggregated when they end, not stored: per wrapped name, the call
count, the self time (the span minus the time of its child spans) and the
number of spans left by an exception.  A few wrappers also record a count
the program returns (see ``_EXTRA``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("models", "ppt", "memory", "correlations", "tomography", "tensor_ops")


def _stationary_steps(tracer, arguments, result):
    tracer.extra["memory.stationary_state.steps"] += result[1]
    tracer.stationary_steps_seen.append(result[1])


def _expectation_sites(tracer, arguments, result):
    mps, obs = arguments["mps"], arguments["obs"]
    sites = obs.last_step + (mps.leading_site is not None)
    tracer.extra["correlations.expectation.sites"] += sites


def _accepted_steps(tracer, arguments, result):
    # the loss trace holds the starting loss plus one entry per accepted step
    tracer.extra["tomography.variational_fit.accepted_steps"] += max(len(result.loss_trace) - 1, 0)


# Counts the program returns rather than spans; each hook gets the call's
# bound arguments and its result.
_EXTRA = {
    "memory.stationary_state": _stationary_steps,
    "correlations.expectation": _expectation_sites,
    "tomography.variational_fit": _accepted_steps,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.extra = defaultdict(float)
        self.stationary_steps_seen: list = []  # for the cross-check of one op
        self.active = False
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, key: str, fn):
        extra = _EXTRA.get(key)
        signature = inspect.signature(fn) if extra is not None else None
        stack = self._stack
        calls, self_s, errors = self.calls, self.self_s, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if extra is not None:
                extra(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr, value):
        # vars(), not getattr(): a class attribute may be a staticmethod object
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"pptlab.{layer}")
            path = mod.__file__
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__code__.co_filename == path:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_methods(layer, path, obj)
        self._wrap_attr("pptlab.cli", "run", "cli.run", wrappers)
        self._wrap_attr("scipy.linalg", "expm", "scipy.linalg.expm", wrappers)
        for modname, mod in list(sys.modules.items()):
            if modname == "pptlab" or modname.startswith("pptlab."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        self._set(mod, name, wrappers[id(obj)])

    def _wrap_attr(self, modname, attr, key, wrappers):
        mod = importlib.import_module(modname)
        original = getattr(mod, attr)
        wrappers[id(original)] = self._wrap(key, original)
        self._set(mod, attr, wrappers[id(original)])

    def _wrap_methods(self, layer, path, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            static = isinstance(member, staticmethod)
            fn = member.__func__ if static else member
            # dataclass-generated methods are compiled from a string, not the file
            if not inspect.isfunction(fn) or fn.__code__.co_filename != path:
                continue
            label = "init" if attr == "__init__" else attr
            wrapped = self._wrap(f"{layer}.{cls.__name__}.{label}", fn)
            self._set(cls, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
