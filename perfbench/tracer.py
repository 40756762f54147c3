"""Per-layer host tracer, applied from outside the program.

:class:`LayerTracer` wraps the entry points of every ``repro`` package
for the duration of one traced run and restores them afterwards.  Each
wrapped call pushes a frame naming its layer; when the call returns, its
host duration is charged to the function, and the part not covered by
child frames is the function's *self time*.  Generator-shaped entry
points (RPC calls, NTCP verbs, journal stores, kernel processes) are
timed per resume, so simulated waiting is never charged to anyone.

A root frame named ``other`` spans the whole traced section, so the
self times of all layers plus ``other`` sum to the traced host time.

Entry points are the functions a module defines at top level and the
functions its classes define, limited to public names, ``__call__``, and
the ``_op_*``/``_on_*`` handlers that the RPC dispatcher and callbacks
reach.  A generator or closure returned by an entry point is an entry
point of the same layer.  Aliases created by ``from module import function`` in other
loaded ``repro`` modules are patched too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import types
from time import process_time

#: The layers the benchmark reports, named after ``repro`` packages; a
#: module called ``schema`` in any package belongs to the ``schema`` layer.
LAYERS = ("sim", "net", "core", "ogsi", "control", "coordinator",
          "structural", "telemetry", "util", "monitor", "schema",
          "observatory", "nsds", "daq", "repository", "gsi", "fleet",
          "queue")
OTHER = "other"

#: Packages loaded before tracing so that lazily imported modules are
#: wrapped too; analysis and verification tooling never runs in a workload.
_SKIP_PACKAGES = ("repro.analysis", "repro.verify")

#: A marker attribute set on every wrapper (and checked by the tests).
MARKER = "_perfbench_layer"


def layer_of(module_name: str) -> str:
    """The reporting layer of a ``repro`` module."""
    parts = module_name.split(".")
    if parts[-1] == "schema":
        return "schema"
    if len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def _is_entry_point(name: str) -> bool:
    if name == "__call__":
        return True
    if name.startswith("__"):
        return False
    return (not name.startswith("_") or name.startswith("_op_")
            or name.startswith("_on_"))


def load_program_modules(package: str = "repro") -> list[types.ModuleType]:
    """Import every module of the program; return the loaded ``repro`` ones."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        name = info.name
        if name.startswith(_SKIP_PACKAGES) or name.endswith("__main__"):
            continue
        importlib.import_module(name)
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(f"{package}."))
            and not name.startswith(_SKIP_PACKAGES)]


class LayerTracer:
    """Host self time and call counts per function and per layer.

    Use as a context manager around the traced section only::

        with LayerTracer() as tracer:
            run_the_workload()
        tracer.layer_self_s()   # {"sim": ..., ..., "other": ...}

    ``probes`` maps a function key (``module.Qualname``) to a callable
    receiving the call's arguments; it runs on entry, for counts a plain
    call tally cannot give (queue depth, bytes moved).
    """

    def __init__(self, probes: dict | None = None):
        self.probes = dict(probes or {})
        #: key -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.layer_of_key: dict[str, str] = {}
        #: calls entering a layer from a different layer
        self.entries: dict[str, int] = dict.fromkeys(LAYERS + (OTHER,), 0)
        self.total_s = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            self._patch_program()
        except BaseException:
            self.close()
            raise
        self._stack.append([OTHER, process_time(), 0.0])
        return self

    def _patch_program(self) -> None:
        modules = load_program_modules()
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
                elif (isinstance(value, types.FunctionType)
                      and value.__module__ == module.__name__
                      and not name.startswith("_")):
                    key = f"{module.__name__}.{value.__qualname__}"
                    wrapper = self._wrap(value, layer, key)
                    wrapped[id(value)] = (value, wrapper)
                    self._patch(module, name, wrapper)
        # ``from module import function`` aliases elsewhere in the program
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop timing and restore every patched attribute."""
        if self._stack:
            frame = self._stack.pop()
            self.total_s = process_time() - frame[1]
            self._charge(OTHER, f"{OTHER}.unattributed", frame,
                         self.total_s)
            self._stack.clear()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        original = vars(owner)[name]
        if getattr(original, MARKER, None) is not None:
            return
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, value in list(vars(cls).items()):
            if isinstance(value, types.FunctionType) and _is_entry_point(name):
                key = f"{cls.__module__}.{value.__qualname__}"
                self._patch(cls, name, self._wrap(value, layer, key))
            elif isinstance(value, type) and value.__module__ == cls.__module__:
                self._wrap_class(value, layer)

    # -- timing --------------------------------------------------------------
    def _charge(self, layer: str, key: str, frame: list,
                elapsed: float) -> None:
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = [0, 0.0, 0.0]
            self.layer_of_key[key] = layer
        stats[1] += elapsed - frame[2]
        stats[2] += elapsed

    def _enter(self, layer: str, key: str, args, kwargs) -> None:
        """Count one call (not one resume) of an entry point."""
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = [0, 0.0, 0.0]
            self.layer_of_key[key] = layer
        stats[0] += 1
        if not self._stack or self._stack[-1][0] != layer:
            self.entries[layer] += 1
        probe = self.probes.get(key)
        if probe is not None:
            probe(*args, **kwargs)

    def _timed(self, layer: str, key: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a frame of ``layer``."""
        stack = self._stack
        frame = [layer, process_time(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = process_time() - frame[1]
            stack.pop()
            self._charge(layer, key, frame, elapsed)
            if stack:
                stack[-1][2] += elapsed

    def _resumed(self, gen, layer: str, key: str):
        """Drive ``gen``, timing each resume as one frame of ``layer``."""
        value, error = None, None
        while True:
            try:
                if error is None:
                    target = self._timed(layer, key, gen.send, (value,), {})
                else:
                    target = self._timed(layer, key, gen.throw, (error,), {})
            except StopIteration as stop:
                return stop.value
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # relayed into the generator
                value, error = None, exc

    def _wrap(self, fn, layer: str, key: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._enter(layer, key, args, kwargs)
                return tracer._resumed(fn(*args, **kwargs), layer, key)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._enter(layer, key, args, kwargs)
                result = tracer._timed(layer, key, fn, args, kwargs)
                if isinstance(result, types.GeneratorType):
                    # a handler that returns a process: time its resumes too
                    return tracer._resumed(result, layer, key)
                if (isinstance(result, types.FunctionType)
                        and "<locals>" in result.__qualname__):
                    # a factory's closure (e.g. a health probe) is an entry
                    # point of the factory's layer
                    return tracer._wrap(
                        result, layer,
                        f"{result.__module__}.{result.__qualname__}")
                return result
        setattr(wrapper, MARKER, layer)
        return wrapper

    # -- results -------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        """Host self seconds per layer (``other`` included)."""
        totals = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        for key, (_, self_s, _) in self.stats.items():
            totals[self.layer_of_key[key]] += self_s
        return totals

    def calls(self, key: str) -> int:
        """Calls of the entry point ``module.Qualname``."""
        return self.stats.get(key, (0, 0.0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def inclusive_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def calls_where(self, layer: str, name: str | None = None) -> int:
        """Calls of every entry point of ``layer`` (named ``name``)."""
        return sum(stats[0] for key, stats in self.stats.items()
                   if self.layer_of_key[key] == layer
                   and (name is None or key.rsplit(".", 1)[-1] == name))
