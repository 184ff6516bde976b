"""Span tracer that instruments combstab from outside.

:meth:`Tracer.install` wraps the public functions of each combstab module and
rebinds every name that holds one of them, in every ``combstab.*`` module
namespace.  ``from .model import component_eulers`` gives each importing
module its own binding, so patching only the defining module would miss
internal calls; ``kernels.simplest_between`` is looked up on the module at
call time, so rebinding the module attribute reaches it.
:meth:`Tracer.uninstall` restores the originals.

Spans are kept in memory (start, end, parent, name) and written out by
:meth:`Tracer.write`.  A span's self time is its duration minus the time its
direct children cover; it is accumulated per layer (the module a function
belongs to) while the run goes, so the layer self times plus the time spent
outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "documents", "model", "polarization", "restrictions", "kernel_bundles", "kernels", "oracles")

# Constant-time arithmetic leaves called O(N) times per higher-level call; a
# span each would swamp the trace.  Their time is self time of the caller.
UNTRACED = {"component_euler", "format_rational", "parse_rational", "euclidean_remainder", "divisibility_exclusion"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_ids = array("q")
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []  # open span ids
        self._child_ns: list[int] = []  # time covered by children, per open span
        self._open: dict[str, int] = {}  # open span count per function name
        self._bindings: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.calls:
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls[name] = 0
            self.total_ns[name] = 0
        return self.names.index(name)

    def _enter(self, name_id: int) -> int:
        span = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.name_ids.append(name_id)
        self.ends.append(0)
        self._stack.append(span)
        self._child_ns.append(0)
        name = self.names[name_id]
        self._open[name] = self._open.get(name, 0) + 1
        self.starts.append(time.perf_counter_ns())
        return span

    def _exit(self, span: int) -> None:
        end = time.perf_counter_ns()
        self.ends[span] = end
        self._stack.pop()
        duration = end - self.starts[span]
        children = self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += duration
        name_id = self.name_ids[span]
        name = self.names[name_id]
        self._open[name] -= 1
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[self.layer_of[name_id]] += duration - children

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, on_result=None):
        name_id = self._name_id(name, layer)
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            # Each next() on the stream is one span: generation work happens there.
            @functools.wraps(fn)
            def traced_stream(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = enter(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(span)
                    yield item

            return traced_stream

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def install(self, package: str = "combstab") -> None:
        """Wrap every public function of every layer module and rebind all its names."""
        modules = {n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")}
        wrappers: dict[int, object] = {}
        for mod_name, module in modules.items():
            layer = mod_name.split(".")[1] if "." in mod_name else None
            if layer not in LAYERS:
                continue
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or attr.startswith("_") or attr in UNTRACED:
                    continue
                home = f"{package}.{layer}"
                if not (fn.__module__ == home or fn.__module__.startswith(home + ".")) or id(fn) in wrappers:
                    continue
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}", layer, RESULT_HOOKS.get(attr))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    # -- results ----------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span, (parent, name_id, start, end) in enumerate(zip(self.parents, self.name_ids, self.starts, self.ends)):
                out.write(f"{span}\t{parent}\t{self.names[name_id]}\t{start}\t{end}\n")


def _parser_hook(tracer: Tracer, args, parser) -> None:
    # argparse set-up is build_parser; the per-command parse is a method on
    # the returned parser, traced as its own cli span.
    parse = parser.parse_args
    name_id = tracer._name_id("cli.parse_args", "cli")

    def traced_parse(*a, **k):
        span = tracer._enter(name_id)
        try:
            return parse(*a, **k)
        finally:
            tracer._exit(span)

    parser.parse_args = traced_parse


def _picks_hook(tracer: Tracer, args, result) -> None:
    if tracer.inside("polarization.synthesize_polarization"):
        tracer.count("picks_attempted")


def _synthesize_hook(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.count("picks_useful", len(result.weights) - 1)


def _raw_candidates_hook(tracer: Tracer, args, result) -> None:
    if tracer.inside("restrictions.filtered_destabilizer_candidates"):
        tracer.count("candidates_raw", len(result))


def _kept_candidates_hook(tracer: Tracer, args, result) -> None:
    tracer.count("candidates_kept", len(result))


RESULT_HOOKS = {
    "build_parser": _parser_hook,
    "pick_simplest_rational": _picks_hook,
    "synthesize_polarization": _synthesize_hook,
    "destabilizer_candidates": _raw_candidates_hook,
    "filtered_destabilizer_candidates": _kept_candidates_hook,
}
