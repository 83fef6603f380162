"""Spans around the public functions of each kwisent module, recorded from outside.

``Tracer.install`` wraps every public function and public method defined in
the layer modules, then rebinds each wrapped function in every loaded
``kwisent`` module that imported it by name (``smoothing`` binds ``wht``,
``convolve`` and others that way; patching only ``cube`` would miss those
calls).  Functions behind ``functools.lru_cache`` are not plain functions
and stay unwrapped.  The CLI layer has no public functions: the harness
opens one ``cli`` span per op, so ``cli`` self time is click parsing,
formatting and file output.

A span is (name, start, end, parent span index, op id, extra); spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import FunctionType

LAYERS = ("cube", "codes", "kwise", "balls", "bounds", "smoothing")
OP_SPAN = "cli"
FWHT = ("cube.wht", "cube.inverse_wht", "cube.convolve")
CHAIN = "smoothing.smoothing_chain"


def _vector_bytes(args) -> int:
    """Bytes of one dense float64 vector of the first argument's dimension."""
    return 8 << getattr(args[0], "n", 0)


# Computed bytes per call, from array sizes (not measured traffic): each
# butterfly stage reads and writes the whole vector; a convolution adds one
# product of two spectra to its own inverse butterfly (its two forward
# transforms are child spans); the adjacency gathers the vector through an
# int64 index once per bit and updates the output; a level scan reads the
# coefficients, writes and reads one temporary, and reads the 1-byte sizes.
BYTE_MODELS = {
    "cube.wht": lambda a: 2 * a[0].n * _vector_bytes(a),
    "cube.inverse_wht": lambda a: 2 * a[0].n * _vector_bytes(a),
    "cube.convolve": lambda a: (2 * a[0].n + 3) * _vector_bytes(a),
    "cube.adjacency_apply": lambda a: 4 * a[0].n * _vector_bytes(a),
    "cube.level_profile": lambda a: 3 * _vector_bytes(a) + _vector_bytes(a) // 8,
    "cube.level_max_abs": lambda a: 3 * _vector_bytes(a) + _vector_bytes(a) // 8,
}


def _extra(name: str, args, result):
    if name == CHAIN:
        return True  # completed; a chain that fails its precondition raises
    if name == "balls.lambda_ball":
        return (getattr(result, "n", None), getattr(result, "r", None), getattr(result, "iterations", 0))
    model = BYTE_MODELS.get(name)
    return model(args) if model else None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            extra = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                extra = _extra(name, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, extra)

        return traced

    @contextmanager
    def op_span(self, op_id: int):
        """The root span of one CLI invocation."""
        self.op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, None, op_id, None)

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self, package: str = "kwisent") -> dict:
        """Wrap the layers' public functions; returns {span name: original function}."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers, names = {}, {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                    names[f"{layer}.{attr}"] = obj
                elif isinstance(obj, type):
                    names.update(self._wrap_methods(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        return names

    def _wrap_methods(self, prefix: str, cls: type) -> dict:
        """Wrap public methods in place on the class, which every importer shares."""
        names = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            func = raw.__func__ if binder else raw
            if isinstance(func, FunctionType):
                wrapper = self._wrap(f"{prefix}.{attr}", func)
                self._set(cls, attr, binder(wrapper) if binder else wrapper)
                names[f"{prefix}.{attr}"] = func
        return names

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def self_times(spans: list) -> list[float]:
    out = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list, passes: int, ops_per_pass: int) -> dict:
    """(layer metrics, self seconds of every span name), both per pass.

    Counts and self times are divided by the number of traced passes;
    ratios are taken over all traced passes.
    """
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    in_chain = [False] * len(spans)
    chain_fwht = chains = 0
    seen_radii: set = set()
    repeats = iterations = 0
    cube_bytes = cube_calls = 0
    cube_kernel_s = 0.0
    for i, (name, _, _, parent, op, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        in_chain[i] = name == CHAIN or (parent is not None and in_chain[parent])
        if name in FWHT and in_chain[i]:
            chain_fwht += 1
        if name == CHAIN and extra:
            chains += 1
        if name.startswith("cube."):
            cube_calls += 1
        if name in BYTE_MODELS and extra is not None:
            cube_bytes += extra
            cube_kernel_s += own[i]
        if name == "balls.lambda_ball" and extra is not None:
            n, r, its = extra
            key = (op, n, r)
            repeats += key in seen_radii
            seen_radii.add(key)
            iterations += its

    def per_pass(value):
        return value / passes

    lambda_calls = calls["balls.lambda_ball"]
    return {
        "balls.lambda_ball.calls": per_pass(lambda_calls),
        "balls.lambda_ball.iterations": per_pass(iterations),
        "balls.lambda_ball.self_s": per_pass(self_s["balls.lambda_ball"]),
        "balls.lambda_ball.repeat_frac": repeats / lambda_calls if lambda_calls else 0.0,
        "balls.min_radius.calls": per_pass(calls["balls.min_radius"]),
        "balls.min_radius.self_s": per_pass(self_s["balls.min_radius"]),
        "bounds.evaluate.self_s": per_pass(self_s["bounds.evaluate"]),
        "bounds.smoothed_entropy_bound.self_s": per_pass(self_s["bounds.smoothed_entropy_bound"]),
        "cube.fwht_passes": per_pass(sum(calls[name] for name in FWHT)),
        "cube.wht.self_s": per_pass(self_s["cube.wht"]),
        "cube.convolve.self_s": per_pass(self_s["cube.convolve"]),
        "cube.adjacency_apply.self_s": per_pass(self_s["cube.adjacency_apply"]),
        "cube.level_scan.self_s": per_pass(self_s["cube.level_profile"] + self_s["cube.level_max_abs"]),
        "cube.bytes_computed": per_pass(cube_bytes),
        "cube.gbytes_per_s_computed": cube_bytes / cube_kernel_s / 1e9 if cube_kernel_s > 0 else 0.0,
        "cube.calls_per_op": cube_calls / (passes * ops_per_pass),
        "smoothing.fwht_per_chain": chain_fwht / chains if chains else 0.0,
        "smoothing.smoothing_chain.self_s": per_pass(self_s[CHAIN]),
        "smoothing.halfwise_chain.self_s": per_pass(self_s["smoothing.halfwise_chain"]),
        "balls.density.self_s": per_pass(self_s["balls.BallSpectrum.density"]),
        "kwise.from_space.self_s": per_pass(self_s["kwise.Distribution.from_space"]),
        "kwise.independence_order.self_s": per_pass(self_s["kwise.independence_order"]),
        "kwise.marginal_order.calls": per_pass(calls["kwise.marginal_order"]),
        "kwise.marginal_order.self_s": per_pass(self_s["kwise.marginal_order"]),
        "codes.from_text.self_s": per_pass(
            self_s["codes.SampleSpace.from_text"] + self_s["codes.BinaryMatrix.from_text"]
        ),
        "codes.to_text.self_s": per_pass(
            self_s["codes.SampleSpace.to_text"] + self_s["codes.BinaryMatrix.to_text"]
        ),
        "codes.parity_sampler_space.self_s": per_pass(self_s["codes.parity_sampler_space"]),
        "cli.self_s": per_pass(self_s[OP_SPAN]),
    }, {name: per_pass(value) for name, value in self_s.items()}
