"""Outside-in tracing of fiocalc for the benchmark.

Spans are recorded by wrappers that the benchmark installs around the public
functions of every fiocalc module and around the `apply` methods of the
metaplectic factors; nothing in the package itself changes.  A wrapper is
installed in every fiocalc namespace that binds the function (a module that
did `from .gabor import decay_profile` gets the wrapped function too), in the
acceptance battery's check tuple and in the CLI command table.

Spans are kept in memory and written out after the run.  A layer's self time
is the time of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("symplectic", "phases", "grids", "weyl", "metaplectic", "gabor",
          "symbols", "fio", "lagdist", "acceptance", "serialize", "cli")

FACTORS = ("FreeKernelFactor", "LinearFactor", "FourierFactor", "ChirpFactor")

SERIALIZE_WRITES = ("grid_function_to_csv", "field_to_csv", "field_to_pgm",
                    "append_config_comment", "write_json")
SERIALIZE_READS = ("grid_function_from_csv", "read_json", "pgm_levels")
# argument position of the file path in each serialize writer/reader
_PATH_ARG = {"grid_function_to_csv": 1, "field_to_csv": 1, "field_to_pgm": 1,
             "append_config_comment": 0, "write_json": 1,
             "grid_function_from_csv": 0, "read_json": 0, "pgm_levels": 0}

GABOR_4D = ("decay_profile", "directional_derivative", "chi_twist_field",
            "kernel_fbi_field")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


class Tracer:
    """Span recorder.  `op` is the id of the benchmark operation that the
    spans recorded now belong to; `counts` holds per-operation counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(Counter)
        self.op = None
        self.active = True
        self._stack: list[int] = []

    def count(self, key: str, value) -> None:
        self.counts[self.op][key] += value

    def ancestors(self, index):
        """Names of the spans enclosing span `index`, innermost first."""
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def wrap(self, name, func, name_of=None, before=None, after=None):
        """Wrapper recording one span per call of func.  name_of(args, kwargs)
        may refine the span name; before(args, kwargs) runs ahead of the call
        and its value goes to after(index, args, kwargs, result, state), which
        runs once the span is closed.  Results and exceptions pass through
        unchanged."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            state = before(args, kwargs) if before else None
            span_name = name_of(args, kwargs) if name_of else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if after:
                after(index, args, kwargs, result, state)
            return result

        wrapper.__traced_original__ = func
        return wrapper

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so the children of a span run one after the
    other inside it and their durations add up to the time they cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


# -- installing the wrappers --------------------------------------------------


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def instrument(tracer: Tracer):
    """Install tracing wrappers in every fiocalc namespace; returns a
    function that puts the original objects back."""
    mods = {name: importlib.import_module(f"fiocalc.{name}") for name in LAYERS}
    namespaces = [sys.modules["fiocalc"], *mods.values()]
    undo = []

    def setattr_undo(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    from fiocalc.fio import OscQuadrature
    from fiocalc.gabor import Field4D

    def hooks(layer, name):
        if layer == "gabor":
            def after(_i, _a, _k, result, _s):
                if isinstance(result, Field4D):
                    tracer.count("gabor.field4d_bytes", result.values.nbytes)
            return {"after": after}
        if layer == "fio" and name == "fio_kernel":
            def name_of(args, kwargs):
                spec = args[0] if args else kwargs["spec"]
                return f"fio.fio_kernel.{spec.form}"
            return {"name_of": name_of}
        if layer == "serialize" and name in _PATH_ARG:
            pos = _PATH_ARG[name]
            key = "serialize.bytes_read" if name in SERIALIZE_READS \
                else "serialize.bytes_written"

            def path_of(args, kwargs):
                return args[pos] if len(args) > pos else kwargs.get("path")

            def before(args, kwargs):
                return 0 if key.endswith("read") else _file_size(path_of(args, kwargs))

            def after(_i, args, kwargs, _r, size_before):
                tracer.count(key, _file_size(path_of(args, kwargs)) - size_before)
            return {"before": before, "after": after}
        if layer == "serialize" and name == "write_manifest":
            def after(_i, args, kwargs, _r, _s):
                directory = args[0] if args else kwargs["directory"]
                tracer.count("serialize.bytes_written", _file_size(
                    os.path.join(directory, "manifest.json")))
            return {"after": after}
        return {}

    wrapped = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and name.startswith("cmd_"):
                continue  # traced through the command table below
            wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj, **hooks(layer, name))

    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr_undo(ns, attr, wrapped[value])

    acceptance, cli, fio, metaplectic = (mods["acceptance"], mods["cli"],
                                         mods["fio"], mods["metaplectic"])
    setattr_undo(acceptance, "ALL_CHECKS",
                 tuple(wrapped.get(c, c) for c in acceptance.ALL_CHECKS))
    commands = dict(cli._COMMANDS)
    for command, (func, nargs) in commands.items():
        commands[command] = (tracer.wrap(f"cli.{command}", func), nargs)
    setattr_undo(cli, "_COMMANDS", commands)

    # theta quadrature: count amplitude evaluations and doublings
    quadrature = fio._theta_quadrature

    def counted_quadrature(phase, amplitude, X, *args, **kwargs):
        def counted(pts):
            shape = getattr(pts, "shape", (1,))
            tracer.count("fio.quad_evals", math.prod(shape[:-1]))
            return amplitude(pts)
        return quadrature(phase, counted, X, *args, **kwargs)

    def quad_after(_i, _a, _k, result, _s):
        quad = result[1]
        if isinstance(quad, OscQuadrature):
            tracer.count("fio.quadratures", 1)
            tracer.count("fio.quad_useful", 1.0 / (quad.doublings + 1))

    setattr_undo(fio, "_theta_quadrature", tracer.wrap(
        "fio._theta_quadrature", functools.wraps(quadrature)(counted_quadrature),
        after=quad_after))

    # factor applies: time by dimension, dense multiply-add counts
    for cls_name in FACTORS:
        cls = getattr(metaplectic, cls_name)
        orig = cls.__dict__["apply"]

        def name_of(args, kwargs, cls_name=cls_name):
            return f"metaplectic.{cls_name}.apply.d{args[1].spec.d}"

        def after(_i, args, _k, _r, _s, cls_name=cls_name):
            spec = args[1].spec
            N = spec.size()
            macs = {"FreeKernelFactor": N * N, "LinearFactor": 2 * N * N,
                    "FourierFactor": spec.d * spec.n * N}.get(cls_name, 0)
            tracer.count("metaplectic.dense_macs", macs)

        setattr_undo(cls, "apply", tracer.wrap(cls_name, orig, name_of=name_of,
                                               after=after))

    op_cls = metaplectic.MetaplecticOperator

    def apply_after(index, _a, _k, _r, _s):
        tracer.count("metaplectic.applies", 1)
        if "metaplectic.mu_general" not in tracer.ancestors(index):
            tracer.count("metaplectic.user_applies", 1)

    setattr_undo(op_cls, "apply", tracer.wrap(
        "metaplectic.MetaplecticOperator.apply", op_cls.__dict__["apply"],
        after=apply_after))
    setattr_undo(op_cls, "matrix", tracer.wrap(
        "metaplectic.MetaplecticOperator.matrix", op_cls.__dict__["matrix"]))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    return restore


# -- per-layer metrics ----------------------------------------------------------

ACCEPTANCE_CHECKS = (
    "symplectic_algebra", "phase_reduction", "graph_phase_estimates",
    "metaplectic_identities", "symplectic_covariance", "weyl_calculus",
    "fbi_covariance", "factorization", "composition_adjoint",
    "kernel_characterization", "wavefront_sets", "lagrangian_equivalence")
CLI_COMMANDS = ("fio-kernel", "factorize", "adjoint", "compose", "mu-apply",
                "weyl-quantize", "fbi-map", "wf", "lag-test", "suite")

# span name -> metric name for the timed functions
TIMED = {
    **{f"gabor.{fn}": f"gabor.{fn}.s" for fn in (*GABOR_4D, "gabor_transform")},
    "fio.kernel_characterization_check": "fio.kernel_characterization_check.s",
    "fio.wf_kernel_check": "fio.wf_kernel_check.s",
    "fio.fio_kernel.oscillatory": "fio.fio_kernel.oscillatory.s",
    "lagdist.lagrangian_membership_test": "lagdist.lagrangian_membership_test.s",
    "lagdist.lagrangian_synthesize": "lagdist.lagrangian_synthesize.s",
    "weyl.weyl_kernel": "weyl.weyl_kernel.s",
    "weyl.symbol_from_kernel": "weyl.symbol_from_kernel.s",
    **{f"acceptance.check_{c}": f"acceptance.check_{c}.s" for c in ACCEPTANCE_CHECKS},
    **{f"cli.{c}": f"cli.{c}.s" for c in CLI_COMMANDS},
}
FACTOR_APPLIES = tuple(f"metaplectic.{c}.apply.d{d}" for c in FACTORS for d in (1, 2))


def pass_metrics(tracer: Tracer, ops) -> dict:
    """Per-layer metrics of one pass, from the spans and counters of the
    operation ids in `ops`."""
    ops = set(ops)
    selfs = self_times(tracer.spans)
    time_by_name = Counter()
    calls_by_name = Counter()
    self_by_layer = Counter()
    calls_by_layer = Counter()
    serialize = Counter()
    spans = 0
    for i, s in enumerate(tracer.spans):
        if s.op not in ops:
            continue
        spans += 1
        self_by_layer[s.layer] += selfs[i]
        calls_by_layer[s.layer] += 1
        calls_by_name[s.name] += 1
        outer = list(tracer.ancestors(i))
        dur = s.end - s.start
        if s.name not in outer:  # a recursive call counts once
            time_by_name[s.name] += dur
        if s.layer == "serialize" and not any(a.startswith("serialize.") for a in outer):
            short = s.name.split(".", 1)[1]
            if short in SERIALIZE_WRITES:
                serialize["write_s"] += dur
            elif short in SERIALIZE_READS:
                serialize["read_s"] += dur
            elif short == "write_manifest":
                serialize["manifest_s"] += dur
    counts = Counter()
    for op in ops:
        counts.update(tracer.counts.get(op, {}))

    m = {metric: time_by_name[name] for name, metric in TIMED.items()}
    m["gabor.field4d_bytes"] = counts["gabor.field4d_bytes"]
    m["fio.quad_evals"] = counts["fio.quad_evals"]
    m["fio.quad_useful_ratio"] = _ratio(counts["fio.quad_useful"],
                                        counts["fio.quadratures"])
    for name in FACTOR_APPLIES:
        m[f"{name}.s"] = time_by_name[name]
        m[f"{name}.calls"] = calls_by_name[name]
    m["metaplectic.dense_macs"] = counts["metaplectic.dense_macs"]
    m["metaplectic.useful_apply_ratio"] = _ratio(counts["metaplectic.user_applies"],
                                                 counts["metaplectic.applies"])
    for key in ("write_s", "read_s", "manifest_s"):
        m[f"serialize.{key}"] = serialize[key]
    m["serialize.bytes_written"] = counts["serialize.bytes_written"]
    m["serialize.bytes_read"] = counts["serialize.bytes_read"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
        m[f"{layer}.calls"] = calls_by_layer[layer]
    m["trace.spans"] = spans
    return m


def _ratio(num, den) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def metric_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
