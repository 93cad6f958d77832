"""Spans around the calls one layer of spinsectors makes into another.

Tracing is opt-in: `install` replaces each wrapped name with a recording
wrapper and returns the originals, `uninstall` puts them back.  An untraced
run never calls `install`, so the library runs unmodified.

Wrapped names:
- every function one spinsectors module imports from another (for example
  `ensembles.clebsch_gordan` from su2), plus the package-level names the
  benchmark itself calls, so each op has a root span;
- a few names called inside one module that the per-layer metrics need:
  the entropy kernel, the coupled geometry and its CG lookup, Gaussianity;
- the external layer: `numpy.linalg.eigvalsh`/`eigh` (with a computed
  flop count), `numpy.einsum` and the generators of `numpy.random.default_rng`.

Spans live in flat arrays (name id, start, end, parent, op index) and are
written out once, when the traced process ends.
"""

import functools
import importlib
import time
import types
from array import array

PACKAGE = "spinsectors"
LAYERS = ("ensembles", "spectra", "su2", "combinatorics", "special", "asymptotics")

# (module, attribute path, span name) for calls made inside one module.
INTRA_MODULE = (
    ("ensembles", "schmidt_square_entropy", "ensembles.entropy_kernel"),
    ("ensembles", "CoupledPairGeometry.__init__", "ensembles.geometry"),
    ("ensembles", "CoupledPairGeometry.cg_coefficient", "ensembles.cg_coefficient"),
    ("spectra", "gaussianity_of_vector", "spectra.gaussianity"),
)


def _eig_flops(per_matrix_real):
    """Computed flop count of a (stacked) Hermitian eigensolve.

    The cost model is c*n**3 real flops per n x n matrix, four times that
    for complex input; it ignores cache behaviour and is labelled computed.
    """

    def count(args, kwargs):
        a = args[0] if args else kwargs["a"]
        shape = getattr(a, "shape", ())
        if len(shape) < 2:
            return 0.0
        stacked = 1
        for s in shape[:-2]:
            stacked *= s
        factor = 4.0 if getattr(a, "dtype", None) is not None and a.dtype.kind == "c" else 1.0
        return stacked * factor * per_matrix_real * float(shape[-1]) ** 3

    return count


# (module, attribute, span name, flop model) for the external numpy layer.
NUMPY_TARGETS = (
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", _eig_flops(4.0 / 3.0)),
    ("numpy.linalg", "eigh", "linalg.eigh", _eig_flops(9.0)),
    ("numpy", "einsum", "numpy.einsum", None),
)


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.current_op = -1
        self.counts = {}

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key, amount):
        """Add to a counter of the current phase (warm-up or timed ops)."""
        k = (self.current_op >= 0, key)
        self.counts[k] = self.counts.get(k, 0.0) + amount


def _traced(fn, name, tracer, flops=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if flops is not None:
            tracer.count(name + ".flop", flops(args, kwargs))
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


class _TracedGenerator:
    """Generator proxy that records a span and a value count per draw."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        tracer = self._tracer
        nid = tracer.name_id("random.draw")

        def draw(*args, **kwargs):
            i = tracer.open(nid)
            try:
                out = value(*args, **kwargs)
            finally:
                tracer.close(i)
            tracer.count("random.values", getattr(out, "size", 1))
            return out

        return draw


def _traced_default_rng(fn, tracer):
    @functools.wraps(fn)
    def default_rng(*args, **kwargs):
        return _TracedGenerator(fn(*args, **kwargs), tracer)

    return default_rng


def _resolve(owner, path):
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def layer_of(module_name):
    return module_name.rsplit(".", 1)[-1]


def targets():
    """Every (owner, attribute, span name, flop model) that tracing replaces."""
    out = []
    package = importlib.import_module(PACKAGE)
    for mod in [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]:
        for attr, value in sorted(vars(mod).items()):
            if (
                isinstance(value, types.FunctionType)
                and value.__module__.startswith(PACKAGE + ".")
                and value.__module__ != mod.__name__
            ):
                out.append((mod, attr, f"{layer_of(value.__module__)}.{value.__name__}", None))
    for module, path, name in INTRA_MODULE:
        owner, attr = _resolve(importlib.import_module(f"{PACKAGE}.{module}"), path)
        out.append((owner, attr, name, None))
    for module, attr, name, flops in NUMPY_TARGETS:
        out.append((importlib.import_module(module), attr, name, flops))
    out.append((importlib.import_module("numpy.random"), "default_rng", "random.default_rng", None))
    return out


def install(tracer):
    """Wrap every target; returns the (owner, attribute, original) list."""
    saved = []
    for owner, attr, name, flops in targets():
        original = getattr(owner, attr)
        if attr == "default_rng":
            wrapper = _traced_default_rng(original, tracer)
        else:
            wrapper = _traced(original, name, tracer, flops)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def save(tracer, path):
    """Write the recorded spans to a compressed .npz file."""
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        op=np.frombuffer(tracer.op, dtype=np.int32),
    )


def summarize(tracer):
    """Per-name calls, total and self time of the timed ops, plus layer times.

    Self time is a span's duration minus its direct children.  A layer's time
    sums the spans of that layer that have no ancestor in the same layer, so
    nested calls are counted once.  Spans of the warm-up op (op index -1)
    are summed separately under `warmup_total_s`.
    """
    import numpy as np

    name = np.frombuffer(tracer.name, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    timed = np.frombuffer(tracer.op, dtype=np.int32) >= 0
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    layers = sorted({n.split(".", 1)[0] for n in tracer.names})
    name_layer = [layers.index(n.split(".", 1)[0]) for n in tracer.names]
    span_layer = [name_layer[i] for i in name.tolist()]
    masks = [0] * len(span_layer)
    outer = np.ones(len(span_layer), dtype=bool)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            masks[i] = masks[p] | (1 << span_layer[p])
            outer[i] = not (masks[i] >> span_layer[i]) & 1
    n_names = len(tracer.names)

    def per_name(values, mask):
        sums = np.bincount(name[mask], weights=values[mask], minlength=n_names)
        return {tracer.names[i]: float(sums[i]) for i in range(n_names) if sums[i]}

    calls = np.bincount(name[timed], minlength=n_names)
    layer_s = np.bincount(
        np.array(span_layer, dtype=np.int64)[timed & outer],
        weights=dur[timed & outer],
        minlength=len(layers),
    )
    return {
        "calls": {tracer.names[i]: int(calls[i]) for i in range(n_names) if calls[i]},
        "total_s": per_name(dur, timed),
        "self_s": per_name(self_t, timed),
        "warmup_total_s": per_name(dur, ~timed),
        "layer_s": {layers[i]: float(layer_s[i]) for i in range(len(layers))},
        "counts": {key: value for (is_timed, key), value in tracer.counts.items() if is_timed},
    }
