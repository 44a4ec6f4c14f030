"""Per-module spans for a traced benchmark pass, recorded from outside the package.

No grasspack source is touched. For the duration of a traced pass the
:class:`Tracer` rebinds the names one grasspack module imported from another
(``codebooks.substream``, ``cli.optimize_manopt``, ...) and the ``np``
attribute of the modules whose numpy kernels are counted, then restores every
original binding. Spans nest through a stack, so a span's self time is its
duration minus the time of the traced spans it called.

Counts marked ``computed`` are derived from argument shapes, not measured.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

import grasspack.cli
import grasspack.codebooks
import grasspack.grassmann
import grasspack.linksim
import grasspack.wavesim

_MODULES = {
    "cli": grasspack.cli,
    "codebooks": grasspack.codebooks,
    "grassmann": grasspack.grassmann,
    "linksim": grasspack.linksim,
    "wavesim": grasspack.wavesim,
}

# (module whose binding is replaced, imported name, span it is recorded as).
# The span is named after the module that defines the function. Names a module
# calls within itself are rebound in that module too where a layer metric
# needs them (grassmann.pairwise_gram_sq under min_chordal_distance).
FUNCTION_SPANS = (
    ("cli", "optimize_manopt", "codebooks.optimize_manopt"),
    ("cli", "build_expmap", "codebooks.build_expmap"),
    ("cli", "build_sparse_2M", "codebooks.build_sparse_2M"),
    ("cli", "build_general_sparse", "codebooks.build_general_sparse"),
    ("cli", "save_codebook", "codebooks.save_codebook"),
    ("cli", "load_codebook", "codebooks.load_codebook"),
    ("cli", "min_chordal_distance", "grassmann.min_chordal_distance"),
    ("cli", "rate_curve", "linksim.rate_curve"),
    ("cli", "gain_cdf", "linksim.gain_cdf"),
    ("cli", "papr_experiment", "wavesim.papr_experiment"),
    ("cli", "ccdf", "wavesim.ccdf"),
    ("cli", "row_sparse_precoder", "wavesim.row_sparse_precoder"),
    ("codebooks", "pairwise_gram_sq", "grassmann.pairwise_gram_sq"),
    ("codebooks", "_qr_positive", "linalg.qr"),
    ("codebooks", "matexp_skew_hermitian", "linalg.matexp"),
    ("codebooks", "substream", "rng.substream"),
    ("codebooks", "enumerate_patterns", "schubert.patterns"),
    ("codebooks", "matching_patterns", "schubert.patterns"),
    ("codebooks", "pair_codeword", "schubert.pair_codeword"),
    ("grassmann", "pairwise_gram_sq", "grassmann.pairwise_gram_sq"),
    ("linksim", "substream", "rng.substream"),
    ("wavesim", "substream", "rng.substream"),
)


def einsum_flops(subscripts, *operands):
    """Naive einsum flops: one multiply-add per operand pair at every point of
    the full index space, 8 real flops each for complex operands, 2 for real."""
    specs = subscripts.replace(" ", "").split("->")[0].split(",")
    sizes, batch = {}, ()
    for spec, op in zip(specs, operands):
        shape = np.shape(op)
        if "..." in spec:
            head = spec.index("...")
            letters = spec.replace("...", "")
            nb = len(shape) - len(letters)
            batch = np.broadcast_shapes(batch, shape[head : head + nb])
            shape, spec = shape[:head] + shape[head + nb :], letters
        for letter, n in zip(spec, shape):
            sizes[letter] = max(sizes.get(letter, 1), n)
    points = math.prod(sizes.values()) * math.prod(batch)
    per_mac = 8 if any(np.iscomplexobj(op) for op in operands) else 2
    return points * (len(operands) - 1) * per_mac


def fft_work(a, n=None, axis=-1, **_):
    """(points, flops) of a batched FFT, flops as 5 n log2 n per transform."""
    shape = np.shape(a)
    length = n if n is not None else shape[axis]
    transforms = math.prod(shape) // shape[axis]
    return transforms * length, transforms * 5.0 * length * math.log2(length)


class _Namespace:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, base, **replaced):
        self.__dict__.update(replaced)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Span and work totals over one or more traced passes."""

    def __init__(self):
        self.spans = {}  # name -> [calls, busy seconds, self seconds]
        self.work = {}  # metric name -> computed count
        self._stack = []

    def add_work(self, name, amount):
        self.work[name] = self.work.get(name, 0) + amount

    def wrap(self, fn, name, count=None):
        """``fn`` recorded as span ``name``; ``count(*args, **kwargs)`` adds work."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat = spans.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def _numpy_views(self):
        def einsum(layer):
            name = f"{layer}.einsum"
            return self.wrap(
                np.einsum,
                name,
                lambda s, *ops, **_: self.add_work(f"{name}.flops_computed", einsum_flops(s, *ops)),
            )

        def fft_count(a, *args, **kwargs):
            points, flops = fft_work(a, *args, **kwargs)
            self.add_work("wavesim.fft.points", points)
            self.add_work("wavesim.fft.flops_computed", flops)

        def eig_count(a, *_, **__):
            self.add_work("linksim.eigvalsh.matrices", math.prod(np.shape(a)[:-2]))

        return {
            "codebooks": _Namespace(np, einsum=einsum("codebooks")),
            "linksim": _Namespace(
                np,
                einsum=einsum("linksim"),
                linalg=_Namespace(
                    np.linalg,
                    eigvalsh=self.wrap(np.linalg.eigvalsh, "linksim.eigvalsh", eig_count),
                ),
            ),
            "wavesim": _Namespace(
                np,
                fft=_Namespace(
                    np.fft,
                    fft=self.wrap(np.fft.fft, "wavesim.fft", fft_count),
                    ifft=self.wrap(np.fft.ifft, "wavesim.fft", fft_count),
                ),
            ),
        }

    def install(self):
        """Rebind the traced names; returns a callable that restores them."""
        saved = []
        for mod_name, attr, span in FUNCTION_SPANS:
            mod = _MODULES[mod_name]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(getattr(mod, attr), span))
        for mod_name, view in self._numpy_views().items():
            mod = _MODULES[mod_name]
            saved.append((mod, "np", mod.np))
            mod.np = view

        def restore():
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

        return restore

    def value(self, metric):
        """Total of a ``<span>.calls|s|self_s`` metric or a work count."""
        if metric in self.work:
            return self.work[metric]
        span, _, field = metric.rpartition(".")
        stat = self.spans.get(span)
        if field == "calls":
            return stat[0] if stat else 0
        if field == "s":
            return stat[1] if stat else 0.0
        if field == "self_s":
            return stat[2] if stat else 0.0
        return 0
