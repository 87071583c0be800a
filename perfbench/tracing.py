"""Spans around calls into tfnet, recorded from outside the package.

The tracer wraps public callables in place: instance ``forward``/``backward``
of each layer and model, ``Adam.step`` on its class, and module-level
functions in every ``tfnet`` module that imported them.  Each call records a
span (name, start, end, parent) in memory; self time is a span's duration
minus its children's.  tracemalloc also gives each span the highest
allocation peak above what was in use when it started.
``restore`` puts every original back.
"""

import contextlib
import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass

MIB = 1024.0 * 1024.0


@contextlib.contextmanager
def patched(obj, attr, value):
    """Set ``obj.attr`` to ``value`` for the duration of the block.

    An attribute that ``obj`` only inherited is deleted again afterwards
    rather than pinned as a bound method, which would tie the instance into
    a reference cycle and keep its cached activations alive after use.
    """
    original = getattr(obj, attr)
    own = attr in vars(obj)
    setattr(obj, attr, value)
    try:
        yield original
    finally:
        if own:
            setattr(obj, attr, original)
        else:
            delattr(obj, attr)


@dataclass
class Span:
    name: str
    group: str | None
    phase: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    base: int = 0
    peak: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


def _layer_span_name(layer) -> tuple[str, str | None]:
    kind = type(layer).__name__
    if kind == "TFconvLayer":
        return "tfconv", None
    if kind == "Conv1d":
        return f"nn.Conv1d-{layer.in_channels}-{layer.out_channels}", "nn.Conv1d"
    return f"nn.{kind}", None


class NullTracer:
    """Untraced runs: spans cost one no-op context manager."""

    def span(self, name):
        return contextlib.nullcontext()

    def instrument_model(self, model):
        return model


class Tracer(NullTracer):
    def __init__(self):
        self.phase = "round"   # "setup" or "round"; tags the spans recorded next
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo = contextlib.ExitStack()

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, name, group=None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, group, self.phase, 0.0, parent)
        current, peak = tracemalloc.get_traced_memory()
        if parent >= 0:
            top = self.spans[parent]
            top.peak = max(top.peak, peak)
        tracemalloc.reset_peak()
        span.base = span.peak = current
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()

    def _exit(self):
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span.end = end
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_s += span.seconds
            parent.peak = max(parent.peak, span.peak)

    @contextlib.contextmanager
    def span(self, name, group=None):
        self._enter(name, group)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, fn, name, group=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name, group)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(out)
            return out

        return traced

    # -- patching --------------------------------------------------------
    def patch(self, obj, attr, name):
        self._undo.enter_context(patched(obj, attr, self.wrap(getattr(obj, attr), name)))

    def patch_function(self, fn, name, after=None):
        """Wrap ``fn`` in every loaded tfnet module that holds a reference to it."""
        wrapped = self.wrap(fn, name, after=after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tfnet" and not mod_name.startswith("tfnet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.enter_context(patched(module, attr, wrapped))

    def instrument_model(self, model):
        """Wrap forward/backward of the model and each of its layers (instance attributes)."""
        for layer in model.layers:
            for sub in getattr(layer, "sublayers", [layer]):
                name, group = _layer_span_name(sub)
                for half in ("forward", "backward"):
                    setattr(sub, half, self.wrap(getattr(sub, half), f"{name}.{half}",
                                                 group and f"{group}.{half}"))
        for half in ("forward", "backward"):
            setattr(model, half, self.wrap(getattr(model, half), f"nn.Model.{half}"))
        return model

    def start(self, tfnet_modules):
        """Patch the module-level entry points listed in ``tfnet_modules``."""
        cli, checkpoint, core_math, data, interpret, kernels, nn, training = tfnet_modules
        tracemalloc.start()
        self._undo.callback(tracemalloc.stop)
        for module, prefix, names in (
            (core_math, "core_math", ("batch_correlate_same", "batch_conv_full_slice")),
            (kernels, "kernels", ("evaluate_kernels", "kernel_param_grad")),
            (nn, "nn", ("softmax_cross_entropy",)),
            (training, "training", ("train", "evaluate")),
            (data, "data", ("synth_generate", "save_dataset", "load_dataset")),
            (interpret, "interpret",
             ("channel_frequency_response", "dataset_spectrum", "band_coverage")),
            (checkpoint, "checkpoint", ("save_model",)),
        ):
            for fname in names:
                self.patch_function(getattr(module, fname), f"{prefix}.{fname}")
        self.patch_function(checkpoint.load_model, "checkpoint.load_model",
                            after=self.instrument_model)
        self.patch(training.Adam, "step", "training.Adam.step")

    def restore(self):
        self._undo.close()

    # -- aggregation -----------------------------------------------------
    def stat(self, key, stat, phase):
        """Total ms, self ms, call count or peak MiB over spans named or grouped ``key``."""
        spans = [s for s in self.spans if s.phase == phase and key in (s.name, s.group)]
        if stat == "ms":
            return 1e3 * sum(s.seconds for s in spans)
        if stat == "self_ms":
            return 1e3 * sum(s.self_seconds for s in spans)
        if stat == "calls":
            return len(spans)
        if stat == "peak_mib":
            return max((s.peak - s.base for s in spans), default=0) / MIB
        raise ValueError(f"unknown span statistic {stat!r}")

    def self_ms(self, phase):
        return 1e3 * sum(s.self_seconds for s in self.spans if s.phase == phase)
