"""What the benchmark measures: workloads, metrics and what each layer should move.

This module is the single source of truth for ``BENCHMARK.json``; run
``python3 perfbench/spec.py`` to rewrite that file from it.  The smoke test
checks that the file on disk matches.

``PER_LAYER`` also records, for every per-layer metric, which end-to-end
metric it is predicted to move and on which workload.  ``BENCHMARK.json``
holds only the name, unit and direction of each metric, so later
performance work cites the prediction from here by metric name.
"""

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 10

WORKLOADS = {
    "train-paper": (
        "paper config (tfn-add, sttf K=51, paper-cnn, L=1024, B=64, float64) through "
        "training.train; backbone-bound, Conv1d and BatchNorm1d hold most of a step"
    ),
    "train-tfconv": (
        "tfn-replace, morlet K=301, lenet-1d, L=4096, B=64, float32; no BatchNorm and "
        "TFconv is most of a step; the only float32 load, on the FFT side of direct-vs-FFT"
    ),
    "eval-explain": (
        "cli eval and freq-response on a checkpoint trained in set-up; forward-only, "
        "inference-mode layers, so work moved from backward into forward shows only here"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


# Every workload reports every metric.  On eval-explain the train.* figures come
# from the set-up training that produces the checkpoint; on the train workloads
# the eval.* figures come from evaluating each round's model on the held-out split.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("train.samples_per_s", "samples/s", "higher", 0.25),
    EndToEnd("train.step_ms_p50", "ms", "lower", 0.25),
    EndToEnd("train.loss_final", "nats", "lower", 0.25),
    EndToEnd("eval.samples_per_s", "samples/s", "higher", 0.25),
    EndToEnd("eval.accuracy", "fraction", "higher", 0.25),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.2),
)


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric and how the traced run derives it.

    ``span`` names the traced call and ``stat`` the figure taken from its
    spans: ``ms`` (total duration), ``self_ms`` (duration minus child spans),
    ``calls`` (span count) or ``peak_mib`` (largest tracemalloc peak above the
    memory in use at the call).  Spans in the ``round`` phase cover one timed
    round; spans in the ``setup`` phase cover one set-up.  ``moves`` and ``on``
    record the predicted end-to-end effect.
    """

    name: str
    unit: str
    span: str
    stat: str
    moves: str
    on: str
    phase: str = "round"
    better: str = "lower"


_STEP = "train.samples_per_s, train.step_ms_p50"
_BACKBONE_ON = ("train-paper (step); eval-explain (forward halves move eval.samples_per_s); "
                "small on train-tfconv")
_TFCONV_ON = "train-tfconv; under 10% of a step on train-paper"
_SETUP = "setup_s, or eval-explain's timed CLI time"


def _fwd_bwd(layer, suffix, unit, stat, moves, on):
    return tuple(
        PerLayer(f"{layer}.{half}{suffix}", unit, f"{layer}.{half}", stat, moves, on)
        for half in ("forward", "backward")
    )


PER_LAYER = (
    *_fwd_bwd("nn.Conv1d", "_ms", "ms", "ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("nn.Conv1d-64-128", "_ms", "ms", "ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("nn.BatchNorm1d", "_ms", "ms", "ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("nn.ReLU", "_ms", "ms", "ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("nn.MaxPool", "_ms", "ms", "ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("nn.AdaptiveAvgPool", "_ms", "ms", "ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("nn.Dense", "_ms", "ms", "ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("nn.Model", "_self_ms", "ms", "self_ms", _STEP, _BACKBONE_ON),
    *_fwd_bwd("tfconv", "_ms", "ms", "ms", "train.*", _TFCONV_ON),
    PerLayer("core_math.batch_correlate_same.calls", "count", "core_math.batch_correlate_same",
             "calls", "train.*", _TFCONV_ON),
    PerLayer("core_math.batch_correlate_same.ms", "ms", "core_math.batch_correlate_same",
             "ms", "train.*", _TFCONV_ON),
    PerLayer("core_math.batch_conv_full_slice.calls", "count", "core_math.batch_conv_full_slice",
             "calls", "train.*", _TFCONV_ON),
    PerLayer("core_math.batch_conv_full_slice.ms", "ms", "core_math.batch_conv_full_slice",
             "ms", "train.*", _TFCONV_ON),
    PerLayer("kernels.evaluate_kernels.calls", "count", "kernels.evaluate_kernels",
             "calls", "train.*", _TFCONV_ON),
    PerLayer("kernels.kernel_param_grad.calls", "count", "kernels.kernel_param_grad",
             "calls", "train.*", _TFCONV_ON),
    PerLayer("training.adam_step_ms", "ms", "training.Adam.step", "ms",
             "train.*", "train-paper, train-tfconv"),
    PerLayer("nn.softmax_cross_entropy_ms", "ms", "nn.softmax_cross_entropy", "ms",
             "train.*", "train-paper, train-tfconv"),
    PerLayer("training.evaluate_self_ms", "ms", "training.evaluate", "self_ms",
             "eval.samples_per_s", "eval-explain, and the eval of each train round"),
    PerLayer("checkpoint.save_model_ms", "ms", "checkpoint.save_model", "ms",
             _SETUP, "eval-explain", phase="setup"),
    PerLayer("checkpoint.load_model_ms", "ms", "checkpoint.load_model", "ms",
             _SETUP, "eval-explain"),
    PerLayer("data.synth_generate_ms", "ms", "data.synth_generate", "ms",
             _SETUP, "all", phase="setup"),
    PerLayer("data.save_dataset_ms", "ms", "data.save_dataset", "ms",
             _SETUP, "eval-explain", phase="setup"),
    PerLayer("data.load_dataset_ms", "ms", "data.load_dataset", "ms",
             _SETUP, "eval-explain"),
    PerLayer("interpret.channel_frequency_response_ms", "ms",
             "interpret.channel_frequency_response", "ms", _SETUP, "eval-explain"),
    PerLayer("interpret.dataset_spectrum_ms", "ms", "interpret.dataset_spectrum", "ms",
             _SETUP, "eval-explain"),
    PerLayer("interpret.band_coverage_ms", "ms", "interpret.band_coverage", "ms",
             _SETUP, "eval-explain"),
    PerLayer("cli.eval_ms", "ms", "cli.eval", "ms", _SETUP, "eval-explain"),
    PerLayer("cli.freq_response_ms", "ms", "cli.freq_response", "ms", _SETUP, "eval-explain"),
    *_fwd_bwd("tfconv", "_peak_mib", "MiB", "peak_mib", "peak_rss_mib", "all"),
    *_fwd_bwd("nn.Conv1d", "_peak_mib", "MiB", "peak_mib", "peak_rss_mib", "all"),
    *_fwd_bwd("nn.BatchNorm1d", "_peak_mib", "MiB", "peak_mib",
              "peak_rss_mib", "train-paper, eval-explain"),
)

# Figures of the traced run itself rather than of one layer.
TRACE_METRICS = (
    ("trace.round_ms", "ms", "lower"),         # traced wall time of one round
    ("trace.self_ms", "ms", "lower"),          # sum of all span self times in that round
    ("trace.overhead_frac", "fraction", "lower"),  # traced round / untraced round - 1
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ] + [{"name": n, "unit": u, "better": b} for n, u, b in TRACE_METRICS],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
