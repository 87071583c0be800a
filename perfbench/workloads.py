"""The benchmark's workloads: set-up, one timed round, and the output checks.

Each workload is a single-process closed loop: the next operation starts when
the previous one returns.  An operation is a train step, an evaluation or a
CLI call.  ``--seed`` only draws the SynthBearing-5 signals; model
initialisation and batch shuffling use the fixed ``MODEL_SEED``.  The
training split is stored class by class, so every seed sees the same label
mix in every batch and the loss curve depends on the seed only through the
signals.

Every round repeats the same computation, so rounds must agree bit for bit;
a round that does not is counted as failed.
"""

import contextlib
import dataclasses
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrate import Calibrator
from tracing import patched
from tfnet import checkpoint, cli, data, nn, training
from tfnet.kernels import KernelFamily

MODEL_SEED = 0
EVAL_REPEATS = 4   # evaluations of the held-out split after each training round
BANDS = sorted(list(band) for band in data.synthbearing5().information_bands)


@dataclass(frozen=True)
class TrainShape:
    """Model, data and schedule of one training run."""

    length: int
    mode: str
    family: str
    backbone: str
    dtype: str
    epochs: int
    samples_per_class: int
    train_frac: float
    channels: int = 8
    batch: int = 64

    def spec(self):
        return dataclasses.replace(data.synthbearing5(self.samples_per_class),
                                   sample_length=self.length)

    def build(self):
        return nn.assemble_model(self.mode, backbone=self.backbone,
                                 family=KernelFamily(self.family), n_channels=self.channels,
                                 seed=MODEL_SEED, dtype=np.dtype(self.dtype))

    def config(self):
        return training.TrainConfig(epochs=self.epochs, batch_size=self.batch,
                                    seed=MODEL_SEED, dtype=self.dtype)

    def micro(self):
        """The same workload at a size that runs in about a second (smoke tests)."""
        return dataclasses.replace(self, length=128, epochs=2,
                                   samples_per_class=6, train_frac=0.6, batch=8)


# 1170 training signals: one epoch of 18 distinct batches, 130 held out.  Fewer
# steps leave BatchNorm's running statistics unsettled, and held-out accuracy
# then swings with the data draw.
PAPER = TrainShape(length=1024, mode="tfn-add", family="sttf", backbone="paper-cnn",
                   dtype="float64", epochs=1, samples_per_class=260,
                   train_frac=0.9)
# 400 training signals: three epochs of 6 batches, 200 held out.  Signals of
# length 4096 are slow to generate, so the epochs reuse them.
TFCONV = TrainShape(length=4096, mode="tfn-replace", family="morlet", backbone="lenet-1d",
                    dtype="float32", epochs=3, samples_per_class=120,
                    train_frac=0.667)


@dataclass
class Tally:
    """Everything a run observed; ``run.py`` turns it into metrics.

    ``spans`` keeps the (start, end) wall times of each timed operation by
    kind; ``rescaled`` turns them into durations at reference machine speed
    (see ``calibrate``).
    """

    calibrator: Calibrator = field(default_factory=Calibrator)
    spans: dict = field(default_factory=dict)
    step_samples: int = 0
    eval_samples: int = 0             # samples per evaluation
    loss_final: float | None = None   # final-epoch mean training loss
    accuracy: float | None = None
    peak_rss_mib: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def timed(self, kind, start, repeats=1):
        """Record an operation of ``kind`` that started at ``start`` and ends now."""
        self.spans.setdefault(kind, []).append((start, time.perf_counter()))
        self.calibrator.measure(repeats)

    def seconds(self, kind):
        return [end - start for start, end in self.spans.get(kind, [])]

    def rescaled(self, kind):
        return [self.calibrator.rescale(start, end) for start, end in self.spans.get(kind, [])]

    def op(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def probed_train(model, shape, tally, train_ds, test_ds=None):
    """``training.train`` with one timestamp pair, one loss and one finiteness check per step.

    A step runs from its ``Model.forward(training=True)`` to its
    ``project_params``.
    """
    begin, losses, grads_ok = [], [], []
    forward, backward, project = model.forward, model.backward, model.project_params

    def timed_forward(x, training=False):
        if training:
            begin.append(time.perf_counter())
        return forward(x, training=training)

    def checked_backward(grad):
        out = backward(grad)
        grads_ok.append(all(np.isfinite(g).all() for g in model.gradients()))
        return out

    def timed_project():
        project()
        tally.timed("step", begin[-1])

    ce = training.softmax_cross_entropy

    def recorded_ce(logits, labels):
        loss, grad = ce(logits, labels)
        losses.append(loss)
        return loss, grad

    test = (test_ds.signals, test_ds.labels) if test_ds is not None else (None, None)
    with contextlib.ExitStack() as probes:
        for obj, attr, probe in ((model, "forward", timed_forward),
                                 (model, "backward", checked_backward),
                                 (model, "project_params", timed_project),
                                 (training, "softmax_cross_entropy", recorded_ce)):
            probes.enter_context(patched(obj, attr, probe))
        history = training.train(model, train_ds.signals, train_ds.labels, *test,
                                 config=shape.config())
    tally.step_samples += shape.batch * len(losses)
    finite = [bool(np.isfinite(loss)) and ok for loss, ok in zip(losses, grads_ok)]
    # a run whose final-epoch loss is not below its first step's loss failed as a whole
    learned = bool(losses) and history.train_loss[-1] < losses[0]
    for ok in finite:
        tally.op(ok and learned,
                 "non-finite loss or gradient" if not ok else "final loss not below first")
    return history


def _generate(shape, seed):
    dataset = data.synth_generate(shape.spec(), seed)
    return data.split(dataset, shape.train_frac, seed)


class TrainWorkload:
    """Rounds of ``training.train`` on a fresh model, then ``evaluate`` on held-out data."""

    def __init__(self, shape, seed, workdir):
        self.shape = shape
        self.seed = seed
        self.first = None   # (per-epoch losses, accuracy) of the first round

    def setup(self, tally, tracer):
        return _generate(self.shape, self.seed)

    def round(self, state, tally, tracer):
        train_ds, test_ds = state
        model = tracer.instrument_model(self.shape.build())
        history = probed_train(model, self.shape, tally, train_ds)
        accuracies = []
        for _ in range(EVAL_REPEATS):
            t0 = time.perf_counter()
            accuracy, confusion = training.evaluate(model, test_ds.signals, test_ds.labels)
            tally.timed("eval", t0, repeats=5)
            tally.op(int(confusion.sum()) == test_ds.n_samples,
                     "confusion matrix does not sum to the sample count")
            accuracies.append(accuracy)
        tally.eval_samples = test_ds.n_samples
        if len(set(accuracies)) != 1:
            tally.op(False, "repeated evaluations of one model disagree")
        outcome = (history.train_loss, accuracies[0])
        if self.first is None:
            self.first = outcome
            tally.loss_final, tally.accuracy = history.train_loss[-1], accuracies[0]
        elif outcome != self.first:
            tally.op(False, "round did not reproduce the first round")


class EvalExplainWorkload:
    """``tfnet eval`` then ``tfnet freq-response`` on a checkpoint trained in set-up."""

    def __init__(self, shape, seed, workdir):
        self.shape = shape
        self.seed = seed
        self.workdir = Path(workdir)
        self.setups = 0
        self.first_losses = None

    def setup(self, tally, tracer):
        self.setups += 1
        root = self.workdir / f"setup{self.setups}"
        train_ds, test_ds = _generate(self.shape, self.seed)
        data.save_dataset(train_ds, root / "data" / "train")
        data.save_dataset(test_ds, root / "data" / "test")
        model = tracer.instrument_model(self.shape.build())
        history = probed_train(model, self.shape, tally, train_ds, test_ds)
        checkpoint.save_model(model, root / "model.tfn")
        if self.first_losses is None:
            self.first_losses = history.train_loss
            tally.loss_final = history.train_loss[-1]
        elif history.train_loss != self.first_losses:
            tally.op(False, "set-up training did not reproduce the first set-up")
        return root, history.final_test_acc, test_ds.n_samples

    def _cli(self, tracer, span, args):
        """Run one CLI command; returns a problem, or None when it exited 0."""
        err = io.StringIO()
        with tracer.span(span), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(args)
        return None if code == 0 else f"{args[0]} exited {code}: {err.getvalue().strip()}"

    def round(self, state, tally, tracer):
        root, expected_acc, n_test = state
        common = ["--set", f"checkpoint={root / 'model.tfn'}", "--set", f"dataset={root / 'data'}",
                  "--force"]
        out = root / "eval"
        t0 = time.perf_counter()
        problem = self._cli(tracer, "cli.eval", ["eval", *common, "--out", str(out)])
        tally.timed("eval", t0, repeats=5)
        if problem is None:
            tally.accuracy = json.loads((out / "metrics.json").read_text())["accuracy"]
            confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64)
            if tally.accuracy != expected_acc:
                problem = f"eval accuracy {tally.accuracy} is not the set-up's {expected_acc}"
            elif int(confusion.sum()) != n_test:
                problem = "confusion matrix does not sum to the sample count"
        tally.op(problem is None, problem)
        tally.eval_samples = n_test
        out = root / "freq"
        problem = self._cli(tracer, "cli.freq_response",
                            ["freq-response", *common, "--out", str(out)])
        if problem is None and _report_bands(out / "band_report.txt") != BANDS:
            problem = "band report does not list the four SynthBearing-5 bands"
        tally.op(problem is None, problem)


def _report_bands(path):
    bands = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("band ["):
            lo, hi = line[len("band ["):line.index("]")].split(",")
            bands.append([float(lo), float(hi)])
    return sorted(bands)


WORKLOADS = {
    "train-paper": (TrainWorkload, PAPER),
    "train-tfconv": (TrainWorkload, TFCONV),
    "eval-explain": (EvalExplainWorkload, PAPER),
}
