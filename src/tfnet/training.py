"""Training loop: Adam, per-epoch lr decay, constraint projection each step.

Signals are standardized per sample (zero mean, unit variance) on entry to
both training and evaluation, so the model never sees raw amplitudes.
"""

from dataclasses import dataclass, field

import numpy as np

from tfnet.core_math import run_halves
from tfnet.data import check_labels
from tfnet.nn import Model, fold_batchnorm, softmax_cross_entropy
from tfnet.seeding import derive_rng

STD_GUARD = 1e-8  # keeps flat signals finite after standardization
EVAL_BATCH = 128  # most samples per piece in ``evaluate``; at most two pieces run at once


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    initial_lr: float = 1e-3
    lr_decay: float = 0.96
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch norm needs it)")
        if not 0.0 < self.initial_lr < np.inf:
            raise ValueError(f"initial_lr must be positive and finite, got {self.initial_lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be 'float64' or 'float32'")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    theta_snapshots: list[np.ndarray] = field(default_factory=list)

    @property
    def final_test_acc(self) -> float:
        if not self.test_acc:
            raise ValueError("history is empty")
        return self.test_acc[-1]


class Adam:
    """Adam with bias correction; ``step`` moves ``params`` in place by ``grads``, bound once."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, grads):
        self.params = list(params)
        self.grads = list(grads)
        if len(self.grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, self.grads, self.m, self.v):
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def standardize(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Per-sample z-score over the time axis."""
    x = np.asarray(x, dtype=dtype)
    mean = x.mean(axis=-1, keepdims=True)
    std = x.std(axis=-1, keepdims=True)
    return (x - mean) / (std + STD_GUARD)


def evaluate(model: Model, signals, labels):
    """Accuracy and confusion matrix (rows true, columns predicted) of (N, L) signals.

    The signals run through ``fold_batchnorm(model)``, built once per call,
    which saves each batch norm's two passes over its activations; a logit
    may move in its last bits.  ``model`` itself is not changed.  They run
    as ceil(N / EVAL_BATCH) contiguous pieces of near-equal size, split into
    two halves by ``run_halves``: one by one on this thread, or, where
    ``cpu_pair()`` names two CPUs, the first half here and the second on
    the helper thread at the same time.  The pieces depend only on N, so the
    result does not depend on which thread runs them; an error in a piece
    is raised as it is.
    """
    signals = np.asarray(signals)
    labels = np.asarray(labels)
    if signals.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if signals.shape[0] != labels.shape[0]:
        raise ValueError("signals and labels disagree on sample count")
    n = model.n_classes
    check_labels(labels, n)
    folded = fold_batchnorm(model)

    def predict(piece):
        return folded.forward(standardize(piece, dtype=model.dtype), training=False).argmax(axis=1)

    pieces = np.array_split(signals, -(-signals.shape[0] // EVAL_BATCH))
    halves = run_halves(lambda part: [predict(piece) for piece in pieces[part]], len(pieces))
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (labels, np.concatenate(halves[0] + halves[1])), 1)
    accuracy = float(np.trace(confusion)) / float(confusion.sum())
    return accuracy, confusion


def _check_finite(model: Model, which: int, epoch: int, step: int):
    """Raise ``FloatingPointError`` naming the first layer with a non-finite array.

    ``which`` picks the parameter (0) or the gradient (1) of every ``state``
    pair that has a gradient, in ``walk_layers`` order.
    """
    bad = next((layer.name for layer in model.walk_layers() for pair in layer.state
                if pair[1] and not np.isfinite(getattr(layer, pair[which])).all()), None)
    if bad is not None:
        raise FloatingPointError(f"training diverged: a non-finite "
                                 f"{('parameter', 'gradient')[which]} at epoch={epoch}, "
                                 f"step={step}, layer={bad}")


def train(model: Model, train_signals, train_labels, test_signals=None, test_labels=None,
          config: TrainConfig | None = None) -> TrainHistory:
    """Mini-batch training on (N, L) signals with shuffling, projection and per-epoch metrics.

    Only full batches run, so every step sees identical batch statistics
    (shuffling still cycles all samples across epochs); a dataset smaller
    than one batch trains as a single batch.  Test accuracy is recorded per
    epoch when a test set is given.  A step with a non-finite gradient
    raises ``FloatingPointError`` before the parameters move, as do
    parameters the last step left non-finite; the message names the epoch,
    the step (both from 1) and the layer.  The loss is not checked by
    itself: from non-finite logits it comes with a non-finite gradient.
    """
    cfg = config or TrainConfig()
    dtype = np.dtype(cfg.dtype)
    x = np.asarray(train_signals)
    y = np.asarray(train_labels)
    if x.shape[0] < 2:
        raise ValueError("need at least two training samples")
    if x.shape[0] != y.shape[0]:
        raise ValueError("signals and labels disagree on sample count")
    check_labels(y, model.n_classes)
    if (test_signals is None) != (test_labels is None):
        raise ValueError("test_signals and test_labels must be given together")
    if test_signals is not None:
        check_labels(test_labels, model.n_classes)
    if model.dtype != dtype:
        raise ValueError("model dtype does not match config dtype; rebuild the model")
    tf_layer = model.tfconv

    rng = derive_rng(cfg.seed, "train.shuffle")
    opt = Adam(model.parameters(), model.gradients())
    history = TrainHistory()
    if tf_layer is not None:
        history.theta_snapshots.append(tf_layer.theta.copy())

    lr = cfg.initial_lr
    n = x.shape[0]
    xs = standardize(x, dtype=dtype)
    bs = min(cfg.batch_size, n)
    n_batches = n // bs
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for b in range(n_batches):
            idx = order[b * bs : (b + 1) * bs]
            xb = xs[idx]
            yb = y[idx]
            logits = model.forward(xb, training=True)
            loss, gl = softmax_cross_entropy(logits, yb)
            model.backward(gl)
            _check_finite(model, 1, epoch, b + 1)
            opt.step(lr)
            model.project_params()
            loss_sum += loss * idx.size
            correct += int((logits.argmax(axis=1) == yb).sum())
        history.train_loss.append(loss_sum / (n_batches * bs))
        history.train_acc.append(correct / (n_batches * bs))
        if test_signals is not None:
            acc, _ = evaluate(model, test_signals, test_labels)
            history.test_acc.append(acc)
        if tf_layer is not None:
            history.theta_snapshots.append(tf_layer.theta.copy())
        lr *= cfg.lr_decay
    _check_finite(model, 0, cfg.epochs, n_batches)  # the last step's update
    return history
