"""Command-line front end: data generation, training, evaluation, analysis.

Commands read a flat ``key = value`` config file; individual keys can be
overridden with ``--set key=value`` and the common flags.  Every command
echoes its fully resolved configuration into ``config.echo`` in the output
directory so a run can be reproduced from its artifacts alone.  Outputs
carry no timestamps; identical config and seed give byte-identical files,
whatever ``OPENBLAS_NUM_THREADS`` says (``core_math`` sets one BLAS thread).

Artifacts: ``gen-data`` writes ``train/`` and ``test/`` (one
``dataset.tfd`` each) and ``manifest.json``; ``train`` writes
``model.tfn``, ``history.csv``, ``metrics.json`` and, for a TFconv model,
``theta_trajectory.csv``; ``eval`` writes ``confusion.csv`` and
``metrics.json``; ``freq-response`` writes ``cfr.csv``, ``ofr.csv``,
``kernel_taps.csv`` (TFconv), ``dataset_spectrum.csv`` (with a dataset) and
``band_report.txt`` (with bands: the mean band distance, then per band its
distance, nearest channel and that channel's centre frequency); ``ablate``
writes ``results.csv`` (a row per mode and kernel family, every mode in
``MODES``) and each cell's ``train`` files (all but ``config.echo``) under
``cells/<mode>-<family>-s<seed>/``; its cells, in grid order, split in two
halves through ``core_math.run_halves``, so two train at once where
``cpu_pair()`` names two CPUs, and the files are byte-identical either way.
A ``--force`` rerun over a command's earlier output removes the optional
files it does not write, so exactly one run's files remain; ``ablate``
also removes the cells its grid does not write, deleting only the files a
cell's training writes and then the cell's directory if it is empty.
A dataset with a NaN or infinite signal is a configuration error that
names the file and the sample.
Every CSV goes through ``_write_csv`` (a header line, then floats as
``repr(float(v))``, an exact round trip) and every JSON file through
``_write_json`` (indent 2, sorted keys, a final newline).

Exit codes: 0 success, 2 configuration error, 1 runtime failure, such as
training whose gradients or parameters go non-finite.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from tfnet import core_math
from tfnet.checkpoint import load_model, save_model
from tfnet.data import (DATASET_FILE, NonFiniteSignalError, check_band, check_labels,
                        load_dataset, save_dataset, split, synth_generate, synthbearing5)
from tfnet.interpret import (band_coverage, channel_frequency_response, dataset_spectrum,
                             spectrum_freqs)
from tfnet.kernels import KernelFamily, default_grid, param_names
from tfnet.nn import BACKBONES, MODES, assemble_model
from tfnet.training import TrainConfig, evaluate, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Bad configuration: unknown key, invalid value, missing path."""


def parse_kv_file(path) -> dict[str, str]:
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file {p} not found") from None
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"config file {p}: {exc}") from None
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# A parser turns a key's text into (value, echo text) or raises ValueError;
# the echo text parses back to the same value and echo text.

def parse_int(text):
    try:
        return int(text), str(int(text))
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def parse_float(text):
    try:
        return float(text), repr(float(text))
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def parse_bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True, "true"
    if text.lower() in ("0", "false", "no", "off"):
        return False, "false"
    raise ValueError(f"expected a boolean, got {text!r}")


def _unique(items, echo):
    """``(items, echo)``, or ``ValueError`` naming the first entry that repeats an earlier one."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"entry {echo.split(',')[i]!r} is repeated")
    return items, echo


def parse_seeds(text):
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if not seeds:
        raise ValueError("at least one seed is required")
    if min(seeds) < 0:
        raise ValueError(f"expected non-negative integers, got {text!r}")
    return _unique(seeds, ",".join(str(s) for s in seeds))


def parse_seed(text):
    seeds, echo = parse_seeds(text)
    if len(seeds) != 1:
        raise ValueError(f"this command expects a single seed, got {len(seeds)}")
    return seeds[0], echo


def parse_bands(text):
    """``lo:hi,lo:hi,...`` into a tuple of bands; an empty text is no band."""
    bands = []
    for piece in text.split(",") if text else ():
        piece = piece.strip()
        if ":" not in piece:
            raise ValueError(f"band {piece!r} must be 'lo:hi'")
        lo, _, hi = piece.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ValueError(f"band {piece!r} is not numeric") from None
        bands.append(check_band((lo, hi)))
    return _unique(tuple(bands), ",".join(f"{lo}:{hi}" for lo, hi in bands))


def parse_path(text):
    """An existing path."""
    if text == "":
        raise ValueError("a path is required, got an empty value")
    try:
        exists = Path(text).exists()
    except OSError as exc:  # exists() lets ENAMETOOLONG and the like through
        raise ValueError(f"path {Path(text)}: {exc.strerror}") from None
    if not exists:
        raise ValueError(f"path {Path(text)} does not exist")
    return Path(text), str(Path(text))


def parse_optional_path(text):
    """An existing path, or None for an empty text."""
    return (None, "") if text == "" else parse_path(text)


def one_of(options):
    """A parser for one of ``options``."""
    def parse(text):
        if text not in options:
            raise ValueError(f"invalid value {text!r}; choose from {', '.join(options)}")
        return text, text
    return parse


def list_of(options):
    """A parser for a comma-separated list of entries from ``options``."""
    def parse(text):
        items = [s.strip() for s in text.split(",") if s.strip()]
        for item in items:
            if item not in options:
                raise ValueError(f"invalid entry {item!r}; choose from {', '.join(options)}")
        return _unique(items, ",".join(items))
    return parse


class Config:
    """Resolved key-value settings with consumption tracking.

    ``get(key, default, parse)`` marks the key used and takes its text, or
    ``default`` when the key is unset (with no default the key is required).
    It passes ``str(text)`` to ``parse`` (none keeps the text as is), records
    the echo text it returns in ``effective`` and turns its ``ValueError``
    into a ``ConfigError`` naming the key.  So after a handler has pulled its
    keys, the echo file and the unknown-key check come for free.
    """

    def __init__(self, values: dict[str, str], command: str):
        self._values = dict(values)
        self._command = command
        self._used: set[str] = set()
        self.effective: dict[str, str] = {}

    def get(self, key: str, default=None, parse=None):
        self._used.add(key)
        text = self._values.get(key, default)
        if text is None:
            raise ConfigError(f"{self._command}: missing required config key {key!r}")
        try:
            value, echo = parse(str(text)) if parse else (text, text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        self.effective[key] = echo
        return value

    def ensure_consumed(self):
        unknown = sorted(set(self._values) - self._used)
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r} for command {self._command}")


def _check_out(cfg: Config, required=True) -> Path | None:
    """Read ``out`` and ``force``, then reject unknown keys and an ``out`` no run may write.

    A command calls it after its last ``cfg.get`` and before its slow work;
    ``_make_out`` creates the directory once there is something to write.
    """
    out = cfg.get("out", "")
    force = cfg.get("force", False, parse_bool)
    cfg.ensure_consumed()
    if not out:
        if required:
            raise ConfigError("missing output directory (set 'out' or pass --out)")
        return None
    path = Path(out)
    try:  # exists() lets ENAMETOOLONG and the like through
        # the nearest existing path must be a directory, or mkdir would fail
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"out: {nearest} is not a directory")
        if nearest == path and any(path.iterdir()) and not force:
            raise ConfigError(f"output directory {path} is not empty (use --force)")
    except OSError as exc:
        raise ConfigError(f"out: {path}: {exc.strerror}") from None
    return path


def _make_out(path: Path) -> None:
    """Create ``path`` and its missing parents, removing them again if one fails."""
    chain, created = (path, *path.parents), []
    try:
        n_missing = next(i for i, p in enumerate(chain) if p.exists())
        for p in reversed(chain[:n_missing]):  # outermost first, so a failure can undo them
            p.mkdir()
            created.append(p)
    except OSError as exc:
        for p in reversed(created):
            p.rmdir()
        raise ConfigError(f"out: {path}: {exc.strerror}") from None


def _write_csv(path: Path, header: str | None, rows) -> None:
    """``header`` (if not None), then a line per row: floats as ``repr(float(v))``, the rest as is.

    The ``float`` matters: numpy 2 writes ``repr(np.float64(0.1))`` as ``np.float64(0.1)``.
    """
    lines = [] if header is None else [header]
    lines += [",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                       for v in row) for row in rows]
    path.write_text("".join(line + "\n" for line in lines))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_echo(cfg: Config, out: Path):
    lines = [f"{k} = {v}" for k, v in sorted(cfg.effective.items()) if k not in ("out", "force")]
    (out / "config.echo").write_text("\n".join(lines) + "\n")


def _read_dataset(path: Path):
    """``load_dataset``, a non-finite signal a configuration error (a corrupt file is not)."""
    try:
        return load_dataset(path)
    except NonFiniteSignalError as exc:
        raise ConfigError(f"dataset: {exc}") from None


def _load_split_dataset(path: Path):
    """Read a gen-data directory (train/ + test/ subdirectories)."""
    train_dir, test_dir = path / "train", path / "test"
    if not (train_dir / DATASET_FILE).exists() or not (test_dir / DATASET_FILE).exists():
        raise ConfigError(
            f"dataset: {path} does not contain train/ and test/ dataset directories"
        )
    return _read_dataset(train_dir), _read_dataset(test_dir)


def _load_eval_dataset(path: Path):
    """A dataset directory, or a gen-data directory (its test side)."""
    if (path / DATASET_FILE).exists():
        return _read_dataset(path)
    if (path / "test" / DATASET_FILE).exists():
        return _read_dataset(path / "test")
    raise ConfigError(f"dataset: {path} is not a dataset directory")


def cmd_gen_data(cfg: Config) -> int:
    samples_per_class = cfg.get("samples_per_class", 200, parse_int)
    if samples_per_class < 2:
        raise ConfigError("samples_per_class: must be >= 2 to allow a split")
    train_frac = cfg.get("train_frac", 0.6, parse_float)
    if not 0.0 < train_frac < 1.0:
        raise ConfigError("train_frac: must lie strictly between 0 and 1")
    sample_length = cfg.get("sample_length", 1024, parse_int)
    noise_sigma = cfg.get("noise_sigma", 1.0, parse_float)
    seed = cfg.get("seed", "0", parse_seed)
    base = synthbearing5(samples_per_class)
    default_bands = ",".join(f"{lo}:{hi}" for lo, hi in base.information_bands)
    bands = cfg.get("bands", default_bands, parse_bands)
    try:
        spec = dataclasses.replace(
            base,
            sample_length=sample_length,
            noise_sigma=noise_sigma,
            information_bands=bands,
        )
    except ValueError as exc:
        raise ConfigError(f"bands/sample_length/noise_sigma: {exc}") from exc
    out = _check_out(cfg)
    dataset = synth_generate(spec, seed)
    train_ds, test_ds = split(dataset, train_frac, seed)
    _make_out(out)
    save_dataset(train_ds, out / "train")
    save_dataset(test_ds, out / "test")
    manifest = {
        "seed": seed,
        "train_frac": train_frac,
        "train_count": train_ds.n_samples,
        "test_count": test_ds.n_samples,
        "classes": list(spec.class_names),
        "information_bands": [list(b) for b in spec.information_bands],
    }
    _write_json(out / "manifest.json", manifest)
    _write_echo(cfg, out)
    print(f"wrote {train_ds.n_samples} train / {test_ds.n_samples} test samples to {out}")
    return EXIT_OK


def _train_config(cfg: Config, seed: int) -> TrainConfig:
    try:
        return TrainConfig(
            epochs=cfg.get("epochs", 50, parse_int),
            batch_size=cfg.get("batch_size", 64, parse_int),
            initial_lr=cfg.get("lr", 1e-3, parse_float),
            lr_decay=cfg.get("lr_decay", 0.96, parse_float),
            seed=seed,
            dtype=cfg.get("dtype", "float64", one_of(("float64", "float32"))),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _model_settings(cfg: Config, tc: TrainConfig, train_ds) -> dict:
    """Model keys shared by every model a command builds; the class count is the dataset's."""
    return {
        "backbone": cfg.get("backbone", "paper-cnn", one_of(BACKBONES)),
        "n_channels": cfg.get("channels", 8, parse_int),
        "n_classes": train_ds.n_classes,
        "dtype": np.dtype(tc.dtype),
    }


def _build_model(settings: dict, mode: str, family: str, seed: int):
    try:
        return assemble_model(mode, family=KernelFamily(family), seed=seed, **settings)
    except ValueError as exc:
        raise ConfigError(f"mode/family: {exc}") from exc


_TRAIN_FILES = ("model.tfn", "history.csv", "theta_trajectory.csv", "metrics.json")


def _train_run(out: Path, model, tc: TrainConfig, train_ds, test_ds):
    """Train ``model``; write ``train``'s files (``_TRAIN_FILES``) but ``config.echo`` into ``out``.

    ``theta_trajectory.csv`` (TFconv models only) starts at the initial state as epoch 0.
    """
    history = train(model, train_ds.signals, train_ds.labels, test_ds.signals, test_ds.labels, tc)
    _make_out(out)
    save_model(model, out / "model.tfn")
    (out / "theta_trajectory.csv").unlink(missing_ok=True)  # a --force rerun may not write it
    rows = zip(history.train_loss, history.train_acc, history.test_acc)
    _write_csv(out / "history.csv", "epoch,train_loss,train_acc,test_acc",
               ((epoch, *row) for epoch, row in enumerate(rows, start=1)))
    if model.tfconv is not None:
        names = param_names(model.tfconv.family)
        _write_csv(out / "theta_trajectory.csv", "epoch,channel,param,value",
                   ((epoch, c, name, value)
                    for epoch, theta in enumerate(history.theta_snapshots)
                    for c, row in enumerate(theta) for name, value in zip(names, row)))
    _write_json(out / "metrics.json", {
        "final_test_acc": history.test_acc[-1],
        "final_train_acc": history.train_acc[-1],
        "final_train_loss": history.train_loss[-1],
    })
    return history


def cmd_train(cfg: Config) -> int:
    data_dir = cfg.get("dataset", parse=parse_path)
    mode = cfg.get("mode", "tfn-add", one_of(MODES))
    family = cfg.get("family", "sttf", one_of([f.value for f in KernelFamily]))
    seed = cfg.get("seed", "0", parse_seed)
    train_ds, test_ds = _load_split_dataset(data_dir)
    tc = _train_config(cfg, seed)
    settings = _model_settings(cfg, tc, train_ds)
    out = _check_out(cfg)
    model = _build_model(settings, mode, family, seed)
    try:
        history = _train_run(out, model, tc, train_ds, test_ds)
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    _write_echo(cfg, out)
    print(f"final test accuracy: {history.test_acc[-1]:.4f}")
    return EXIT_OK


def cmd_eval(cfg: Config) -> int:
    ckpt_path = cfg.get("checkpoint", parse=parse_path)
    data_dir = cfg.get("dataset", parse=parse_path)
    out = _check_out(cfg, required=False)
    model = load_model(ckpt_path)
    ds = _load_eval_dataset(data_dir)
    try:
        acc, confusion = evaluate(model, ds.signals, ds.labels)
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    print(f"accuracy: {acc:.4f}")
    if out is not None:
        _make_out(out)
        _write_csv(out / "confusion.csv", None, confusion)
        _write_json(out / "metrics.json", {"accuracy": acc, "count": ds.n_samples})
        _write_echo(cfg, out)
    return EXIT_OK


def cmd_freq_response(cfg: Config) -> int:
    ckpt_path = cfg.get("checkpoint", parse=parse_path)
    data_dir = cfg.get("dataset", "", parse_optional_path)
    n_fft = cfg.get("n_fft", 1024, parse_int)
    bands = list(cfg.get("bands", "", parse_bands))
    out = _check_out(cfg)
    model = load_model(ckpt_path)
    kernels = model.layers[0].kernels()
    try:
        resp = channel_frequency_response(kernels, n_fft)
    except ValueError as exc:
        raise ConfigError(f"n_fft: {exc}") from exc
    ds = _load_eval_dataset(data_dir) if data_dir is not None else None
    if ds is not None and not bands:
        bands = [tuple(b) for b in ds.meta.get("information_bands", [])]
    report = band_coverage(resp, bands) if bands else None
    _make_out(out)
    for name in ("kernel_taps.csv", "dataset_spectrum.csv", "band_report.txt"):
        (out / name).unlink(missing_ok=True)  # optional: a --force rerun may not write them
    _write_csv(out / "cfr.csv", "channel,freq,magnitude",
               ((c, f, v) for c, row in enumerate(resp.cfr) for f, v in zip(resp.freqs, row)))
    _write_csv(out / "ofr.csv", "freq,ofr", zip(resp.freqs, resp.ofr))
    if model.tfconv is not None:
        grid = default_grid(model.tfconv.family)
        _write_csv(out / "kernel_taps.csv", "channel,n,real,imag",
                   ((c, n, v.real, v.imag) for c, row in enumerate(kernels)
                    for n, v in zip(grid, row)))
    if ds is not None:
        _write_csv(out / "dataset_spectrum.csv", "freq,magnitude",
                   zip(spectrum_freqs(ds.length), dataset_spectrum(ds)))
    if report is not None:
        mean = float(np.mean([b.distance for b in report]))
        lines = [f"mean_distance: {mean!r}"]
        lines += [f"band [{b.band[0]!r}, {b.band[1]!r}]: distance={b.distance!r} "
                  f"channel={b.channel} centre={b.centre!r}" for b in report]
        (out / "band_report.txt").write_text("\n".join(lines) + "\n")
        print(f"mean band distance: {mean:.4f}")
    _write_echo(cfg, out)
    return EXIT_OK


def cmd_ablate(cfg: Config) -> int:
    data_dir = cfg.get("dataset", parse=parse_path)
    families = cfg.get("families", "sttf",
                       list_of([f.value for f in KernelFamily if f.value != "random"]))
    if not families:
        raise ConfigError("families: at least one kernel family is required")
    seeds = cfg.get("seed", "0,1,2", parse_seeds)
    train_ds, test_ds = _load_split_dataset(data_dir)
    tc = _train_config(cfg, seeds[0])
    settings = _model_settings(cfg, tc, train_ds)
    out = _check_out(cfg)
    # settings and labels that every cell would reject fail here, before any cell runs
    _build_model(settings, "tfn-add", families[0], seeds[0])
    try:
        check_labels(train_ds.labels, settings["n_classes"])
        check_labels(test_ds.labels, settings["n_classes"])
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    _make_out(out / "cells")  # here, so two cells at once do not both create it

    # backbone-only has no front layer and random-tfn a fixed family: one group each
    groups = [(mode, fam) for mode in MODES
              for fam in ([None] if mode in ("backbone-only", "random-tfn") else families)]
    cells = [(mode, fam, seed) for mode, fam in groups for seed in seeds]  # in grid order
    labels = {f"{mode}-{fam or 'none'}-s{seed}" for mode, fam, seed in cells}
    for cell in (out / "cells").iterdir():  # an earlier run's cells that this grid does not write
        if cell.is_dir() and cell.name not in labels:
            for name in _TRAIN_FILES:
                (cell / name).unlink(missing_ok=True)
            if not any(cell.iterdir()):
                cell.rmdir()

    def run_cell(mode, fam, seed):
        label = f"{mode}-{fam or 'none'}-s{seed}"
        try:
            model = _build_model(settings, mode, fam or "sttf", seed)
            history = _train_run(out / "cells" / label, model,
                                 dataclasses.replace(tc, seed=seed), train_ds, test_ds)
        except Exception as exc:
            return RuntimeError(f"ablation cell {label} failed ({exc})")
        return history.test_acc[-1]

    # each half trains its cells one by one; a group's seeds are a run of the results
    first, second = core_math.run_halves(lambda part: [run_cell(*c) for c in cells[part]],
                                         len(cells))
    results = first + second
    rows, failures = [], []
    for g, (mode, fam) in enumerate(groups):
        accs = results[g * len(seeds) : (g + 1) * len(seeds)]
        errors = [acc for acc in accs if isinstance(acc, Exception)]
        failures += errors
        if not errors:  # a failed cell drops only its own group's row
            rows.append((mode, fam or "-", float(np.mean(accs)), float(np.var(accs))))
    _write_csv(out / "results.csv", "model,kernel,mean_acc,variance", rows)
    _write_echo(cfg, out)
    for mode, fam, mean, var in rows:
        print(f"{mode:14s} {fam:10s} mean_acc={mean:.4f} variance={var:.6f}")
    if failures:
        raise RuntimeError(f"{failures[0]}; partial results kept in {out / 'results.csv'}")
    return EXIT_OK


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "freq-response": cmd_freq_response,
    "ablate": cmd_ablate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfnet",
        description="Interpretable time-frequency CNN: data, training and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", help="seed or comma-separated seed list")
        p.add_argument("--force", action="store_true", help="overwrite non-empty output")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = parse_kv_file(args.config) if args.config else {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            values[key.strip()] = value.strip()
        if args.seed is not None:
            values["seed"] = args.seed
        if args.out is not None:
            values["out"] = args.out
        if args.force:
            values["force"] = "true"
        cfg = Config(values, args.command)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
