"""Command-line front end: data generation, training, evaluation, analysis.

Commands read a flat ``key = value`` config file; individual keys can be
overridden with ``--set key=value`` and the common flags.  Every command
echoes its fully resolved configuration into ``config.echo`` in the output
directory so a run can be reproduced from its artifacts alone.  Outputs
carry no timestamps; identical config and seed give byte-identical files.

Artifacts: ``gen-data`` writes ``train/``, ``test/`` and ``manifest.json``;
``train`` writes ``model.tfn``, ``history.csv``, ``metrics.json`` and, for a
TFconv model, ``theta_trajectory.csv``; ``eval`` writes ``confusion.csv`` and
``metrics.json``; ``freq-response`` writes ``cfr.csv``, ``ofr.csv``,
``kernel_taps.csv`` (TFconv), ``dataset_spectrum.csv`` (with a dataset) and
``band_report.txt`` (with bands); ``ablate`` writes ``results.csv`` and each
cell's ``history.csv`` and ``metrics.json`` under ``cells/<label>/``.  Every
CSV goes through ``_write_csv`` (a header line, then floats as
``repr(float(v))``, an exact round trip) and every JSON file through
``_write_json`` (indent 2, sorted keys, a final newline).

Exit codes: 0 success, 2 configuration error, 1 runtime failure.
"""

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from tfnet.checkpoint import load_model, save_model
from tfnet.data import (check_band, load_dataset, save_dataset, split, synth_generate,
                        synthbearing5)
from tfnet.interpret import (THRESHOLD_FACTOR, band_coverage, channel_frequency_response,
                             dataset_spectrum, spectrum_freqs)
from tfnet.kernels import KernelFamily, default_grid, param_names
from tfnet.nn import BACKBONES, MODES, assemble_model, check_labels
from tfnet.training import TrainConfig, evaluate, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

ABLATE_MODES = tuple(mode for mode in MODES if mode != "random-tfn")


class ConfigError(Exception):
    """Bad configuration: unknown key, invalid value, missing path."""


def parse_kv_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} not found")
    values = {}
    for ln, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


class Config:
    """Resolved key-value settings with consumption tracking.

    Every ``get_*`` call records the effective value, so after a handler
    has pulled its keys the echo file and the unknown-key check both come
    for free.
    """

    def __init__(self, values: dict[str, str], command: str):
        self._values = dict(values)
        self._command = command
        self._used: set[str] = set()
        self.effective: dict[str, str] = {}

    def _raw(self, key: str, default):
        self._used.add(key)
        if key in self._values:
            return self._values[key]
        if default is None:
            raise ConfigError(f"{self._command}: missing required config key {key!r}")
        return None

    def get_str(self, key, default=None, choices=None) -> str:
        raw = self._raw(key, default)
        value = default if raw is None else raw
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{key}: invalid value {value!r}; choose from {', '.join(choices)}"
            )
        self.effective[key] = value
        return value

    def get_int(self, key, default=None) -> int:
        raw = self._raw(key, default)
        try:
            value = int(default if raw is None else raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
        self.effective[key] = str(value)
        return value

    def get_float(self, key, default=None) -> float:
        raw = self._raw(key, default)
        try:
            value = float(default if raw is None else raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
        self.effective[key] = repr(value)
        return value

    def get_bool(self, key, default=False) -> bool:
        self._used.add(key)
        raw = self._values.get(key)
        if raw is None:
            value = default
        elif raw.lower() in ("1", "true", "yes", "on"):
            value = True
        elif raw.lower() in ("0", "false", "no", "off"):
            value = False
        else:
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
        self.effective[key] = "true" if value else "false"
        return value

    def get_seeds(self, key="seed", default="0") -> list[int]:
        raw = self._raw(key, default)
        text = default if raw is None else raw
        try:
            seeds = [int(s) for s in str(text).split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated integers, got {text!r}") from None
        if not seeds:
            raise ConfigError(f"{key}: at least one seed is required")
        self.effective[key] = ",".join(str(s) for s in seeds)
        return seeds

    def get_seed(self, key="seed", default="0") -> int:
        seeds = self.get_seeds(key, default)
        if len(seeds) != 1:
            raise ConfigError(f"{key}: this command expects a single seed, got {len(seeds)}")
        return seeds[0]

    def get_bands(self, key, default=None):
        """Parse ``lo:hi,lo:hi,...`` into band tuples."""
        raw = self._raw(key, default)
        text = default if raw is None else raw
        if text == "":
            self.effective[key] = ""
            return ()
        bands = []
        for part in str(text).split(","):
            piece = part.strip()
            if ":" not in piece:
                raise ConfigError(f"{key}: band {piece!r} must be 'lo:hi'")
            lo_s, _, hi_s = piece.partition(":")
            try:
                lo, hi = float(lo_s), float(hi_s)
            except ValueError:
                raise ConfigError(f"{key}: band {piece!r} is not numeric") from None
            try:
                bands.append(check_band((lo, hi)))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        self.effective[key] = ",".join(f"{lo}:{hi}" for lo, hi in bands)
        return tuple(bands)

    def get_list(self, key, default="", choices=None) -> list[str]:
        raw = self._raw(key, default)
        text = default if raw is None else raw
        items = [s.strip() for s in str(text).split(",") if s.strip()]
        if choices is not None:
            for item in items:
                if item not in choices:
                    raise ConfigError(
                        f"{key}: invalid entry {item!r}; choose from {', '.join(choices)}"
                    )
        self.effective[key] = ",".join(items)
        return items

    def get_path(self, key, default=None) -> Path | None:
        """An existing path; an empty value is None for an optional key and an error otherwise."""
        raw = self._raw(key, default)
        value = default if raw is None else raw
        if value == "":
            if default is None:
                raise ConfigError(f"{key}: a path is required, got an empty value")
            self.effective[key] = ""
            return None
        p = Path(value)
        if not p.exists():
            raise ConfigError(f"{key}: path {p} does not exist")
        self.effective[key] = str(p)
        return p

    def ensure_consumed(self):
        unknown = sorted(set(self._values) - self._used)
        if unknown:
            raise ConfigError(
                f"unknown config key {unknown[0]!r} for command {self._command}"
            )


def _prepare_out(cfg: Config, required=True) -> Path | None:
    out = cfg._raw("out", "")
    force = cfg.get_bool("force", False)
    if not out:
        if required:
            raise ConfigError("missing output directory (set 'out' or pass --out)")
        return None
    path = Path(out)
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(f"output directory {path} is not empty (use --force)")
    path.mkdir(parents=True, exist_ok=True)
    return path


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


def _write_history(path: Path, history) -> None:
    """One row per epoch: epoch, train_loss, train_acc, test_acc."""
    rows = zip(history.train_loss, history.train_acc, history.test_acc)
    _write_csv(path, "epoch,train_loss,train_acc,test_acc",
               ((epoch, *row) for epoch, row in enumerate(rows, start=1)))


def _write_echo(cfg: Config, out: Path | None):
    if out is None:
        return
    skip = {"out", "force"}
    lines = [f"{k} = {v}" for k, v in sorted(cfg.effective.items()) if k not in skip]
    (out / "config.echo").write_text("\n".join(lines) + "\n")


def _load_split_dataset(path: Path):
    """Read a gen-data directory (train/ + test/ subdirectories)."""
    train_dir, test_dir = path / "train", path / "test"
    if not (train_dir / "meta.json").exists() or not (test_dir / "meta.json").exists():
        raise ConfigError(
            f"dataset: {path} does not contain train/ and test/ dataset directories"
        )
    return load_dataset(train_dir), load_dataset(test_dir)


def _load_eval_dataset(path: Path):
    """A dataset directory, or a gen-data directory (its test side)."""
    if (path / "meta.json").exists():
        return load_dataset(path)
    if (path / "test" / "meta.json").exists():
        return load_dataset(path / "test")
    raise ConfigError(f"dataset: {path} is not a dataset directory")


def cmd_gen_data(cfg: Config) -> int:
    samples_per_class = cfg.get_int("samples_per_class", 200)
    sample_length = cfg.get_int("sample_length", 1024)
    noise_sigma = cfg.get_float("noise_sigma", 1.0)
    train_frac = cfg.get_float("train_frac", 0.6)
    seed = cfg.get_seed()
    base = synthbearing5(samples_per_class)
    default_bands = ",".join(f"{lo}:{hi}" for lo, hi in base.information_bands)
    bands = cfg.get_bands("bands", default_bands)
    out = _prepare_out(cfg)
    cfg.ensure_consumed()
    if samples_per_class < 2:
        raise ConfigError("samples_per_class: must be >= 2 to allow a split")
    if not 0.0 < train_frac < 1.0:
        raise ConfigError("train_frac: must lie strictly between 0 and 1")
    try:
        spec = dataclasses.replace(
            base,
            sample_length=sample_length,
            noise_sigma=noise_sigma,
            information_bands=bands,
        )
    except ValueError as exc:
        raise ConfigError(f"bands/sample_length/noise_sigma: {exc}") from exc
    dataset = synth_generate(spec, seed)
    train_ds, test_ds = split(dataset, train_frac, seed)
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
            epochs=cfg.get_int("epochs", 50),
            batch_size=cfg.get_int("batch_size", 64),
            initial_lr=cfg.get_float("lr", 1e-3),
            lr_decay=cfg.get_float("lr_decay", 0.96),
            seed=seed,
            dtype=cfg.get_str("dtype", "float64", choices=("float64", "float32")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _model_settings(cfg: Config, tc: TrainConfig, train_ds) -> dict:
    """Model keys shared by every model a command builds; the class count is the dataset's."""
    return {
        "backbone": cfg.get_str("backbone", "paper-cnn", choices=BACKBONES),
        "n_channels": cfg.get_int("channels", 8),
        "n_classes": train_ds.n_classes,
        "dtype": np.dtype(tc.dtype),
    }


def _build_model(settings: dict, mode: str, family: str, seed: int):
    try:
        return assemble_model(mode, family=KernelFamily(family), seed=seed, **settings)
    except ValueError as exc:
        raise ConfigError(f"mode/family: {exc}") from exc


def cmd_train(cfg: Config) -> int:
    data_dir = cfg.get_path("dataset")
    mode = cfg.get_str("mode", "tfn-add", choices=MODES)
    family = cfg.get_str("family", "sttf", choices=[f.value for f in KernelFamily])
    seed = cfg.get_seed()
    out = _prepare_out(cfg)
    train_ds, test_ds = _load_split_dataset(data_dir)
    tc = _train_config(cfg, seed)
    model = _build_model(_model_settings(cfg, tc, train_ds), mode, family, seed)
    cfg.ensure_consumed()
    try:
        history = train(model, train_ds.signals, train_ds.labels,
                        test_ds.signals, test_ds.labels, tc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    save_model(model, out / "model.tfn")
    _write_history(out / "history.csv", history)
    if model.tfconv is not None:
        # epoch 0 is the initial state
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
    _write_echo(cfg, out)
    print(f"final test accuracy: {history.test_acc[-1]:.4f}")
    return EXIT_OK


def cmd_eval(cfg: Config) -> int:
    ckpt_path = cfg.get_path("checkpoint")
    data_dir = cfg.get_path("dataset")
    out = _prepare_out(cfg, required=False)
    cfg.ensure_consumed()
    model = load_model(ckpt_path)
    ds = _load_eval_dataset(data_dir)
    try:
        acc, confusion = evaluate(model, ds.signals, ds.labels)
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    print(f"accuracy: {acc:.4f}")
    if out is not None:
        _write_csv(out / "confusion.csv", None, confusion)
        _write_json(out / "metrics.json", {"accuracy": acc, "count": ds.n_samples})
        _write_echo(cfg, out)
    return EXIT_OK


def cmd_freq_response(cfg: Config) -> int:
    ckpt_path = cfg.get_path("checkpoint")
    data_dir = cfg.get_path("dataset", default="")
    n_fft = cfg.get_int("n_fft", 1024)
    bands_text = cfg.get_bands("bands", "")
    out = _prepare_out(cfg)
    cfg.ensure_consumed()
    model = load_model(ckpt_path)
    kernels = model.layers[0].kernels()
    try:
        resp = channel_frequency_response(kernels, n_fft)
    except ValueError as exc:
        raise ConfigError(f"n_fft: {exc}") from exc
    _write_csv(out / "cfr.csv", "channel,freq,magnitude",
               ((c, f, v) for c, row in enumerate(resp.cfr) for f, v in zip(resp.freqs, row)))
    _write_csv(out / "ofr.csv", "freq,ofr", zip(resp.freqs, resp.ofr))
    if model.tfconv is not None:
        grid = default_grid(model.tfconv.family)
        _write_csv(out / "kernel_taps.csv", "channel,n,real,imag",
                   ((c, n, v.real, v.imag) for c, row in enumerate(kernels)
                    for n, v in zip(grid, row)))
    bands = list(bands_text)
    if data_dir is not None:
        ds = _load_eval_dataset(data_dir)
        _write_csv(out / "dataset_spectrum.csv", "freq,magnitude",
                   zip(spectrum_freqs(ds.length), dataset_spectrum(ds)))
        if not bands:
            bands = [tuple(b) for b in ds.meta.get("information_bands", [])]
    if bands:
        report = band_coverage(resp.ofr, resp.freqs, bands)
        lines = [f"threshold_factor: {THRESHOLD_FACTOR}", f"ofr_median: {report.ofr_median!r}",
                 f"threshold: {report.threshold!r}", f"hits: {report.n_hits}/{len(report.bands)}"]
        lines += [f"band [{b.band[0]}, {b.band[1]}]: peak_freq={b.peak_frequency!r} "
                  f"peak_magnitude={b.peak_magnitude!r} hit={'yes' if b.hit else 'no'}"
                  for b in report.bands]
        (out / "band_report.txt").write_text("\n".join(lines) + "\n")
        print(f"band hits: {report.n_hits}/{len(report.bands)}")
    _write_echo(cfg, out)
    return EXIT_OK


def _n_threads() -> int:
    raw = os.environ.get("TFN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"TFN_THREADS: expected an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError("TFN_THREADS: must be >= 1")
    return n


def cmd_ablate(cfg: Config) -> int:
    data_dir = cfg.get_path("dataset")
    families = cfg.get_list("families", "sttf",
                            choices=[f.value for f in KernelFamily if f.value != "random"])
    if not families:
        raise ConfigError("families: at least one kernel family is required")
    seeds = cfg.get_seeds(default="0,1,2")
    out = _prepare_out(cfg)
    train_ds, test_ds = _load_split_dataset(data_dir)
    tc = _train_config(cfg, seeds[0])
    settings = _model_settings(cfg, tc, train_ds)
    cfg.ensure_consumed()
    threads = _n_threads()
    # settings and labels that every cell would reject fail here, before any cell runs
    _build_model(settings, "tfn-add", families[0], seeds[0])
    try:
        check_labels(train_ds.labels, settings["n_classes"])
        check_labels(test_ds.labels, settings["n_classes"])
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc

    groups = []  # (mode, family-or-None)
    for mode in ABLATE_MODES:
        if mode == "backbone-only":
            groups.append((mode, None))
        else:
            groups.extend((mode, fam) for fam in families)
    cells = [(f"{mode}-{fam or 'none'}-s{seed}", mode, fam, seed)
             for mode, fam in groups for seed in seeds]

    def run_cell(label, mode, fam, seed):
        model = _build_model(settings, mode, fam or "sttf", seed)
        history = train(model, train_ds.signals, train_ds.labels,
                        test_ds.signals, test_ds.labels, dataclasses.replace(tc, seed=seed))
        cell_dir = out / "cells" / label
        cell_dir.mkdir(parents=True, exist_ok=True)
        _write_history(cell_dir / "history.csv", history)
        _write_json(cell_dir / "metrics.json", {"final_test_acc": history.test_acc[-1]})
        return history.test_acc[-1]

    results: dict[int, float] = {}
    failure = None
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_cell, *cell) for cell in cells]
        for i, fut in enumerate(futures):
            try:
                results[i] = fut.result()
            except Exception as exc:  # keep the other cells' results below
                if failure is None:
                    failure = f"ablation cell {cells[i][0]} failed ({exc})"

    rows = []
    for gi, (mode, fam) in enumerate(groups):
        accs = [results.get(gi * len(seeds) + si) for si in range(len(seeds))]
        if None not in accs:
            rows.append((mode, fam or "-", float(np.mean(accs)), float(np.var(accs))))
    _write_csv(out / "results.csv", "model,kernel,mean_acc,variance", rows)
    _write_echo(cfg, out)
    for mode, fam, mean, var in rows:
        print(f"{mode:14s} {fam:10s} mean_acc={mean:.4f} variance={var:.6f}")
    if failure is not None:
        raise RuntimeError(f"{failure}; partial results kept in {out / 'results.csv'}")
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
