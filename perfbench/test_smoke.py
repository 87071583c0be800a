"""Smoke tests for the benchmark: structure at micro size, never timings.

    python3 -m pytest perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import run
import spec

MODULES = run.load_tfnet()
from tfnet import cli, training  # noqa: E402  (importable once load_tfnet has run)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_generated_from_spec():
    assert (spec.ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_benchmark_json_within_contract_limits():
    bench = spec.benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_micro_run_reports_every_metric(workload, trace, tmp_path):
    metrics, tally = run.run(workload, 3, 0.01, trace, tmp_path, MODULES, micro=True)
    if trace:
        expected = {m.name: m.unit for m in spec.PER_LAYER}
        expected.update({n: u for n, u, _ in spec.TRACE_METRICS})
    else:
        expected = {m.name: m.unit for m in spec.END_TO_END}
    assert {name: unit for name, (_, unit) in metrics.items()} == expected
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert tally.attempted >= 1
    if trace:
        assert 0 < metrics["trace.self_ms"][0] <= metrics["trace.round_ms"][0]


def test_non_finite_loss_counts_as_failed(tmp_path, monkeypatch):
    real = training.softmax_cross_entropy

    def nan_loss(logits, labels):
        _, grad = real(logits, labels)
        return float("nan"), grad

    monkeypatch.setattr(training, "softmax_cross_entropy", nan_loss)
    _, tally = run.run("train-tfconv", 3, 0.01, False, tmp_path, MODULES, micro=True)
    assert tally.failed >= 1


def _eval_explain_with(monkeypatch, tmp_path, tamper):
    """Run eval-explain at micro size with the CLI's ``evaluate`` output put through ``tamper``."""
    real = cli.evaluate
    monkeypatch.setattr(cli, "evaluate", lambda *a, **kw: tamper(*real(*a, **kw)))
    _, tally = run.run("eval-explain", 3, 0.01, False, tmp_path, MODULES, micro=True)
    assert tally.failed >= 1
    return tally.problems


def test_confusion_not_summing_to_samples_counts_as_failed(tmp_path, monkeypatch):
    def extra_count(acc, confusion):
        confusion[0, 0] += 1
        return acc, confusion

    problems = _eval_explain_with(monkeypatch, tmp_path, extra_count)
    assert any("confusion" in p for p in problems)


def test_eval_accuracy_not_the_setups_counts_as_failed(tmp_path, monkeypatch):
    def other_accuracy(acc, confusion):
        return (acc + 0.5) % 1.0, confusion   # always differs from acc

    problems = _eval_explain_with(monkeypatch, tmp_path, other_accuracy)
    assert any("is not the set-up" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
