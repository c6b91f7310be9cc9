"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import taghash  # noqa: E402
import workloads  # noqa: E402
from taghash import evaluation, optimizer, retrieval  # noqa: E402
from tracer import Tracer, unit as tracer_unit  # noqa: E402

TINY = {
    "train_stream": workloads.TrainSize(
        rows=120, d=16, m=20, r=8, c=48, f=4, rounds=3, save=True,
        queries=30),
    "query_topk": workloads.QuerySize(
        db=2000, block=500, d=16, m=20, r=16, c=48, f=4, train_rows=120,
        train_rounds=1, queries=50, k=10, check_every=1, map_queries=20),
    "map_eval": workloads.EvalSize(
        rounds=2, rows=150, d=16, m=20, r=16, c=48, f=4, queries=30),
}


def _arrays(obj):
    """Every array reachable from a prepared input, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj)
                for a in _arrays(getattr(obj, f.name))]
    return []


def _run(name, tmp_path, seed=3):
    prepare, run = workloads.WORKLOADS[name]
    inputs = prepare(seed, TINY[name], str(tmp_path))
    rec = workloads.Recorder(0.0)
    run(inputs, rec)
    return rec


def _prepared_arrays(name, seed, workdir):
    workdir.mkdir()
    prepare, _ = workloads.WORKLOADS[name]
    return _arrays(prepare(seed, TINY[name], str(workdir)))


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    a = _prepared_arrays(name, 5, tmp_path / "a")
    b = _prepared_arrays(name, 5, tmp_path / "b")
    c = _prepared_arrays(name, 6, tmp_path / "c")
    assert len(a) == len(b) and a
    assert all(x.dtype == y.dtype and np.array_equal(x, y)
               for x, y in zip(a, b))
    assert not all(x.shape == y.shape and np.array_equal(x, y)
                   for x, y in zip(a, c))


@pytest.mark.parametrize("name", sorted(TINY))
def test_clean_run_has_no_errors(name, tmp_path):
    rec = _run(name, tmp_path)
    assert rec.attempted > 0 and rec.failed == 0
    assert 0.0 < rec.map <= 1.0


def test_swapped_ranked_ids_raise_error_rate(tmp_path, monkeypatch):
    real = retrieval.hamming_rank

    def swapped(query, index, k=None):
        ids, dists = real(query, index, k)
        ids = ids.copy()
        ids[[0, 1]] = ids[[1, 0]]
        return ids, dists

    monkeypatch.setattr(retrieval, "hamming_rank", swapped)
    rec = _run("query_topk", tmp_path)
    assert rec.failed == rec.attempted - workloads.SETUP_REPS > 0


def test_wrong_average_precision_raises_error_rate(tmp_path, monkeypatch):
    real = evaluation.average_precision
    monkeypatch.setattr(evaluation, "average_precision",
                        lambda *a: None if real(*a) is None
                        else real(*a) * 0.99)
    assert _run("map_eval", tmp_path).failed == 1


def _bindings():
    """Identity of every attribute of every taghash module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "taghash" or name.startswith("taghash."):
            for key, val in vars(mod).items():
                out[name, key] = id(val)
                if isinstance(val, type):
                    for k, v in vars(val).items():
                        out[name, key, k] = id(v)
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    original = taghash.engine.rbf_map
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            assert taghash.engine.rbf_map is not original
            assert taghash.kernel.rbf_map is taghash.engine.rbf_map
            assert not tracer.absent
            raise RuntimeError("leave the block early")
    assert _bindings() == before


def test_tracer_counts_spans_of_one_round():
    size = TINY["train_stream"]
    inputs = workloads.prepare_train(1, size, None)
    trainer = taghash.StreamTrainer(inputs.hyper, inputs.table, 1)
    with Tracer() as tracer:
        tracer.phase = "op"
        trainer.process_chunk(*inputs.chunks[0][:2])
        tracer.phase = None
    report = tracer.report({"op": 1})
    h = inputs.hyper
    assert report["optimizer.dcc_sweeps"] == h.iters * h.dcc_sweeps
    assert tracer.calls["op", "optimizer.dcc_bit_column"] \
        == h.iters * h.dcc_sweeps * h.r
    assert report["semantics.tagless_rows"] == int(
        np.count_nonzero(inputs.chunks[0][1].sum(axis=1) == 0))
    assert report["optimizer.update_p_s"] > 0
    assert all(v >= 0 for v in report.values())


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(optimizer, "update_v")
    with Tracer() as tracer:
        pass
    assert "optimizer.update_v" in tracer.absent
    assert tracer.report({"op": 1})["optimizer.update_v_s"] == 0.0


def test_metric_names_match_the_benchmark_definition():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert all(run.END_TO_END[m["name"]] == m["unit"]
               for m in bench["end_to_end"])
    with Tracer() as tracer:
        pass
    traced = list(tracer.report({"op": 1})) + ["trace.overhead_ms",
                                               "trace.coverage"]
    assert [m["name"] for m in bench["per_layer"]] == traced
    assert all(tracer_unit(m["name"]) == m["unit"]
               for m in bench["per_layer"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
