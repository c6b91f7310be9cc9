import argparse
import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import taghash
from taghash import cli, dataio
from taghash.dataio import ChunkManifest, load_checkpoint
from taghash.engine import StreamTrainer
from taghash.evaluation import EvalJudgments, mean_average_precision
from taghash.retrieval import hamming_rank, hash_queries, snapshot_index
from taghash.synthetic import make_cluster_stream

from conftest import (read_checkpoint_fields, rewrite_header,
                      write_checkpoint_fields)


def write_stream(root, stream):
    """Materialize a synthetic stream as manifest + chunk files on disk."""
    chunks = []
    for i, ((x, y), labels) in enumerate(
            zip(stream.chunks, stream.chunk_labels)):
        fx = str(root / f"chunk_{i}.bin")
        ft = str(root / f"chunk_{i}.tags")
        fl = str(root / f"chunk_{i}.labels")
        dataio.save_features(fx, x)
        dataio.save_tags(ft, y)
        dataio.save_tags(fl, labels)
        chunks.append({"features": fx, "tags": ft, "labels": fl})
    man = ChunkManifest(d=stream.chunks[0][0].shape[1], c=9, chunks=chunks,
                        labels_dim=3,
                        tag_vocab=list(stream.table.tag_names))
    man_path = str(root / "manifest.json")
    man.save(man_path)

    emb_path = str(root / "emb.txt")
    with open(emb_path, "w") as fh:
        for name, vec in zip(stream.table.tag_names, stream.table.vectors):
            fh.write(name + " "
                     + " ".join(repr(float(v)) for v in vec) + "\n")

    q_path = str(root / "queries.bin")
    ql_path = str(root / "queries.labels")
    dataio.save_features(q_path, stream.query_x)
    dataio.save_tags(ql_path, stream.query_labels)
    return man_path, emb_path, q_path, ql_path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    stream = make_cluster_stream(n_rounds=3, n_per_round=60, d=16, f=8,
                                 n_queries=30, seed=12)
    man_path, emb_path, q_path, ql_path = write_stream(root, stream)
    cfg_path = str(root / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(f"""# small smoke-test run
bits = 16
anchors = 24
iters = 3
dcc_sweeps = 2
seed = 7
manifest = {man_path}
embeddings = {emb_path}
""")
    return {"root": root, "stream": stream, "manifest": man_path,
            "embeddings": emb_path, "queries": q_path,
            "query_labels": ql_path, "config": cfg_path}


def run_train(workdir, ckpt, metrics=None, extra=()):
    argv = ["train", "--config", workdir["config"], "--checkpoint", ckpt]
    if metrics:
        argv += ["--metrics", metrics]
    argv += list(extra)
    return cli.main(argv)


class TestTrain:
    def test_train_writes_checkpoint_and_metrics(self, workdir):
        ckpt = str(workdir["root"] / "a.ckpt")
        metrics = str(workdir["root"] / "a.csv")
        assert run_train(workdir, ckpt, metrics) == 0
        assert os.path.exists(ckpt)
        with open(metrics) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "bits", "metric", "value"]
        body = rows[1:]
        assert sum(1 for r in body if r[2] == "round_time") == 3
        assert all(r[1] == "16" for r in body)
        objective_rows = [r for r in body if r[2].startswith("objective_")]
        assert len(objective_rows) == 9  # 3 rounds x 3 iterations
        assert all(float(r[3]) > 0 for r in objective_rows)

    def test_training_is_deterministic(self, workdir):
        c1 = str(workdir["root"] / "d1.ckpt")
        c2 = str(workdir["root"] / "d2.ckpt")
        m1 = str(workdir["root"] / "d1.csv")
        m2 = str(workdir["root"] / "d2.csv")
        assert run_train(workdir, c1, m1) == 0
        assert run_train(workdir, c2, m2) == 0
        assert Path(c1).read_bytes() == Path(c2).read_bytes()

        def objective_rows(path):
            with open(path) as fh:
                return [r for r in csv.reader(fh) if r and
                        r[2].startswith("objective_")]
        assert objective_rows(m1) == objective_rows(m2)

    def test_resume_matches_straight_run(self, workdir):
        straight = str(workdir["root"] / "s.ckpt")
        resumed = str(workdir["root"] / "r.ckpt")
        assert run_train(workdir, straight) == 0
        assert run_train(workdir, resumed, extra=["--chunks", "1"]) == 0
        assert run_train(workdir, resumed, extra=["--resume"]) == 0
        assert Path(straight).read_bytes() == Path(resumed).read_bytes()

    @pytest.mark.parametrize("extra, config, refused", [
        (["--bits", "32", "--anchors", "30", "--alpha", "5"], "",
         ["bits = 32, checkpoint has 16", "anchors = 30, checkpoint has 24",
          "alpha = 5.0, checkpoint has 300.0"]),
        ([], "seed = 8\n", ["seed = 8, checkpoint has 7"]),
    ], ids=["flags", "config_seed"])
    def test_resume_refuses_changed_settings(self, workdir, tmp_path,
                                             monkeypatch, capsys, extra,
                                             config, refused):
        # refused before any chunk is read, leaving the checkpoint as it was
        ckpt = tmp_path / "c.ckpt"
        assert run_train(workdir, str(ckpt), extra=["--chunks", "1"]) == 0
        before = ckpt.read_bytes()
        cfg = tmp_path / "changed.cfg"
        # the changed seed replaces the config's own: a key set twice is
        # refused
        text = Path(workdir["config"]).read_text()
        if config:
            text = text.replace("seed = 7\n", config)
        cfg.write_text(text)

        def no_chunks(self, i):
            raise AssertionError(f"chunk {i} was read")
        monkeypatch.setattr(ChunkManifest, "load_chunk", no_chunks)
        capsys.readouterr()
        rc = cli.main(["train", "--config", str(cfg), "--checkpoint",
                       str(ckpt), "--resume"] + extra)
        assert rc == 1
        err = capsys.readouterr().err
        assert all(text in err for text in refused), err
        assert ckpt.read_bytes() == before

    def test_resume_refuses_a_served_index(self, workdir, tmp_path, capsys):
        # one block more than rounds: resuming would start at chunk 2 and
        # train chunk 1 a second time
        ckpt = tmp_path / "served.ckpt"
        assert run_train(workdir, str(ckpt), extra=["--chunks", "1"]) == 0
        state, stats, blocks, p_history, seed = load_checkpoint(str(ckpt))
        blocks.append(hash_queries(workdir["stream"].query_x, state))
        dataio.save_checkpoint(str(ckpt), state, stats, blocks, p_history,
                               seed)
        before = ckpt.read_bytes()
        capsys.readouterr()
        assert run_train(workdir, str(ckpt), extra=["--resume"]) == 2
        assert (f"{ckpt}: 1 round projections for 2 code blocks; a trainer "
                f"needs one per round") in capsys.readouterr().err
        assert ckpt.read_bytes() == before
        assert cli.main(["query", "--config", workdir["config"],
                         "--checkpoint", str(ckpt), "--features",
                         workdir["queries"],
                         "--out", str(tmp_path / "hits.tsv")]) == 0

    def test_resume_compares_after_variant_overrides(self, workdir,
                                                     tmp_path, capsys):
        ckpt = str(tmp_path / "c.ckpt")
        assert run_train(workdir, ckpt, extra=["--chunks", "1"]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", workdir["config"],
                         "--checkpoint", ckpt, "--variant", "woh-1",
                         "--resume"]) == 1
        assert "theta = 0.0, checkpoint has 0.1" in capsys.readouterr().err

    def test_chunk_limit(self, workdir):
        ckpt = str(workdir["root"] / "lim.ckpt")
        assert run_train(workdir, ckpt, extra=["--chunks", "2"]) == 0
        _, _, blocks, p_history, _ = load_checkpoint(ckpt)
        assert len(p_history) == 2
        assert len(blocks) == 2

    @pytest.mark.parametrize("chunks", ["0", "-1"])
    def test_chunk_limit_below_one_is_usage_error(self, workdir, chunks):
        # refused before any file is read: the manifest does not exist
        ckpt = workdir["root"] / "none.ckpt"
        rc = run_train(workdir, str(ckpt), extra=[
            "--chunks", chunks,
            "--manifest", str(workdir["root"] / "missing.json")])
        assert rc == 1
        assert not ckpt.exists()

    def test_chunk_limit_below_one_in_config_is_usage_error(self, workdir,
                                                            tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(Path(workdir["config"]).read_text() + "chunks = 0\n")
        ckpt = tmp_path / "none.ckpt"
        assert cli.main(["train", "--config", str(cfg),
                         "--checkpoint", str(ckpt)]) == 1
        assert not ckpt.exists()

    def test_cli_override_beats_config(self, workdir):
        ckpt = str(workdir["root"] / "ov.ckpt")
        assert run_train(workdir, ckpt,
                         extra=["--bits", "8", "--chunks", "1"]) == 0
        state, *_ = load_checkpoint(ckpt)
        assert state.hyper.r == 8


class TestEvalAndQuery:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained(workdir):
        ckpt = str(workdir["root"] / "main.ckpt")
        assert run_train(workdir, ckpt) == 0
        return ckpt

    def test_eval_matches_library_map(self, workdir, trained, capsys):
        metrics = str(workdir["root"] / "eval.csv")
        rc = cli.main([
            "eval", "--config", workdir["config"], "--checkpoint", trained,
            "--queries", workdir["queries"],
            "--query-labels", workdir["query_labels"],
            "--metrics", metrics])
        assert rc == 0
        with open(metrics) as fh:
            rows = [r for r in csv.reader(fh)][1:]
        map_rows = {int(r[0]): float(r[3]) for r in rows if r[2] == "map"}
        assert sorted(map_rows) == [1, 2, 3]

        state, _, blocks, p_history, _ = load_checkpoint(trained)
        stream = workdir["stream"]
        judgments = EvalJudgments(query_labels=stream.query_labels,
                                  db_labels=stream.db_labels[:180])
        # final round uses the checkpointed projection directly
        codes = hash_queries(stream.query_x, state)
        want, _ = mean_average_precision(
            codes, snapshot_index(state, blocks), judgments)
        assert map_rows[3] == pytest.approx(want, abs=1e-12)
        assert 0.0 <= map_rows[1] <= 1.0

    def test_eval_reads_labels_in_declared_format(self, workdir, trained,
                                                  tmp_path):
        # the manifest's tag_format applies to its tag and label files and
        # to --query-labels: the same files written dense give the same
        # report, and declared sparse they are refused
        stream = workdir["stream"]
        man = ChunkManifest.from_file(workdir["manifest"])
        for i, entry in enumerate(man.chunks):
            entry["tags"] = str(tmp_path / f"chunk_{i}.tags")
            entry["labels"] = str(tmp_path / f"chunk_{i}.labels")
            dataio.save_tags(entry["tags"], stream.chunks[i][1], "dense")
            dataio.save_tags(entry["labels"], stream.chunk_labels[i],
                             "dense")
        ql_path = str(tmp_path / "queries.labels")
        dataio.save_tags(ql_path, stream.query_labels, "dense")

        def evaluate(manifest, query_labels, tag_format):
            man.tag_format = tag_format
            man.save(manifest)
            metrics = str(tmp_path / "eval.csv")
            rc = cli.main([
                "eval", "--config", workdir["config"],
                "--checkpoint", trained, "--manifest", manifest,
                "--queries", workdir["queries"],
                "--query-labels", query_labels, "--metrics", metrics])
            if rc != 0:
                return rc, None
            with open(metrics) as fh:
                return rc, fh.read()

        dense_man = str(tmp_path / "dense.json")
        rc, dense_report = evaluate(dense_man, ql_path, "dense")
        assert rc == 0
        rc, sparse_report = evaluate(str(tmp_path / "sparse.json"),
                                     workdir["query_labels"], None)
        assert rc == 0 and dense_report == sparse_report
        # with sparse chunk files only --query-labels is read as declared
        sparse_chunks = ChunkManifest.from_file(workdir["manifest"])
        man.chunks = sparse_chunks.chunks
        assert evaluate(dense_man, ql_path, "sparse")[0] == 2

    def test_eval_precision_k(self, workdir, trained):
        metrics = str(workdir["root"] / "evalp.csv")
        rc = cli.main([
            "eval", "--config", workdir["config"], "--checkpoint", trained,
            "--queries", workdir["queries"],
            "--query-labels", workdir["query_labels"],
            "--precision-k", "5", "--metrics", metrics])
        assert rc == 0
        with open(metrics) as fh:
            rows = [r for r in csv.reader(fh)][1:]
        pk = [float(r[3]) for r in rows if r[2] == "precision_at_5"]
        assert len(pk) == 1 and 0.0 <= pk[0] <= 1.0

    def test_query_matches_library_ranking(self, workdir, trained):
        out = str(workdir["root"] / "hits.tsv")
        rc = cli.main([
            "query", "--config", workdir["config"], "--checkpoint", trained,
            "--features", workdir["queries"], "-k", "4", "--out", out])
        assert rc == 0
        lines = [ln.split("\t") for ln in Path(out).read_text().splitlines()]
        assert len(lines) == 30 * 4

        state, _, blocks, *_ = load_checkpoint(trained)
        index = snapshot_index(state, blocks)
        codes = hash_queries(workdir["stream"].query_x, state)
        ids, dists = hamming_rank(codes.packed[0], index, 4)
        first = [ln for ln in lines if ln[0] == "0"]
        assert [int(ln[1]) for ln in first] == ids.tolist()
        assert [int(ln[2]) for ln in first] == dists.tolist()
        assert [int(ln[3]) for ln in first] == [1, 2, 3, 4]

    def test_query_negative_k_is_usage_error(self, workdir, trained):
        rc = cli.main([
            "query", "--config", workdir["config"], "--checkpoint", trained,
            "--features", workdir["queries"], "-k", "-1"])
        assert rc == 1

    def test_query_negative_k_checked_before_checkpoint(self, workdir):
        rc = cli.main([
            "query", "--config", workdir["config"],
            "--checkpoint", str(workdir["root"] / "missing.ckpt"),
            "--features", workdir["queries"], "-k", "-1"])
        assert rc == 1

    def test_query_k_zero_is_empty(self, workdir, trained):
        out = str(workdir["root"] / "none.tsv")
        rc = cli.main([
            "query", "--config", workdir["config"], "--checkpoint", trained,
            "--features", workdir["queries"], "-k", "0", "--out", out])
        assert rc == 0
        assert Path(out).read_text() == ""


class TestAblate:
    def test_variant_overrides_hyperparameters(self, workdir):
        for variant, check in (
                ("woh", lambda h: h.theta > 0 and h.tag_regression),
                ("woh-1", lambda h: h.theta == 0 and h.tag_regression),
                ("woh-2", lambda h: h.theta == 0 and not h.tag_regression),
                ("woh-3", lambda h: h.alpha == 0)):
            ckpt = str(workdir["root"] / f"{variant}.ckpt")
            rc = cli.main([
                "train", "--config", workdir["config"],
                "--checkpoint", ckpt, "--chunks", "1",
                "--variant", variant])
            assert rc == 0, variant
            state, *_ = load_checkpoint(ckpt)
            assert check(state.hyper), variant

    def test_variant_from_config(self, workdir, tmp_path):
        cfg = tmp_path / "woh2.cfg"
        cfg.write_text(Path(workdir["config"]).read_text()
                       + "variant = woh-2\n")
        ckpt = str(tmp_path / "c.ckpt")
        assert cli.main(["train", "--config", str(cfg), "--checkpoint", ckpt,
                         "--chunks", "1"]) == 0
        state, *_ = load_checkpoint(ckpt)
        assert state.hyper.theta == 0 and not state.hyper.tag_regression

    def test_unknown_variant_is_usage_error(self, workdir, capsys):
        rc = cli.main(["train", "--config", workdir["config"],
                       "--checkpoint", "x.ckpt", "--variant", "woh-9"])
        assert rc == 1
        assert ("--variant must be one of woh, woh-1, woh-2, woh-3, got "
                "'woh-9'") in capsys.readouterr().err
        assert not os.path.exists("x.ckpt")

    def test_variant_resume_matches_straight_run(self, workdir, tmp_path):
        straight = tmp_path / "s.ckpt"
        resumed = tmp_path / "r.ckpt"
        variant = ["--variant", "woh-1"]
        assert run_train(workdir, str(straight), extra=variant) == 0
        assert run_train(workdir, str(resumed),
                         extra=variant + ["--chunks", "1"]) == 0
        assert run_train(workdir, str(resumed),
                         extra=variant + ["--resume"]) == 0
        assert straight.read_bytes() == resumed.read_bytes()


class TestPreprocess:
    def build_raw(self, root):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        # tag counts: a=4, b=1 (too rare), c=4 (no embedding)
        y = np.array([
            [1, 0, 1], [1, 0, 1], [1, 1, 1], [1, 0, 1],
            [0, 0, 0], [0, 0, 0]])
        dataio.save_features(str(root / "raw.bin"), x)
        dataio.save_tags(str(root / "raw.tags"), y)
        man = ChunkManifest(
            d=3, c=3,
            chunks=[{"features": str(root / "raw.bin"),
                     "tags": str(root / "raw.tags")}],
            tag_vocab=["a", "b", "c"])
        man_path = str(root / "raw_manifest.json")
        man.save(man_path)
        emb = str(root / "raw_emb.txt")
        with open(emb, "w") as fh:
            fh.write("a 1.0 0.0\nb 0.0 1.0\n")
        return man_path, emb

    def test_prunes_rare_and_uncovered_tags(self, tmp_path):
        man_path, emb = self.build_raw(tmp_path)
        out = str(tmp_path / "out")
        rc = cli.main(["preprocess", "--manifest", man_path,
                       "--embeddings", emb, "--min-count", "2",
                       "--out-dir", out])
        assert rc == 0
        pruned = ChunkManifest.from_file(os.path.join(out, "manifest.json"))
        assert pruned.c == 1
        assert pruned.tag_vocab == ["a"]
        _, y, _ = pruned.load_chunk(0)
        assert y.sum() == 4

    def test_keeps_the_declared_tag_format(self, tmp_path):
        man_path, emb = self.build_raw(tmp_path)
        man = ChunkManifest.from_file(man_path)
        _, y, _ = man.load_chunk(0)
        dataio.save_tags(man.chunks[0]["tags"], y, "dense")
        man.tag_format = "dense"
        man.save(man_path)
        out = str(tmp_path / "out")
        assert cli.main(["preprocess", "--manifest", man_path,
                         "--embeddings", emb, "--min-count", "2",
                         "--out-dir", out]) == 0
        pruned = ChunkManifest.from_file(os.path.join(out, "manifest.json"))
        assert pruned.tag_format == "dense"
        with open(pruned.chunks[0]["tags"]) as fh:
            assert fh.read().split() == ["1", "1", "1", "1", "0", "0"]
        assert np.array_equal(pruned.load_chunk(0)[1], y[:, :1])

    def test_two_surviving_tags_need_a_declared_tag_format(self, tmp_path,
                                                          capsys):
        # min count 1 keeps a and b: the pruned 2-column tag files could be
        # dense rows or sparse pairs, which train cannot tell apart, so
        # preprocess refuses before it writes anything
        man_path, emb = self.build_raw(tmp_path)
        out = tmp_path / "out"
        argv = ["preprocess", "--manifest", man_path, "--embeddings", emb,
                "--min-count", "1", "--out-dir", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "2 tags survive pruning" in err and '"tag_format"' in err
        assert not out.exists()
        man = ChunkManifest.from_file(man_path)
        man.tag_format = "sparse"
        man.save(man_path)
        assert cli.main(argv) == 0
        pruned = ChunkManifest.from_file(str(out / "manifest.json"))
        assert pruned.c == 2 and pruned.tag_format == "sparse"
        assert pruned.load_chunk(0)[1].sum() == 5

    def test_idempotent_on_its_own_output(self, tmp_path):
        man_path, emb = self.build_raw(tmp_path)
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert cli.main(["preprocess", "--manifest", man_path,
                         "--embeddings", emb, "--min-count", "2",
                         "--out-dir", out1]) == 0
        assert cli.main(["preprocess",
                         "--manifest", os.path.join(out1, "manifest.json"),
                         "--embeddings", emb, "--min-count", "2",
                         "--out-dir", out2]) == 0
        m1 = ChunkManifest.from_file(os.path.join(out1, "manifest.json"))
        m2 = ChunkManifest.from_file(os.path.join(out2, "manifest.json"))
        assert m1.c == m2.c == 1
        assert m1.tag_vocab == m2.tag_vocab
        y1 = m1.load_chunk(0)[1]
        y2 = m2.load_chunk(0)[1]
        assert np.array_equal(y1, y2)


class TestSettings:
    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: [a.option_strings[0] for a in p._actions
                        if a.option_strings != ["-h", "--help"]]
                 for name, p in sub.choices.items()}
        assert {name: len(f) for name, f in flags.items()} == {
            "preprocess": 5, "train": 17, "eval": 8, "query": 5}
        assert flags["query"] == ["--config", "--checkpoint", "--features",
                                  "-k", "--out"]

    @pytest.mark.parametrize("command, config, flags, message", [
        ("train", {"dcc-sweeps": "5"}, [], "unknown setting 'dcc-sweeps'"),
        ("train", {"tag_regression": "false"}, [],
         "unknown setting 'tag_regression'"),
        ("train", {"bits": "abc"}, [],
         "--bits must be an integer, got 'abc'"),
        ("train", {"iters": "2.5"}, [],
         "--iters must be an integer, got '2.5'"),
        ("train", {"seed": "x"}, [], "--seed must be an integer, got 'x'"),
        ("preprocess", {"min_count": "abc"}, [],
         "--min-count must be an integer, got 'abc'"),
        ("train", {}, ["--bits", "0"], "--bits must be >= 1, got 0"),
        ("train", {}, ["--alpha", "-1"], "--alpha must be >= 0, got -1"),
        ("train", {}, ["--theta", "inf"], "--theta must be finite, got inf"),
        ("eval", {}, ["--bits", "99"], "unrecognized arguments: --bits 99"),
        ("preprocess", {}, ["--alpha", "5"],
         "unrecognized arguments: --alpha 5"),
        ("query", {"k": "-1"}, [], "-k must be >= 0, got -1"),
        ("eval", {"queries": None}, [], "eval requires --queries"),
    ], ids=["dash_key", "tag_regression", "bits_text", "iters_float",
            "seed_text", "min_count_text", "bits_zero", "alpha_negative",
            "theta_inf", "eval_bits", "preprocess_alpha", "config_k",
            "eval_queries"])
    def test_bad_setting_is_usage_error_naming_it(self, tmp_path, capsys,
                                                  command, config, flags,
                                                  message):
        # one config serves every command; every data path in it is
        # missing, so a setting refused late would exit 2, not 1
        settings = {key: str(tmp_path / "missing") for key in (
            "manifest", "embeddings", "checkpoint", "out_dir", "queries",
            "query_labels", "features")}
        settings.update(bits="16", anchors="24")
        settings.update(config)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n"
                               for key, value in settings.items()
                               if value is not None))
        assert cli.main([command, "--config", str(cfg)] + flags) == 1
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]

    @pytest.mark.parametrize("command", ["preprocess", "train", "eval",
                                         "query"])
    def test_unknown_config_key_is_refused(self, workdir, tmp_path, capsys,
                                           command):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(Path(workdir["config"]).read_text() + "bitz = 8\n")
        assert cli.main([command, "--config", str(cfg)]) == 1
        assert f"{cfg}: unknown setting 'bitz'" in capsys.readouterr().err

    def test_query_reads_k_from_config(self, workdir, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        assert run_train(workdir, ckpt, extra=["--chunks", "1"]) == 0
        cfg = tmp_path / "k.cfg"
        cfg.write_text(Path(workdir["config"]).read_text() + "k = 2\n")
        out = tmp_path / "hits.tsv"
        argv = ["query", "--config", str(cfg), "--checkpoint", ckpt,
                "--features", workdir["queries"], "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 30 * 2
        assert cli.main(argv + ["-k", "3"]) == 0     # the flag wins
        assert len(out.read_text().splitlines()) == 30 * 3

    def test_readme_commands_parse(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            section = fh.read().split("## Command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(ln)[1:] for ln in lines
                    if ln.startswith("taghash ")]
        assert {argv[0] for argv in commands} == {
            "preprocess", "train", "eval", "query"}
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestExitCodes:
    def test_missing_required_setting_is_usage_error(self, workdir):
        rc = cli.main(["train", "--manifest", workdir["manifest"],
                       "--embeddings", workdir["embeddings"],
                       "--checkpoint", str(workdir["root"] / "x.ckpt")])
        assert rc == 1  # no bits/anchors anywhere

    def test_bad_manifest_is_data_error(self, workdir):
        rc = cli.main(["train", "--config", workdir["config"],
                       "--manifest", str(workdir["root"] / "nope.json"),
                       "--checkpoint", str(workdir["root"] / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("text, names", [
        ('{"d": 16, "c": 9, "chunks": [["features", "tags"]]}',
         "chunk 0 must map 'features', 'tags'"),
        ('{"d": 16, "c": 9, "chunks": [{"features": 5, "tags": "x"}]}',
         "path strings, got {'features': 5, 'tags': 'x'}"),
        ('{"d": 16, "c": 9, "chunks": [{', "bad manifest: Expecting"),
    ], ids=["list_entry", "number_path", "malformed_json"])
    def test_malformed_manifest_is_data_error(self, workdir, tmp_path,
                                              capsys, text, names):
        man = tmp_path / "bad.json"
        man.write_text(text)
        rc = cli.main(["train", "--config", workdir["config"],
                       "--manifest", str(man),
                       "--checkpoint", str(tmp_path / "x.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{man}: " in err and names in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("field, value", [
        ("d", 1.7), ("d", -2), ("d", True), ("labels_dim", -1)])
    def test_bad_manifest_count_is_data_error(self, workdir, three_rounds,
                                              tmp_path, capsys, command,
                                              field, value):
        with open(workdir["manifest"]) as fh:
            doc = json.load(fh)
        doc[field] = value
        man = tmp_path / "bad.json"
        man.write_text(json.dumps(doc))
        argv = [command, "--config", workdir["config"], "--manifest",
                str(man)]
        if command == "train":
            argv += ["--checkpoint", str(tmp_path / "x.ckpt")]
        else:
            argv += ["--checkpoint", three_rounds,
                     "--queries", workdir["queries"],
                     "--query-labels", workdir["query_labels"]]
        assert cli.main(argv) == 2
        assert f"{man}: {field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_missing_checkpoint_for_eval_is_data_error(self, workdir):
        rc = cli.main(["eval", "--config", workdir["config"],
                       "--checkpoint", str(workdir["root"] / "nope.ckpt"),
                       "--queries", workdir["queries"],
                       "--query-labels", workdir["query_labels"]])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [
        ("--map-cutoff", "0"), ("--map-cutoff", "-3"), ("--precision-k", "0"),
    ])
    def test_cutoff_below_one_is_usage_error(self, workdir, capsys, flag,
                                             value):
        # refused before the (missing) checkpoint is opened
        rc = cli.main(["eval", "--config", workdir["config"],
                       "--checkpoint", str(workdir["root"] / "nope.ckpt"),
                       "--queries", workdir["queries"],
                       "--query-labels", workdir["query_labels"],
                       flag, value])
        assert rc == 1
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    @staticmethod
    def three_rounds(workdir):
        ckpt = str(workdir["root"] / "exit.ckpt")
        assert run_train(workdir, ckpt) == 0
        return ckpt

    def eval_with_chunks(self, workdir, ckpt, chunks, tmp_path):
        man = ChunkManifest.from_file(workdir["manifest"])
        man.chunks = chunks
        man_path = str(tmp_path / "m.json")
        man.save(man_path)
        return cli.main(["eval", "--config", workdir["config"],
                         "--checkpoint", ckpt, "--manifest", man_path,
                         "--queries", workdir["queries"],
                         "--query-labels", workdir["query_labels"]])

    def test_short_manifest_for_eval_is_data_error(self, workdir,
                                                   three_rounds, tmp_path,
                                                   capsys):
        chunks = ChunkManifest.from_file(workdir["manifest"]).chunks
        rc = self.eval_with_chunks(workdir, three_rounds, chunks[:2],
                                   tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert "2 chunks" in err and "3 rounds" in err

    def test_eval_label_rows_must_match_round_codes(self, workdir,
                                                    three_rounds, tmp_path,
                                                    capsys):
        # a chunk whose files agree with each other but not with the codes
        # the checkpoint committed for that round
        stream = workdir["stream"]
        (x, y), labels = stream.chunks[0], stream.chunk_labels[0]
        short = {"features": str(tmp_path / "short.bin"),
                 "tags": str(tmp_path / "short.tags"),
                 "labels": str(tmp_path / "short.labels")}
        dataio.save_features(short["features"], x[:40])
        dataio.save_tags(short["tags"], y[:40])
        dataio.save_tags(short["labels"], labels[:40])
        chunks = ChunkManifest.from_file(workdir["manifest"]).chunks
        rc = self.eval_with_chunks(workdir, three_rounds,
                                   [short] + chunks[1:], tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert "40 label rows" in err and "60 codes" in err

    @pytest.mark.parametrize("projections", [1, 3])
    def test_eval_needs_one_projection_per_round(self, workdir, tmp_path,
                                                 capsys, projections):
        # a 2-round checkpoint with too few or too many projections cannot
        # give a MAP curve, but it still serves queries; the file is
        # written field by field
        ckpt = str(tmp_path / "two.ckpt")
        assert run_train(workdir, ckpt, extra=["--chunks", "2"]) == 0
        p_history = load_checkpoint(ckpt)[3]
        meta, arrays = read_checkpoint_fields(ckpt)
        arrays["p_history"] = np.stack([p_history[-1]] * projections)
        write_checkpoint_fields(ckpt, meta, arrays)
        rc = cli.main(["eval", "--config", workdir["config"],
                       "--checkpoint", ckpt,
                       "--queries", workdir["queries"],
                       "--query-labels", workdir["query_labels"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{projections} round projections for 2 code blocks" in err
        assert cli.main(["query", "--config", workdir["config"],
                         "--checkpoint", ckpt, "--features",
                         workdir["queries"],
                         "--out", str(tmp_path / "hits.tsv")]) == 0

    def test_eval_refuses_a_served_index_before_reading_chunks(
            self, workdir, tmp_path, capsys, monkeypatch):
        # 2 rounds and one code block more: however many chunks the
        # manifest lists, the refusal names the projections and the blocks,
        # and no chunk or query file is read first
        ckpt = str(tmp_path / "served.ckpt")
        assert run_train(workdir, ckpt, extra=["--chunks", "2"]) == 0
        state, stats, blocks, p_history, seed = load_checkpoint(ckpt)
        blocks.append(hash_queries(workdir["stream"].query_x, state))
        dataio.save_checkpoint(ckpt, state, stats, blocks, p_history, seed)
        read = []
        monkeypatch.setattr(ChunkManifest, "load_chunk",
                            lambda self, i: read.append(i))
        monkeypatch.setattr(dataio, "load_features", read.append)
        chunks = ChunkManifest.from_file(workdir["manifest"]).chunks
        for n in (2, 3):
            capsys.readouterr()
            assert self.eval_with_chunks(workdir, ckpt, chunks[:n],
                                         tmp_path) == 2
            err = capsys.readouterr().err
            assert f"{ckpt}: 2 round projections for 3 code blocks" in err
        assert read == []

    def test_eval_without_queries_is_data_error(self, workdir, three_rounds,
                                                tmp_path, capsys):
        queries = str(tmp_path / "none.bin")
        dataio.save_features(queries, np.zeros((0, 16)))
        labels = tmp_path / "none.labels"
        labels.write_text("")
        rc = cli.main(["eval", "--config", workdir["config"],
                       "--checkpoint", three_rounds, "--queries", queries,
                       "--query-labels", str(labels)])
        assert rc == 2
        assert f"{queries}: no queries" in capsys.readouterr().err

    def test_checkpoint_missing_field_is_data_error(self, workdir,
                                                    three_rounds, tmp_path,
                                                    capsys):
        meta, arrays = read_checkpoint_fields(three_rounds)
        del meta["sz"]
        ckpt = str(tmp_path / "partial.ckpt")
        write_checkpoint_fields(ckpt, meta, arrays)
        rc = cli.main(["query", "--config", workdir["config"],
                       "--checkpoint", ckpt,
                       "--features", workdir["queries"]])
        assert rc == 2
        assert "lacks sz" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("r", 8.0), ("iters", 2.5)])
    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_mistyped_hyperparameter_is_data_error(self, workdir,
                                                   three_rounds, tmp_path,
                                                   capsys, command, field,
                                                   value):
        # CRC-valid, and without the type rule it loads and fails later
        ckpt = str(tmp_path / "typed.ckpt")
        shutil.copy(three_rounds, ckpt)
        rewrite_header(Path(ckpt),
                       lambda header: header["hyper"].update({field: value}))
        argv = {"eval": ["--queries", workdir["queries"],
                         "--query-labels", workdir["query_labels"]],
                "query": ["--features", workdir["queries"],
                          "--out", str(tmp_path / "hits.tsv")]}[command]
        rc = cli.main([command, "--config", workdir["config"],
                       "--checkpoint", ckpt] + argv)
        assert rc == 2
        assert (f"{ckpt}: bad hyper: {field} must be an integer >= 1, got "
                f"{value}") in capsys.readouterr().err

    def test_checkpoint_header_that_is_not_an_object_is_data_error(
            self, workdir, three_rounds, tmp_path, capsys):
        # CRC-valid, so only the header check stands between it and a
        # TypeError traceback
        ckpt = str(tmp_path / "list.ckpt")
        shutil.copy(three_rounds, ckpt)
        rewrite_header(Path(ckpt), lambda header: [header])
        rc = cli.main(["query", "--config", workdir["config"],
                       "--checkpoint", ckpt,
                       "--features", workdir["queries"]])
        assert rc == 2
        assert f"{ckpt}: header is a JSON list, not an object" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("c", [8, 10])
    @pytest.mark.parametrize("command", ["train_resume", "preprocess"])
    def test_tag_vocab_and_c_must_agree(self, workdir, three_rounds,
                                        tmp_path, capsys, command, c):
        # the manifest lists the 9 tags of the embedding file
        man = ChunkManifest.from_file(workdir["manifest"])
        man.c = c
        man_path = str(tmp_path / "m.json")
        man.save(man_path)
        ckpt = str(tmp_path / "copy.ckpt")
        shutil.copy(three_rounds, ckpt)
        argv = {"train_resume": ["train", "--config", workdir["config"],
                                 "--checkpoint", ckpt, "--resume"],
                "preprocess": ["preprocess", "--config", workdir["config"],
                               "--out-dir", str(tmp_path / "out")]}[command]
        assert cli.main(argv + ["--manifest", man_path]) == 2
        assert f"tag_vocab lists 9 tags but c is {c}" in (
            capsys.readouterr().err)

    def test_non_finite_embedding_is_data_error(self, workdir, tmp_path,
                                                capsys):
        lines = Path(workdir["embeddings"]).read_text().splitlines()
        token, _, *rest = lines[1].split()
        lines[1] = " ".join([token, "nan"] + rest)
        emb = tmp_path / "emb.txt"
        emb.write_text("\n".join(lines) + "\n")
        rc = cli.main(["train", "--config", workdir["config"],
                       "--embeddings", str(emb),
                       "--checkpoint", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "line 2: NaN or inf" in capsys.readouterr().err

    def test_corrupt_feature_file_is_data_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"WOHF\x10\x00\x00\x00\x02\x00\x00\x00shrt")
        man = ChunkManifest(
            d=2, c=9,
            chunks=[{"features": str(bad),
                     "tags": str(tmp_path / "empty.tags")}],
            tag_vocab=[f"tag{j}" for j in range(9)])
        (tmp_path / "empty.tags").write_text("")
        man_path = str(tmp_path / "m.json")
        man.save(man_path)
        rc = cli.main(["train", "--config", workdir["config"],
                       "--manifest", man_path,
                       "--checkpoint", str(tmp_path / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "{config}", "--checkpoint", "{dir}",
         "--chunks", "1"],
        ["eval", "--config", "{config}", "--checkpoint", "{dir}",
         "--queries", "{queries}", "--query-labels", "{query_labels}"],
        ["query", "--config", "{config}", "--checkpoint", "{ckpt}",
         "--features", "{dir}"],
        ["train", "--config", "{dir}", "--checkpoint", "{ckpt}"],
    ], ids=["train_checkpoint", "eval_checkpoint", "query_features",
            "config"])
    def test_directory_path_is_data_error(self, workdir, three_rounds,
                                          tmp_path, capsys, monkeypatch,
                                          argv):
        paths = dict(workdir, dir=tmp_path / "dir", ckpt=three_rounds)
        paths["dir"].mkdir()
        rounds = []
        real = StreamTrainer.process_chunk
        monkeypatch.setattr(StreamTrainer, "process_chunk",
                            lambda self, x, y: rounds.append(len(x))
                            or real(self, x, y))
        rc = cli.main([arg.format(**paths) for arg in argv])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "data error: [Errno 21] Is a directory" in err
        # refused before a round is trained, so nothing is left beside it
        assert rounds == [] and "trained" not in out
        assert not (tmp_path / "dir.tmp").exists()

    def test_numerical_abort_is_exit_three(self, workdir, monkeypatch):
        from taghash.optimizer import RoundAborted

        def boom(self, x, y):
            raise RoundAborted("forced")
        monkeypatch.setattr(StreamTrainer, "process_chunk", boom)
        rc = cli.main(["train", "--config", workdir["config"],
                       "--checkpoint", str(workdir["root"] / "x.ckpt")])
        assert rc == 3

    def test_console_entry_point(self, workdir):
        src = os.path.dirname(os.path.dirname(taghash.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "taghash", "train"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_console_script_maps_to_cli_main(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["taghash"] == "taghash.cli:main"
