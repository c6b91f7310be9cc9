import json
import os
import re
import stat
import struct
import zlib

import numpy as np
import pytest

from taghash import codes, dataio, retrieval
from taghash.dataio import (META_FIELDS, ChunkManifest, ConfigError,
                            LoadError, load_checkpoint, load_config,
                            load_embeddings, load_features, load_tags,
                            prune_vocab, read_embedding_file,
                            remap_tag_columns, save_checkpoint,
                            save_features, save_tags)
from taghash.engine import StreamTrainer
from taghash.model import Hyperparams, StateError
from taghash.synthetic import make_cluster_stream

from conftest import (read_checkpoint_fields, rewrite_header,
                      write_checkpoint_fields)


class TestFeatureFiles:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(13, 5))
        path = str(tmp_path / "x.bin")
        save_features(path, x)
        got = load_features(path)
        assert got.dtype == np.float64
        assert np.array_equal(got, x.astype(np.float32).astype(np.float64))

    def test_csv_load(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.5\n-3.0,0.125\n")
        got = load_features(str(path))
        assert np.array_equal(got, [[1.0, 2.5], [-3.0, 0.125]])

    def test_csv_ragged_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(LoadError, match="line 2"):
            load_features(str(path))

    def test_csv_non_numeric(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,hello\n")
        with pytest.raises(LoadError, match="line 1"):
            load_features(str(path))

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(LoadError, match="empty"):
            load_features(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"WOHF\x02\x00")
        with pytest.raises(LoadError, match="truncated"):
            load_features(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.bin"
        save_features(str(path), np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(LoadError, match="truncated"):
            load_features(str(path))

    def test_payload_is_checked_against_the_file_size_before_reading(
            self, tmp_path):
        # a read sized from this header alone raises OverflowError
        path = tmp_path / "x.bin"
        path.write_bytes(b"WOHF" + struct.pack("<II", 2**32 - 1, 2**32 - 1))
        with pytest.raises(LoadError, match=f"{path}: truncated payload at "
                                            f"byte 12$"):
            load_features(str(path))

    def test_non_finite_rejected_with_position(self, tmp_path):
        x = np.ones((3, 2))
        x[1, 1] = np.nan
        path = str(tmp_path / "x.bin")
        save_features(path, x)
        with pytest.raises(LoadError, match="row 1, col 1"):
            load_features(path)


class TestTagFiles:
    def test_sparse_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        y = (rng.random((9, 5)) < 0.3).astype(np.int8)
        path = str(tmp_path / "y.txt")
        save_tags(path, y)
        assert np.array_equal(load_tags(path, 5, 9), y)

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("0,1\n0,1\n2,0\n")
        y = load_tags(str(path), 3, 3)
        assert y.sum() == 2
        assert y[0, 1] == 1 and y[2, 0] == 1

    def test_dense_csv(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("0,1,0\n1,0,1\n")
        y = load_tags(str(path), 3, 2)
        assert np.array_equal(y, [[0, 1, 0], [1, 0, 1]])

    def test_dense_bad_value(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("0,2,0\n")
        with pytest.raises(LoadError, match="0/1"):
            load_tags(str(path), 3, 1)

    def test_sparse_out_of_range(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("5,0\n")
        with pytest.raises(LoadError, match="row 5"):
            load_tags(str(path), 4, 3)
        path.write_text("0,9\n")
        with pytest.raises(LoadError, match="tag 9"):
            load_tags(str(path), 4, 3)

    def test_sparse_negative_and_non_integer(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("-1,0\n")
        with pytest.raises(LoadError, match="negative"):
            load_tags(str(path), 4, 3)
        path.write_text("a,0\n")
        with pytest.raises(LoadError, match="non-integer"):
            load_tags(str(path), 4, 3)

    def test_empty_file_means_no_tags(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("")
        assert np.array_equal(load_tags(str(path), 4, 2), np.zeros((2, 4)))

    def test_two_columns_load_as_declared(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("1,0\n0,1\n1,1\n")
        assert np.array_equal(load_tags(str(path), 2, 3, "dense"),
                              [[1, 0], [0, 1], [1, 1]])
        assert np.array_equal(load_tags(str(path), 2, 3, "sparse"),
                              [[0, 1], [1, 1], [0, 0]])

    def test_two_columns_undeclared_is_ambiguous(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("1,0\n0,1\n1,1\n")
        with pytest.raises(LoadError, match="tag_format"):
            load_tags(str(path), 2, 3)

    def test_declared_format_overrides_detection(self, tmp_path):
        # a dense row that detection would accept is not a 'row,tag' pair
        path = tmp_path / "y.txt"
        path.write_text("0,1,0\n")
        with pytest.raises(LoadError, match="pair"):
            load_tags(str(path), 3, 1, "sparse")

    @pytest.mark.parametrize("tag_format", ["dense", "sparse"])
    def test_roundtrip_in_either_format(self, tmp_path, tag_format):
        rng = np.random.default_rng(4)
        y = (rng.random((7, 2)) < 0.5).astype(np.int8)
        path = str(tmp_path / "y.txt")
        save_tags(path, y, tag_format)
        assert np.array_equal(load_tags(path, 2, 7, tag_format), y)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("0,1\n")
        with pytest.raises(LoadError, match="tag_format"):
            load_tags(str(path), 3, 1, "csv")


class TestEmbeddings:
    def test_parse_and_lookup(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog -0.5 0.25\n")
        table, missing = load_embeddings(str(path), ["dog", "cat"])
        assert missing == []
        assert np.array_equal(table.vectors, [[-0.5, 0.25], [1.0, 2.0]])

    def test_missing_token_gets_zero_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\n")
        table, missing = load_embeddings(str(path), ["cat", "bird"])
        assert missing == ["bird"]
        assert np.array_equal(table.vectors[1], [0.0, 0.0])

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0\n")
        with pytest.raises(LoadError, match="line 2"):
            read_embedding_file(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 x\n")
        with pytest.raises(LoadError, match="non-numeric"):
            read_embedding_file(str(path))

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"cat 1.0 2.0\ndog {value} 0.5\n")
        with pytest.raises(LoadError, match="line 2: NaN or inf"):
            read_embedding_file(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(LoadError, match="empty"):
            read_embedding_file(str(path))


class TestPruning:
    def test_min_count_boundary_inclusive(self):
        counts = [49, 50, 51]
        surviving, remap = prune_vocab(counts, 50, [True, True, True])
        assert surviving.tolist() == [1, 2]
        assert remap == {1: 0, 2: 1}

    def test_embedding_coverage_required(self):
        surviving, _ = prune_vocab([100, 100, 100], 1, [True, False, True])
        assert surviving.tolist() == [0, 2]

    def test_everything_pruned(self):
        with pytest.raises(ConfigError):
            prune_vocab([1, 2], 50, [True, True])

    def test_remap_columns(self):
        y = np.array([[1, 0, 1], [0, 1, 1]])
        out = remap_tag_columns(y, np.array([0, 2]))
        assert np.array_equal(out, [[1, 1], [0, 1]])


class TestManifestAndConfig:
    def write_chunk(self, tmp_path, name, x, y):
        save_features(str(tmp_path / f"{name}.bin"), x)
        save_tags(str(tmp_path / f"{name}.tags"), y)
        return {"features": f"{name}.bin", "tags": f"{name}.tags"}

    def test_roundtrip_and_relative_paths(self, tmp_path):
        rng = np.random.default_rng(2)
        entry = self.write_chunk(tmp_path, "c0", rng.normal(size=(6, 3)),
                                 (rng.random((6, 4)) < 0.5).astype(int))
        man = ChunkManifest(d=3, c=4, chunks=[entry])
        path = str(tmp_path / "manifest.json")
        man.save(path)
        loaded = ChunkManifest.from_file(path)
        assert loaded.d == 3 and loaded.c == 4
        x, y, labels = loaded.load_chunk(0)
        assert x.shape == (6, 3) and y.shape == (6, 4)
        assert labels is None

    def test_dimension_mismatch(self, tmp_path):
        rng = np.random.default_rng(3)
        entry = self.write_chunk(tmp_path, "c0", rng.normal(size=(4, 5)),
                                 np.zeros((4, 2), dtype=int))
        man = ChunkManifest(d=3, c=2, chunks=[entry])
        path = str(tmp_path / "manifest.json")
        man.save(path)
        with pytest.raises(LoadError, match="expected 3 columns"):
            ChunkManifest.from_file(path).load_chunk(0)

    def test_tag_format_applies_to_tags_and_labels(self, tmp_path):
        (tmp_path / "c0.tags").write_text("1,0\n0,1\n1,1\n")
        (tmp_path / "c0.labels").write_text("0,1\n0,1\n1,0\n")
        save_features(str(tmp_path / "c0.bin"), np.zeros((3, 2)))
        entry = {"features": "c0.bin", "tags": "c0.tags",
                 "labels": "c0.labels"}
        path = str(tmp_path / "manifest.json")
        ChunkManifest(d=2, c=2, chunks=[entry], labels_dim=2).save(path)
        with pytest.raises(LoadError, match="tag_format"):
            ChunkManifest.from_file(path).load_chunk(0)
        ChunkManifest(d=2, c=2, chunks=[entry], labels_dim=2,
                      tag_format="dense").save(path)
        loaded = ChunkManifest.from_file(path)
        assert loaded.tag_format == "dense"
        _, y, labels = loaded.load_chunk(0)
        assert np.array_equal(y, [[1, 0], [0, 1], [1, 1]])
        assert np.array_equal(labels, [[0, 1], [0, 1], [1, 0]])

    def test_bad_tag_format_in_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"d": 2, "c": 2, "tag_format": "csv", '
                        '"chunks": [{"features": "a", "tags": "b"}]}')
        with pytest.raises(LoadError, match="tag_format"):
            ChunkManifest.from_file(str(path))

    def test_empty_chunk_list(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"d": 2, "c": 2, "chunks": []}')
        with pytest.raises(LoadError, match="no chunks"):
            ChunkManifest.from_file(str(path))

    def test_missing_tags_entry(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"d": 2, "c": 2, "chunks": [{"features": "a"}]}')
        with pytest.raises(LoadError, match="tags"):
            ChunkManifest.from_file(str(path))

    @pytest.mark.parametrize("c", [2, 4])
    def test_tag_vocab_must_list_c_tags(self, tmp_path, c):
        path = str(tmp_path / "manifest.json")
        ChunkManifest(d=2, c=c, chunks=[{"features": "a", "tags": "b"}],
                      tag_vocab=["x", "y", "z"]).save(path)
        with pytest.raises(LoadError, match=f"{path}: tag_vocab lists 3 "
                                            f"tags but c is {c}$"):
            ChunkManifest.from_file(path)

    @pytest.mark.parametrize("field, value", [
        ("d", 1.7), ("d", -2), ("d", True), ("d", 0), ("d", "3"),
        ("c", 2.0), ("c", 0), ("c", False),
        ("labels_dim", -1), ("labels_dim", 1.5), ("labels_dim", True),
        ("labels_dim", None),
    ])
    def test_counts_must_be_integers(self, tmp_path, field, value):
        doc = {"d": 2, "c": 2, "chunks": [{"features": "a", "tags": "b"}]}
        doc[field] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        least = 0 if field == "labels_dim" else 1
        with pytest.raises(LoadError, match=re.escape(
                f"{path}: {field} must be an integer >= {least}, "
                f"got {value!r}")):
            ChunkManifest.from_file(str(path))

    def test_config_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "bits = 32\n# full line comment\nalpha=300  # trailing\n\n"
            "manifest = data/manifest.json\n")
        cfg = load_config(str(path))
        assert cfg == {"bits": "32", "alpha": "300",
                       "manifest": "data/manifest.json"}

    def test_config_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bits 32\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))


def trained_trainer(n_chunks, seed=0):
    stream = make_cluster_stream(n_rounds=4, n_per_round=40, d=8, f=8,
                                 n_queries=10, seed=3)
    hyper = Hyperparams(r=8, m=16, f=8, c=9, iters=3, dcc_sweeps=2)
    trainer = StreamTrainer(hyper, stream.table, seed=seed)
    for x, y in stream.chunks[:n_chunks]:
        trainer.process_chunk(x, y)
    return trainer, stream


# Fields that older layouts stored and the current one does not, and the
# LoadError message, after the path, for each layout other_layout builds
OLD_FIELDS = ("c4", "p", "codes_dense", "round_index", "rounds_committed",
              "total_rows", "total_seen")
REFUSALS = {
    "version-1": "unsupported version 1",
    "stored-copies": "checkpoint stores round_index, rounds_committed, p, "
                     "which version 2 does not",
    "dense-for-packed": "checkpoint stores codes_dense, which version 2 "
                        "does not",
    **{name: f"checkpoint stores {name}, which version 2 does not"
       for name in OLD_FIELDS},
    "listed-twice": "checkpoint lists c1 more than once",
}


def other_layout(layout, meta, arrays):
    """(meta, arrays, version) of a layout the loader refuses, built from
    the fields of a two-round file of 80 code rows that save_checkpoint
    wrote: version 1 (dense codes and every old field), version 2 with
    stored copies of the round count and P, one of OLD_FIELDS added, dense
    codes in place of packed ones, or c1 listed a second time."""
    dense = codes.unpack_codes(arrays["codes_packed"], meta["hyper"]["r"])
    old = {"c4": arrays["c2"].T, "p": arrays["p_history"][-1],
           "codes_dense": dense, "round_index": 2, "rounds_committed": 2,
           "total_rows": 80, "total_seen": 80}
    added = {"version-1": OLD_FIELDS, "dense-for-packed": ["codes_dense"],
             "stored-copies": ["round_index", "rounds_committed", "p"],
             "listed-twice": []}.get(layout, [layout])
    for name in added:
        (arrays if isinstance(old[name], np.ndarray) else meta)[name] = \
            old[name]
    if layout in ("version-1", "dense-for-packed"):
        del arrays["codes_packed"]
    if layout == "listed-twice":
        arrays = [*arrays.items(), ("c1", arrays["c1"] + 1.0)]
    return meta, arrays, 1 if layout == "version-1" else 2


class TestCheckpoint:
    def test_fields_roundtrip_exactly(self, tmp_path):
        trainer, _ = trained_trainer(3)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        state, stats, blocks, p_history, seed = load_checkpoint(path)
        assert seed == 0
        assert state.hyper == trainer.hyper
        assert state.round_index == 3
        assert state.round_index == trainer.state.round_index
        for name in ("w", "u", "v", "p"):
            assert np.array_equal(getattr(state, name),
                                  getattr(trainer.state, name))
        for name in ("c1", "c2", "c3", "c4", "c5", "d1", "d2"):
            assert np.array_equal(getattr(stats, name),
                                  getattr(trainer.stats, name))
        assert stats.sy_weighted == trainer.stats.sy_weighted
        assert stats.sz == trainer.stats.sz
        assert len(blocks) == 3
        for got, want in zip(blocks, trainer.code_blocks):
            assert np.array_equal(got.dense, want.dense)
        assert len(p_history) == 3
        for got, want in zip(p_history, trainer.p_history):
            assert np.array_equal(got, want)
        assert np.array_equal(state.anchors.anchors,
                              trainer.state.anchors.anchors)
        assert state.anchors.kernel_width == trainer.state.anchors.kernel_width

    def test_save_load_save_is_byte_identical(self, tmp_path):
        trainer, _ = trained_trainer(2)
        p1 = str(tmp_path / "a.bin")
        p2 = str(tmp_path / "b.bin")
        trainer.save(p1)
        state, stats, blocks, ph, seed = load_checkpoint(p1)
        save_checkpoint(p2, state, stats, blocks, p_history=ph, seed=seed)
        assert (tmp_path / "a.bin").read_bytes() \
            == (tmp_path / "b.bin").read_bytes()

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        trainer, _ = trained_trainer(1)
        path = tmp_path / "ck.bin"
        trainer.save(str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(LoadError, match="checksum"):
            load_checkpoint(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(LoadError, match="not a checkpoint"):
            load_checkpoint(str(path))

    def test_resume_is_bit_identical(self, tmp_path):
        straight, stream = trained_trainer(4)

        partial, _ = trained_trainer(2)
        path = str(tmp_path / "ck.bin")
        partial.save(path)
        resumed = StreamTrainer.from_checkpoint(path, stream.table)
        for x, y in stream.chunks[2:4]:
            resumed.process_chunk(x, y)

        assert np.array_equal(resumed.state.p, straight.state.p)
        assert np.array_equal(resumed.state.w, straight.state.w)
        for got, want in zip(resumed.code_blocks, straight.code_blocks):
            assert np.array_equal(got.dense, want.dense)
        assert np.array_equal(resumed.stats.c1, straight.stats.c1)

    def test_missing_fields_are_named(self, tmp_path):
        trainer, _ = trained_trainer(1)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        meta, arrays = read_checkpoint_fields(path)
        del meta["sz"], arrays["c2"]
        write_checkpoint_fields(path, meta, arrays)
        with pytest.raises(LoadError, match="lacks sz, c2$"):
            load_checkpoint(path)

    def test_header_stores_each_fact_once(self, tmp_path):
        trainer, _ = trained_trainer(2)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        meta, arrays = read_checkpoint_fields(path)
        assert sorted(meta) == sorted(META_FIELDS)
        assert "round_index" not in meta and "total_seen" not in meta
        assert "rounds_committed" not in meta and "p" not in arrays
        assert len(arrays["p_history"]) == 2
        assert arrays["codes_rows"].tolist() == [40, 40]

    @pytest.mark.parametrize("call", ["fsync", "replace"])
    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path,
                                                  monkeypatch, call):
        trainer, stream = trained_trainer(1)
        path = tmp_path / "ck.bin"
        trainer.save(str(path))
        before = path.read_bytes()
        trainer.process_chunk(*stream.chunks[1])

        def failing(*args):
            raise OSError(f"{call} failed")

        monkeypatch.setattr(dataio.os, call, failing)
        with pytest.raises(OSError, match=f"{call} failed"):
            trainer.save(str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.bin"]

    @pytest.mark.parametrize("name", ["round_index", "p"])
    def test_save_refuses_a_state_unlike_its_history(self, tmp_path, name):
        trainer, stream = trained_trainer(1)
        path = tmp_path / "ck.bin"
        trainer.save(str(path))
        before = path.read_bytes()
        trainer.process_chunk(*stream.chunks[1])
        if name == "round_index":
            trainer.state.round_index += 1
        else:
            trainer.state.p = trainer.p_history[0].copy()
        with pytest.raises(ValueError, match=rf"state\.{name} differs from "
                                             r"what the 2 projections"):
            trainer.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.bin"]

    @pytest.mark.parametrize("layout", REFUSALS)
    def test_other_layout_is_refused(self, tmp_path, layout):
        path = str(tmp_path / "ck.bin")
        trained_trainer(2)[0].save(path)
        write_checkpoint_fields(path, *other_layout(
            layout, *read_checkpoint_fields(path)))
        with pytest.raises(LoadError, match=f"{path}: {REFUSALS[layout]}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda hyper: hyper.pop("r"),
        lambda hyper: hyper.update(unknown=1)], ids=["missing", "unknown"])
    def test_bad_hyperparameters_are_load_error(self, tmp_path, edit):
        path = str(tmp_path / "ck.bin")
        trained_trainer(2)[0].save(path)
        meta, arrays = read_checkpoint_fields(path)
        edit(meta["hyper"])
        write_checkpoint_fields(path, meta, arrays)
        with pytest.raises(LoadError, match="bad hyper"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rows", [[40, 10], [40, 41], [100, -20]])
    def test_codes_rows_must_add_up_to_stored_codes(self, tmp_path, rows):
        trainer, _ = trained_trainer(2)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        meta, arrays = read_checkpoint_fields(path)
        assert arrays["codes_packed"].shape == (80, 1)
        arrays["codes_rows"] = np.asarray(rows, dtype="<i8")
        write_checkpoint_fields(path, meta, arrays)
        with pytest.raises(LoadError, match="80 stored code rows"):
            load_checkpoint(path)


    def test_save_fsyncs_the_file_and_its_directory(self, tmp_path,
                                                     monkeypatch):
        trainer, _ = trained_trainer(1)
        synced = []
        real = os.fsync

        def recording(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real(fd)

        monkeypatch.setattr(dataio.os, "fsync", recording)
        trainer.save(str(tmp_path / "ck.bin"))
        assert synced == [False, True]
        assert os.listdir(tmp_path) == ["ck.bin"]

    def test_v2_stores_the_packed_words(self, tmp_path):
        trainer, _ = trained_trainer(2)
        path = tmp_path / "ck.bin"
        trainer.save(str(path))
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 4) == (2,)
        meta, arrays = read_checkpoint_fields(str(path))
        assert "codes_dense" not in arrays
        words = arrays["codes_packed"]
        n, r = 80, trainer.hyper.r
        assert words.dtype == np.dtype("<u8")
        assert words.nbytes == n * -(-r // 64) * 8
        assert np.array_equal(words, np.concatenate(
            [cb.packed for cb in trainer.code_blocks]))
        (hlen,) = struct.unpack_from("<Q", blob, 8)
        assert len(blob) == 16 + hlen + sum(
            a.nbytes for a in arrays.values()) + 4

    def test_opening_an_index_packs_nothing(self, tmp_path, monkeypatch):
        trainer, _ = trained_trainer(2)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        calls = count_packing(monkeypatch)
        state, _, blocks, _, _ = load_checkpoint(path)
        index = retrieval.snapshot_index(state, blocks)
        assert calls == []
        assert np.array_equal(index.packed, trainer.index().packed)

    @pytest.mark.parametrize("name, shape", [
        ("w", (8, 8)), ("u", (8, 15)), ("v", (7, 8)), ("c5", (8, 7)),
        ("c1", (8, 9)), ("c3", (16, 15)), ("d2", (8, 8)),
        ("anchors", (15, 8)), ("p_history", (2, 16, 7))])
    def test_misshaped_array_is_named(self, tmp_path, name, shape):
        path = str(tmp_path / "ck.bin")
        trained_trainer(2)[0].save(path)
        meta, arrays = read_checkpoint_fields(path)
        arrays[name] = np.zeros(shape)
        write_checkpoint_fields(path, meta, arrays)
        with pytest.raises(LoadError, match=rf"{name} is float64 "
                                            rf"\({shape[0]}, .*r=8, m=16"):
            load_checkpoint(path)

    @pytest.mark.parametrize("words", [
        np.zeros((80, 2), dtype="<u8"), np.zeros((80, 1), dtype="<i8"),
        np.zeros(80, dtype="<u8")], ids=["two-words", "signed", "1-d"])
    def test_packed_codes_must_fit_the_code_length(self, tmp_path, words):
        trainer, _ = trained_trainer(2)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        meta, arrays = read_checkpoint_fields(path)
        arrays["codes_packed"] = words
        write_checkpoint_fields(path, meta, arrays)
        with pytest.raises(LoadError, match=r"codes_packed is .*expected "
                                            r"<u8 \(\*, 1\)"):
            load_checkpoint(path)

    def test_packed_padding_bits_must_be_zero(self, tmp_path):
        trainer, _ = trained_trainer(2)
        path = str(tmp_path / "ck.bin")
        trainer.save(path)
        meta, arrays = read_checkpoint_fields(path)
        words = arrays["codes_packed"].copy()
        words[7, 0] |= np.uint64(1 << 8)
        arrays["codes_packed"] = words
        write_checkpoint_fields(path, meta, arrays)
        with pytest.raises(LoadError, match="codes_packed sets bits past r=8"):
            load_checkpoint(path)

    def test_array_past_the_end_is_named(self, tmp_path):
        path = tmp_path / "ck.bin"
        trained_trainer(2)[0].save(str(path))
        blob = bytearray(path.read_bytes())
        hlen = struct.unpack_from("<Q", blob, 8)[0]
        header = blob[16:16 + hlen].replace(b'"shape": [2, 16, 8]',
                                            b'"shape": [9, 16, 8]')
        assert len(header) == hlen
        blob[16:16 + hlen] = header
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
        path.write_bytes(bytes(blob))
        with pytest.raises(LoadError, match="p_history runs past the end"):
            load_checkpoint(str(path))


def spec(header, name):
    return next(s for s in header["arrays"] if s["name"] == name)


class TestCheckpointHeader:
    """A CRC-valid header that is malformed is refused, naming the field."""

    @pytest.mark.parametrize("edit, message", [
        (lambda h: [h], "header is a JSON list, not an object"),
        (lambda h: h.update(arrays={"c1": []}), "arrays is not a list"),
        (lambda h: spec(h, "c1").pop("name"), "array spec .* needs a name"),
        (lambda h: spec(h, "c1").update(name="seed"),
         "array spec .* needs a name that no header field has"),
        (lambda h: spec(h, "c1").pop("dtype"), "c1 has dtype None, not one"),
        (lambda h: spec(h, "c1").update(dtype="|O"),
         "c1 has dtype '[|]O', not one of"),
        (lambda h: spec(h, "c1").update(dtype=">f8"), "c1 has dtype '>f8'"),
        (lambda h: spec(h, "c1").update(shape=[-8, -8]),
         r"c1 has shape \[-8, -8\], not a list of integers >= 0"),
        (lambda h: spec(h, "c1").update(shape=[8.0, 8]), "c1 has shape"),
        (lambda h: h["hyper"].update(r=0),
         "bad hyper: r must be an integer >= 1, got 0"),
        (lambda h: h["hyper"].update(r=8.0),
         "bad hyper: r must be an integer >= 1, got 8.0"),
        (lambda h: h["hyper"].update(iters=2.5),
         "bad hyper: iters must be an integer >= 1, got 2.5"),
        (lambda h: h["hyper"].update(tag_regression="no"),
         "bad hyper: tag_regression must be a bool, got 'no'"),
        (lambda h: h.update(sz="abc"),
         "sz must be a finite number, got 'abc'"),
        (lambda h: h.update(sy_weighted=True), "sy_weighted must be a finite"),
        (lambda h: h.update(kernel_width=float("inf")),
         "kernel_width must be a finite number, got inf"),
        (lambda h: h.update(kernel_width=0.0),
         "kernel_width must be positive"),
        (lambda h: h.update(seed="abc"), "seed must be an integer >= 0, got "
                                         "'abc'"),
        (lambda h: h.update(seed=1.5),
         "seed must be an integer >= 0, got 1.5"),
        (lambda h: h.update(seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda h: h.update(seed=False), "seed must be an integer >= 0"),
    ], ids=["list", "arrays-not-list", "no-name", "name-of-a-field",
            "no-dtype", "object-dtype", "big-endian", "negative-dimension",
            "float-dimension", "r-0", "r-float", "iters-float",
            "tag-regression-string", "sz-string", "sy-weighted-bool",
            "kernel-width-inf", "kernel-width-0", "seed-string", "seed-float",
            "seed-negative", "seed-bool"])
    def test_malformed_header_is_refused(self, tmp_path, edit, message):
        trainer, _ = trained_trainer(1)
        path = tmp_path / "ck.bin"
        trainer.save(str(path))
        rewrite_header(path, edit)
        with pytest.raises(LoadError, match=f"{path}: {message}"):
            load_checkpoint(str(path))

    def test_header_that_is_not_json_is_refused(self, tmp_path):
        trainer, _ = trained_trainer(1)
        path = tmp_path / "ck.bin"
        trainer.save(str(path))
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF                     # neither UTF-8 nor JSON
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
        path.write_bytes(bytes(blob))
        with pytest.raises(LoadError, match=f"{path}: header is not JSON"):
            load_checkpoint(str(path))


class TestTrainerBeforeFirstChunk:
    @pytest.mark.parametrize("call", ["save", "index", "round_snapshots"])
    def test_is_a_state_error_naming_the_call(self, tmp_path, call):
        stream = make_cluster_stream(n_rounds=1, n_per_round=10, d=8, f=8,
                                     n_queries=2, seed=3)
        trainer = StreamTrainer(Hyperparams(r=8, m=4, f=8, c=9),
                                stream.table, seed=0)
        args = [str(tmp_path / "ck.bin")] if call == "save" else []
        with pytest.raises(StateError, match=rf"StreamTrainer\.{call}\(\) "
                                             r".*no chunk has been processed"):
            getattr(trainer, call)(*args)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("seed", [1.5, -1, True, "7", None])
    def test_seed_must_be_an_integer(self, seed):
        stream = make_cluster_stream(n_rounds=1, n_per_round=10, d=8, f=8,
                                     n_queries=2, seed=3)
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}")):
            StreamTrainer(Hyperparams(r=8, m=4, f=8, c=9), stream.table,
                          seed=seed)


def count_packing(monkeypatch):
    """Record the rows of every pack_codes and pack_signs call, under every
    name a taghash module binds them to."""
    calls = []
    for name in ("pack_codes", "pack_signs"):
        real = getattr(codes, name)

        def counting(a, real=real, name=name):
            calls.append((name, len(a)))
            return real(a)

        for module in (codes, dataio, retrieval):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls
