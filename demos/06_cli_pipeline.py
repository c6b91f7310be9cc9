"""Drive the full command-line pipeline on generated data.

Writes a stream to disk (binary feature containers, sparse tag files, a
JSON manifest, a plain-text embedding dump), then runs train, eval and
query through the same entry point the `taghash` console script uses.
"""
import os
import tempfile

from taghash import cli, dataio
from taghash.dataio import ChunkManifest
from taghash.synthetic import make_cluster_stream

stream = make_cluster_stream(n_rounds=3, n_per_round=100, d=16, n_queries=40,
                             seed=4)

with tempfile.TemporaryDirectory() as root:
    chunks = []
    pairs = zip(stream.chunks, stream.chunk_labels)
    for i, ((x, y), labels) in enumerate(pairs):
        paths = {k: os.path.join(root, f"chunk_{i}.{k}")
                 for k in ("features", "tags", "labels")}
        dataio.save_features(paths["features"], x)
        dataio.save_tags(paths["tags"], y)
        dataio.save_tags(paths["labels"], labels)
        chunks.append(paths)
    manifest = os.path.join(root, "manifest.json")
    ChunkManifest(d=16, c=9, chunks=chunks, labels_dim=3,
                  tag_vocab=list(stream.table.tag_names)).save(manifest)

    embeddings = os.path.join(root, "emb.txt")
    with open(embeddings, "w") as fh:
        for name, vec in zip(stream.table.tag_names, stream.table.vectors):
            fh.write(name + " " + " ".join(repr(float(v)) for v in vec) + "\n")

    queries = os.path.join(root, "queries.bin")
    query_labels = os.path.join(root, "queries.labels")
    dataio.save_features(queries, stream.query_x)
    dataio.save_tags(query_labels, stream.query_labels)

    ckpt = os.path.join(root, "run.ckpt")

    # each command takes only the flags it reads
    print("== train ==")
    rc = cli.main(["train", "--manifest", manifest, "--embeddings", embeddings,
                   "--checkpoint", ckpt, "--bits", "16", "--anchors", "64",
                   "--seed", "4",
                   "--metrics", os.path.join(root, "train.csv")])
    assert rc == 0

    print("== eval ==")
    rc = cli.main(["eval", "--manifest", manifest, "--checkpoint", ckpt,
                   "--queries", queries, "--query-labels", query_labels])
    assert rc == 0

    print("== query (first 2, top 3) ==")
    two = os.path.join(root, "two.bin")
    dataio.save_features(two, stream.query_x[:2])
    rc = cli.main(["query", "--checkpoint", ckpt, "--features", two,
                   "-k", "3"])
    assert rc == 0
