"""File formats, manifests, vocabulary pruning, and checkpoints.

Features travel as 32-bit floats on disk ("WOHF" binary container or plain
CSV) but are promoted to 64-bit for all computation; checkpoints serialize
every matrix as raw little-endian 64-bit floats so a resumed run is
bit-identical to an uninterrupted one.
"""
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .codes import CodeBlock
from .kernel import AnchorSet
from .model import AccumStats, Hyperparams, ModelState
from .semantics import EmbeddingTable

FEATURE_MAGIC = b"WOHF"
CHECKPOINT_MAGIC = b"THCK"
CHECKPOINT_VERSION = 1


class LoadError(ValueError):
    """Malformed or corrupted input file."""


class ConfigError(ValueError):
    """Invalid configuration (e.g. pruning removed every tag)."""


# ---------------------------------------------------------------- features

def save_features(path, x):
    """Write a feature matrix in the binary container (f32, row-major)."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", x.shape[0], x.shape[1]))
        fh.write(x.astype("<f4").tobytes(order="C"))


def load_features(path):
    """Load a feature matrix from the binary container or CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == FEATURE_MAGIC:
            dims = fh.read(8)
            if len(dims) < 8:
                raise LoadError(f"{path}: truncated header at byte {4 + len(dims)}")
            n, d = struct.unpack("<II", dims)
            raw = fh.read(4 * n * d)
            if len(raw) < 4 * n * d:
                raise LoadError(
                    f"{path}: truncated payload at byte {12 + len(raw)}")
            x = np.frombuffer(raw, dtype="<f4").reshape(n, d).astype(np.float64)
        else:
            x = _load_csv_matrix(path)
    if not np.all(np.isfinite(x)):
        bad = np.argwhere(~np.isfinite(x))[0]
        raise LoadError(f"{path}: non-finite value at row {bad[0]}, col {bad[1]}")
    return x


def _load_csv_matrix(path):
    rows = []
    width = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError as e:
                raise LoadError(f"{path}: line {lineno}: {e}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise LoadError(
                    f"{path}: line {lineno}: expected {width} columns, "
                    f"got {len(row)}")
            rows.append(row)
    if not rows:
        raise LoadError(f"{path}: empty feature file")
    return np.asarray(rows, dtype=np.float64)


# -------------------------------------------------------------------- tags

TAG_FORMATS = ("dense", "sparse")


def save_tags(path, y, tag_format="sparse"):
    """Write a binary incidence matrix as sparse 'row,col' pairs, or as
    dense 0/1 CSV."""
    y = np.asarray(y)
    with open(path, "w") as fh:
        if tag_format == "dense":
            for row in (y != 0).astype(int):
                fh.write(",".join(map(str, row)) + "\n")
            return
        for i, j in np.argwhere(y != 0):
            fh.write(f"{i},{j}\n")


def load_tags(path, c, n, tag_format=None):
    """Load an (n, c) binary incidence matrix.

    Sparse files hold one 'row_index,tag_index' pair per line (0-based,
    duplicates collapse); dense files are 0/1 CSV with c columns per row.
    tag_format is "dense" or "sparse"; when it is None the format is read
    from the first line's column count, which cannot tell the two apart
    when c == 2, so a two-column file then needs the format declared.
    """
    if tag_format not in TAG_FORMATS + (None,):
        raise LoadError(f"{path}: tag_format must be one of {TAG_FORMATS}, "
                        f"got {tag_format!r}")
    with open(path, "r") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    y = np.zeros((n, c), dtype=np.int8)
    if not lines:
        return y
    if tag_format is None:
        if c == 2:
            raise LoadError(
                f"{path}: a file of 2-column rows may be dense 0/1 rows or "
                "sparse 'row,tag' pairs; declare \"tag_format\": \"dense\" "
                "or \"sparse\" in the manifest")
        tag_format = "dense" if len(lines[0][1].split(",")) == c else "sparse"
    if tag_format == "dense":
        if len(lines) != n:
            raise LoadError(f"{path}: expected {n} rows, got {len(lines)}")
        for row, (lineno, ln) in enumerate(lines):
            vals = ln.split(",")
            if len(vals) != c:
                raise LoadError(
                    f"{path}: line {lineno}: expected {c} columns")
            for j, v in enumerate(vals):
                if v not in ("0", "1"):
                    raise LoadError(
                        f"{path}: line {lineno}: tag values must be 0/1")
                y[row, j] = int(v)
        return y
    for lineno, ln in lines:
        parts = ln.split(",")
        if len(parts) != 2:
            raise LoadError(f"{path}: line {lineno}: expected 'row,tag' pair")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise LoadError(
                f"{path}: line {lineno}: non-integer index") from None
        if i < 0 or j < 0:
            raise LoadError(f"{path}: line {lineno}: negative index")
        if i >= n:
            raise LoadError(f"{path}: line {lineno}: row {i} >= {n}")
        if j >= c:
            raise LoadError(f"{path}: line {lineno}: tag {j} >= {c}")
        y[i, j] = 1
    return y


# -------------------------------------------------------------- embeddings

def read_embedding_file(path):
    """Parse a word-embedding text dump: 'token v1 v2 ... vf' per line."""
    vectors = {}
    f = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            token, vals = parts[0], parts[1:]
            if f is None:
                f = len(vals)
                if f == 0:
                    raise LoadError(f"{path}: line {lineno}: no values")
            elif len(vals) != f:
                raise LoadError(
                    f"{path}: line {lineno}: expected {f} values, "
                    f"got {len(vals)}")
            try:
                vec = np.asarray([float(v) for v in vals])
            except ValueError:
                raise LoadError(
                    f"{path}: line {lineno}: non-numeric value") from None
            if not np.all(np.isfinite(vec)):
                raise LoadError(f"{path}: line {lineno}: NaN or inf value")
            vectors[token] = vec
    if not vectors:
        raise LoadError(f"{path}: empty embedding file")
    return vectors, f


def load_embeddings(path, tag_vocab):
    """Build the per-tag-column embedding table from a text dump.

    Tags whose token is missing from the dump get a zero row and appear in
    the returned missing list (feed it to prune_vocab as lack of coverage).
    """
    vectors, f = read_embedding_file(path)
    table = np.zeros((len(tag_vocab), f))
    missing = []
    for j, token in enumerate(tag_vocab):
        if token in vectors:
            table[j] = vectors[token]
        else:
            missing.append(token)
    return EmbeddingTable(vectors=table, tag_names=list(tag_vocab)), missing


# ----------------------------------------------------------------- pruning

def prune_vocab(tag_counts, min_count, embedding_coverage):
    """Select surviving tag columns and the old->new column remap.

    Keeps columns whose count reaches min_count and which have an embedding
    vector.  embedding_coverage is a boolean per column.
    """
    counts = np.asarray(tag_counts)
    coverage = np.asarray(embedding_coverage, dtype=bool)
    if counts.shape != coverage.shape:
        raise ValueError("tag_counts and embedding_coverage disagree")
    surviving = np.flatnonzero((counts >= min_count) & coverage)
    if surviving.size == 0:
        raise ConfigError("pruning removed every tag column")
    remap = {int(old): new for new, old in enumerate(surviving)}
    return surviving, remap


def remap_tag_columns(y, surviving):
    """Project a tag matrix onto the surviving columns, in remapped order."""
    return np.asarray(y)[:, surviving]


# ---------------------------------------------------------------- manifest

CHUNK_FILES = ("features", "tags", "labels")     # labels are optional

@dataclass
class ChunkManifest:
    """Ordered chunk files of one stream, with dimensions declared up front."""

    d: int
    c: int
    chunks: list                         # [{"features":..., "tags":..., ["labels":...]}]
    labels_dim: int = 0
    tag_vocab: list = field(default_factory=list)
    tag_format: str = None               # of tag and label files; see load_tags

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r") as fh:
                doc = json.load(fh)
            man = cls(
                d=int(doc["d"]), c=int(doc["c"]), chunks=list(doc["chunks"]),
                labels_dim=int(doc.get("labels_dim", 0)),
                tag_vocab=list(doc.get("tag_vocab", [])),
                tag_format=doc.get("tag_format"))
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise LoadError(f"{path}: bad manifest: {e}") from None
        if man.tag_format not in TAG_FORMATS + (None,):
            raise LoadError(f"{path}: tag_format must be one of "
                            f"{TAG_FORMATS}, got {man.tag_format!r}")
        if not man.chunks:
            raise LoadError(f"{path}: manifest lists no chunks")
        base = os.path.dirname(os.path.abspath(path))
        for i, entry in enumerate(man.chunks):
            if not (isinstance(entry, dict) and "features" in entry
                    and "tags" in entry and all(
                        isinstance(entry[key], str) for key in CHUNK_FILES
                        if key in entry)):
                raise LoadError(
                    f"{path}: chunk {i} must map 'features', 'tags' and "
                    f"optionally 'labels' to path strings, got {entry!r}")
            for key in CHUNK_FILES:
                if key in entry and not os.path.isabs(entry[key]):
                    entry[key] = os.path.join(base, entry[key])
        return man

    def save(self, path):
        doc = {"d": self.d, "c": self.c, "chunks": self.chunks}
        if self.labels_dim:
            doc["labels_dim"] = self.labels_dim
        if self.tag_vocab:
            doc["tag_vocab"] = self.tag_vocab
        if self.tag_format:
            doc["tag_format"] = self.tag_format
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def load_chunk(self, i):
        """Load and validate one chunk's (features, tags[, labels])."""
        entry = self.chunks[i]
        x = load_features(entry["features"])
        if x.shape[1] != self.d:
            raise LoadError(
                f"{entry['features']}: expected {self.d} columns, "
                f"got {x.shape[1]}")
        y = load_tags(entry["tags"], self.c, x.shape[0], self.tag_format)
        labels = None
        if entry.get("labels"):
            if not self.labels_dim:
                raise LoadError("manifest has label files but no labels_dim")
            labels = load_tags(entry["labels"], self.labels_dim, x.shape[0],
                               self.tag_format)
        return x, y, labels


# ------------------------------------------------------------------ config

def load_config(path):
    """Parse a 'key = value' config file; '#' starts a comment."""
    out = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# -------------------------------------------------------------- checkpoint

def save_checkpoint(path, state, stats, code_blocks, p_history, seed):
    """Serialize the full training state; atomic write, CRC-protected.

    code_blocks: per-round CodeBlock list in commit order.  p_history
    records the hash projection after each round so MAP-per-round curves
    can be rebuilt at evaluation time.
    """
    rows = np.asarray([cb.n for cb in code_blocks], dtype="<i8")
    if code_blocks:
        codes = np.concatenate([cb.dense for cb in code_blocks], axis=0)
    else:
        codes = np.zeros((0, state.hyper.r), dtype=np.int8)
    ph = np.asarray(p_history, dtype="<f8").reshape(
        len(p_history), state.hyper.m, state.hyper.r)

    arrays = [
        ("anchors", state.anchors.anchors), ("w", state.w), ("u", state.u),
        ("v", state.v), ("p", state.p),
        ("c1", stats.c1), ("c2", stats.c2), ("c3", stats.c3),
        ("c5", stats.c5), ("d1", stats.d1), ("d2", stats.d2),
        ("codes_rows", rows), ("codes_dense", codes), ("p_history", ph),
    ]
    meta = {
        "hyper": asdict(state.hyper),
        "kernel_width": state.anchors.kernel_width,
        "round_index": state.round_index,
        "total_seen": state.total_seen,
        "rounds_committed": stats.rounds_committed,
        "sy_weighted": stats.sy_weighted,
        "sz": stats.sz,
        "seed": seed,
        "arrays": [
            {"name": name,
             "dtype": "<i1" if a.dtype == np.int8 else
                      ("<i8" if a.dtype.kind == "i" else "<f8"),
             "shape": list(a.shape)}
            for name, a in arrays
        ],
    }
    header = json.dumps(meta, sort_keys=True).encode()
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<I", CHECKPOINT_VERSION)
    body += struct.pack("<Q", len(header))
    body += header
    for (_, a), spec in zip(arrays, meta["arrays"]):
        body += np.ascontiguousarray(a).astype(spec["dtype"]).tobytes("C")
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(body))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Load a checkpoint; returns (state, stats, code_blocks, p_history, seed).

    Fields are read by name; older files' extra c4 and total_rows are unread.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != CHECKPOINT_MAGIC:
        raise LoadError(f"{path}: not a checkpoint file")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise LoadError(f"{path}: checksum mismatch")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise LoadError(f"{path}: unsupported version {version}")
    (hlen,) = struct.unpack("<Q", blob[8:16])
    meta = json.loads(blob[16:16 + hlen].decode())
    offset = 16 + hlen
    arrays = {}
    for spec in meta.get("arrays", []):
        dt = np.dtype(spec["dtype"])
        count = int(np.prod(spec["shape"])) if spec["shape"] else 1
        end = offset + dt.itemsize * count
        arrays[spec["name"]] = np.frombuffer(
            blob[offset:end], dtype=dt).reshape(spec["shape"]).copy()
        offset = end
    fields = {**meta, **arrays}
    missing = [name for name in (
        "hyper", "kernel_width", "round_index", "total_seen",
        "rounds_committed", "sy_weighted", "sz", "seed", "anchors", "w", "u",
        "v", "p", "c1", "c2", "c3", "c5", "d1", "d2", "codes_rows",
        "codes_dense", "p_history") if name not in fields]
    if missing:
        raise LoadError(f"{path}: checkpoint lacks {', '.join(missing)}")
    rows, dense = fields["codes_rows"], fields["codes_dense"]
    if np.any(rows < 0) or int(np.sum(rows)) != len(dense):
        raise LoadError(f"{path}: codes_rows {rows.tolist()} do not add up "
                        f"to the {len(dense)} stored code rows")

    try:
        hyper = Hyperparams(**fields["hyper"])
    except TypeError as e:          # a missing or unknown hyperparameter
        raise LoadError(f"{path}: bad hyper: {e}") from None
    state = ModelState(
        w=fields["w"], u=fields["u"], v=fields["v"], p=fields["p"],
        anchors=AnchorSet(fields["anchors"], fields["kernel_width"]),
        hyper=hyper,
        round_index=fields["round_index"], total_seen=fields["total_seen"])
    stats = AccumStats(
        c1=fields["c1"], c2=fields["c2"], c3=fields["c3"], c5=fields["c5"],
        d1=fields["d1"], d2=fields["d2"], sy_weighted=fields["sy_weighted"],
        sz=fields["sz"], rounds_committed=fields["rounds_committed"])
    blocks = []
    start = 0
    for n in rows:
        blocks.append(CodeBlock(dense[start:start + n]))
        start += int(n)
    return state, stats, blocks, list(fields["p_history"]), fields["seed"]
