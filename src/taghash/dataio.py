"""File formats, manifests, vocabulary pruning, and checkpoints.

Features travel as 32-bit floats on disk ("WOHF" binary container or plain
CSV) but are promoted to 64-bit for all computation; checkpoints serialize
every matrix as raw little-endian 64-bit floats, so a resumed run is
bit-identical to an uninterrupted one, and the codes as their packed
64-bit words.
"""
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .codes import CodeBlock, check_words, n_words
from .kernel import AnchorSet
from .model import (AccumStats, Hyperparams, ModelState, _is_count,
                    _is_finite)
from .semantics import EmbeddingTable

FEATURE_MAGIC = b"WOHF"
CHECKPOINT_MAGIC = b"THCK"
CHECKPOINT_VERSION = 2


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
            size = os.fstat(fh.fileno()).st_size    # before sizing a read
            end = 12 + 4 * n * d
            if size < end:
                raise LoadError(f"{path}: truncated payload at byte {size}")
            if size > end:
                raise LoadError(f"{path}: {size - end} extra bytes after the "
                                f"{n} x {d} payload")
            raw = fh.read(4 * n * d)
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
                d=doc["d"], c=doc["c"], chunks=list(doc["chunks"]),
                labels_dim=doc.get("labels_dim", 0),
                tag_vocab=doc.get("tag_vocab", []),
                tag_format=doc.get("tag_format"))
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise LoadError(f"{path}: bad manifest: {e}") from None
        for name, least in (("d", 1), ("c", 1), ("labels_dim", 0)):
            value = getattr(man, name)
            if not (_is_count(value) and value >= least):
                raise LoadError(f"{path}: {name} must be an integer >= "
                                f"{least}, got {value!r}")
        if not (isinstance(man.tag_vocab, list)
                and all(isinstance(tag, str) for tag in man.tag_vocab)):
            raise LoadError(f"{path}: tag_vocab must be a list of strings, "
                            f"got {man.tag_vocab!r}")
        if man.tag_vocab and len(man.tag_vocab) != man.c:
            raise LoadError(f"{path}: tag_vocab lists {len(man.tag_vocab)} "
                            f"tags but c is {man.c}")
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
#
# Layout: magic, version (<u4), header length (<u8), a JSON header of the
# META_FIELDS and one spec per array, the ARRAYS back to back as raw
# little-endian bytes in that order, and a CRC-32 of everything before it.
# The codes are stored as their packed words, codes_packed (<u8,
# N x ceil(r/64)).  The round count, P and the rows seen are not stored:
# they are p_history's length and last projection and codes_rows' sum.
# Version 2 with exactly these fields is the one layout read; any other
# version or field is refused.

META_FIELDS = ("hyper", "kernel_width", "sy_weighted", "sz", "seed")
# The state's and the statistics' float64 matrices, stored under their
# attributes' names, and every stored array in file order with its dtype.
# A shape has a letter a dimension: r, m, f, c the hyperparameters, n the
# words per code and * a free dimension.
STATE_MATRICES = {"w": "rc", "u": "rm", "v": "rf"}
STATS_MATRICES = {"c1": "rr", "c2": "rm", "c3": "mm", "c5": "rf",
                  "d1": "rr", "d2": "rc"}
ARRAYS = {"anchors": ("<f8", "m*"),
          **{name: ("<f8", dims)
             for name, dims in (STATE_MATRICES | STATS_MATRICES).items()},
          "codes_rows": ("<i8", "*"), "codes_packed": ("<u8", "*n"),
          "p_history": ("<f8", "*mr")}
STORED_DTYPES = {np.dtype(dtype) for dtype, _ in ARRAYS.values()}


def _stored_arrays(state, stats, code_blocks, p_history):
    """(name, dtype, shape, parts) of every stored array, in file order.

    An array is written as its parts, C-ordered and back to back: the codes
    as each block's words and the history as each round's projection, so
    neither is concatenated first.
    """
    h = state.hyper
    rows = np.asarray([cb.n for cb in code_blocks], dtype="<i8")
    whole = {"anchors": state.anchors.anchors, "codes_rows": rows,
             **{name: getattr(state, name) for name in STATE_MATRICES},
             **{name: getattr(stats, name) for name in STATS_MATRICES}}
    arrays = {name: (np.shape(a), [a]) for name, a in whole.items()}
    arrays["codes_packed"] = ((int(rows.sum()), n_words(h.r)),
                              [cb.packed for cb in code_blocks])
    arrays["p_history"] = ((len(p_history), h.m, h.r), p_history)
    return [(name, dtype, arrays[name][0],
             [np.ascontiguousarray(a, dtype=dtype) for a in arrays[name][1]])
            for name, (dtype, _) in ARRAYS.items()]


def _last_p(p_history, h):
    """P as p_history gives it: a copy of its last projection, zeros when it
    is empty."""
    return np.array(p_history[-1]) if p_history else np.zeros((h.m, h.r))


def save_checkpoint(path, state, stats, code_blocks, p_history, seed):
    """Serialize the full training state; atomic, durable, CRC-protected.

    code_blocks: per-round CodeBlock list in commit order.  p_history
    records the hash projection after each round so MAP-per-round curves
    can be rebuilt at evaluation time.  The file is written beside path,
    fsynced, renamed over path, and the directory is fsynced; a failed
    write, fsync or rename removes the file beside path.  A state whose P
    differs from p_history's last projection is refused first.
    """
    if not np.array_equal(state.p, _last_p(p_history, state.hyper)):
        raise ValueError(f"state.p differs from what the {len(p_history)} "
                         f"projections of p_history give")
    arrays = _stored_arrays(state, stats, code_blocks, p_history)
    for name, _, shape, parts in arrays:
        if sum(a.size for a in parts) != int(np.prod(shape)):
            raise ValueError(f"{name} does not fill its shape {shape}")
    meta = {
        "hyper": asdict(state.hyper),
        "kernel_width": state.anchors.kernel_width,
        "sy_weighted": stats.sy_weighted,
        "sz": stats.sz,
        "seed": seed,
        "arrays": [{"name": name, "dtype": dtype, "shape": list(shape)}
                   for name, dtype, shape, _ in arrays],
    }
    header = json.dumps(meta, sort_keys=True).encode()
    head = CHECKPOINT_MAGIC + struct.pack(
        "<IQ", CHECKPOINT_VERSION, len(header)) + header

    tmp = path + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            crc = zlib.crc32(head)
            fh.write(head)
            for _, _, _, parts in arrays:
                for a in parts:
                    crc = zlib.crc32(a, crc)
                    fh.write(a)
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _stored_dtype(dtype):
    """Whether dtype is a string naming a dtype that ARRAYS lists."""
    try:
        return isinstance(dtype, str) and np.dtype(dtype) in STORED_DTYPES
    except (TypeError, ValueError):         # not a dtype numpy knows
        return False


def _object_once(pairs):
    """A JSON object's (key, value) pairs as a dict; a key given twice, at
    any depth, is a LoadError naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise LoadError(f"header repeats the key {key!r}")
        obj[key] = value
    return obj


def _read_header(path, header):
    """The header's fields and its array specs, refused with a LoadError
    naming the field unless it is a JSON object of the META_FIELDS and one
    spec for each of the ARRAYS, each giving its name, a dtype that a
    checkpoint stores and a shape of integers >= 0."""
    try:
        meta = json.loads(header.decode(), object_pairs_hook=_object_once)
    except LoadError as exc:
        raise LoadError(f"{path}: {exc}") from None
    except ValueError:                      # not UTF-8, or not JSON
        raise LoadError(f"{path}: header is not JSON") from None
    if not isinstance(meta, dict):
        raise LoadError(f"{path}: header is a JSON {type(meta).__name__}, "
                        f"not an object")
    specs = meta.pop("arrays", [])
    if not isinstance(specs, list):
        raise LoadError(f"{path}: arrays is not a list, got {specs!r}")
    for spec in specs:
        if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)
                and spec["name"] not in meta):
            raise LoadError(f"{path}: array spec {spec!r} needs a name that "
                            f"no header field has")
    names = [*meta, *(spec["name"] for spec in specs)]
    layout = META_FIELDS + tuple(ARRAYS)
    extra = [name for name in names if name not in layout]
    if extra:
        raise LoadError(f"{path}: checkpoint stores {', '.join(extra)}, "
                        f"which version {CHECKPOINT_VERSION} does not")
    missing = [name for name in layout if name not in names]
    if missing:
        raise LoadError(f"{path}: checkpoint lacks {', '.join(missing)}")
    twice = [name for name in ARRAYS if names.count(name) > 1]
    if twice:
        raise LoadError(f"{path}: checkpoint lists {', '.join(twice)} more "
                        f"than once")
    for spec in specs:
        name, dtype, shape = spec["name"], spec.get("dtype"), spec.get("shape")
        if not _stored_dtype(dtype):
            raise LoadError(f"{path}: {name} has dtype {dtype!r}, not one of "
                            f"{sorted(d.str for d in STORED_DTYPES)}")
        if not (isinstance(shape, list) and all(map(_is_count, shape))):
            raise LoadError(f"{path}: {name} has shape {shape!r}, not a list "
                            f"of integers >= 0")
    return meta, specs


def _read_arrays(path, blob, offset, specs, hyper):
    """Arrays by name, each copied once out of the file's bytes; one whose
    dtype or shape does not fit hyper, or bytes after the last, refused."""
    size = {**vars(hyper), "n": n_words(hyper.r), "*": None}
    arrays = {}
    for spec in specs:
        name, dt, shape = spec["name"], np.dtype(spec["dtype"]), spec["shape"]
        dtype, dims = ARRAYS[name]
        want = [size[d] for d in dims]
        if dt != dtype or len(shape) != len(want) or any(
                d not in (None, got) for d, got in zip(want, shape)):
            want = ", ".join("*" if d is None else str(d) for d in want)
            raise LoadError(
                f"{path}: {name} is {dt} {tuple(shape)}, expected {dtype} "
                f"({want}) for r={hyper.r}, m={hyper.m}, f={hyper.f}, "
                f"c={hyper.c}")
        count = math.prod(shape)
        if offset + dt.itemsize * count > len(blob) - 4:
            raise LoadError(f"{path}: {name} runs past the end of the file")
        arrays[name] = np.frombuffer(
            blob, dtype=dt, count=count, offset=offset).reshape(shape).copy()
        offset += dt.itemsize * count
    if offset < len(blob) - 4:
        raise LoadError(f"{path}: {len(blob) - 4 - offset} extra bytes after "
                        f"the last array")
    return arrays


def load_checkpoint(path):
    """Load a checkpoint; returns (state, stats, code_blocks, p_history, seed).

    Only the layout save_checkpoint writes is read: a file of another
    version, or one that lacks a field, stores one the layout does not
    (such as an older file's c4, p, codes_dense, round_index,
    rounds_committed, total_rows or total_seen) or lists an array twice, is
    refused with a LoadError naming the version or the field.  So is one
    whose arrays do not fit its hyperparameters, or its codes their code
    length, or has bytes after its last array.  P and the round count are
    p_history's last projection and length.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != CHECKPOINT_MAGIC:
        raise LoadError(f"{path}: not a checkpoint file")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(memoryview(blob)[:-4]) != stored_crc:
        raise LoadError(f"{path}: checksum mismatch")
    version, hlen = struct.unpack_from("<IQ", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise LoadError(f"{path}: unsupported version {version}")
    meta, specs = _read_header(path, blob[16:16 + hlen])
    for name in ("kernel_width", "sy_weighted", "sz"):
        if not _is_finite(meta[name]):
            raise LoadError(f"{path}: {name} must be a finite number, got "
                            f"{meta[name]!r}")
    if not _is_count(meta["seed"]):
        raise LoadError(f"{path}: seed must be an integer >= 0, got "
                        f"{meta['seed']!r}")
    try:
        hyper = Hyperparams(**meta["hyper"])
    except (TypeError, ValueError) as e:    # missing, unknown or refused
        raise LoadError(f"{path}: bad hyper: {e}") from None
    arrays = _read_arrays(path, blob, 16 + hlen, specs, hyper)
    history = list(arrays["p_history"])
    rows, codes = arrays["codes_rows"], arrays["codes_packed"]
    if np.any(rows < 0) or int(np.sum(rows)) != len(codes):
        raise LoadError(f"{path}: codes_rows {rows.tolist()} do not add up "
                        f"to the {len(codes)} stored code rows")
    codes.setflags(write=False)     # its blocks' own words: no copies
    try:
        check_words(codes, hyper.r, "codes_packed")
    except ValueError as e:         # a bit set past r
        raise LoadError(f"{path}: {e}") from None

    try:
        anchors = AnchorSet(arrays["anchors"], meta["kernel_width"])
    except ValueError as e:         # no anchors, or a width <= 0
        raise LoadError(f"{path}: {e}") from None
    state = ModelState(
        **{name: arrays[name] for name in STATE_MATRICES},
        p=_last_p(history, hyper), anchors=anchors, hyper=hyper)
    stats = AccumStats(
        **{name: arrays[name] for name in STATS_MATRICES},
        sy_weighted=meta["sy_weighted"], sz=meta["sz"])
    blocks = []
    start = 0
    for n in rows.tolist():
        blocks.append(CodeBlock(codes[start:start + n], hyper.r))
        start += n
    return state, stats, blocks, history, meta["seed"]
