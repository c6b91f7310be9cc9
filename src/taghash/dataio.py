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
    """Parse a word-embedding text dump: 'token v1 v2 ... vf' per line.

    A token given on two lines is refused, naming both."""
    vectors, lines = {}, {}
    f = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            token, vals = parts[0], parts[1:]
            if token in lines:
                raise LoadError(f"{path}: line {lineno}: token {token!r} "
                                f"repeats line {lines[token]}")
            lines[token] = lineno
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
    """Parse a 'key = value' config file; '#' starts a comment.  A key set
    on two lines is refused, naming both."""
    out, lines = {}, {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise ConfigError(f"{path}: line {lineno}: {key} is set again,"
                                  f" first on line {lines[key]}")
            out[key], lines[key] = val, lineno
    return out


# -------------------------------------------------------------- checkpoint
#
# Layout: magic, version (<u4), header length (<u8), a JSON header of the
# META_FIELDS and the array specs, the arrays back to back as raw little-
# endian bytes in that order, and a CRC-32 of everything before it.  _layout
# gives the specs from ModelState.shapes, AccumStats.shapes and four counts:
# the anchor dimension, the code blocks, the code rows and the rounds.  The
# codes are their packed words, one block after another.  The round count,
# P and the rows seen are not stored: they are p_history's length and last
# projection and codes_rows' sum.  Version 2 of this layout is the one read.

META_FIELDS = ("hyper", "kernel_width", "sy_weighted", "sz", "seed")


def _layout(hyper, d, blocks, rows, rounds):
    """Every stored array's spec, {"name", "dtype", "shape"}, in file
    order: what save_checkpoint writes and load_checkpoint requires."""
    maps = ModelState.shapes(hyper)
    p = maps.pop("p")                   # stored as p_history's last entry
    shapes = {"anchors": (hyper.m, d), **maps, **AccumStats.shapes(hyper),
              "codes_rows": (blocks,),
              "codes_packed": (rows, n_words(hyper.r)),
              "p_history": (rounds, *p)}
    dtypes = {"codes_rows": "<i8", "codes_packed": "<u8"}
    return [{"name": name, "dtype": dtypes.get(name, "<f8"),
             "shape": list(shape)} for name, shape in shapes.items()]


# the stored arrays' names, which do not depend on the sizes
ARRAY_NAMES = tuple(spec["name"] for spec in _layout(
    Hyperparams(r=1, m=1, f=1, c=1), 0, 0, 0, 0))


def _sizes(hyper):
    return f"r={hyper.r}, m={hyper.m}, f={hyper.f}, c={hyper.c}"


def save_checkpoint(path, state, stats, code_blocks, p_history, seed):
    """Serialize the full training state; atomic, durable, CRC-protected.

    code_blocks: CodeBlock list in commit order, one per round for a
    trainer, any number for a served index.  p_history records the hash
    projection after each round, at least one, so MAP-per-round curves can
    be rebuilt at evaluation time.  An empty p_history, a state whose P
    differs from its last projection, or an array that does not fit the
    layout of the hyperparameters and four counts is refused with a
    ValueError naming it before any file is opened.  The file is written
    beside path, fsynced, renamed over path, and the directory is fsynced;
    a failed write, fsync or rename removes the file beside path.
    """
    h = state.hyper
    if not p_history:
        raise ValueError("p_history is empty: a checkpoint holds at least "
                         "one round")
    if not np.array_equal(state.p, p_history[-1]):
        raise ValueError(f"state.p differs from what the {len(p_history)} "
                         f"projections of p_history give")
    rows = np.asarray([cb.n for cb in code_blocks], dtype="<i8")
    layout = _layout(h, np.shape(state.anchors.anchors)[1], len(code_blocks),
                     int(rows.sum()), len(p_history))
    # an array is written as its parts, C-ordered and back to back: the
    # codes as each block's words and the history as each round's
    # projection, so neither is concatenated first
    stored = {name: [a] for name, a in (vars(state) | vars(stats)).items()}
    stored.update(anchors=[state.anchors.anchors], codes_rows=[rows],
                  codes_packed=[cb.packed for cb in code_blocks],
                  p_history=[p[None] for p in p_history])
    arrays = []
    for spec in layout:
        name, dtype, shape = spec["name"], spec["dtype"], tuple(spec["shape"])
        parts = [np.ascontiguousarray(a, dtype=dtype) for a in stored[name]]
        if not (all(a.ndim == len(shape) and a.shape[1:] == shape[1:]
                    for a in parts) and sum(map(len, parts)) == shape[0]):
            got = [a.shape for a in parts]
            raise ValueError(f"{name} is {got[0] if len(got) == 1 else got}, "
                             f"expected {dtype} {shape} for {_sizes(h)}")
        arrays.append(parts)
    meta = {
        "hyper": asdict(h),
        "kernel_width": state.anchors.kernel_width,
        "sy_weighted": stats.sy_weighted,
        "sz": stats.sz,
        "seed": seed,
        "arrays": layout,
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
            for parts in arrays:
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
    naming the field unless it is a JSON object holding each of the
    META_FIELDS and a list of one spec for each stored array."""
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
    names = [*meta, *(spec["name"] if isinstance(spec, dict) and "name" in spec
                      else repr(spec) for spec in specs)]
    layout = META_FIELDS + ARRAY_NAMES
    extra = [str(name) for name in names if name not in layout]
    if extra:
        raise LoadError(f"{path}: checkpoint stores {', '.join(extra)}, "
                        f"which version {CHECKPOINT_VERSION} does not")
    missing = [name for name in layout if name not in names]
    if missing:
        raise LoadError(f"{path}: checkpoint lacks {', '.join(missing)}")
    twice = [name for name in layout if names.count(name) > 1]
    if twice:
        raise LoadError(f"{path}: checkpoint lists {', '.join(twice)} more "
                        f"than once")
    return meta, specs


def _read_layout(path, specs, hyper):
    """_layout for the four counts the specs give, refused with a LoadError
    unless each count is an integer >= 0 (the rounds >= 1) and the specs
    are that list, compared type for type, so that 8.0 is not 8."""
    shapes = {spec["name"]: spec.get("shape") for spec in specs}
    counts = []
    for name, axis, least in (("anchors", 1, 0), ("codes_rows", 0, 0),
                              ("codes_packed", 0, 0), ("p_history", 0, 1)):
        shape = shapes[name]
        n = shape[axis] if isinstance(shape, list) and len(shape) > axis \
            else None
        if not (_is_count(n) and n >= least):
            raise LoadError(f"{path}: {name} has shape {shape!r}, whose axis "
                            f"{axis} is not an integer >= {least}")
        counts.append(n)
    layout = _layout(hyper, *counts)
    for got, want in zip(specs, layout):
        # == alone takes 8.0 and True for 8 and 1
        if got != want or not all(type(n) is int for n in got["shape"]):
            shape = got.get("shape")
            shape = tuple(shape) if isinstance(shape, list) else repr(shape)
            other = "" if got["name"] == want["name"] else want["name"] + " "
            raise LoadError(
                f"{path}: {got['name']} is {got.get('dtype')} {shape}, "
                f"expected {other}{want['dtype']} {tuple(want['shape'])} for "
                f"{_sizes(hyper)}")
    return layout


def load_checkpoint(path):
    """Load a checkpoint; returns (state, stats, code_blocks, p_history, seed).

    Only the layout save_checkpoint writes is read: a file of another
    version, or one that lacks a field, stores one the layout does not
    (such as an older file's c4, p, codes_dense, round_index,
    rounds_committed, total_rows or total_seen) or lists an array twice, is
    refused with a LoadError naming the version or the field.  So is one
    whose array specs differ from _layout's for its hyperparameters and the
    four counts its specs give (an empty p_history among them), whose codes
    do not fit their code length or their per-block row counts, or that
    has bytes after its last array.  P and the round count are p_history's
    last projection and length.
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

    arrays, offset = {}, 16 + hlen
    for spec in _read_layout(path, specs, hyper):
        name, dt, shape = spec["name"], np.dtype(spec["dtype"]), spec["shape"]
        count = math.prod(shape)
        if offset + dt.itemsize * count > len(blob) - 4:
            raise LoadError(f"{path}: {name} runs past the end of the file")
        # each array copied once out of the file's bytes
        arrays[name] = np.frombuffer(
            blob, dtype=dt, count=count, offset=offset).reshape(shape).copy()
        offset += dt.itemsize * count
    if offset < len(blob) - 4:
        raise LoadError(f"{path}: {len(blob) - 4 - offset} extra bytes after "
                        f"the last array")
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
    arrays["p"] = history[-1].copy()
    state = ModelState(
        **{name: arrays[name] for name in ModelState.shapes(hyper)},
        anchors=anchors, hyper=hyper)
    stats = AccumStats(
        **{name: arrays[name] for name in AccumStats.shapes(hyper)},
        sy_weighted=meta["sy_weighted"], sz=meta["sz"])
    ends = np.cumsum(rows).tolist()
    blocks = [CodeBlock(codes[end - n:end], hyper.r)
              for n, end in zip(rows.tolist(), ends)]
    return state, stats, blocks, history, meta["seed"]
