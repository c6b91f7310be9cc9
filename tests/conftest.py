import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

from taghash.codes import CodeBlock, pack_codes
from taghash.dataio import CHECKPOINT_VERSION
from taghash.kernel import AnchorSet
from taghash.model import (AccumStats, Hyperparams, ModelState, RoundData,
                           RoundWork, commit_round)


def random_round_data(rng, n, m, c, f):
    return RoundData(
        phi=rng.uniform(0.0, 1.0, size=(n, m)),
        y=(rng.random((n, c)) < 0.4).astype(float),
        z=rng.normal(size=(n, f)))


def random_codes(rng, n, r):
    return rng.integers(0, 2, size=(n, r)).astype(float) * 2.0 - 1.0


def code_block(dense):
    """A CodeBlock of (n, r) +-1 codes, built from their packed words."""
    dense = np.asarray(dense)
    return CodeBlock(pack_codes(dense), dense.shape[1])


def round_work(chunk, stats, state, b, weights):
    """The RoundWork of chunk over stats, with the state's maps, codes b
    and the given weights; every product formed afresh."""
    work = RoundWork(chunk, stats, state, state.w, b)
    work.weights = weights
    return work


def model_bytes(state, stats):
    """The bytes of every array and number of a state and its statistics,
    by field name, to compare a model with itself byte for byte."""
    out = {"anchors": (state.anchors.anchors.tobytes(),
                       state.anchors.kernel_width)}
    for obj in (state, stats):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if isinstance(value, np.ndarray):
                out[field.name] = (value.dtype.str, value.shape,
                                   value.tobytes())
            elif not isinstance(value, AnchorSet):
                out[field.name] = value
    return out


def make_state(hyper, rng=None):
    rng = rng or np.random.default_rng(0)
    anchors = AnchorSet(rng.normal(size=(hyper.m, 4)), kernel_width=1.0)
    state = ModelState.fresh(anchors, hyper)
    return state


def committed_history(rng, hyper, n_chunks, n):
    """Commit n_chunks random rounds; returns everything the oracles need."""
    state = make_state(hyper, rng)
    stats = AccumStats.zeros(hyper)
    chunks, codes, weights = [], [], []
    for _ in range(n_chunks):
        chunk = random_round_data(rng, n, hyper.m, hyper.c, hyper.f)
        b = random_codes(rng, n, hyper.r)
        k = rng.uniform(0.2, 2.0, size=n)
        commit_round(state, stats, round_work(chunk, stats, state, b, k))
        chunks.append(chunk)
        codes.append(b)
        weights.append(k)
    return state, stats, chunks, codes, weights


def read_checkpoint_fields(path):
    """(meta, arrays by name) of a checkpoint file, read from its layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    meta = json.loads(blob[16:16 + hlen])
    arrays, offset = {}, 16 + hlen
    for spec in meta.pop("arrays"):
        a = np.frombuffer(blob, np.dtype(spec["dtype"]),
                          int(np.prod(spec["shape"])), offset)
        arrays[spec["name"]] = a.reshape(spec["shape"])
        offset += a.nbytes
    return meta, arrays


def write_checkpoint_fields(path, meta, arrays,
                            version=CHECKPOINT_VERSION):
    """Write meta and named arrays in the checkpoint layout, CRC included.

    arrays maps names to arrays, or is a list of (name, array) pairs that
    may name an array twice.  Whatever the fields and the version, the file
    is written as given, so a test can build a layout the loader refuses.
    """
    pairs = list(arrays.items()) if isinstance(arrays, dict) else arrays
    specs = [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
             for name, a in pairs]
    header = json.dumps(dict(meta, arrays=specs), sort_keys=True).encode()
    body = b"THCK" + struct.pack("<IQ", version, len(header)) + header
    body += b"".join(np.ascontiguousarray(a).tobytes() for _, a in pairs)
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


def rewrite_header(path, edit):
    """Apply edit to a checkpoint's parsed header and write the result
    back, with its length and the CRC made to fit; a list that edit
    returns replaces the header."""
    blob = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    replaced = edit(header)
    header = replaced if isinstance(replaced, list) else header
    raw = json.dumps(header, sort_keys=True).encode()
    blob = blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:-4]
    path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))


@pytest.fixture
def small_hyper():
    return Hyperparams(r=4, m=6, f=3, c=5, alpha=2.0, beta=0.5, theta=0.7,
                       mu=1.3, iters=3, dcc_sweeps=2)
