"""Binary code blocks: dense +-1 working form and packed 64-bit query form.

Bit convention: bit j of word j//64 is 1 where the dense code is +1.  Bits
past the code length in the last word are always zero, so XOR+popcount over
whole words is the exact Hamming distance.
"""
from dataclasses import dataclass

import numpy as np


def pack_codes(dense):
    """Pack (n, r) +-1 codes into (n, ceil(r/64)) uint64 words."""
    d = np.asarray(dense)
    if d.ndim != 2:
        raise ValueError("dense codes must be 2-D")
    if not np.all(np.abs(d) == 1):
        raise ValueError("dense codes must be +-1 with no zeros")
    n, r = d.shape
    bits = (d > 0).astype(np.uint8)
    words = (r + 63) // 64
    padded = np.zeros((n, words * 64), dtype=np.uint8)
    padded[:, :r] = bits
    packed = np.zeros((n, words), dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    for wi in range(words):
        block = padded[:, wi * 64:(wi + 1) * 64].astype(np.uint64)
        packed[:, wi] = (block << shifts).sum(axis=1, dtype=np.uint64)
    return packed


def unpack_codes(packed, r):
    """Inverse of pack_codes; returns (n, r) int8 +-1 codes."""
    p = np.asarray(packed, dtype=np.uint64)
    n, words = p.shape
    if words != (r + 63) // 64:
        raise ValueError(f"{words} words cannot hold {r}-bit codes")
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((p[:, :, None] >> shifts) & np.uint64(1)).astype(np.int8)
    bits = bits.reshape(n, words * 64)[:, :r]
    return (2 * bits - 1).astype(np.int8)


def hamming_distances(query_packed, db_packed):
    """Hamming distances from one packed query row to every database row.

    Returned in the narrowest unsigned dtype that holds the code length:
    uint8 when words * 64 <= 255 (up to three words), uint16 otherwise.
    """
    counts = np.bitwise_count(np.bitwise_xor(db_packed, query_packed))
    dtype = np.uint8 if counts.shape[1] * 64 <= 255 else np.uint16
    return counts.sum(axis=1, dtype=dtype)


@dataclass
class CodeBlock:
    """Codes of one chunk; packed form built lazily on first use."""

    dense: np.ndarray            # (n, r) int8 +-1

    def __post_init__(self):
        self.dense = np.asarray(self.dense)
        if self.dense.dtype != np.int8:
            if not np.all(np.abs(self.dense) == 1):
                raise ValueError("codes must be +-1")
            self.dense = self.dense.astype(np.int8)
        self._packed = None

    @property
    def n(self):
        return self.dense.shape[0]

    @property
    def r(self):
        return self.dense.shape[1]

    @property
    def packed(self):
        if self._packed is None:
            self._packed = pack_codes(self.dense)
        return self._packed
