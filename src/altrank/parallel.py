"""Deterministic chunked execution.

Work is split into chunks of a constant size, no option (CHUNK curves
per band of simulate; SAMPLE_CHUNK samples of sha-dist, cl-dist and
period-scan), each seeded independently from (master seed, label, chunk
index) through SHA-256, and results are merged in chunk order.  The
thread count therefore changes wall time only, never output.
"""

from __future__ import annotations

import sys

__all__ = ["CHUNK", "SAMPLE_CHUNK", "chunk_seed", "map_chunks", "seeded_chunks"]

CHUNK = 100_000
SAMPLE_CHUNK = 2_500


def chunk_seed(master: int, label: str, index: int) -> int:
    # imported here, and like random's sha512 from CPython's builtin
    # module where it has one: hashlib also loads OpenSSL, about 3.6 MB
    # of peak RSS
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    digest = sha256(f"{master}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_chunks(total: int, chunk: int, master: int, label: str):
    """(size, chunk_seed(master, label, i)) of each chunk i of a fixed
    partition of `total` items into chunks of `chunk` (last one ragged)."""
    if total < 0 or chunk <= 0:
        raise ValueError("bad chunking request")
    return [
        (min(chunk, total - start), chunk_seed(master, label, i))
        for i, start in enumerate(range(0, total, chunk))
    ]


def map_chunks(fn, specs, threads: int = 1):
    """Order-preserving map; `fn` must be a picklable module-level callable
    when threads > 1."""
    specs = list(specs)
    if threads <= 1 or len(specs) <= 1:
        return [fn(s) for s in specs]
    # imported here: it pulls in multiprocessing, which a single-process
    # run never needs
    from concurrent.futures import ProcessPoolExecutor

    # fork starts every worker at once, so no more than there are chunks
    with ProcessPoolExecutor(max_workers=min(threads, len(specs))) as pool:
        return list(pool.map(fn, specs))
