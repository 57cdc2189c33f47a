"""Deterministic chunked execution.

Work is split into fixed-size chunks, each seeded independently from
(master seed, label, chunk index) through SHA-256, and results are
merged in chunk order.  The thread count therefore changes wall time
only, never output.
"""

from __future__ import annotations

__all__ = ["CHUNK", "chunk_seed", "chunk_sizes", "map_chunks"]

CHUNK = 20_000


def chunk_seed(master: int, label: str, index: int) -> int:
    # imported here: only seeded chunks need it, and it costs start-up
    import hashlib

    digest = hashlib.sha256(f"{master}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def chunk_sizes(total: int, chunk: int):
    """Fixed partition of `total` items into chunks (last one ragged)."""
    if total < 0 or chunk <= 0:
        raise ValueError("bad chunking request")
    out = []
    done = 0
    while done < total:
        size = min(chunk, total - done)
        out.append(size)
        done += size
    return out


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
