"""Viewpoint-graph evaluation of research ideas.

Ideas are decomposed into atomic viewpoints, linked into a weighted
similarity graph, and scored either by training-free label propagation
or by a small trainable weighted GNN with novelty-aware negatives.
"""

import ctypes
import os

__version__ = "0.1.0"

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>


def heap_policy() -> None:
    """On glibc, fixed thresholds (blocks of 32 MiB and up mapped on their
    own, the heap top trimmed past 64 MiB free) keep each GNN step's freed
    arrays in the heap for the next step; glibc's adaptive defaults hand
    them back to the kernel, to be faulted in again. Skipped silently on
    another C library or where ``mallopt`` cannot be reached."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


heap_policy()
