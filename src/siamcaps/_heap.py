"""Process-wide malloc policy: freed memory stays in the process heap.

glibc serves every allocation above its mmap threshold (128 KB, raised
dynamically up to 32 MB) with a fresh ``mmap`` and unmaps it on free, and it
trims the top of the heap back to the kernel once more than the trim
threshold is free there.  A full-size train step makes and frees arrays of
tens to hundreds of MB (activations, im2col patch matrices, û and its
gradient), so without this policy every step faults those pages in
and has the kernel zero them again: about 14,000 minor faults and 240 ms of
system time per full-size train step on a 2-vCPU VM.  With every allocation
served from the heap and the heap never trimmed, the next step reuses the
same pages, including the temporaries numpy makes inside ufuncs and
``matmul``.  The cost is resident memory: the heap keeps
its high-water mark, plus the holes that allocation order leaves in it.

Every thread allocates from that one heap.  glibc would give a second thread
an arena of its own, a second heap that keeps its own high-water mark and
holes: with the capsule layer's worker thread (see capsules.WORKERS) that
read +7 MB of peak RSS on a full-size eval pass, against +0.8 MB with one
arena, at the same speed.
"""

from __future__ import annotations

import ctypes
import platform

# from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4
M_ARENA_MAX = -8


def keep_freed_memory() -> bool:
    """Make glibc malloc serve every allocation of every thread from one
    heap and never trim it.  Returns True when all three settings took; on
    any other libc it changes nothing and returns False.

    The settings are process-wide: they also cover allocations of the host
    application and its threads, and resident memory stays at its
    high-water mark until the process exits.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    no_mmap = mallopt(M_MMAP_MAX, 0)
    no_trim = mallopt(M_TRIM_THRESHOLD, 2 ** 31 - 1)
    one_arena = mallopt(M_ARENA_MAX, 1)
    return bool(no_mmap and no_trim and one_arena)
