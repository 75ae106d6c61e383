"""Build and call the C run loop in `_kernel.c`.

The kernel is compiled on first use with the compiler Python was built with,
and the library is kept in the package's `__pycache__` as `_kernel.<key>.so`.
The key hashes the source bytes, the compiler command, the flags and the
platform, so an edited `_kernel.c` or another compiler gets a new build and
later processes load the cached one without compiling.  A library that does
not load is rebuilt.  Where `__pycache__` cannot be written, the kernel is
built into a temporary directory that is removed once the library is loaded.
When it cannot be built, `load` warns once on stderr and returns None, and
the solvers run the Python reference loop instead.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from itertools import accumulate, chain
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# No -march and no -ffast-math: the run must round exactly as Python does.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_NONPOSITIVE_TEMPERATURE = 1


def _compiler():
    """The C compiler command CPython was built with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build(dest):
    """Compile `SOURCE` into the shared library `dest`; returns `dest`."""
    import subprocess

    subprocess.run(
        [*_compiler(), *CFLAGS, "-o", str(dest), str(SOURCE), "-lm"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return dest


def _cache_path():
    """`CACHE_DIR / _kernel.<key>.so` for the current source, compiler and platform."""
    import hashlib
    import json
    import sysconfig

    h = hashlib.sha256(SOURCE.read_bytes())
    h.update(json.dumps([_compiler(), CFLAGS, sys.implementation.cache_tag,
                         sysconfig.get_platform()]).encode())
    return CACHE_DIR / f"_kernel.{h.hexdigest()[:16]}.so"


def _library():
    """The loaded kernel library: cached, freshly built into the cache, or,
    where the cache cannot be written, built into a temporary directory."""
    import ctypes
    import tempfile

    lib_path = _cache_path()
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError:
        pass  # not built yet, or unloadable: build it again
    try:
        CACHE_DIR.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernel.", suffix=".tmp", dir=CACHE_DIR)
        os.close(fd)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="saflip-kernel-") as tmp:
            return ctypes.CDLL(str(_build(Path(tmp) / "_kernel.so")))
    try:
        # Publish whole files only: a concurrent process sees the old name or
        # a complete library, never a half-written one.
        os.replace(_build(tmp), lib_path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    for stale in CACHE_DIR.glob("_kernel.*.so"):
        if stale != lib_path:
            stale.unlink(missing_ok=True)
    return ctypes.CDLL(str(lib_path))


@functools.cache
def load():
    """The kernel's `saflip_run` function, or None if it cannot be built."""
    import ctypes
    import subprocess

    try:
        lib = _library()
    except (OSError, subprocess.SubprocessError) as exc:
        reason = exc.stderr.strip() if getattr(exc, "stderr", None) else exc
        print(f"saflip: C kernel unavailable, running the Python loop ({reason})",
              file=sys.stderr)
        return None
    fn = lib.saflip_run
    fn.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
    ]
    fn.restype = ctypes.c_int
    return fn


def run(fn, formula, params, rng_state, rule):
    """One run through the kernel function `fn` from `load()` under the
    acceptance `rule` (`annealing.METROPOLIS` or `annealing.COIN`).

    `rng_state` is the 625-word `random.Random(...).getstate()[1]`.  Returns
    (best values, best unsat count, minimum evaluated unsat count, Flip calls,
    completed temperature levels).
    """
    n, clauses = formula.num_vars, formula.clauses
    lits = array("i", chain.from_iterable(clauses))
    starts = array("i", accumulate(map(len, clauses), initial=0))
    state = array("I", rng_state)
    if state.itemsize != 4 or len(state) != 625:
        raise ValueError("expected 625 32-bit Mersenne Twister words")
    best = array("i", [0]) * n
    out = array("q", [0] * 4)
    status = fn(
        n, len(clauses), lits.buffer_info()[0], starts.buffer_info()[0],
        state.buffer_info()[0], rule, float(params.t0), float(params.alpha),
        params.m_steps, params.mni, best.buffer_info()[0], out.buffer_info()[0],
    )
    if status == _NONPOSITIVE_TEMPERATURE:
        raise ValueError("temperature must be positive")
    if status:
        raise MemoryError("C kernel could not allocate its run state")
    return tuple(best), *out
