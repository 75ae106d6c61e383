"""Build and call the C run loop in `_kernel.c`.

The kernel is compiled on first use with the compiler Python was built with,
and the library is kept in the package's `__pycache__` as `_kernel.<key>.so`.
The key hashes the source bytes, the compiler command, the flags and the
platform, so an edited `_kernel.c` or another compiler gets a new build and
later processes load the cached one without compiling.  A library that does
not load is rebuilt.  Where `__pycache__` cannot be written, the kernel is
built into a temporary directory that is removed once the library is loaded.
`publish` and `prune` keep the cache's policy for this module and for the
DIMACS parse cache in `harness`.
The kernel is the only run loop, and `run` its only caller, which returns
the `RunOutcome`; when the kernel cannot be built, `load` raises
RuntimeError with the compiler's message.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# No -march and no -ffast-math: the run must round exactly as Python does.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _compiler():
    """The C compiler command CPython was built with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build(dest):
    """Compile `SOURCE` into the shared library `dest`; returns `dest`.  A
    compiler that fails or times out raises OSError with its message.  Only
    a build imports `subprocess`."""
    import subprocess

    try:
        subprocess.run(
            [*_compiler(), *CFLAGS, "-o", str(dest), str(SOURCE), "-lm"],
            check=True, capture_output=True, text=True, timeout=120,
        )
    except subprocess.SubprocessError as exc:
        raise OSError(exc.stderr.strip() if getattr(exc, "stderr", None) else exc) from exc
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


def publish(dest, make):
    """Make the cache file `dest` by calling `make(path)` on a temporary file
    beside it, then rename that into place, so a concurrent process sees no
    file or a whole one, never half of one.  Returns False, without calling
    `make`, where the cache cannot be written; what `make` and the rename
    raise goes to the caller.  No temporary file is left behind."""
    import tempfile

    try:
        dest.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{dest.name}.", suffix=".tmp", dir=dest.parent)
        os.close(fd)
    except OSError:
        return False
    try:
        make(tmp)
        os.replace(tmp, dest)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return True


def prune(pattern, current):
    """Delete the files in `CACHE_DIR` that match the glob `pattern` and whose
    names do not start with `current`: what another version left there."""
    for stale in CACHE_DIR.glob(pattern):
        if not stale.name.startswith(current):
            stale.unlink(missing_ok=True)


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
    if not publish(lib_path, _build):
        with tempfile.TemporaryDirectory(prefix="saflip-kernel-") as tmp:
            return ctypes.CDLL(str(_build(Path(tmp) / "_kernel.so")))
    prune("_kernel.*.so", lib_path.name)
    return ctypes.CDLL(str(lib_path))


@functools.cache
def load():
    """The kernel's `saflip_run` function; raises RuntimeError with the
    compiler's message when it cannot be built.  A failure is not cached, so
    callers load once, before their first run."""
    import ctypes

    try:
        lib = _library()
    except OSError as exc:
        raise RuntimeError(f"the C kernel cannot be built: {exc}") from exc
    fn = lib.saflip_run
    fn.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_uint64, ctypes.c_int, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
    ]
    fn.restype = ctypes.c_int
    return fn


@dataclass(frozen=True)
class RunOutcome:
    best_assignment: tuple
    best_score: float
    flip_calls: int
    iterations_completed: int
    wall_time: float
    # Minimum score over every solution evaluated during the run.  The
    # best-tracking rule compares the incumbent, not the freshly evaluated
    # neighbor, so best_score can exceed this when a better neighbor was
    # evaluated but immediately replaced.
    min_evaluated_score: float

    @property
    def solved(self):
        return self.best_score == 0.0


METROPOLIS, COIN = 0, 1  # acceptance rules, numbered as in `_kernel.c`


def run(formula, params, rule):
    """One run of the annealer or the placebo, in one call of the kernel.

    The two differ only in `rule`, the acceptance rule (METROPOLIS or COIN)
    that decides whether a worse-or-equal neighbor replaces the incumbent at
    temperature t = t0 * alpha**k of level k.  The draws are seeded from
    `params.seed` as by `random.Random(params.seed)`.  The Python loop in
    `tests/reference.py` is the step-for-step reference the kernel is tested
    against; it documents the RNG draw order and the best-tracking rule.

    The kernel is loaded (or built) before the clock of `wall_time` starts.
    The call releases the GIL, so runs in several threads go on side by side.
    """
    fn = load()
    start = time.perf_counter()
    n, m = formula.num_vars, formula.num_clauses
    lits, starts = formula.packed
    best = array("i", [0]) * n
    # What the kernel writes to out[]: best unsat count, minimum evaluated
    # unsat count, Flip calls, completed temperature levels.
    out = array("q", [0] * 4)
    status = fn(
        n, m, lits.buffer_info()[0], starts.buffer_info()[0],
        params.seed, rule, float(params.t0), float(params.alpha),
        params.m_steps, params.mni, best.buffer_info()[0], out.buffer_info()[0],
    )
    if status:
        raise MemoryError("C kernel could not allocate its run state")
    best_unsat, min_unsat, flip_calls, k = out
    return RunOutcome(
        best_assignment=tuple(best),
        best_score=best_unsat / m,
        flip_calls=flip_calls,
        iterations_completed=k,
        wall_time=time.perf_counter() - start,
        min_evaluated_score=min_unsat / m,
    )
