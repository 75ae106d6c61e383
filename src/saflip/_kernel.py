"""Build and call the C run loop in `_kernel.c`.

The kernel is compiled on first use, once per process, with the compiler
Python was built with, into a temporary directory that is removed as soon as
the library is loaded.  When it cannot be built, `load` warns once on stderr
and returns None, and the solvers run the Python reference loop instead.
"""

from __future__ import annotations

import functools
import sys
from array import array
from itertools import accumulate, chain
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
# No -march and no -ffast-math: the run must round exactly as Python does.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_NONPOSITIVE_TEMPERATURE = 1


def _compiler():
    """The C compiler command CPython was built with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def load():
    """The kernel's `saflip_run` function, or None if it cannot be built."""
    import ctypes
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(prefix="saflip-kernel-") as tmp:
        lib_path = Path(tmp) / "_kernel.so"
        try:
            subprocess.run(
                [*_compiler(), *CFLAGS, "-o", str(lib_path), str(SOURCE), "-lm"],
                check=True, capture_output=True, text=True, timeout=120,
            )
            lib = ctypes.CDLL(str(lib_path))
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


def run(fn, formula, params, rng_state, placebo):
    """One run through the kernel function `fn` from `load()`.

    `rng_state` is the 625-word `random.Random(...).getstate()[1]`.  Returns
    (best values, best unsat count, minimum evaluated unsat count, Flip calls,
    completed temperature levels).
    """
    n, clauses = formula.num_vars, formula.clauses
    lits = array("i", chain.from_iterable(clauses))
    ends = array("i", accumulate(map(len, clauses)))
    state = array("I", rng_state)
    if state.itemsize != 4 or len(state) != 625:
        raise ValueError("expected 625 32-bit Mersenne Twister words")
    best = array("B", bytes(n))
    out = array("q", [0] * 4)
    status = fn(
        n, len(clauses), lits.buffer_info()[0], ends.buffer_info()[0],
        state.buffer_info()[0], placebo, float(params.t0), float(params.alpha),
        params.m_steps, params.mni, best.buffer_info()[0], out.buffer_info()[0],
    )
    if status == _NONPOSITIVE_TEMPERATURE:
        raise ValueError("temperature must be positive")
    if status:
        raise MemoryError("C kernel could not allocate its run state")
    return tuple(best), *out
