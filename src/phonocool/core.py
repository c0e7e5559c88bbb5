"""Domain types, parameter validation, unit conventions, and the columnar
text format that every table is written in and every mode field read from.

All rates and frequencies are angular (rad/s).  By convention the cavity
half-linewidth kappa2 is the natural unit: the CLI fixes kappa2 = 1 and
every other rate is a ratio to it, but the types below accept any
consistent unit system.
"""
from __future__ import annotations

import bz2
import contextlib
import gzip
import io
import itertools
import json
import lzma
import math
import os
import shutil
import stat
import tempfile
import threading
import warnings
from dataclasses import dataclass, fields

import numpy as np


class ParameterError(ValueError):
    """A physical parameter violates one of its invariants."""


def _require_finite(name: str, value) -> None:
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ParameterError(f"{name} must be finite, got {value!r}")


def _require_finite_fields(obj) -> None:
    """Reject a dataclass instance with a field that is not finite."""
    for f in fields(obj):
        _require_finite(f.name, getattr(obj, f.name))


@dataclass(frozen=True)
class SystemParams:
    """Parameters of the two-phonon + cavity linear system.

    kappa2   cavity half-linewidth (full linewidth is 2*kappa2)
    delta    cavity detuning from the pump + mean phonon frequency
    omega    phonon half-splitting, (Omega_1 - Omega_2)/2
    gamma1, gamma2   phonon half-widths
    g1, g2   pump-enhanced couplings (complex)
    nbar1, nbar2     thermal occupancies; nbar2 defaults to nbar1
    """

    kappa2: float = 1.0
    delta: float = 0.0
    omega: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    g1: complex = 0j
    g2: complex = 0j
    nbar1: float = 0.0
    nbar2: float | None = None

    def __post_init__(self):
        # normalize field types; nbar2 falls back to nbar1 (two nearby
        # modes at the same ambient temperature)
        if self.nbar2 is None:
            object.__setattr__(self, "nbar2", self.nbar1)
        for f in fields(self):
            kind = complex if f.type == "complex" else float
            object.__setattr__(self, f.name, kind(getattr(self, f.name)))
        validate(self)


def validate(params: SystemParams) -> SystemParams:
    """Check all SystemParams invariants; return the params unchanged.

    Raises ParameterError naming the first violated field.  Every
    SystemParams runs it when built (dataclasses.replace included), so an
    invalid parameter set cannot exist; calling it again is a no-op.
    """
    _require_finite_fields(params)
    if not params.kappa2 > 0:
        raise ParameterError("kappa2 must be positive")
    _require_nonnegative(params, "gamma1", "gamma2", "nbar1", "nbar2")
    return params


def _require_nonnegative(params, *names: str) -> None:
    for name in names:
        if getattr(params, name) < 0:
            raise ParameterError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ThreeWaveParams:
    """Parameters of the deterministic three-wave amplitude equations.

    kappa1, kappa2   optical half-widths of pump and anti-Stokes modes
    Gamma            phonon half-width
    Delta1, Delta2   cavity detunings of the two optical modes
    delta            three-wave frequency mismatch
    beta             complex coupling constant
    pump             dimensionless external drive amplitude
    """

    kappa1: float
    kappa2: float
    Gamma: float
    Delta1: float = 0.0
    Delta2: float = 0.0
    delta: float = 0.0
    beta: complex = 0j
    pump: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "pump", complex(self.pump))
        validate_three_wave(self)


def validate_three_wave(params: ThreeWaveParams) -> ThreeWaveParams:
    """Check ThreeWaveParams invariants; return the params unchanged.

    Raises ParameterError on the first violation; every ThreeWaveParams runs
    it when built.  Zero optical widths are allowed so the lossless
    (Manley-Rowe) regime is representable.
    """
    _require_finite_fields(params)
    _require_nonnegative(params, "kappa1", "kappa2", "Gamma")
    return params


@dataclass(frozen=True)
class ThreeWaveState:
    """Complex amplitudes (a1, a2, u) at the start of a run, t = 0."""

    a1: complex
    a2: complex
    u: complex

    def __post_init__(self):
        _require_finite_fields(self)


# ---------------------------------------------------------------------------
# written records


def _write_json(file, obj) -> None:
    """Write obj to a path or an open text stream as standard JSON (no NaN
    or Infinity) with indent 2, sorted keys and a final newline; nothing is
    written if obj cannot be.  A path is plain JSON whatever its suffix,
    written over its old bytes as _open_text says, for the same reason."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if hasattr(file, "write"):
        file.write(text)
    else:
        with _written_over(file, "w") as fh:
            fh.write(text)


# columnar text files

# compressed by suffix, as numpy's text readers and writers do
_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open,
            ".lzma": lzma.open}
# rows per % call, serial or in a forked child (bytes independent of the
# CPU count); 1024 rows outgrew io.TextIOWrapper's 8 KiB batch: +3.5 MB RSS
_ROWS = 16
_FORK_CELLS = 1 << 16  # the fewest cells that a forked row range holds
# a child's text on its way back: any str survives, and fh encodes it
_CHILD_TEXT = dict(encoding="utf-8", errors="surrogatepass", newline="")


def _open_text(path, mode: str):
    """Open a text file in the default encoding, compressed if its suffix
    is one of _OPENERS.  Writing goes over the old bytes, and a regular file
    is then cut to the new length, finished or raised, with its inode, links
    and mode kept and no fsync: on ext4 a small rewrite cost 50-76 us when
    truncated first, which flushes on close, against 10 us written over."""
    path = os.fspath(path)
    compress = _OPENERS.get(os.path.splitext(path)[1])
    if "w" in mode:
        return _written_over(path, mode, compress)
    return (compress or open)(path, mode)


@contextlib.contextmanager
def _written_over(path, mode: str, compress=None):
    # open()'s 0o666 (os.open's is 0o777); raw.name is gzip's FNAME
    with open(path, "wb", opener=lambda p, flags: os.open(
            p, flags & ~os.O_TRUNC, 0o666)) as raw:
        try:
            with (compress(raw, mode) if compress else
                  open(raw.fileno(), mode, closefd=False)) as fh:
                yield fh
        finally:  # a FIFO, tty or /dev/null is not cut
            if stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
                raw.truncate()


def _write_columns(path, header: str, columns, delimiter: str = ",",
                   comments: str = "# ") -> None:
    """Write equal-length 1D columns as delimited text rows, byte for byte
    what np.savetxt(fmt="%.17g") writes for them.  A complex column is
    written as two, its real and imaginary parts; an object column holds
    text already formatted and is written as is.

    The one writer of every table: CLI CSVs, spectrum curves, three-wave
    trajectories, Monte Carlo dump files and mode fields.  The text is in
    the default encoding (a header it cannot encode raises
    UnicodeEncodeError), formatted _ROWS rows per % call in
    _fork_count(cells) row ranges: forked children format all but the
    first into temporary files, which are appended in order; a failed child
    raises OSError.  The bytes never depend on the number of ranges.
    """
    cols = [part for c in columns
            for part in ((c.real, c.imag) if c.dtype.kind == "c" else (c,))]
    row = delimiter.join("%s" if c.dtype == object else "%.17g"
                         for c in cols) + "\n"
    n = len(cols[0])
    k = _fork_count(n * len(cols))
    bounds = [n * i // k for i in range(k + 1)]
    with _open_text(path, "wt") as fh:
        if header:
            fh.write(comments + header.replace("\n", "\n" + comments) + "\n")
        with _forked(k, lambda i, tmp: _write_rows(
                tmp, row, [c[bounds[i]:bounds[i + 1]] for c in cols]),
                mode="w+", **_CHILD_TEXT) as done:
            _write_rows(fh, row, [c[:bounds[1]] for c in cols])
            for tmp in done:
                shutil.copyfileobj(tmp, fh)


def _write_rows(out, row: str, cols) -> None:
    for lo in range(0, len(cols[0]), _ROWS):
        chunk = [c[lo:lo + _ROWS].tolist() for c in cols]
        out.write(row * len(chunk[0])
                  % tuple(itertools.chain.from_iterable(zip(*chunk))))


def _fork_count(cells: int) -> int:
    """k = min(CPUs, cells // _FORK_CELLS), CPUs from os.sched_getaffinity;
    1 at k < 2, without os.fork, or while another Python thread is alive."""
    k = min(cells // _FORK_CELLS, len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    alone = hasattr(os, "fork") and threading.active_count() == 1
    return k if k > 1 and alone else 1


@contextlib.contextmanager
def _forked(k: int, work, **tmp):
    """Run work(i, file) for i = 1 .. k-1 in forked children, each into its
    own tempfile.TemporaryFile(**tmp); yields an iterator over those files,
    each rewound once its child has exited (OSError if it failed).  On
    leaving, every child not yet reaped is killed and reaped.

    From Python 3.12 os.fork warns that a process with a second OS thread
    (numpy's BLAS pool is one) may deadlock in the child; that warning is
    ignored: a child only formats with %, parses with np.loadtxt and writes
    with np.save, and it makes no BLAS call and takes no lock."""
    files, pids = [], []

    def reaped():
        for file in files:
            if status := os.waitpid(pids.pop(0), 0)[1]:
                raise OSError(f"a forked child failed ({status})")
            file.seek(0)
            yield file
    try:
        for i in range(1, k):
            files.append(tempfile.TemporaryFile(**tmp))
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", r"This process .* is multi-"
                                        r"threaded, use of fork\(\)",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # leaves only through os._exit
                try:
                    work(i, files[-1])
                    files[-1].flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        yield reaped()
    finally:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for file in files:
            file.close()


class _Range(io.RawIOBase):
    """Bytes lo:hi of the file open as descriptor fd, read by os.pread."""

    def __init__(self, fd: int, lo: int, hi: int):
        self.fd, self.pos, self.hi = fd, lo, hi

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self.fd, min(len(buf), self.hi - self.pos), self.pos)
        buf[:len(data)] = data
        self.pos += len(data)
        return len(data)

    def rows(self):
        """np.loadtxt(ndmin=2) of the text, decoded as open() decodes."""
        return np.loadtxt(io.TextIOWrapper(io.BufferedReader(self)), ndmin=2)

    def line_end(self) -> int:
        """The offset just past the first newline, else hi."""
        return self.pos + len(io.BufferedReader(self).readline())


def _read_rows(fh, cells: int):
    """np.loadtxt(fh, ndmin=2) for the rest of the open text file fh, which
    should hold `cells` values, by the rule that load_mode_field states."""
    k = 1  # for one of _OPENERS or a pipe, which cannot be cut, and for a
    # file whose header ends in a lone "\r": tell() then gives a cookie
    # beyond the end that carries the decoder's state, not a byte offset
    if isinstance(fh.buffer, io.BufferedReader) and fh.seekable():
        fd, lo = fh.fileno(), fh.tell()
        size = os.fstat(fd).st_size
        k = _fork_count(cells) if lo <= size else 1
    if k > 1:  # so no other thread sees the warning filter below
        cuts = [lo, *(_Range(fd, lo + (size - lo) * i // k, size).line_end()
                      for i in range(1, k)), size]
        try:  # a failed child, or an error or warning in range 0, ...
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the children's filter too
                with _forked(k, lambda i, file: np.save(
                        file, _Range(fd, *cuts[i:i + 2]).rows(),
                        allow_pickle=False)) as done:
                    parts = [_Range(fd, *cuts[:2]).rows()]
                    parts += [np.load(file) for file in done]
                return np.concatenate(parts)  # fails if the columns differ
        except (OSError, ValueError, Warning):  # ... leaves fh where it was,
            pass  # to be parsed serially, with the serial errors and warnings
    return np.loadtxt(fh, ndmin=2)
