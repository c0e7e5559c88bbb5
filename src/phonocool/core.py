"""Domain types, parameter validation, unit conventions, and the columnar
text format that every written table uses.

All rates and frequencies are angular (rad/s).  By convention the cavity
half-linewidth kappa2 is the natural unit: the CLI fixes kappa2 = 1 and
every other rate is a ratio to it, but the types below accept any
consistent unit system.
"""
from __future__ import annotations

import bz2
import gzip
import itertools
import json
import lzma
import math
import os
from dataclasses import dataclass, fields


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
    """Instantaneous complex amplitudes (a1, a2, u) at time t."""

    a1: complex
    a2: complex
    u: complex
    t: float = 0.0

    def __post_init__(self):
        _require_finite_fields(self)


# ---------------------------------------------------------------------------
# written records


def _write_json(file, obj) -> None:
    """Write obj to a path or an open text stream as standard JSON (no NaN
    or Infinity) with indent 2, sorted keys and a final newline; nothing is
    written if obj cannot be."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if hasattr(file, "write"):
        file.write(text)
    else:
        with open(file, "w") as fh:
            fh.write(text)


# columnar text files

# compressed by suffix, as numpy's text readers and writers do
_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open,
            ".lzma": lzma.open}
# rows per formatting call: a chunk's text stays well under the 8 KiB that
# io.TextIOWrapper batches; longer chunks made a large buffer per write and
# raised peak RSS (1024 rows: +3.5 MB around a 10^5-row trajectory write)
_ROWS = 16


def _open_text(path, mode: str):
    """Open a text file in the default encoding, compressed if its suffix
    is one of _OPENERS."""
    path = os.fspath(path)
    return _OPENERS.get(os.path.splitext(path)[1], open)(path, mode)


def _write_columns(path, header: str, columns, delimiter: str = ",",
                   comments: str = "# ") -> None:
    """Write equal-length 1D columns as delimited text rows, byte for byte
    what np.savetxt(fmt="%.17g") writes for them.  A complex column is
    written as two, its real and imaginary parts; an object column holds
    text already formatted and is written as is."""
    cols = [part for c in columns
            for part in ((c.real, c.imag) if c.dtype.kind == "c" else (c,))]
    row = delimiter.join("%s" if c.dtype == object else "%.17g"
                         for c in cols) + "\n"
    with _open_text(path, "wt") as fh:
        if header:
            fh.write(comments + header.replace("\n", "\n" + comments) + "\n")
        for lo in range(0, len(cols[0]), _ROWS):
            chunk = [c[lo:lo + _ROWS].tolist() for c in cols]
            fh.write(row * len(chunk[0])
                     % tuple(itertools.chain.from_iterable(zip(*chunk))))
