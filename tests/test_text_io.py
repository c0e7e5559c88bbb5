"""The columnar text writer against np.savetxt, kept here as the oracle:
every table the program writes must be byte for byte what
np.savetxt(fmt="%.17g") wrote for the same columns.  The mode-field reader
is held the same way to one serial np.loadtxt parse."""
import ast
import gzip
import json
import os
import pathlib
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import phonocool
from phonocool import (ModeField, SystemParams, ThreeWaveParams, ThreeWaveState,
                       evolve_three_wave, load_mode_field, phonon_spectrum,
                       save_curve, save_mode_field)
from phonocool import core, langevin
from phonocool.cli import main


def savetxt_bytes(tmp_path, columns, header, delimiter=",", comments="# "):
    path = tmp_path / "oracle.txt"
    np.savetxt(path, np.column_stack(columns), fmt="%.17g",
               delimiter=delimiter, header=header, comments=comments)
    return path.read_bytes()


def rewritten_by_savetxt(tmp_path, path):
    """What np.savetxt writes for the '# ' header lines and the numbers
    that the CSV file at `path` holds."""
    lines = pathlib.Path(path).read_text().splitlines()
    header = "\n".join(ln[2:] for ln in lines if ln.startswith("# "))
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return savetxt_bytes(tmp_path, list(data.T), header)


SPECIAL = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308,
                    0.1, 1.0 / 3.0, -2.5e-310, 123456789.0, 1.0])


@pytest.mark.parametrize("header", ["", "one line", "two\nlines"])
def test_special_values_and_headers(tmp_path, header):
    columns = [SPECIAL, SPECIAL[::-1].copy(), -SPECIAL]
    core._write_columns(tmp_path / "out.csv", header, columns)
    assert ((tmp_path / "out.csv").read_bytes()
            == savetxt_bytes(tmp_path, columns, header))


@pytest.mark.parametrize("n", [0, core._ROWS - 1, core._ROWS, core._ROWS + 1,
                               5 * core._ROWS + 1])
def test_row_counts_around_the_chunk_size(tmp_path, n):
    # zero rows writes the header only
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n), np.arange(n) * 0.5]
    core._write_columns(tmp_path / "out.csv", "h", columns)
    assert ((tmp_path / "out.csv").read_bytes()
            == savetxt_bytes(tmp_path, columns, "h"))


def test_one_row(tmp_path):
    columns = [np.array([2.0]), np.array([-0.0]), np.array([np.nan])]
    core._write_columns(tmp_path / "out.txt", "a b", columns, delimiter=" ",
                        comments="")
    assert ((tmp_path / "out.txt").read_bytes()
            == savetxt_bytes(tmp_path, columns, "a b", " ", ""))


def test_complex_column_is_its_real_and_imaginary_parts(tmp_path):
    z = np.empty(SPECIAL.size, dtype=complex)
    z.real, z.imag = SPECIAL, SPECIAL[::-1]
    core._write_columns(tmp_path / "out.csv", "t, Re, Im", [-SPECIAL, z])
    assert ((tmp_path / "out.csv").read_bytes() == savetxt_bytes(
        tmp_path, [-SPECIAL, z.real, z.imag], "t, Re, Im"))


def test_preformatted_text_column(tmp_path):
    x = np.array([0.1, -0.0, 1e-300, 3.0])
    text = np.array(["%.17g" % v for v in x], dtype=object)
    y = np.array([1.5, 2.5, np.inf, -7.0])
    core._write_columns(tmp_path / "out.csv", "x, y", [text, y])
    assert ((tmp_path / "out.csv").read_bytes()
            == savetxt_bytes(tmp_path, [x, y], "x, y"))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_suffix_matches_savetxt(tmp_path, suffix):
    columns = [np.linspace(0.0, 1.0, 3000), np.linspace(5.0, -5.0, 3000)]
    path = tmp_path / f"out.csv{suffix}"
    core._write_columns(path, "h", columns)
    np.savetxt(tmp_path / f"ref.csv{suffix}", np.column_stack(columns),
               fmt="%.17g", delimiter=",", header="h")
    with core._open_text(path, "rt") as got, \
            core._open_text(tmp_path / f"ref.csv{suffix}", "rt") as ref:
        assert got.read() == ref.read()
    assert not path.read_bytes().startswith(b"# h")


_ENCODE = """
import sys
import numpy as np
from phonocool import Trajectory
traj = Trajectory(np.arange(3.0), *(np.full(3, 0.5 - 1j),) * 3)


def outcome(write, path):
    try:
        write(path)
    except UnicodeEncodeError:
        return "UnicodeEncodeError"
    with open(path, "rb") as fh:
        return fh.read().hex()


unit = sys.argv[1]
header = (f"time unit: {unit}; amplitudes dimensionless\\n"
          "t, Re(a1), Im(a1), Re(a2), Im(a2), Re(u), Im(u)")
data = np.column_stack([traj.t, traj.a1.real, traj.a1.imag, traj.a2.real,
                        traj.a2.imag, traj.u.real, traj.u.imag])
print(outcome(lambda p: traj.save_csv(p, time_unit=unit), sys.argv[2]))
print(outcome(lambda p: np.savetxt(p, data, fmt="%.17g", delimiter=",",
                                   header=header), sys.argv[3]))
"""


@pytest.mark.parametrize("env", [{}, {"PYTHONUTF8": "0", "LC_ALL": "C",
                                      "PYTHONCOERCECLOCALE": "0"}],
                         ids=["default-locale", "ascii-locale"])
@pytest.mark.parametrize("unit", ["s", "µs", "τ"])
def test_header_encoding_follows_savetxt(tmp_path, env, unit):
    # both write in the locale's encoding: a unit it cannot encode raises
    # UnicodeEncodeError from both, anything else gives the same bytes
    src = os.path.dirname(os.path.dirname(phonocool.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _ENCODE, unit, str(tmp_path / "got.csv"),
         str(tmp_path / "ref.csv")], check=True, capture_output=True,
        text=True, timeout=60, env={**os.environ, **env, "PYTHONPATH": src})
    got, ref = out.stdout.split()
    assert got == ref
    if env and unit != "s":
        assert got == "UnicodeEncodeError"


# ---------------------------------------------------------------------------
# the five writing sites


def test_cli_csv_is_savetxt(tmp_path):
    for argv in (["sweep", "--axis", "g1", "--from", "0.1", "--to", "0.4",
                  "--count", "7", "--scale", "log", "--metric", "occupancy:2"],
                 ["cooling-ratio", "--mode", "1"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--g1", "0.3", "--gamma1", "0.01", "--gamma2",
                            "0.02", "--omega", "0.1", "--nbar1", "100",
                            "--output", str(out)]) == 0
        assert out.read_bytes() == rewritten_by_savetxt(tmp_path, out)


def test_save_curve_is_savetxt(tmp_path):
    p = SystemParams(kappa2=2.0, omega=0.1, gamma1=0.01, gamma2=0.02, g1=0.3,
                     g2=0.2, nbar1=100.0)
    curve = phonon_spectrum(p, 1, np.linspace(-3.0, 3.0, 2049))
    save_curve(tmp_path / "s.csv", curve, p)
    header = ("kind: phonon1\nnormalized: False\n"
              "columns: omega_over_kappa2, S [1/(rad/s) in kappa2 units]")
    assert ((tmp_path / "s.csv").read_bytes() == savetxt_bytes(
        tmp_path, [curve.omegas / 2.0, curve.values], header))


def test_trajectory_csv_is_savetxt(tmp_path):
    traj = evolve_three_wave(
        ThreeWaveParams(beta=0.5 + 0.1j, pump=1.0, kappa1=0.3, kappa2=1.0,
                        Gamma=0.05),
        ThreeWaveState(a1=1.0, a2=0.1j, u=0.2), 30.0, 0.01)
    traj.save_csv(tmp_path / "t.csv", time_unit="ms")
    header = ("time unit: ms; amplitudes dimensionless\n"
              "t, Re(a1), Im(a1), Re(a2), Im(a2), Re(u), Im(u)")
    assert ((tmp_path / "t.csv").read_bytes() == savetxt_bytes(
        tmp_path, [traj.t, traj.a1.real, traj.a1.imag, traj.a2.real,
                   traj.a2.imag, traj.u.real, traj.u.imag], header))


def test_dumped_trajectory_is_savetxt(tmp_path):
    rng = np.random.default_rng(3)
    t = 0.5 * np.arange(1, 1501)
    rec = rng.standard_normal((1500, 3)) + 1j * rng.standard_normal((1500, 3))
    langevin._dump_trajectory(str(tmp_path), 12, t, rec)
    header = "t, Re(a2), Im(a2), Re(b1), Im(b1), Re(b2), Im(b2)"
    assert ((tmp_path / "traj_00012.csv").read_bytes() == savetxt_bytes(
        tmp_path, [t] + [f(rec[:, k]) for k in range(3)
                         for f in (np.real, np.imag)], header))


def _mode_field_savetxt(tmp_path, f):
    """The mode-field writer as it was: every coordinate formatted per row."""
    x, y, z = np.meshgrid(*f.axes, indexing="ij")
    columns = [x.ravel(), y.ravel(), z.ravel()]
    for c in range(3):
        columns += [f.values[..., c].real.ravel(), f.values[..., c].imag.ravel()]
    return savetxt_bytes(tmp_path, columns, " ".join(map(str, f.shape)), " ", "")


def _fields():
    rng = np.random.default_rng(17)
    open_axes = tuple(np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.3
                      for n in (5, 6, 7))
    two = (np.array([0.0, 0.5]), np.array([-1.0, 1e-300]), np.array([1.0, 1e308]))
    special = np.zeros((2, 2, 2, 3), dtype=complex)
    finite = SPECIAL[np.isfinite(SPECIAL)]
    special.real.flat[:finite.size] = finite
    special.imag.flat[-finite.size:] = -finite
    return [
        ModeField(open_axes, rng.standard_normal((5, 6, 7, 3))
                  + 1j * rng.standard_normal((5, 6, 7, 3))),
        ModeField(two, rng.standard_normal((2, 2, 2, 3)) + 0j,
                  periodic=(True, True, True)),
        ModeField(two, special, periodic=(True, False, True)),
    ]


@pytest.mark.parametrize("index", range(3), ids=["non-uniform-open",
                                                 "two-point-periodic",
                                                 "special-values"])
def test_mode_field_is_savetxt(tmp_path, index):
    f = _fields()[index]
    save_mode_field(tmp_path / "f.txt", f)
    assert (tmp_path / "f.txt").read_bytes() == _mode_field_savetxt(tmp_path, f)


def test_no_second_writer_in_the_package():
    # one writer: every table goes through core._write_columns
    calls = []
    for path in pathlib.Path(phonocool.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.Attribute, ast.Name))
                    and getattr(node, "attr", getattr(node, "id", None))
                    in ("savetxt", "column_stack")):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


# ---------------------------------------------------------------------------
# writing over an existing file: the same file, holding the new bytes only

# longer than any output written over it below
OLD = b"an old line that no rewrite may leave behind\n" * 6000
COLUMNS = [np.linspace(-1.0, 1.0, 100), np.arange(100) * 0.5]


def old_file(path, mode=None):
    path.write_bytes(OLD)
    if mode is not None:
        path.chmod(mode)
    return path


def test_a_table_written_over_a_longer_file_is_savetxt(tmp_path):
    path = old_file(tmp_path / "out.csv")
    core._write_columns(path, "h", COLUMNS)
    assert path.read_bytes() == savetxt_bytes(tmp_path, COLUMNS, "h")


@pytest.mark.parametrize("name", ["out.json", "out.json.gz"])
def test_json_written_over_a_longer_file_is_plain_json(tmp_path, name):
    # whatever the suffix: a sidecar or stats path is never compressed
    obj = {"b": [1.5, None], "a": "x"}
    path = old_file(tmp_path / name)
    core._write_json(path, obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_a_compressed_table_written_over_a_longer_file(tmp_path):
    # the same text and the same gzip header as written fresh, but for the
    # time in bytes 4-7
    (tmp_path / "fresh").mkdir()
    fresh = tmp_path / "fresh" / "out.csv.gz"
    path = old_file(tmp_path / "out.csv.gz")
    core._write_columns(fresh, "h", COLUMNS)
    core._write_columns(path, "h", COLUMNS)
    got, want = path.read_bytes(), fresh.read_bytes()
    assert gzip.decompress(got) == savetxt_bytes(tmp_path, COLUMNS, "h")
    assert got[3] & 0x08  # FNAME: the name without .gz, NUL-terminated
    assert got[10:got.index(b"\0", 10)] == b"out.csv"
    assert got[:4] + got[8:] == want[:4] + want[8:]


def test_a_symlink_stays_a_link_and_its_target_gets_the_bytes(tmp_path):
    target = old_file(tmp_path / "target.csv")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    core._write_columns(link, "h", COLUMNS)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == savetxt_bytes(tmp_path, COLUMNS, "h")


def test_a_hard_link_sees_the_bytes(tmp_path):
    path = old_file(tmp_path / "out.csv")
    os.link(path, tmp_path / "other.csv")
    inode = path.stat().st_ino
    core._write_columns(path, "h", COLUMNS)
    assert path.stat().st_ino == inode
    assert ((tmp_path / "other.csv").read_bytes()
            == savetxt_bytes(tmp_path, COLUMNS, "h"))


def test_the_mode_of_an_existing_file_is_kept(tmp_path):
    table = old_file(tmp_path / "out.csv", 0o600)
    record = old_file(tmp_path / "out.json", 0o600)
    core._write_columns(table, "h", COLUMNS)
    core._write_json(record, {})
    assert stat.S_IMODE(table.stat().st_mode) == 0o600
    assert stat.S_IMODE(record.stat().st_mode) == 0o600


@pytest.mark.parametrize("umask", [0o000, 0o022, 0o077],
                         ids=lambda m: f"umask-{m:03o}")
def test_a_new_file_gets_the_mode_that_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "open.txt", "w"):
            pass
        core._write_columns(tmp_path / "new.csv", "h", COLUMNS)
        core._write_json(tmp_path / "new.json", {})
    finally:
        os.umask(previous)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("open.txt", "new.csv", "new.json")}
    assert modes == {0o666 & ~umask}


def test_writing_to_the_null_device():
    # a character device is written, never cut
    core._write_columns(os.devnull, "h", COLUMNS)
    core._write_json(os.devnull, {"a": 1})
    assert not stat.S_ISREG(os.stat(os.devnull).st_mode)


# ---------------------------------------------------------------------------
# the forked writer: the same bytes whatever the CPU count

F = core._FORK_CELLS
_FORK = os.fork


def use_cpus(monkeypatch, cpus):
    """Give the writer `cpus` CPUs; returns the list that each fork appends
    to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []

    def counted():
        forks.append(cpus)
        return _FORK()
    monkeypatch.setattr(os, "fork", counted)
    return forks


def refuse_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")
    monkeypatch.setattr(os, "fork", fork)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def written(tmp_path, monkeypatch, cpus, name, write):
    """(bytes, forks): what write(path) leaves at <cpus>/name, with `cpus`
    CPUs, and how many children it forked; none is left."""
    forks = use_cpus(monkeypatch, cpus)
    path = tmp_path / str(cpus) / name
    path.parent.mkdir()
    write(path)
    assert_no_child()
    return path.read_bytes(), len(forks)


def serial_and_forked(tmp_path, monkeypatch, cpus, name, write):
    serial, forks = written(tmp_path, monkeypatch, 1, name, write)
    assert forks == 0
    forked, forks = written(tmp_path, monkeypatch, cpus, name, write)
    return serial, forked, forks


@pytest.mark.parametrize("cells", [F - 1, F, F + 1, 2 * F - 1, 2 * F,
                                   2 * F + 1])
def test_forked_bytes_around_the_threshold(tmp_path, monkeypatch, cells):
    # each range holds at least F cells, so the first fork is at 2F
    column = np.random.default_rng(cells).standard_normal(cells)
    serial, forked, forks = serial_and_forked(
        tmp_path, monkeypatch, 2, "out.csv",
        lambda p: core._write_columns(p, "h", [column]))
    assert forked == serial
    assert forks == (cells >= 2 * F)


@pytest.mark.parametrize("rows, cpus, forks", [(3 * F // 2 + 7, 3, 2),
                                               (3 * F // 2 + 7, 8, 2),
                                               (0, 8, 0)],
                         ids=["uneven-3-cpus", "more-cpus-than-ranges",
                              "no-rows"])
def test_forked_row_ranges(tmp_path, monkeypatch, rows, cpus, forks):
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows), np.arange(rows) * 0.5]
    serial, forked, got = serial_and_forked(
        tmp_path, monkeypatch, cpus, "out.csv",
        lambda p: core._write_columns(p, "two\nlines", columns))
    assert forked == serial == savetxt_bytes(tmp_path, columns, "two\nlines")
    assert got == forks


def test_forked_complex_column(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    t = np.arange(F) * 0.01
    z = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    z.real[:SPECIAL.size], z.imag[:SPECIAL.size] = SPECIAL, SPECIAL[::-1]
    serial, forked, forks = serial_and_forked(
        tmp_path, monkeypatch, 2, "out.csv",
        lambda p: core._write_columns(p, "t, Re, Im", [t, z]))
    assert forked == serial
    assert forks == 1


def _field(n):
    rng = np.random.default_rng(n)
    axes = tuple(np.cumsum(rng.uniform(0.01, 1.0, n)) for _ in range(3))
    return ModeField(axes, rng.standard_normal((n, n, n, 3))
                     + 1j * rng.standard_normal((n, n, n, 3)))


def test_forked_mode_field(tmp_path, monkeypatch):
    # 32^3 rows x 9 columns: four ranges' worth, split over 3 CPUs
    f = _field(32)
    serial, forked, forks = serial_and_forked(
        tmp_path, monkeypatch, 3, "f.txt",
        lambda p: save_mode_field(p, f))
    assert forked == serial
    assert forks == 2


def test_forked_compressed_mode_field(tmp_path, monkeypatch):
    # gzip stores the time of writing in bytes 4-7 of its header
    f = _field(26)
    serial, forked, forks = serial_and_forked(
        tmp_path, monkeypatch, 2, "f.txt.gz",
        lambda p: save_mode_field(p, f))
    assert forked[:4] + forked[8:] == serial[:4] + serial[8:]
    assert forks == 1


def test_forked_non_ascii_text(tmp_path, monkeypatch):
    # a header and preformatted text outside ASCII: the same bytes, or the
    # same UnicodeEncodeError where the locale cannot encode them
    text = np.array(["−0.5", "ω"] * F, dtype=object)
    y = np.arange(2 * F) * 0.25

    def write(path):
        try:
            core._write_columns(path, "ω [rad/s], S(ω)", [text, y])
        except UnicodeEncodeError:
            path.write_bytes(b"UnicodeEncodeError")
    serial, forked, forks = serial_and_forked(tmp_path, monkeypatch, 2,
                                              "out.csv", write)
    assert forked == serial
    assert forks == 1


class _Unprintable:
    def __str__(self):
        raise ValueError("no text for this row")


def test_a_failed_child_raises(tmp_path, monkeypatch):
    # the last row is in the child's range; the longer file written over
    # holds the parent's rows and none of its old bytes
    text = np.array(["1"] * F, dtype=object)
    text[-1] = _Unprintable()
    path = old_file(tmp_path / "out.csv")
    forks = use_cpus(monkeypatch, 2)
    with pytest.raises(OSError, match="child failed"):
        core._write_columns(path, "h", [text, text])
    assert len(forks) == 1
    assert_no_child()
    assert path.read_bytes() == b"# h\n" + b"1,1\n" * (F // 2)


class _Stalled(_Unprintable):
    """Text that no process can format; a forked child takes 20 s to
    fail."""
    parent = os.getpid()

    def __str__(self):
        if os.getpid() != self.parent:
            time.sleep(20)
        return super().__str__()


def test_a_failure_in_the_parent_kills_the_child(tmp_path, monkeypatch):
    # the child cannot finish: it is killed, not waited for; the longer
    # file written over holds the header alone
    text = np.full(2 * F, _Stalled(), dtype=object)
    path = old_file(tmp_path / "out.csv")
    forks = use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(ValueError, match="no text"):
        core._write_columns(path, "h", [text])
    assert time.monotonic() - start < 5
    assert len(forks) == 1
    assert_no_child()
    assert path.read_bytes() == b"# h\n"


def test_cpu_count_without_an_affinity_mask(tmp_path, monkeypatch):
    column = np.arange(2 * F) * 1.5
    forks = use_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    core._write_columns(tmp_path / "out.csv", "", [column])
    assert len(forks) == 1
    assert_no_child()
    assert ((tmp_path / "out.csv").read_bytes()
            == savetxt_bytes(tmp_path, [column], ""))


def test_no_fork_while_another_thread_is_alive(tmp_path, monkeypatch):
    column = np.arange(4 * F) * 0.5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    refuse_fork(monkeypatch)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        core._write_columns(tmp_path / "out.csv", "h", [column])
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert ((tmp_path / "out.csv").read_bytes()
            == savetxt_bytes(tmp_path, [column], "h"))


def test_no_fork_for_a_spectrum(tmp_path, monkeypatch):
    # 4001 x 2 cells, far under the threshold
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    refuse_fork(monkeypatch)
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--gamma1", "0.01", "--gamma2", "0.01",
                 "--nbar1", "1", "--output", str(out)]) == 0
    assert len(np.loadtxt(out, delimiter=",")) == 4001


# ---------------------------------------------------------------------------
# the forked reader: the same arrays as one np.loadtxt parse


def loadtxt_field(path):
    """(axes, values) as one serial np.loadtxt parse reads them."""
    with core._open_text(path, "rt") as fh:
        nx, ny, nz = map(int, fh.readline().split())
        data = np.loadtxt(fh)
    coords = data[:, :3].reshape(nx, ny, nz, 3)
    return ((coords[:, 0, 0, 0], coords[0, :, 0, 1], coords[0, 0, :, 2]),
            (data[:, 3::2] + 1j * data[:, 4::2]).reshape(nx, ny, nz, 3))


def assert_same_field(f, path):
    axes, values = loadtxt_field(path)
    for got, want in zip(f.axes, axes):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(f.values.view(np.uint64), values.view(np.uint64))


def loaded(monkeypatch, cpus, path):
    """(field, forks, ranges): load_mode_field(path) with `cpus` CPUs, how
    many children it forked, and the byte ranges that the parent parsed;
    no child is left."""
    forks = use_cpus(monkeypatch, cpus)
    ranges, rows = [], core._Range.rows

    def spy(self):
        ranges.append((self.pos, self.hi))
        return rows(self)
    monkeypatch.setattr(core._Range, "rows", spy)
    try:
        return load_mode_field(path), len(forks), ranges
    finally:
        assert_no_child()


def field_file(tmp_path, shape, name="f.txt"):
    rng = np.random.default_rng(shape)
    axes = tuple(np.cumsum(rng.uniform(0.01, 1.0, n)) for n in shape)
    path = tmp_path / name
    save_mode_field(path, ModeField(axes, rng.standard_normal(shape + (3,))
                                    + 1j * rng.standard_normal(shape + (3,))))
    return path


def assert_range_zero_only(path, ranges, forks):
    # the parent parsed its own range alone, ending at a line end
    text = path.read_bytes()
    assert len(ranges) == 1
    (lo, hi), = ranges
    assert text[lo - 1:lo] == text[hi - 1:hi] == b"\n"
    assert 0 < hi - lo < len(text) - lo
    assert forks >= 1


@pytest.mark.parametrize("m, cpus, forks", [(3640, 2, 0), (3641, 2, 1),
                                            (5461, 3, 1), (5462, 3, 2)])
def test_forked_reads_around_the_threshold(tmp_path, monkeypatch, m, cpus,
                                           forks):
    # 2 x 2 x m rows of 9 values: the first fork at 2F cells, the second
    # at 3F, as the writer splits
    path = field_file(tmp_path, (2, 2, m))
    f, got, ranges = loaded(monkeypatch, cpus, path)
    assert_same_field(f, path)
    assert got == forks
    if forks:
        assert_range_zero_only(path, ranges, forks)


def test_forked_read_uneven_split_more_cpus_than_ranges(tmp_path,
                                                        monkeypatch):
    path = field_file(tmp_path, (3, 7, 1093))  # 3.003 F cells
    f, forks, ranges = loaded(monkeypatch, 8, path)
    assert_same_field(f, path)
    assert forks == 2
    assert_range_zero_only(path, ranges, forks)


def test_forked_read_comments_and_blank_lines_across_cuts(tmp_path,
                                                          monkeypatch):
    # a block of comment and blank lines at each third of the bytes, so
    # that every cut falls inside one
    path = field_file(tmp_path, (4, 4, 1400))
    lines = path.read_text().splitlines(True)
    block = ["# a comment line " + "x" * 600 + "\n", "\n", "   \n",
             "#\n", "# " + "y" * 600 + "\n", "\n"] * 2
    size = sum(map(len, lines))
    at = np.searchsorted(np.cumsum([len(ln) for ln in lines]),
                         [size / 3, 2 * size / 3])
    for i in sorted(at, reverse=True):
        lines[i + 1:i + 1] = block
    path.write_text("".join(lines))
    f, forks, ranges = loaded(monkeypatch, 3, path)
    assert_same_field(f, path)
    assert forks == 2
    assert_range_zero_only(path, ranges, forks)
    text = path.read_bytes()
    assert text[ranges[0][1]:].lstrip().startswith(b"#")


def test_a_range_without_rows_warns_nothing(tmp_path, monkeypatch):
    # comment lines fill the first half of the bytes: the parent's range
    # holds no row, which np.loadtxt warns about; the whole file does not
    path = field_file(tmp_path, (2, 3, 2500))
    header, rows = path.read_text().split("\n", 1)
    comments = ("# " + "c" * 78 + "\n") * (len(rows) // 80 + 1)
    path.write_text(header + "\n" + comments + rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f, forks, _ = loaded(monkeypatch, 2, path)
    assert caught == []
    assert_same_field(f, path)
    assert forks == 1


def test_forked_read_crlf_line_ends(tmp_path, monkeypatch):
    path = field_file(tmp_path, (2, 3, 2500))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    f, forks, ranges = loaded(monkeypatch, 2, path)
    assert_same_field(f, path)
    assert forks == 1
    assert_range_zero_only(path, ranges, forks)


def test_lone_cr_line_ends_are_read_serially(tmp_path, monkeypatch):
    # no "\n" to cut at, and tell() after the header is no byte offset
    path = field_file(tmp_path, (2, 3, 2500))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    f, forks, ranges = loaded(monkeypatch, 2, path)
    assert_same_field(f, path)
    assert (forks, ranges) == (0, [])


def test_compressed_read_stays_serial(tmp_path, monkeypatch):
    path = field_file(tmp_path, (2, 3, 2500), "f.txt.gz")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    refuse_fork(monkeypatch)
    assert_same_field(load_mode_field(path), path)
    assert_no_child()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_pipe_is_read_serially(tmp_path, monkeypatch):
    # a pipe can be neither cut nor told its position: it streams serially
    source = field_file(tmp_path, (2, 3, 2500))
    path = tmp_path / "pipe"
    os.mkfifo(path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    refuse_fork(monkeypatch)
    feeder = threading.Thread(target=lambda: path.write_bytes(
        source.read_bytes()), daemon=True)
    feeder.start()
    try:
        f = load_mode_field(path)
    finally:
        feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert_same_field(f, source)


def _serial_error(monkeypatch, path):
    with pytest.raises(ValueError) as serial:
        loadtxt_field(path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ValueError) as ours:
        load_mode_field(path)
    assert str(ours.value) == str(serial.value)
    return str(serial.value)


@pytest.mark.parametrize("where, edit", [
    (0.9, lambda row: row.replace(" ", " x", 1)),  # a child's range
    (0.1, lambda row: row.rsplit(" ", 1)[0] + "\n")],  # the parent's
    ids=["malformed-in-a-child", "short-row-in-the-parent"])
def test_forked_read_raises_the_serial_error(tmp_path, monkeypatch, where,
                                             edit):
    path = field_file(tmp_path, (2, 3, 2500))
    lines = path.read_text().splitlines(True)
    lines[int(where * len(lines))] = edit(lines[int(where * len(lines))])
    path.write_text("".join(lines))
    message = _serial_error(monkeypatch, path)  # line number included
    forks = use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError) as forked:
        load_mode_field(path)
    assert str(forked.value) == message
    assert len(forks) == 1
    assert_no_child()


def test_a_failed_reading_child_gives_the_serial_result(tmp_path,
                                                        monkeypatch):
    # the child writes a wrong but valid array, then fails: the parent
    # must parse serially, not use it
    path = field_file(tmp_path, (2, 3, 2500))
    save = np.save

    def save_then_fail(file, arr, **kw):
        save(file, np.zeros_like(arr), **kw)
        file.flush()
        raise RuntimeError("child failure")
    monkeypatch.setattr(np, "save", save_then_fail)
    f, forks, ranges = loaded(monkeypatch, 2, path)
    assert_same_field(f, path)
    assert forks == 1


def test_no_forked_read_while_another_thread_is_alive(tmp_path, monkeypatch):
    path = field_file(tmp_path, (2, 3, 2500))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    refuse_fork(monkeypatch)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        f = load_mode_field(path)
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert_same_field(f, path)
    assert_no_child()


def test_forked_read_never_holds_the_text(tmp_path, monkeypatch):
    # the parent's peak stays under the size of the file it parses
    path = field_file(tmp_path, (16, 16, 64))
    use_cpus(monkeypatch, 2)
    tracemalloc.start()
    try:
        load_mode_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_no_child()
    assert peak < path.stat().st_size


def test_the_fork_warning_of_python_3_12_is_silenced(tmp_path, monkeypatch):
    # from 3.12, os.fork warns in the parent while a second OS thread runs
    path, fork = field_file(tmp_path, (2, 3, 2500)), _FORK

    def warns():
        if pid := fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-"
                          "threaded, use of fork() may lead to deadlocks in "
                          "the child.", DeprecationWarning, stacklevel=2)
        return pid
    monkeypatch.setitem(globals(), "_FORK", warns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, forks, ranges = loaded(monkeypatch, 2, path)  # the reader
        assert (forks, len(ranges)) == (1, 1)  # not the serial fallback
        assert written(tmp_path, monkeypatch, 2, "f.txt",  # the writer
                       lambda p: save_mode_field(p, f)) == (
                           path.read_bytes(), 1)


def test_os_fork_in_one_function():
    # the writer and the reader share one fork, wait and reap path
    sites = []
    for path in pathlib.Path(phonocool.__file__).parent.glob("*.py"):
        for fn in ast.parse(path.read_text()).body:
            sites += [f"{path.stem}.{getattr(fn, 'name', None)}"
                      for node in ast.walk(fn)
                      if isinstance(node, ast.Attribute) and node.attr == "fork"]
    assert sites == ["core._forked"]
