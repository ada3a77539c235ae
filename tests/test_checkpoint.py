"""The checkpoint format, its writer process and the loader's checks."""

import ast
import io
import platform
import resource
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chbs import checkpoint, graphs, stepper
from chbs.errors import ParseError
from conftest import printf, printf_blocks

# what the writer process may import: it starts with -I -S, and finds
# numpy in the directory of the parent's numpy
WRITER_IMPORTS = {"fcntl", "numpy", "os", "signal", "struct", "subprocess",
                  "sys", "threading"}


def assert_printf(text, values):
    """``text`` is ``values`` printed by ``%.17g``; a failure names the
    first values that differ rather than diffing megabytes."""
    want = printf(values)
    if text != want:
        bad = [(g, w) for g, w in zip(text.split(" "), want.split(" "))
               if g != w]
        pytest.fail("got/want %r, lengths %d/%d"
                    % (bad[:5], len(text), len(want)))


def edge_values():
    # subnormal, normal and largest extremes, and each power of ten in
    # range with both neighbours: the switches to exponent notation below
    # 1e-4 and from 1e17 are among them
    edges = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             0.0, np.inf, np.nan]
    for p in range(-300, 301):
        v = float("1e%d" % p)
        edges += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


@pytest.fixture(scope="module")
def traj(tiny_ops):
    pair = graphs.preset_pair("regular")
    phi0 = 0.3 * np.random.default_rng(3).uniform(-1, 1,
                                                  tiny_ops.mesh.n_bulk)
    params = stepper.SchemeParams(h=1e-3, t_final=4e-3, eps=0.5)
    out = stepper.run(stepper.problem_data(tiny_ops, phi0, pair), params,
                      tiny_ops)
    assert out.ok
    return out


def rows(state):
    return [getattr(state, name) for name in checkpoint.FIELDS]


def assert_states_equal(got, want):
    assert [s.n for s in got] == [s.n for s in want]
    for a, b in zip(got, want):
        assert a.t == b.t
        for x, y in zip(rows(a), rows(b)):
            assert np.array_equal(x, y)


def test_writer_imports_only_the_allowed_stdlib():
    with open(checkpoint.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names.add(node.module.split(".")[0])
    assert not names & {"chbs", "scipy"}
    assert names <= WRITER_IMPORTS, names - WRITER_IMPORTS


def one_row(values):
    """The line that ``format_block`` prints for the one row ``values``."""
    head, row, end = checkpoint.format_block(0, 0.0, [values]).split("\n")
    assert (head, end) == ("state 0 0", "")
    return row


class TestFormatRowIsPrintf:
    """A row of ``format_block``, the writer's kernel, is ``%.17g``."""

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.floats(), max_size=40))
    def test_any_floats(self, values):
        # st.floats() draws NaN, both infinities, both zeros and
        # subnormals too
        row = np.array(values, dtype=np.float64)
        assert_printf(one_row(row), values)
        block = checkpoint.format_block(3, 0.5, [row, row[::-1]])
        head, first, second, end = block.split("\n")
        assert (head, end) == ("state 3 0.5", "")
        assert_printf(first, row)
        assert_printf(second, row[::-1])

    def test_signed_zeros(self):
        values = np.array([0.0, -0.0, 1.5, -0.0, -2.0, 0.0])
        assert one_row(values) == printf(values) \
            == "0 -0 1.5 -0 -2 0"

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(15).integers(
            0, 2 ** 64, 10 ** 5, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert_printf(one_row(values), values)

    def test_edge_values(self):
        values = edge_values()
        assert_printf(one_row(values), values)

    def test_exact_ties_round_half_even(self):
        values = np.array([1234567890123456.25, 1234567890123456.75])
        assert one_row(values) == printf(values) \
            == "1234567890123456.2 1234567890123456.8"

    def test_rows_and_lists_alike(self, traj):
        for state in traj.states:
            for row in rows(state):
                assert_printf(one_row(row), row)
                assert_printf(one_row(row.tolist()), row)
        assert one_row([]) == printf([]) == ""


def served(path, blocks):
    """The bytes ``serve`` writes to ``path`` for ``blocks`` of
    ``(n, t, rows)``, read from and answered on in-memory streams."""
    src = io.BytesIO(b"".join(checkpoint.encode_block(path, n, t, rows)
                              for n, t, rows in blocks)
                     + checkpoint.encode_close(path))
    replies = io.BytesIO()
    assert checkpoint.serve(src, replies) == 0
    assert replies.getvalue() == checkpoint._REPLY.pack(0)
    return path.read_bytes()


def assert_served(path, blocks):
    """``serve`` prints ``blocks`` byte for byte as ``format_block`` and
    as ``%.17g`` do."""
    got = served(path, blocks)
    assert got == "".join(checkpoint.format_block(*block)
                          for block in blocks).encode("ascii")
    assert got == "".join(
        "state %d %.17g\n" % (n, t) + "".join(printf(row) + "\n"
                                              for row in rows)
        for n, t, rows in blocks).encode("ascii")


class TestServeIsPrintf:
    def test_rows_of_no_and_one_value(self, tmp_path):
        # an empty row still prints its line
        assert_served(tmp_path / "c.txt", [(0, 0.0, [[], [], [], []]),
                                           (1, 0.5, [[1.5], [], [-0.0], []]),
                                           (2, 1.0, [[], [2.0], [], [3.0]])])

    @pytest.mark.parametrize("end", [np.nan, np.inf, -np.inf, 5e-324,
                                     -2.2250738585072009e-308,
                                     1234567890123456.25,
                                     1234567890123456.75])
    def test_special_values_end_rows_and_blocks(self, tmp_path, end):
        # the value the kernel leaves to %.17g, before each newline
        assert_served(tmp_path / "c.txt", [
            (0, 0.0, [[0.1, end], [end], [1e300, -2.5, end], [end]]),
            (1, 0.5, [[end, 3.0, end], [], [2.0], [-1e-5, end]])])

    @settings(derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.floats(), max_size=12), min_size=4,
                    max_size=4))
    def test_any_row_lengths(self, tmp_path, rows):
        assert_served(tmp_path / "c.txt", [(7, 0.25, rows),
                                           (8, 0.5, rows[::-1])])


def test_rows_of_other_types_are_sent_as_float64(tmp_path):
    # the pipe carries float64 whatever a row's type: a float32 row cut
    # its body short, so that the writer took the close for the rest of
    # it, and an int32 row crashed the writer
    rows = [np.arange(-20, 20, dtype=np.int32),
            np.linspace(-1, 1, 40, dtype=np.float32),
            np.arange(3), [0.5, 2]]
    path = tmp_path / "checkpoints.txt"
    with checkpoint.Writer() as writer:
        # a writer still waiting for bytes is killed, so that the close
        # raises rather than hangs
        timer = threading.Timer(60, writer._proc.kill)
        timer.start()
        try:
            with checkpoint.Stream(writer, path) as stream:
                stream(SimpleNamespace(
                    n=0, t=0.0, **dict(zip(checkpoint.FIELDS, rows))), None)
        finally:
            timer.cancel()
    assert path.read_text() == checkpoint.format_block(0, 0.0, rows)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the writer's malloc thresholds are glibc's")
def test_writer_keeps_its_pages(tmp_path):
    # with glibc's default thresholds the writer hands the ~2 MB of
    # buffers of each desk block back to the OS and faults them in
    # again: about 4k minor faults for its numpy import plus about 470
    # per block, 21k for these 40 blocks (glibc 2.36, x86-64).  With its
    # thresholds it takes about 5k in all.  The bound is 10k.
    gen = np.random.default_rng(5)
    state = SimpleNamespace(t=0.0, **{
        name: gen.standard_normal(size)  # 13 442 values, a desk block
        for name, size in zip(checkpoint.FIELDS, (6561, 6561, 160, 160))})
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    with checkpoint.Writer() as writer, \
            checkpoint.Stream(writer, tmp_path / "c.txt") as stream:
        for state.n in range(40):
            stream(state, None)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert faults < 10000, faults


def test_cut_stream_keeps_complete_blocks(traj, tmp_path):
    first, second, third = traj.states[:3]
    path = tmp_path / "checkpoints.txt"
    blocks = [checkpoint.encode_block(path, s.n, s.t, rows(s))
              for s in (first, second, third)]
    # the third block stops after its header and half of its phi row
    cut = len(blocks[2]) - 8 * sum(r.size for r in rows(third)) \
        + 8 * (third.phi.size // 2)
    proc = subprocess.run(checkpoint.writer_command(),
                          input=blocks[0] + blocks[1] + blocks[2][:cut],
                          stdout=subprocess.PIPE, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""  # no close, so no answer
    assert path.read_text() == printf_blocks([first, second])
    assert_states_equal(stepper.load_states(path), [first, second])


def test_empty_rows_roundtrip(traj, tmp_path):
    # an empty row is printed as an empty line inside its block
    empty = np.array([])
    states = [stepper.SchemeState(0, 0.0, np.array([1.0]), np.array([2.0]),
                                  empty, empty),
              traj.states[1],
              stepper.SchemeState(2, 0.5, empty, empty, empty, empty)]
    path = tmp_path / "checkpoints.txt"
    with checkpoint.Writer() as writer, \
            checkpoint.Stream(writer, path) as stream:
        for state in states:
            stream(state, None)
    assert path.read_text() == printf_blocks(states)
    assert path.read_text().startswith("state 0 0\n1\n2\n\n\nstate 1 ")
    assert_states_equal(stepper.load_states(path), states)


def test_interleaved_files_each_get_their_blocks(traj, tmp_path):
    # two files on one pipe, their blocks alternating, and a third that
    # cannot be opened: each close answers for its own file only
    paths = [tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "dir"]
    paths[2].mkdir()
    states = traj.states[:3]
    message = b"".join(checkpoint.encode_block(path, s.n, s.t, rows(s))
                       for s in states for path in paths)
    message += b"".join(map(checkpoint.encode_close, paths))
    proc = subprocess.run(checkpoint.writer_command(), input=message,
                          stdout=subprocess.PIPE, timeout=60)
    assert proc.returncode == 1  # one file failed
    answers = []
    rest = proc.stdout
    while rest:
        (size,) = checkpoint._REPLY.unpack(rest[:checkpoint._REPLY.size])
        rest = rest[checkpoint._REPLY.size:]
        answers.append(rest[:size].decode())
        rest = rest[size:]
    assert answers[:2] == ["", ""] and answers[2] and len(answers) == 3
    for path in paths[:2]:
        assert path.read_text() == printf_blocks(states)


def test_run_that_raises_leaves_the_blocks_before(tiny_ops, tmp_path):
    pair = graphs.preset_pair("regular")
    phi0 = 0.3 * np.random.default_rng(4).uniform(-1, 1,
                                                  tiny_ops.mesh.n_bulk)
    params = stepper.SchemeParams(h=1e-3, t_final=6e-3, eps=0.5)
    data = stepper.problem_data(tiny_ops, phi0, pair)
    seen = []

    def crash(state, report):
        seen.append(state)
        if state.n == 2:
            raise RuntimeError("crash after step 2")

    path = tmp_path / "checkpoints.txt"
    with pytest.raises(RuntimeError):
        with checkpoint.Writer() as writer, \
                checkpoint.Stream(writer, path) as stream:
            stepper.run(data, params, tiny_ops, hooks=(stream, crash))
    assert path.read_text() == printf_blocks(seen)


def test_threads_sharing_a_writer_each_get_their_own_file(tmp_path):
    # more streaming threads than cores, switching as often as the
    # interpreter allows: every file holds exactly its own blocks, and
    # only the stream whose file cannot be written hears of a failure
    gen = np.random.default_rng(9)
    paths = [tmp_path / ("f%d.txt" % i) for i in range(5)] + [tmp_path]
    states = {path: [SimpleNamespace(
        n=n, t=n / 8, **{name: gen.standard_normal(size)
                         for name, size in zip(checkpoint.FIELDS,
                                               (900, 900, 60, 60))})
        for n in range(12)] for path in paths}
    errors = {}

    def feed(writer, path):
        try:
            with checkpoint.Stream(writer, path) as stream:
                for state in states[path]:
                    stream(state, None)
        except OSError as exc:
            errors[path] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # the writer's exit status reports the failed file too
        with pytest.raises(OSError, match="exited with status 1"), \
                checkpoint.Writer() as writer:
            threads = [threading.Thread(target=feed, args=(writer, path))
                       for path in paths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert list(errors) == [tmp_path]
    assert "checkpoint writer for %s: " % tmp_path in str(errors[tmp_path])
    for path in paths[:-1]:
        assert path.read_text() == printf_blocks(states[path])


class TestLoaderRejectsCutFiles:
    def test_every_cut_inside_the_last_block(self, traj, tmp_path):
        text = printf_blocks(traj.states)
        last = len(printf_blocks(traj.states[-1:]))
        path = tmp_path / "cut.txt"
        for cut in range(1, last):
            path.write_text(text[:-cut])
            with pytest.raises(ParseError):
                stepper.load_states(path)
        path.write_text(text[:-last])
        assert len(stepper.load_states(path)) == len(traj.states) - 1

    @pytest.mark.parametrize("short", (1, 3), ids=("mu", "w"))
    def test_rows_of_unequal_length(self, traj, tmp_path, short):
        state = traj.states[-1]
        cut = [r.tolist() for r in rows(state)]
        cut[short] = cut[short][:-1]
        path = tmp_path / "cut.txt"
        path.write_text(checkpoint.format_block(state.n, state.t, cut))
        with pytest.raises(ParseError, match="unequal length"):
            stepper.load_states(path)

