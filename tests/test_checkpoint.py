"""The checkpoint format, its writer process and the loader's checks."""

import ast
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chbs import checkpoint, graphs, stepper
from chbs.errors import ParseError

# what the writer process may import: it starts with -I -S, and finds
# numpy in the directory of the parent's numpy
WRITER_IMPORTS = {"fcntl", "numpy", "os", "signal", "struct", "subprocess",
                  "sys"}


def printf(values):
    """The oracle of the checkpoint text: Python's own ``%.17g``."""
    return " ".join("%.17g" % v for v in values)


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


def saved_text(tmp_path, states):
    path = tmp_path / "saved.txt"
    part = stepper.Trajectory(states, [None] * len(states), None, None)
    stepper.save_trajectory(part, path)
    return path.read_text()


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


class TestFormatRowIsPrintf:
    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.floats(), max_size=40))
    def test_any_floats(self, values):
        # st.floats() draws NaN, both infinities, both zeros and
        # subnormals too
        row = np.array(values, dtype=np.float64)
        assert_printf(checkpoint.format_row(row), values)
        block = checkpoint.format_block(3, 0.5, [row, row[::-1]])
        head, first, second, end = block.split("\n")
        assert (head, end) == ("state 3 0.5", "")
        assert_printf(first, row)
        assert_printf(second, row[::-1])

    def test_signed_zeros(self):
        values = np.array([0.0, -0.0, 1.5, -0.0, -2.0, 0.0])
        assert checkpoint.format_row(values) == printf(values) \
            == "0 -0 1.5 -0 -2 0"

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(15).integers(
            0, 2 ** 64, 10 ** 5, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert_printf(checkpoint.format_row(values), values)

    def test_edge_values(self):
        values = edge_values()
        assert_printf(checkpoint.format_row(values), values)
        head, row, end = checkpoint.format_block(0, 0.0, [values]).split("\n")
        assert (head, end) == ("state 0 0", "")
        assert_printf(row, values)

    def test_exact_ties_round_half_even(self):
        values = np.array([1234567890123456.25, 1234567890123456.75])
        assert checkpoint.format_row(values) == printf(values) \
            == "1234567890123456.2 1234567890123456.8"

    def test_rows_and_lists_alike(self, traj):
        for state in traj.states:
            for row in rows(state):
                assert_printf(checkpoint.format_row(row), row)
                assert_printf(checkpoint.format_row(row.tolist()), row)
        assert checkpoint.format_row([]) == printf([]) == ""


def test_cut_stream_keeps_complete_blocks(traj, tmp_path):
    first, second, third = traj.states[:3]
    blocks = [checkpoint.encode_block(s.n, s.t, rows(s))
              for s in (first, second, third)]
    # the third block stops after its header and half of its phi row
    cut = len(blocks[2]) - 8 * sum(r.size for r in rows(third)) \
        + 8 * (third.phi.size // 2)
    path = tmp_path / "checkpoints.txt"
    proc = subprocess.run(checkpoint.writer_command(path),
                          input=blocks[0] + blocks[1] + blocks[2][:cut],
                          timeout=60)
    assert proc.returncode != 0
    assert path.read_text() == saved_text(tmp_path, [first, second])
    assert_states_equal(stepper.load_states(path), [first, second])


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
        with checkpoint.Stream(path) as stream:
            stepper.run(data, params, tiny_ops, hooks=(stream, crash))
    assert path.read_text() == saved_text(tmp_path, seen)


class TestLoaderRejectsCutFiles:
    def test_every_cut_inside_the_last_block(self, traj, tmp_path):
        text = saved_text(tmp_path, traj.states)
        last = len(saved_text(tmp_path, traj.states[-1:]))
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

