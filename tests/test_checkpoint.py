"""The checkpoint format, its writer process and the loader's checks."""

import ast
import subprocess
import sys

import numpy as np
import pytest

from chbs import checkpoint, graphs, stepper
from chbs.errors import ParseError

# what the writer process may import: it starts with -I -S, without numpy
WRITER_IMPORTS = {"fcntl", "os", "signal", "struct", "subprocess", "sys"}


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
    assert names <= WRITER_IMPORTS, names - WRITER_IMPORTS


def test_cut_stream_keeps_complete_blocks(traj, tmp_path):
    first, second, third = traj.states[:3]
    blocks = [checkpoint.encode_block(s.n, s.t, rows(s))
              for s in (first, second, third)]
    # the third block stops after its header and half of its phi row
    cut = len(blocks[2]) - 8 * sum(r.size for r in rows(third)) \
        + 8 * (third.phi.size // 2)
    path = tmp_path / "checkpoints.txt"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", checkpoint.__file__, str(path)],
        input=blocks[0] + blocks[1] + blocks[2][:cut], timeout=60)
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

