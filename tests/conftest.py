import subprocess

import numpy as np
import pytest

from chbs import checkpoint, diskfem


def printf(values):
    """The oracle of the checkpoint text: Python's own ``%.17g``."""
    return " ".join("%.17g" % v for v in values)


def printf_blocks(states, stride=1):
    """The checkpoint text of every ``stride``-th of ``states``, printed
    by ``%.17g`` without the kernel that the writer prints with."""
    return "".join(
        "state %d %.17g\n" % (s.n, s.t) + "".join(
            printf(getattr(s, name)) + "\n" for name in checkpoint.FIELDS)
        for s in states if s.n % stride == 0)


def renumbered(mesh, seed=0):
    """``mesh`` with its vertices in a random order, and the new index of
    each old vertex.  The copy has no ring numbering."""
    new = np.random.default_rng(seed).permutation(mesh.n_bulk)
    vertices = np.empty_like(mesh.vertices)
    vertices[new] = mesh.vertices
    return diskfem.DiskMesh(vertices, new[mesh.triangles],
                            new[mesh.boundary_loop]), new


@pytest.fixture(scope="session")
def tiny_ops():
    return diskfem.assemble(diskfem.gen_disk_mesh(2, 8))


@pytest.fixture(scope="session")
def tiny_renumbered_ops():
    return diskfem.assemble(renumbered(diskfem.gen_disk_mesh(2, 8))[0])


@pytest.fixture(scope="session")
def small_ops():
    return diskfem.assemble(diskfem.gen_disk_mesh(8, 24))


@pytest.fixture(scope="session")
def desk_ops():
    return diskfem.assemble(diskfem.gen_disk_mesh(40, 160))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def started_processes(monkeypatch):
    """Every ``subprocess.Popen`` the test starts, in order.

    A test that leaves one of them unreaped fails at teardown: a command
    reaps its checkpoint writer on every ending.  The processes left are
    killed and reaped first, so that they do not outlive the test.
    """
    started = []
    init = subprocess.Popen.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(subprocess.Popen, "__init__", recorded)
    yield started
    left = [proc.args for proc in started if proc.returncode is None]
    for proc in started:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    assert not left, "processes left unreaped: %r" % left
