"""P1 finite elements on a triangulated unit disk and its boundary curve.

The mesh generator places a center vertex plus concentric rings; the
outermost ring is the closed boundary polyline.  Assembly produces the
consistent bulk mass/stiffness pair and the periodic 1-D mass/stiffness
pair along the boundary (arc-length Laplacian on the curve).  Each side is a
:class:`Part`; the mean values, the constrained Green solves for zero-mean
data and the dual norms they induce are written once against it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp
from scipy.sparse.linalg import splu

from .errors import (DegenerateElement, LinSolveFailure, NotZeroMean,
                     ParseError)

LIN_TOL = 1e-12


@dataclass
class DiskMesh:
    """Triangulation of the disk with its boundary loop.

    ``boundary_loop`` lists the bulk indices of the boundary vertices in
    cyclic order tracing the curve once; it doubles as the map from
    boundary-local to bulk numbering.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loop: np.ndarray

    @property
    def n_bulk(self):
        return self.vertices.shape[0]

    @property
    def n_bdry(self):
        return self.boundary_loop.shape[0]

    def triangle_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self):
        return float(self.triangle_areas().sum())

    def boundary_lengths(self):
        a = self.vertices[self.boundary_loop]
        b = self.vertices[np.roll(self.boundary_loop, -1)]
        return np.hypot(*(b - a).T)

    def boundary_length(self):
        return float(self.boundary_lengths().sum())


def gen_disk_mesh(n_rings, n_sectors):
    """Structured triangulation of the unit disk.

    One center vertex, ``n_rings`` rings of ``n_sectors`` vertices at
    radii k/n_rings, fan triangles around the center, two triangles per
    quadrilateral between rings.  All triangles positively oriented.
    """
    if n_rings < 1 or n_sectors < 3:
        raise ValueError("need n_rings >= 1 and n_sectors >= 3")
    R, S = int(n_rings), int(n_sectors)
    theta = 2.0 * math.pi * np.arange(S) / S
    r = (np.arange(1, R + 1) / R)[:, None]
    vertices = np.vstack([np.zeros((1, 2)),
                          np.column_stack([(r * np.cos(theta)).ravel(),
                                           (r * np.sin(theta)).ravel()])])

    # vertex (k, j) of ring k >= 1, sector j is 1 + (k - 1) S + j mod S
    j = np.arange(S)
    fan = np.column_stack([np.zeros(S, dtype=np.int64), 1 + j,
                           1 + (j + 1) % S])
    a = 1 + S * np.arange(R - 1)[:, None] + j  # (k, j) for k < R
    b = a - j + (j + 1) % S                    # (k, j + 1)
    c, d = a + S, b + S                        # (k + 1, j), (k + 1, j + 1)
    quads = np.stack([np.stack([a, d, b], axis=-1),
                      np.stack([a, c, d], axis=-1)], axis=2)
    triangles = np.vstack([fan, quads.reshape(-1, 3)])
    boundary_loop = 1 + (R - 1) * S + j
    return DiskMesh(vertices, triangles, boundary_loop)


def validate_mesh(mesh):
    """Check that the mesh is a conforming triangulation traced by its loop.

    In this order: finite coordinates, at least one triangle, triangle
    and loop indices in range, every vertex in a triangle (an unused one
    would give the operators an empty row), positive areas, no edge in
    more than two triangles, a loop that visits each vertex once, and
    loop edges that are exactly the edges of one triangle each.  Each
    triangle, like the loop, is a closed cycle of vertices whose edge
    lo-hi is keyed lo*n + hi.  Raises ParseError at the first violation,
    so a corrupted mesh file surfaces as a parse-stage failure.
    """
    n, tris, loop = np.int64(mesh.n_bulk), mesh.triangles, mesh.boundary_loop
    bad = np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1))
    if bad.size:
        raise ParseError("vertex %d has a non-finite coordinate" % bad[0])
    if not tris.size:
        raise ParseError("mesh has no triangle")
    if tris.min() < 0 or tris.max() >= n:
        raise ParseError("triangle index out of range")
    if loop.size and (loop.min() < 0 or loop.max() >= n):
        raise ParseError("boundary index out of range")
    unused = np.flatnonzero(np.bincount(tris.ravel(), minlength=n) == 0)
    if unused.size:
        raise ParseError("vertex %d belongs to no triangle" % unused[0])
    if (mesh.triangle_areas() <= 0.0).any():
        raise ParseError("non-positively-oriented or degenerate triangle")

    def edge_keys(cycles):
        b = np.roll(cycles, -1, axis=-1)
        return (np.minimum(cycles, b) * n + np.maximum(cycles, b)).ravel()

    keys, counts = np.unique(edge_keys(tris), return_counts=True)
    if (counts > 2).any():
        raise ParseError("edge %d-%d belongs to more than two triangles"
                         % divmod(int(keys[counts > 2][0]), n))
    if np.unique(loop).size != loop.size:
        raise ParseError("boundary loop revisits a vertex")
    if not np.array_equal(np.unique(edge_keys(loop)), keys[counts == 1]):
        raise ParseError("boundary loop does not trace the mesh boundary")
    return True


def save_mesh(mesh, path):
    """Write the plain-text mesh format (0-based indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertices %d\n" % mesh.n_bulk)
        for x, y in mesh.vertices:
            fh.write("%.17g %.17g\n" % (x, y))
        fh.write("triangles %d\n" % mesh.triangles.shape[0])
        for i, j, k in mesh.triangles:
            fh.write("%d %d %d\n" % (i, j, k))
        fh.write("boundary %d\n" % mesh.n_bdry)
        for b in mesh.boundary_loop:
            fh.write("%d\n" % b)


def load_mesh(path):
    """Read and validate the plain-text mesh format; raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    pos = 0

    def take(n=1):
        nonlocal pos
        if pos + n > len(tokens):
            raise ParseError("unexpected end of mesh file")
        out = tokens[pos:pos + n]
        pos += n
        return out

    def section(name):
        word, count = take(2)
        if word != name:
            raise ParseError("expected section %r, found %r" % (name, word))
        try:
            return int(count)
        except ValueError:
            raise ParseError("bad count for section %r" % name) from None

    try:
        nv = section("vertices")
        vertices = np.array(take(2 * nv), dtype=float).reshape(nv, 2)
        nt = section("triangles")
        triangles = np.array(take(3 * nt), dtype=np.int64).reshape(nt, 3)
        loop = np.array(take(section("boundary")), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ParseError("malformed mesh entry: %s" % exc) from None
    if pos != len(tokens):
        raise ParseError("trailing garbage in mesh file")
    mesh = DiskMesh(vertices, triangles, loop)
    validate_mesh(mesh)
    return mesh


class Part:
    """One side, the disk or its boundary curve, with its P1 operators.

    Factorizations are built on first use and are read-only afterwards,
    so the runs of one command share them.
    """

    def __init__(self, name, M, K):
        self.name = name
        self.M = M
        self.K = K
        self.lumped = np.asarray(M.sum(axis=1)).ravel()
        self.measure = float(self.lumped.sum())
        self._cache = {}

    def solver(self, kind):
        """Factorization of ``M`` (``"mass"``) or the stiffness bordered
        by the lumped-mass row (``"green"``)."""
        if kind not in self._cache:
            if kind == "mass":
                A = self.M
            elif kind == "green":
                m = sp.csc_matrix(self.lumped[:, None])
                A = sp.bmat([[self.K, m], [m.T, None]], format="csc")
            else:
                raise ValueError("unknown factorization %r" % kind)
            self._cache[kind] = _FactoredMatrix(A.tocsc(),
                                                spd=kind != "green")
        return self._cache[kind]


class DiscreteOperators:
    """The assembled mesh operators: one :class:`Part` per side.

    ``step_operators`` holds the step operators of :mod:`chbs.stepper`,
    keyed by the parameters they depend on; like the factorizations of a
    part they are built on first use and read-only afterwards, so the
    runs of one command share them.
    """

    def __init__(self, mesh, M_bulk, K_bulk, M_bdry, K_bdry):
        self.mesh = mesh
        self.bulk = Part("bulk", M_bulk, K_bulk)
        self.bdry = Part("boundary", M_bdry, K_bdry)
        self.step_operators = {}

    # per-side aliases, read only by the benchmark in perfbench/
    K_bulk = property(lambda self: self.bulk.K)
    M_bdry = property(lambda self: self.bdry.M)
    K_bdry = property(lambda self: self.bdry.K)

    def mass_bulk_solver(self):
        return self.bulk.solver("mass")


class _FactoredMatrix:
    """Sparse LU with iterative refinement to a backward-error target.

    The contractual relative tolerance is measured as the componentwise
    backward error |r_i| / (|A||x| + |b|)_i, which refinement can push to
    rounding level even for ill-scaled meshes.  An SPD matrix (``spd``)
    is factored without pivoting on a minimum-degree order of A + A^T,
    which stays stable and on the bulk mass matrix holds 0.6 times the
    entries of the pivoted LU; the bordered ``"green"`` matrix is
    indefinite and keeps partial pivoting.
    """

    def __init__(self, A, spd=False):
        self.A = A
        self.absA = abs(A)
        if spd:
            self.lu = splu(A, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        else:
            self.lu = splu(A)

    def backward_error(self, x, b):
        r = b - self.A @ x
        scale = self.absA @ np.abs(x) + np.abs(b)
        np.maximum(scale, 1e-300, out=scale)
        return float(np.max(np.abs(r) / scale))

    def solve(self, b, what="linear solve"):
        x = self.lu.solve(b)
        for _ in range(4):
            if self.backward_error(x, b) <= LIN_TOL:
                return x
            x = x + self.lu.solve(b - self.A @ x)
        err = self.backward_error(x, b)
        if err > LIN_TOL:
            raise LinSolveFailure("%s: backward error %.3e" % (what, err))
        return x


def assemble(mesh):
    """Element-wise P1 assembly of all four operators.

    Bulk: consistent triangle mass and stiffness.  Boundary: periodic 1-D
    P1 mass and stiffness over the segment lengths of the loop, which
    realizes the arc-length Laplacian of the closed curve.
    """
    p = mesh.vertices[mesh.triangles]
    areas = mesh.triangle_areas()
    if (areas <= 1e-14).any():
        raise DegenerateElement(
            "triangle area %.3e below threshold" % float(areas.min()))

    # gradients of the barycentric basis: grad(lambda_i) = rot(edge_i)/2A
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    grads = np.stack([e0, e1, e2], axis=1)
    grads = np.stack([-grads[:, :, 1], grads[:, :, 0]],
                     axis=2) / (2.0 * areas)[:, None, None]
    m_loc = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Me = m_loc[None, :, :] * areas[:, None, None]
    Ke = np.einsum("tid,tjd->tij", grads, grads) * areas[:, None, None]

    lengths = mesh.boundary_lengths()
    if (lengths <= 1e-14).any():
        raise DegenerateElement("boundary segment of vanishing length")
    left = np.arange(mesh.n_bdry)
    segments = np.stack([left, (left + 1) % mesh.n_bdry], axis=1)
    m_seg = np.stack([lengths / 3.0, lengths / 6.0,
                      lengths / 6.0, lengths / 3.0], axis=1)
    k_seg = np.stack([1.0 / lengths, -1.0 / lengths,
                      -1.0 / lengths, 1.0 / lengths], axis=1)

    tris, nb, ng = mesh.triangles, mesh.n_bulk, mesh.n_bdry
    return DiscreteOperators(mesh,
                             _scatter(tris, Me, nb), _scatter(tris, Ke, nb),
                             _scatter(segments, m_seg, ng),
                             _scatter(segments, k_seg, ng))


def _scatter(elements, local, n):
    """Sum the k x k element matrices ``local[e]`` (row-major) at the
    global indices ``elements[e]`` into an n x n CSR matrix."""
    k = elements.shape[1]
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, k).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(n, n)).tocsr()


def trace(ops, v):
    """Restrict a bulk vector to the boundary loop."""
    return np.asarray(v)[ops.mesh.boundary_loop]


def mean(part, v):
    """Integral mean over the part."""
    return float(part.lumped @ v) / part.measure


# per-side aliases of mean, read only by the benchmark in perfbench/
def mean_bulk(ops, v):
    return mean(ops.bulk, v)


def mean_bdry(ops, v_bdry):
    return mean(ops.bdry, v_bdry)


def green(part, v):
    """Discrete zero-mean inverse Laplacian of the part.

    Neumann on the disk, arc-length on the curve.  Input must have zero
    mean (within 1e-10).  The constrained solve uses a bordered system
    with the lumped-mass row, then re-projects.
    """
    what = "%s green solve" % part.name
    v = np.asarray(v, dtype=float)
    m = mean(part, v)
    if abs(m) > 1e-10:
        raise NotZeroMean("%s: input mean %.3e exceeds 1e-10" % (what, m))
    rhs = np.concatenate([part.M @ (v - m), [0.0]])
    u = part.solver("green").solve(rhs, what)[:-1]
    return u - mean(part, u)


def dual_norm(part, v):
    """Gradient-flow dual norm of the zero-mean part of ``v``.

    The mean is subtracted internally; the norm vanishes exactly on
    constants.
    """
    v = np.asarray(v, dtype=float)
    v0 = v - mean(part, v)
    if float(np.abs(v0).max(initial=0.0)) \
            <= 1e-14 * max(1.0, float(np.abs(v).max(initial=0.0))):
        return 0.0
    u = green(part, v0)
    return math.sqrt(max(float(u @ (part.K @ u)), 0.0))


def norms(part, v):
    """L2 norm, H1 seminorm and full H1 norm of a field on the part."""
    l2sq = float(v @ (part.M @ v))
    h1sq = float(v @ (part.K @ v))
    return {"l2": math.sqrt(max(l2sq, 0.0)),
            "h1_semi": math.sqrt(max(h1sq, 0.0)),
            "h1": math.sqrt(max(l2sq + h1sq, 0.0))}
