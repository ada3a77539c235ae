import ast
import math
import os
import re

import numpy as np
import pytest

from chbs import diskfem
from chbs.errors import DegenerateElement, NotZeroMean, ParseError


def shoelace_area(mesh):
    # polygon area of the boundary loop, an independent route to the
    # triangulated area for a triangulated polygon
    p = mesh.vertices[mesh.boundary_loop]
    q = np.roll(p, -1, axis=0)
    return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def loop_verdict(mesh):
    """The message of validate_mesh's first failed check, or None,
    checked one triangle and one loop vertex at a time."""
    n, tris, loop = mesh.n_bulk, mesh.triangles.tolist(), \
        mesh.boundary_loop.tolist()
    for i, (x, y) in enumerate(mesh.vertices.tolist()):
        if not (math.isfinite(x) and math.isfinite(y)):
            return "vertex %d has a non-finite coordinate" % i
    if not tris:
        return "mesh has no triangle"
    for what, idx in (("triangle", sum(tris, [])), ("boundary", loop)):
        if any(not 0 <= i < n for i in idx):
            return "%s index out of range" % what
    used = set(sum(tris, []))
    for i in range(n):
        if i not in used:
            return "vertex %d belongs to no triangle" % i
    if any(a <= 0.0 for a in mesh.triangle_areas()):
        return "non-positively-oriented or degenerate triangle"
    edges = {}
    for t in tris:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    over = sorted(k for k, cnt in edges.items() if cnt > 2)
    if over:
        return "edge %d-%d belongs to more than two triangles" % over[0]
    if len(set(loop)) != len(loop):
        return "boundary loop revisits a vertex"
    segments = {(min(a, b), max(a, b))
                for a, b in zip(loop, loop[1:] + loop[:1])}
    if segments != {k for k, cnt in edges.items() if cnt == 1}:
        return "boundary loop does not trace the mesh boundary"
    return None


class TestMeshGeneration:
    def test_single_fan(self):
        mesh = diskfem.gen_disk_mesh(1, 3)
        assert mesh.n_bulk == 4
        assert mesh.triangles.shape[0] == 3
        assert mesh.n_bdry == 3
        diskfem.validate_mesh(mesh)

    def test_two_rings(self):
        mesh = diskfem.gen_disk_mesh(2, 8)
        assert mesh.n_bulk == 17
        assert mesh.n_bdry == 8
        diskfem.validate_mesh(mesh)

    def test_area_converges_to_disk(self):
        mesh = diskfem.gen_disk_mesh(40, 160)
        assert abs(mesh.area() - math.pi) < 1e-3
        assert mesh.area() == pytest.approx(shoelace_area(mesh), rel=1e-12)

    def test_positive_areas_and_boundary_topology(self):
        mesh = diskfem.gen_disk_mesh(5, 13)
        assert (mesh.triangle_areas() > 0).all()
        diskfem.validate_mesh(mesh)

    @pytest.mark.parametrize("rings, sectors", (
        (1, 3), (1, 5), (2, 8), (3, 7), (5, 4), (17, 31), (40, 160)))
    def test_matches_vertex_by_vertex_construction(self, rings, sectors):
        # one vertex and one triangle at a time, as the numbering reads
        def idx(k, j):
            return 1 + (k - 1) * sectors + (j % sectors)

        theta = 2.0 * math.pi * np.arange(sectors) / sectors
        verts = [np.zeros((1, 2))]
        for k in range(1, rings + 1):
            r = k / rings
            verts.append(np.column_stack([r * np.cos(theta),
                                          r * np.sin(theta)]))
        tris = [(0, idx(1, j), idx(1, j + 1)) for j in range(sectors)]
        for k in range(1, rings):
            for j in range(sectors):
                a, b = idx(k, j), idx(k, j + 1)
                c, d = idx(k + 1, j), idx(k + 1, j + 1)
                tris += [(a, d, b), (a, c, d)]
        loop = [idx(rings, j) for j in range(sectors)]
        mesh = diskfem.gen_disk_mesh(rings, sectors)
        for got, want in ((mesh.vertices, np.vstack(verts)),
                          (mesh.triangles, np.array(tris, dtype=np.int64)),
                          (mesh.boundary_loop, np.array(loop,
                                                        dtype=np.int64))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            diskfem.gen_disk_mesh(0, 8)
        with pytest.raises(ValueError):
            diskfem.gen_disk_mesh(2, 2)


class TestMeshFile:
    def test_roundtrip(self, tmp_path):
        mesh = diskfem.gen_disk_mesh(3, 9)
        path = tmp_path / "disk.mesh"
        diskfem.save_mesh(mesh, path)
        back = diskfem.load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.boundary_loop, mesh.boundary_loop)
        diskfem.validate_mesh(back)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("vertices 2\n0 0\n1 nope\ntriangles 0\nboundary 0\n")
        with pytest.raises(ParseError):
            diskfem.load_mesh(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad2.mesh"
        path.write_text("vertices 3\n0 0\n1 0\n0 1\n"
                        "triangles 1\n0 1 7\nboundary 0\n")
        with pytest.raises(ParseError):
            diskfem.load_mesh(path)

    def test_duplicated_interior_triangle_rejected(self):
        # the copy keeps the loop a boundary but would add its area twice
        mesh = diskfem.gen_disk_mesh(4, 16)
        mesh.triangles = np.vstack([mesh.triangles, mesh.triangles[20]])
        with pytest.raises(ParseError, match="^edge 3-4 belongs to more "
                                             "than two triangles$"):
            diskfem.validate_mesh(mesh)

    @pytest.mark.parametrize("index", ("n_bulk", -1))
    def test_in_memory_index_out_of_range(self, index):
        mesh = diskfem.gen_disk_mesh(2, 6)
        mesh.triangles[3, 1] = mesh.n_bulk if index == "n_bulk" else index
        with pytest.raises(ParseError,
                           match="^triangle index out of range$"):
            diskfem.validate_mesh(mesh)

    def test_array_checks_match_the_loop_reference(self):
        rng = np.random.default_rng(5)
        verdicts = set()
        for trial in range(330):
            mesh = diskfem.gen_disk_mesh(int(rng.integers(1, 4)),
                                         int(rng.integers(3, 9)))
            tris, loop = mesh.triangles, mesh.boundary_loop
            t = int(rng.integers(len(tris)))
            i, j = rng.choice(len(loop), 2, replace=False)
            kind = trial % 11
            if kind == 1:
                mesh.triangles = np.vstack([tris, tris[t]])
            elif kind == 2:
                k = min(int(rng.integers(1, 4)), len(tris))
                mesh.triangles = np.delete(
                    tris, rng.choice(len(tris), k, replace=False), axis=0)
            elif kind == 3:
                mesh.boundary_loop = np.roll(loop, i)[::1 - 2 * (j % 2)]
            elif kind == 4:
                loop[[i, j]] = loop[[j, i]]
            elif kind == 5:
                loop[i] = rng.integers(-1, mesh.n_bulk + 1)
            elif kind == 6:
                mesh.boundary_loop = np.delete(loop, i)
            elif kind == 7:
                tris[t, [0, 1]] = tris[t, [1, 0]]
            elif kind == 8:
                tris[t, 2] = rng.choice([-1, mesh.n_bulk])
            elif kind == 9:
                mesh.vertices[rng.integers(mesh.n_bulk), 1] = np.inf
            elif kind == 10:
                mesh.triangles = tris[:0]
            want = loop_verdict(mesh)
            verdicts.add(want and re.sub(r"\d+", "N", want))
            if want is None:
                assert diskfem.validate_mesh(mesh)
            else:
                with pytest.raises(ParseError) as err:
                    diskfem.validate_mesh(mesh)
                assert str(err.value) == want
        # every check fails at least once, and some meshes pass
        assert len(verdicts) == 10

    def test_corrupted_topology_detected(self, tmp_path):
        mesh = diskfem.gen_disk_mesh(2, 6)
        mesh.boundary_loop = mesh.boundary_loop[::-1].copy()
        mesh.boundary_loop[0] = 0  # interior vertex in the loop
        with pytest.raises(ParseError):
            diskfem.validate_mesh(mesh)


class TestAssembly:
    def test_degenerate_element(self):
        mesh = diskfem.gen_disk_mesh(1, 3)
        mesh.vertices[3] = mesh.vertices[2]
        with pytest.raises(DegenerateElement):
            diskfem.assemble(mesh)

    def test_stiffness_kernels(self, small_ops):
        nb = small_ops.mesh.n_bulk
        ng = small_ops.mesh.n_bdry
        assert np.abs(small_ops.bulk.K @ np.ones(nb)).max() < 1e-12
        assert np.abs(small_ops.bdry.K @ np.ones(ng)).max() < 1e-12
        assert np.abs(np.ones(nb) @ small_ops.bulk.K).max() < 1e-12

    def test_measures(self, desk_ops):
        one_b = np.ones(desk_ops.mesh.n_bulk)
        one_g = np.ones(desk_ops.mesh.n_bdry)
        assert float(one_b @ (desk_ops.bulk.M @ one_b)) == pytest.approx(
            desk_ops.mesh.area(), rel=1e-12)
        # chord-length oracle for the boundary mass
        chords = float(desk_ops.mesh.boundary_lengths().sum())
        assert float(one_g @ (desk_ops.bdry.M @ one_g)) == pytest.approx(
            chords, rel=1e-12)
        assert abs(chords - 2 * math.pi) < 1e-3

    def test_linear_field_energy_is_area(self, desk_ops):
        x = desk_ops.mesh.vertices[:, 0]
        assert float(x @ (desk_ops.bulk.K @ x)) == pytest.approx(
            desk_ops.mesh.area(), rel=1e-12)

    def test_boundary_stiffness_is_circulant(self, small_ops):
        K = small_ops.bdry.K.toarray()
        ng = small_ops.mesh.n_bdry
        ell = small_ops.mesh.boundary_lengths()
        assert np.allclose(ell, ell[0])
        row = np.zeros(ng)
        row[0], row[1], row[-1] = 2.0 / ell[0], -1.0 / ell[0], -1.0 / ell[0]
        for i in range(ng):
            assert np.allclose(K[i], np.roll(row, i), atol=1e-12)


def sides(ops):
    return (ops.bulk, ops.bdry)


def size(part):
    return part.M.shape[0]


class TestMeans:
    def test_constants(self, small_ops):
        for part in sides(small_ops):
            assert diskfem.mean(part, np.ones(size(part))) == pytest.approx(
                1.0, rel=1e-13), part.name
            assert diskfem.mean(part, np.zeros(size(part))) == 0.0, part.name

    def test_odd_field_has_zero_mean(self, desk_ops):
        x = desk_ops.mesh.vertices[:, 0]
        assert abs(diskfem.mean(desk_ops.bulk, x)) < 1e-10
        assert abs(diskfem.mean(desk_ops.bdry,
                                x[desk_ops.mesh.boundary_loop])) < 1e-10


def test_solver_is_built_once():
    # the runs of one command share a part's factorizations
    ops = diskfem.assemble(diskfem.gen_disk_mesh(3, 12))
    for part in (ops.bulk, ops.bdry):
        for kind in ("mass", "green"):
            assert part.solver(kind) is part.solver(kind)
        assert part.solver("mass") is not part.solver("green")


class TestGreen:
    def test_zero_maps_to_zero(self, small_ops):
        for part in sides(small_ops):
            z = np.zeros(size(part))
            assert np.abs(diskfem.green(part, z)).max() == 0.0

    def test_rejects_nonzero_mean(self, small_ops):
        for part in sides(small_ops):
            with pytest.raises(NotZeroMean):
                diskfem.green(part, np.ones(size(part)))

    def test_linearity(self, small_ops, rng):
        for part in sides(small_ops):
            v = rng.standard_normal(size(part))
            v -= diskfem.mean(part, v)
            u1 = diskfem.green(part, 3.5 * v)
            u2 = 3.5 * diskfem.green(part, v)
            assert np.abs(u1 - u2).max() < 1e-11 * max(1.0, np.abs(u2).max())

    def test_adjoint_identity(self, small_ops, rng):
        for part in sides(small_ops):
            for _ in range(5):
                v = rng.standard_normal(size(part))
                v -= diskfem.mean(part, v)
                w = rng.standard_normal(size(part))
                w -= diskfem.mean(part, w)
                lhs = float(w @ (part.M @ diskfem.green(part, v)))
                rhs = float(v @ (part.M @ diskfem.green(part, w)))
                assert abs(lhs - rhs) < 1e-10, part.name

    def test_inverts_weak_laplacian(self, small_ops, rng):
        # applying the stiffness (through the mass inverse) then the green
        # solve returns the zero-mean field
        for part in sides(small_ops):
            u = rng.standard_normal(size(part))
            u -= diskfem.mean(part, u)
            v = part.solver("mass").solve(part.K @ u)
            back = diskfem.green(part, v)
            assert np.abs(back - u).max() < 1e-9, part.name

    def test_boundary_fourier_mode_is_eigenvector(self, small_ops):
        mesh = small_ops.mesh
        th = np.arctan2(mesh.vertices[mesh.boundary_loop, 1],
                        mesh.vertices[mesh.boundary_loop, 0])
        v = np.cos(3 * th)
        v0 = v - diskfem.mean(small_ops.bdry, v)
        u = diskfem.green(small_ops.bdry, v0)
        # circulant oracle: eigenvalue ratio of mass and stiffness symbols
        ng = mesh.n_bdry
        ell = float(mesh.boundary_lengths()[0])
        ang = 2 * math.pi * 3 / ng
        lam_m = ell * (2.0 + math.cos(ang)) / 3.0
        lam_k = (2.0 - 2.0 * math.cos(ang)) / ell
        assert np.abs(u - (lam_m / lam_k) * v0).max() < 1e-9


class TestNorms:
    def test_zero_field(self, small_ops):
        for part in sides(small_ops):
            n = diskfem.norms(part, np.zeros(size(part)))
            assert n == {"l2": 0.0, "h1_semi": 0.0, "h1": 0.0}

    def test_constant_field(self, small_ops):
        for part in sides(small_ops):
            n = diskfem.norms(part, np.ones(size(part)))
            assert n["l2"] == pytest.approx(math.sqrt(part.measure),
                                            rel=1e-12)
            assert n["h1_semi"] < 1e-9

    def test_linear_field_seminorm(self, desk_ops):
        x = desk_ops.mesh.vertices[:, 0]
        n = diskfem.norms(desk_ops.bulk, x)
        assert abs(n["h1_semi"] ** 2 - math.pi) < 1e-3

    def test_dual_norm_basics(self, small_ops, rng):
        for part in sides(small_ops):
            c = 7.0 * np.ones(size(part))
            assert diskfem.dual_norm(part, c) == 0.0
            v = rng.standard_normal(size(part))
            assert diskfem.dual_norm(part, -2.0 * v) == pytest.approx(
                2.0 * diskfem.dual_norm(part, v), rel=1e-11)

    def test_dual_norm_duality(self, small_ops, rng):
        for part in sides(small_ops):
            v = rng.standard_normal(size(part))
            v -= diskfem.mean(part, v)
            dn = diskfem.dual_norm(part, v)
            # pairing never exceeds the dual norm times the gradient
            # seminorm
            for _ in range(200):
                w = rng.standard_normal(size(part))
                w -= diskfem.mean(part, w)
                pair = float(v @ (part.M @ w))
                bound = dn * diskfem.norms(part, w)["h1_semi"]
                assert pair <= bound + 1e-10, part.name
            # and the green solution attains it
            wstar = diskfem.green(part, v)
            attained = float(v @ (part.M @ wstar)) \
                / diskfem.norms(part, wstar)["h1_semi"]
            assert attained == pytest.approx(dn, rel=0.02), part.name

    def test_poincare_constant_stable(self, small_ops):
        def max_ratio(part, seed):
            gen = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(200):
                v = gen.standard_normal(size(part))
                v -= diskfem.mean(part, v)
                n = diskfem.norms(part, v)
                worst = max(worst, n["l2"] ** 2 / n["h1_semi"] ** 2)
            return worst

        for part in sides(small_ops):
            c1 = max_ratio(part, 101)
            c2 = max_ratio(part, 202)
            assert c1 <= 1.25 * c2, part.name
            assert c2 <= 1.25 * c1, part.name


# per-side aliases kept only while the benchmark in perfbench/ reads them
KEPT_ALIASES = {"mean_bulk", "mean_bdry", "K_bulk", "M_bdry", "K_bdry",
                "mass_bulk_solver"}
DELETED_ALIASES = {"norms_bulk", "norms_bdry", "M_bulk"}


def names_read(directory):
    """Module file name -> the attribute, variable and imported names its
    code reads."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            out[name] = {getattr(node, "attr", getattr(node, "id", None))
                         for node in ast.walk(tree)
                         if isinstance(node, (ast.Attribute, ast.Name))} \
                | {a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names}
    return out


class TestPerSideAliases:
    def test_only_diskfem_and_the_benchmark_read_them(self):
        aliases = KEPT_ALIASES | DELETED_ALIASES
        program = names_read(os.path.dirname(diskfem.__file__))
        assert {name: used & aliases for name, used in program.items()
                if name != "diskfem.py" and used & aliases} == {}
        bench = os.path.join(os.path.dirname(__file__), os.pardir,
                             "perfbench")
        assert set().union(*names_read(bench).values()) & aliases \
            == KEPT_ALIASES

    def test_kept_aliases_are_the_generic_forms(self, small_ops, rng):
        ops = small_ops
        v = rng.standard_normal(ops.mesh.n_bulk)
        vg = rng.standard_normal(ops.mesh.n_bdry)
        assert diskfem.mean_bulk(ops, v) == diskfem.mean(ops.bulk, v)
        assert diskfem.mean_bdry(ops, vg) == diskfem.mean(ops.bdry, vg)
        assert ops.K_bulk is ops.bulk.K
        assert ops.M_bdry is ops.bdry.M and ops.K_bdry is ops.bdry.K
        assert ops.mass_bulk_solver() is ops.bulk.solver("mass")
        for name in DELETED_ALIASES:
            assert not hasattr(diskfem, name) and not hasattr(ops, name)
