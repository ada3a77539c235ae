import math
import sys
from concurrent.futures import ThreadPoolExecutor

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
        assert np.abs(small_ops.K_bulk @ np.ones(nb)).max() < 1e-12
        assert np.abs(small_ops.K_bdry @ np.ones(ng)).max() < 1e-12
        assert np.abs(np.ones(nb) @ small_ops.K_bulk).max() < 1e-12

    def test_measures(self, desk_ops):
        one_b = np.ones(desk_ops.mesh.n_bulk)
        one_g = np.ones(desk_ops.mesh.n_bdry)
        assert float(one_b @ (desk_ops.M_bulk @ one_b)) == pytest.approx(
            desk_ops.mesh.area(), rel=1e-12)
        # chord-length oracle for the boundary mass
        chords = float(desk_ops.mesh.boundary_lengths().sum())
        assert float(one_g @ (desk_ops.M_bdry @ one_g)) == pytest.approx(
            chords, rel=1e-12)
        assert abs(chords - 2 * math.pi) < 1e-3

    def test_linear_field_energy_is_area(self, desk_ops):
        x = desk_ops.mesh.vertices[:, 0]
        assert float(x @ (desk_ops.K_bulk @ x)) == pytest.approx(
            desk_ops.mesh.area(), rel=1e-12)

    def test_boundary_stiffness_is_circulant(self, small_ops):
        K = small_ops.K_bdry.toarray()
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


def test_concurrent_first_use_builds_one_factorization():
    # sweep members share one set of operators, so several threads can
    # ask for a factorization before it exists; all must get the same one
    ops = diskfem.assemble(diskfem.gen_disk_mesh(20, 80))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda _: ops.bulk.solver("shifted"),
                                range(8), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert all(g is got[0] for g in got)


class TestShiftedInverse:
    def test_constants_are_fixed_points(self, small_ops):
        for part in sides(small_ops):
            c = 3.0 * np.ones(size(part))
            assert np.abs(diskfem.inv_shifted(part, c) - 3.0).max() < 1e-10
            z = np.zeros(size(part))
            assert np.abs(diskfem.inv_shifted(part, z)).max() == 0.0

    def test_mean_preserved(self, small_ops, rng):
        for part in sides(small_ops):
            v = rng.standard_normal(size(part))
            u = diskfem.inv_shifted(part, v)
            assert abs(diskfem.mean(part, u) - diskfem.mean(part, v)) \
                < 1e-10, part.name

    def test_boundary_variant(self, small_ops):
        c = -2.0 * np.ones(small_ops.mesh.n_bdry)
        assert np.abs(diskfem.inv_shifted_bdry(small_ops, c) + 2.0).max() \
            < 1e-10


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
