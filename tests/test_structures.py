import hashlib

import numpy as np
import pytest

from modwrench.structures import (
    ROTOR_DIAGONALS,
    SPIN_SIGNS,
    ModuleParams,
    StructureConfig,
    StructureError,
    attachable_surfaces,
    canonical_form,
    center_of_mass,
    configuration_matrix,
    is_connected,
    is_torque_balanced,
)

SQRT2 = np.sqrt(2.0)
E3 = np.array([0.0, 0.0, 1.0])

# Parameter sets of the matrix pins: the defaults, untilted rotors, and two
# other tilts with other drag, thrust and size parameters.
PIN_PARAMS = {
    "default": {},
    "untilted": dict(eta=0.0),
    "tilt_0.3": dict(eta=0.3, c_tau=0.05, f_max=8.0),
    "tilt_-1.2": dict(eta=-1.2, side_length=0.5, arm_length=0.2),
}
# sha256 over configuration_matrix(...).tobytes() of every fixed polyomino of
# up to 6 cells, at its canonical position and translated by (3, -5).
MATRIX_DIGESTS = {
    "default": "ec5a1e56287c8df2bd2e8ab5a69fceaac8f7a0ad4927ad8608df719f93bb8c94",
    "untilted": "fade6c9c0797a3baa4c9dc65a538d8f40c4c4194ed6eebcefc11b86ee00f787e",
    "tilt_0.3": "4c113051a4de913000d2607eea2e7a33efc40f6b723ed16f4544a1b43e27624e",
    "tilt_-1.2": "4f602b3e27457b1a9f01062f928d48b062a383e66c6b6de2ac4ad713cdc32710",
}


def make_config(cells, **params):
    return StructureConfig(frozenset(cells), ModuleParams(**params))


def assert_columns_match_formula(cells, **params):
    """Every column of the matrix against the rotor it models, one at a time.

    Rotor j of the module in cell c sits at p = arm * delta_j + c * side - COM
    and thrusts along e3 turned about delta_j by +/-eta:
    cos(eta) e3 + sin(+/-eta) (delta_j x e3).
    """
    config = make_config(cells, **params)
    p = config.params
    A = configuration_matrix(config)
    assert A.shape == (6, 4 * len(config.cells))
    com = np.mean([[ix * p.side_length, iy * p.side_length, 0.0] for ix, iy in config.cells], axis=0)
    k = 0
    for ix, iy in sorted(config.cells):
        for j, delta in enumerate(ROTOR_DIAGONALS):
            tilt = p.eta if j % 2 == 0 else -p.eta
            d = np.cos(tilt) * E3 + np.sin(tilt) * np.cross(delta, E3)
            pos = p.arm_length * delta + np.array([ix * p.side_length, iy * p.side_length, 0.0]) - com
            np.testing.assert_allclose(A[:3, k], d, rtol=0, atol=1e-12)
            np.testing.assert_allclose(A[3:, k] - SPIN_SIGNS[j] * p.c_tau * d, np.cross(pos, d),
                                       rtol=0, atol=1e-12)
            k += 1


def fixed_polyominoes(max_cells):
    """Translation-distinct 4-connected cell sets of 1..max_cells cells, one set per size."""
    levels = [{((0, 0),)}]
    while len(levels) < max_cells:
        grown = set()
        for cells in levels[-1]:
            for x, y in cells:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    if (x + dx, y + dy) in cells:
                        continue
                    new = cells + ((x + dx, y + dy),)
                    x0 = min(c[0] for c in new)
                    y0 = min(c[1] for c in new)
                    grown.add(tuple(sorted((cx - x0, cy - y0) for cx, cy in new)))
        levels.append(grown)
    return levels


class TestModuleParams:
    def test_defaults_valid(self):
        p = ModuleParams()
        assert p.eta == pytest.approx(np.pi / 4)
        assert p.side_length == 0.4
        assert p.f_max == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(side_length=-0.1),
        dict(arm_length=0.0),
        dict(arm_length=0.3),       # 0.3*sqrt(2) > 0.4
        dict(f_max=0.0),
        dict(c_tau=-0.01),
        dict(eta=np.pi / 2),
        dict(side_length=np.inf),
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(StructureError):
            ModuleParams(**kwargs)


class TestRotorLayout:
    def test_untilted_orientations_are_identity(self):
        A = configuration_matrix(make_config({(0, 0)}, eta=0.0))
        assert np.array_equal(A[:3], np.outer(E3, np.ones(4)))
        assert not np.signbit(A[:3]).any()

    def test_tilted_thrust_directions(self):
        # Rodrigues oracle: cos(eta)*e3 + sin(eta)*(d_j x e3), alternating sign
        A = configuration_matrix(make_config({(0, 0)}, eta=np.pi / 4))
        assert np.allclose(A[:3, 0], [0.5, -0.5, SQRT2 / 2], atol=1e-12)
        assert np.allclose(A[:3, 1], [-0.5, -0.5, SQRT2 / 2], atol=1e-12)

    def test_positions_and_spins(self):
        # untilted, column j's torque is p_j x e3 + spin_j c_tau e3
        p = ModuleParams(eta=0.0)
        A = configuration_matrix(StructureConfig(frozenset({(0, 0)}), p))
        for j in range(4):
            x, y, _ = p.arm_length * ROTOR_DIAGONALS[j]
            assert np.allclose(A[3:, j], [y, -x, SPIN_SIGNS[j] * p.c_tau], rtol=0, atol=1e-15)


class TestCenterOfMass:
    def test_single_module(self):
        assert np.allclose(center_of_mass(make_config({(0, 0)})), [0, 0, 0])

    def test_two_modules(self):
        assert np.allclose(center_of_mass(make_config({(0, 0), (1, 0)})), [0.2, 0, 0])

    def test_square_block(self):
        cfg = make_config({(0, 0), (1, 0), (0, 1), (1, 1)})
        assert np.allclose(center_of_mass(cfg), [0.2, 0.2, 0])


class TestRotorConfiguration:
    def test_single_module_positions(self):
        for params in PIN_PARAMS.values():
            assert_columns_match_formula({(0, 0)}, **params)
            assert_columns_match_formula({(4, -7)}, **params)

    def test_two_module_offsets(self):
        for params in PIN_PARAMS.values():
            assert_columns_match_formula({(0, 0), (1, 0)}, **params)
            assert_columns_match_formula({(2, 5), (2, 6)}, **params)
        # untilted, the torque columns read the rotor positions directly
        p = ModuleParams(eta=0.0)
        A = configuration_matrix(StructureConfig(frozenset({(0, 0), (1, 0)}), p))
        for j in range(4):
            for k, shift in ((j, -0.2), (4 + j, 0.2)):
                x, y, _ = p.arm_length * ROTOR_DIAGONALS[j] + [shift, 0, 0]
                assert np.allclose(A[3:5, k], [y, -x], rtol=0, atol=1e-15)

    def test_mean_rotor_position_is_origin(self):
        rng = np.random.default_rng(5)
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
        for _ in range(10):
            cells = {(0, 0)}
            while len(cells) < 5:
                ix, iy = sorted(cells)[rng.integers(len(cells))]
                dx, dy = steps[rng.integers(4)]
                cells.add((ix + dx, iy + dy))
            for params in PIN_PARAMS.values():
                assert_columns_match_formula(cells, **params)
            # untilted, torque rows 3 and 4 of column k are (p_y, -p_x)
            A = configuration_matrix(make_config(cells, eta=0.0))
            assert np.allclose(A[3:5].mean(axis=1), 0.0, atol=1e-12)


class TestConfigurationMatrix:
    # Cells (0,0), (0,1), (1,0), (2,0) with side 2 and arm 1/sqrt(2) put the
    # COM at (1.5, 0.5). Column 8 is rotor 0 of module (1,0), at (1, 0, 0)
    # from the COM; column 9 is rotor 1 of that module, at the COM.
    ELL = {(0, 0), (0, 1), (1, 0), (2, 0)}
    ELL_PARAMS = dict(eta=0.0, side_length=2.0, arm_length=1 / SQRT2, c_tau=0.01)

    def test_unit_arm_column(self):
        A = configuration_matrix(make_config(self.ELL, **self.ELL_PARAMS))
        assert np.allclose(A[:, 8], [0, 0, 1, 0, -1, 0.01])

    def test_zero_arm_column(self):
        A = configuration_matrix(make_config(self.ELL, **self.ELL_PARAMS))
        assert np.allclose(A[:, 9], [0, 0, 1, 0, 0, -0.01])

    @pytest.mark.parametrize("name", sorted(PIN_PARAMS))
    def test_matrix_bytes_pinned(self, name):
        digest = hashlib.sha256()
        for level in fixed_polyominoes(6):
            for cells in sorted(level):
                for dx, dy in ((0, 0), (3, -5)):
                    moved = {(x + dx, y + dy) for x, y in cells}
                    A = configuration_matrix(make_config(moved, **PIN_PARAMS[name]))
                    assert A.flags.c_contiguous
                    digest.update(A.tobytes())
        assert digest.hexdigest() == MATRIX_DIGESTS[name]

    def test_module_torque_columns_cancel(self):
        A = configuration_matrix(make_config({(0, 0)}))
        assert np.allclose(A[3:, :] @ np.ones(4), 0.0, atol=1e-14)

    def test_force_z_is_cos_eta(self):
        for eta in (0.0, 0.3, np.pi / 4, 1.2):
            A = configuration_matrix(make_config({(0, 0), (0, 1)}, eta=eta))
            assert np.max(np.abs(A[2, :] - np.cos(eta))) < 1e-12

    def test_single_module_rank_four(self):
        A = configuration_matrix(make_config({(0, 0)}))
        assert np.linalg.matrix_rank(A, tol=1e-9) == 4

    def test_translation_invariance(self):
        base = make_config({(0, 0), (1, 0), (1, 1)})
        moved = make_config({(7, -3), (8, -3), (8, -2)})
        assert np.max(np.abs(configuration_matrix(base) - configuration_matrix(moved))) < 1e-12


class TestTorqueBalance:
    def test_single_module_any_tilt(self):
        for eta in (0.1, np.pi / 4, 1.0):
            A = configuration_matrix(make_config({(0, 0)}, eta=eta))
            assert is_torque_balanced(A, 1e-10)

    def test_square_block(self):
        A = configuration_matrix(make_config({(0, 0), (1, 0), (0, 1), (1, 1)}))
        assert is_torque_balanced(A, 1e-10)

    def test_same_sign_tilt_mutant_unbalanced(self):
        # all four rotors tilted with the same sign instead of alternating
        p = ModuleParams(eta=np.pi / 4)
        D = np.cos(p.eta) * E3 + np.sin(p.eta) * np.cross(ROTOR_DIAGONALS, E3)
        P = p.arm_length * ROTOR_DIAGONALS
        drag = p.c_tau * np.array(SPIN_SIGNS)[:, None] * D
        A = np.vstack([D.T, (np.cross(P, D) + drag).T])
        assert not is_torque_balanced(A, 1e-10)
        assert np.linalg.norm(A[3:, :] @ np.ones(4)) > 1e-3

    def test_every_fixed_polyomino_balances(self):
        # Each module gives zero torque about its own centre under uniform
        # thrust and the module offsets from the COM sum to zero, so every
        # lattice design balances whatever the tilt and drag coefficient.
        levels = fixed_polyominoes(6)
        assert [len(level) for level in levels] == [1, 2, 6, 19, 63, 216]
        rng = np.random.default_rng(7)
        for eta, c_tau in zip(rng.uniform(0.05, 1.5, size=3), rng.uniform(0.001, 0.1, size=3)):
            for level in levels:
                for cells in level:
                    A = configuration_matrix(make_config(cells, eta=eta, c_tau=c_tau))
                    assert is_torque_balanced(A, 1e-10), (cells, eta, c_tau)

    @pytest.mark.parametrize("side_length", [1e6, 1e8, 1e12])
    def test_large_lattice_balances(self, side_length):
        # The net torque's round-off grows with the lattice's length scale:
        # 8e-10 for this T pentomino at a side of 1e6, 1e-4 at 1e12.
        cells = {(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)}
        A = configuration_matrix(make_config(cells, side_length=side_length))
        assert is_torque_balanced(A, 1e-10)


class TestSurfaces:
    def test_single_module_four_surfaces(self):
        assert len(attachable_surfaces(make_config({(0, 0)}))) == 4

    def test_domino_six_surfaces(self):
        assert len(attachable_surfaces(make_config({(0, 0), (1, 0)}))) == 6

    def test_square_block_eight_surfaces(self):
        cfg = make_config({(0, 0), (1, 0), (0, 1), (1, 1)})
        assert len(attachable_surfaces(cfg)) == 8

    def test_deterministic_order(self):
        cfg = make_config({(0, 0), (1, 0)})
        surfaces = attachable_surfaces(cfg)
        assert surfaces == sorted(surfaces, key=lambda s: (s[0], ["+x", "-x", "+y", "-y"].index(s[1])))


class TestConnectivity:
    def test_adjacent_pair(self):
        assert is_connected({(0, 0), (1, 0)})

    def test_gap(self):
        assert not is_connected({(0, 0), (2, 0)})

    def test_diagonal_is_not_docked(self):
        assert not is_connected({(0, 0), (1, 1)})

    def test_empty_set(self):
        assert not is_connected(set())

    def test_structure_rejects_disconnected(self):
        with pytest.raises(StructureError):
            make_config({(0, 0), (2, 0)})

    def test_structure_rejects_empty(self):
        with pytest.raises(StructureError):
            make_config(set())

    def test_structure_rejects_non_integer_cell(self):
        with pytest.raises(StructureError, match="integers"):
            make_config({(0, 0), (0.5, 0)})


class TestCanonicalForm:
    def test_translation_normalized(self):
        assert canonical_form({(5, 5), (6, 5)}) == ((0, 0), (1, 0))

    def test_translates_agree(self):
        assert canonical_form({(0, 0), (1, 0)}) == canonical_form({(3, -2), (4, -2)})

    def test_empty_set_rejected(self):
        with pytest.raises(StructureError, match="nonempty"):
            canonical_form(set())

    def test_rotation_not_quotiented(self):
        assert canonical_form({(0, 0), (0, 1)}) != canonical_form({(0, 0), (1, 0)})

    def test_random_translates(self):
        rng = np.random.default_rng(11)
        cells = {(0, 0), (1, 0), (1, 1), (2, 1)}
        base = canonical_form(cells)
        for _ in range(20):
            dx, dy = rng.integers(-50, 50, size=2)
            shifted = {(ix + dx, iy + dy) for ix, iy in cells}
            assert canonical_form(shifted) == base
