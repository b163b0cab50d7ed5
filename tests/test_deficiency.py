"""Tests for deficiency-index arithmetic."""

import warnings
from fractions import Fraction

import pytest

from conespec import cli
from conespec.deficiency import (
    ClkModuleData,
    DeficiencyError,
    Extension,
    GradedSpectrum,
    clk_def_ind,
    cobordism_check,
    deficiency_brute_force,
    deficiency_indices,
    dirac_schrodinger_index,
    index_a_eps,
)


class TestGradedSpectrum:
    def test_counts_sub_threshold_spectrum(self):
        g = GradedSpectrum(
            kernel_plus=2,
            kernel_minus=1,
            positive=((0.2, 1.0), (0.4, 2.0), (0.7, 5.0)),
            threshold=0.5,
        )
        n_plus, n_minus = deficiency_indices(g)
        assert n_plus == 2 + 3
        assert n_minus == 1 + 3

    def test_threshold_is_strict(self):
        with pytest.warns(UserWarning):
            g = GradedSpectrum(kernel_plus=0, kernel_minus=0, positive=((0.5, 3.0),))
        assert g.small_weight() == 0

    def test_threshold_collision_warns(self):
        with pytest.warns(UserWarning):
            GradedSpectrum(
                kernel_plus=0, kernel_minus=0, positive=((0.5 + 1e-14, 1.0),)
            )

    def test_nonpositive_eigenvalue_rejected(self):
        with pytest.raises(DeficiencyError):
            GradedSpectrum(kernel_plus=0, kernel_minus=0, positive=((-0.1, 1.0),))

    def test_index_ignores_positive_part(self):
        g = GradedSpectrum(kernel_plus=4, kernel_minus=1, positive=((0.1, 7.0),))
        assert index_a_eps(g) == 3

    def test_json_round_trip(self):
        g = GradedSpectrum(
            kernel_plus=1,
            kernel_minus=1,
            positive=((0.3, 2),),
            threshold=0.5,
            fredholm=False,
        )
        d = {
            "kernel_plus": 1,
            "kernel_minus": 1,
            "positive": [{"mu": 0.3, "weight": 2}],
            "lambda": 0.5,
            "fredholm": False,
        }
        # the CLI's reader gives back the spectrum the payload states
        g2 = cli._graded(d)
        assert g2 == g
        assert deficiency_indices(g2) == deficiency_indices(g)


class TestCobordism:
    def test_boundary_with_zero_index_passes(self):
        g = GradedSpectrum(kernel_plus=2, kernel_minus=2, positive=((0.3, 1.0),))
        assert cobordism_check(g, True)["status"] == "pass"

    def test_boundary_with_nonzero_index_fails(self):
        g = GradedSpectrum(kernel_plus=2, kernel_minus=1)
        out = cobordism_check(g, True)
        assert out["status"] == "fail"
        assert out["index"] == 1

    def test_non_boundary_is_informational(self):
        g = GradedSpectrum(kernel_plus=2, kernel_minus=1)
        assert cobordism_check(g, False)["status"] == "info"


class TestClk:
    def test_mod_two_residue_one(self):
        assert clk_def_ind(ClkModuleData(k=1, e_plus_dim_real=3))["value"] == 1
        assert clk_def_ind(ClkModuleData(k=9, e_plus_dim_real=4))["value"] == 0

    def test_mod_two_residue_two_halves_dimension(self):
        out = clk_def_ind(ClkModuleData(k=2, e_plus_dim_real=6))
        assert out["ring"] == "Z/2"
        assert out["value"] == 1
        with pytest.raises(DeficiencyError):
            clk_def_ind(ClkModuleData(k=2, e_plus_dim_real=5))

    def test_integer_residues(self):
        out = clk_def_ind(ClkModuleData(k=4, e_plus_dim_real=8, signed_index=-3))
        assert out["ring"] == "Z"
        assert out["value"] == -3
        assert clk_def_ind(ClkModuleData(k=8, e_plus_dim_real=0, signed_index=2))[
            "value"
        ] == 2

    def test_trivial_residues(self):
        for k in (3, 5, 6, 7):
            out = clk_def_ind(ClkModuleData(k=k, e_plus_dim_real=5))
            assert out["ring"] == "0"
            assert out["value"] == 0

    def test_rejects_negative_data(self):
        with pytest.raises(DeficiencyError):
            ClkModuleData(k=-1, e_plus_dim_real=0)


class TestDiracSchrodinger:
    def test_exact_fractions(self):
        out = dirac_schrodinger_index(3, 1, 2, Extension.MAX)
        assert out == Fraction(3, 2) - Fraction(1, 2) + Fraction(2, 2)
        assert isinstance(out, Fraction)

    def test_min_flips_sign(self):
        mx = dirac_schrodinger_index(3, 0, 0, "max")
        mn = dirac_schrodinger_index(3, 0, 0, "min")
        assert mx == -mn == Fraction(3, 2)

    def test_unknown_extension(self):
        with pytest.raises(DeficiencyError):
            dirac_schrodinger_index(1, 0, 0, "average")

    def test_complex_inputs_fall_back_to_complex(self):
        out = dirac_schrodinger_index(1.5 + 0j, 0.0, 0.0, Extension.MAX)
        assert out == pytest.approx(0.75)


class TestBruteForce:
    def test_matches_closed_form_on_random_spectra(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            wp, wm = rng.randint(0, 4), rng.randint(0, 4)
            positive = tuple(
                (rng.uniform(0.05, 1.2), float(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 4))
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                g = GradedSpectrum(kernel_plus=wp, kernel_minus=wm, positive=positive)
            predicted = deficiency_indices(g)
            brute = deficiency_brute_force(g)
            assert (int(predicted[0].real), int(predicted[1].real)) == brute

    def test_requires_integer_weights(self):
        g = GradedSpectrum(kernel_plus=0.5, kernel_minus=0, positive=())
        with pytest.raises(DeficiencyError):
            deficiency_brute_force(g)

    def test_empty_spectrum(self):
        g = GradedSpectrum(kernel_plus=0, kernel_minus=0)
        assert deficiency_brute_force(g) == (0, 0)
