import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as dense
import fracgraph as fg
from conftest import make_random_graph
from linear_flow_reference import fractional_laplacian_spectral


def random_kernel(seed, n=None, s=0.5):
    g = make_random_graph(seed, n=n)
    return fg.build_kernel(g, s)


class TestBuildKernel:
    def test_reused_decomposition_gives_identical_kernel(self, k5):
        dec = fg.decompose(k5)
        for s in (0.3, 0.7):
            reused = fg.build_kernel(k5, s, dec)
            assert reused.dec is dec
            np.testing.assert_array_equal(reused.w, fg.build_kernel(k5, s).w)

    def test_decomposition_of_another_graph_is_rejected(self, k2, k5):
        with pytest.raises(fg.DomainError):
            fg.build_kernel(k5, 0.5, fg.decompose(k2))

    @pytest.mark.parametrize("copier", [lambda k: pickle.loads(pickle.dumps(k)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_keep_read_only_arrays(self, copier):
        kern = random_kernel(6, n=6)
        twin = copier(kern)
        assert twin.dec.graph is twin.graph and twin.s == kern.s
        for name in ("w", "row_sums"):
            assert not getattr(twin, name).flags.writeable
            np.testing.assert_array_equal(getattr(twin, name), getattr(kern, name))
        for name in ("eigenvalues", "phi"):
            assert not getattr(twin.dec, name).flags.writeable
            np.testing.assert_array_equal(getattr(twin.dec, name), getattr(kern.dec, name))
        assert not twin.graph.weights.flags.writeable
        np.testing.assert_array_equal(fg.build_kernel(twin.graph, 0.3, twin.dec).w,
                                      fg.build_kernel(kern.graph, 0.3, kern.dec).w)


class TestFracLaplacian:
    def test_constant_vanishes(self, k2_kernel):
        np.testing.assert_array_equal(fg.frac_laplacian(k2_kernel, np.full(2, 5.0)), 0.0)

    def test_k2_closed_form(self, k2_kernel):
        out = fg.frac_laplacian(k2_kernel, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [2.0**-0.5, -(2.0**-0.5)], rtol=1e-13)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_spectral_form(self, seed):
        kern = random_kernel(seed)
        u = np.random.default_rng(seed).normal(size=kern.n)
        ref = fractional_laplacian_spectral(kern.dec, kern.s, u)
        out = fg.frac_laplacian(kern, u)
        np.testing.assert_allclose(out, ref, atol=1e-10 * (np.abs(ref).max() + 1.0))

    def test_integrates_to_zero(self):
        kern = random_kernel(8)
        u = np.random.default_rng(8).normal(size=kern.n)
        out = fg.frac_laplacian(kern, u)
        assert abs(fg.integrate(kern.graph, out)) <= 1e-12 * (
            np.abs(out * kern.graph.mu).sum() + 1.0
        )


class TestFracPLaplacian:
    def test_p2_reduces_exactly(self):
        kern = random_kernel(5)
        u = np.random.default_rng(5).normal(size=kern.n)
        a = fg.frac_p_laplacian(kern, u, 2.0)
        b = fg.frac_laplacian(kern, u)
        np.testing.assert_array_equal(a, b)

    def test_constant_vanishes_any_p(self, k2_kernel):
        for p, eps in [(1.5, 0.0), (1.5, 1e-12), (3.0, 0.0)]:
            out = fg.frac_p_laplacian(k2_kernel, np.full(2, 2.0), p, eps)
            np.testing.assert_array_equal(out, 0.0)

    def test_k2_p3_closed_form(self, k2_kernel):
        # both gradient lengths are 2^{-3/4}; value = g * W * d = 2^{-5/4}
        out = fg.frac_p_laplacian(k2_kernel, np.array([1.0, 0.0]), 3.0)
        assert out[0] == pytest.approx(2.0**-1.25, rel=1e-13)
        assert out[1] == pytest.approx(-(2.0**-1.25), rel=1e-13)

    def test_p_out_of_range(self, k2_kernel):
        with pytest.raises(fg.ExponentOutOfRange):
            fg.frac_p_laplacian(k2_kernel, np.ones(2), 1.0)

    def test_translation_invariance(self):
        kern = random_kernel(6)
        u = np.random.default_rng(6).normal(size=kern.n)
        for p in (1.5, 2.7):
            a = fg.frac_p_laplacian(kern, u, p, 1e-12)
            b = fg.frac_p_laplacian(kern, u + 3.0, p, 1e-12)
            np.testing.assert_allclose(a, b, atol=1e-12 * (np.abs(a).max() + 1.0))

    def test_divergence_free(self):
        kern = random_kernel(7)
        u = np.random.default_rng(7).normal(size=kern.n)
        for p in (1.5, 2.0, 3.0):
            out = fg.frac_p_laplacian(kern, u, p, 1e-12)
            scale = np.abs(out * kern.graph.mu).sum() + 1.0
            assert abs(fg.integrate(kern.graph, out)) <= 1e-12 * scale

    def test_homogeneity_p_ge_2(self):
        kern = random_kernel(9)
        u = np.random.default_rng(9).normal(size=kern.n)
        for p, c in [(3.0, 2.0), (2.5, -1.5)]:
            lhs = fg.frac_p_laplacian(kern, c * u, p, 0.0)
            rhs = abs(c) ** (p - 2.0) * c * fg.frac_p_laplacian(kern, u, p, 0.0)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_monotone_pairing(self):
        kern = random_kernel(10)
        u = np.random.default_rng(10).normal(size=kern.n)
        for p in (2.0, 3.0):
            pairing = fg.mu_inner(
                kern.graph, fg.frac_p_laplacian(kern, u, p, 0.0), u
            )
            energy = fg.dirichlet_p_energy(kern, u, p)
            assert pairing == pytest.approx(energy, rel=1e-10)
            assert pairing >= 0.0

    def test_gradient_of_dirichlet_energy(self):
        # central finite differences of (1/2) int |grad^s u|^2 dmu match
        # frac_laplacian * mu coordinatewise
        kern = random_kernel(12, n=6)
        u = np.random.default_rng(12).normal(size=kern.n)
        ref = fg.frac_laplacian(kern, u) * kern.graph.mu
        h = 1e-6
        for i in range(kern.n):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                fg.dirichlet_p_energy(kern, up, 2.0)
                - fg.dirichlet_p_energy(kern, dn, 2.0)
            ) / (4.0 * h)
            assert fd == pytest.approx(ref[i], abs=1e-6)


class TestEnergies:
    def test_dirichlet_constant_zero(self, k2_kernel):
        assert fg.dirichlet_p_energy(k2_kernel, np.full(2, 9.0), 2.0) == 0.0

    def test_dirichlet_k2_closed_form(self, k2_kernel):
        u = np.array([1.0, 0.0])
        assert fg.dirichlet_p_energy(k2_kernel, u, 2.0) == pytest.approx(
            2.0**-0.5, rel=1e-13
        )

    def test_dirichlet_p_homogeneous(self):
        kern = random_kernel(14)
        u = np.random.default_rng(14).normal(size=kern.n)
        for p, c in [(1.5, 2.0), (2.0, -3.0), (3.0, 0.5)]:
            assert fg.dirichlet_p_energy(kern, c * u, p) == pytest.approx(
                abs(c) ** p * fg.dirichlet_p_energy(kern, u, p), rel=1e-10
            )

    @pytest.mark.parametrize("p", [0.5, -2.0, float("nan")])
    def test_p_out_of_range(self, k2_kernel, p):
        u = np.array([1.0, 0.0])
        with pytest.raises(fg.ExponentOutOfRange, match="need p >= 1"):
            fg.dirichlet_p_energy(k2_kernel, u, p)


class TestStacks:
    """A stack of states (m, n) gives, row by row, what single calls give."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_rows_match_single_calls(self, p):
        kern = random_kernel(5, n=9, s=0.4)
        stack = np.random.default_rng(5).uniform(0.5, 2.0, (6, kern.n))
        stack[3] = 1.7
        energies = fg.dirichlet_p_energy(kern, stack, p)
        rhs = fg.rhs_direct(kern, stack, p, 1.5, 1e-12)
        assert energies.shape == (6,) and rhs.shape == stack.shape
        for row, energy, r in zip(stack, energies, rhs):
            single = fg.dirichlet_p_energy(kern, row, p)
            assert abs(energy - single) <= 1e-12 * abs(single)
            single = fg.rhs_direct(kern, row, p, 1.5, 1e-12)
            assert np.max(np.abs(r - single)) <= 1e-12 * np.max(np.abs(single))
        assert energies[3] == 0.0
        np.testing.assert_array_equal(rhs[3], 0.0)

    def test_bad_shapes_rejected(self, k2_kernel):
        for bad in (np.ones((3, 3)), np.ones((1, 2, 2)), np.float64(1.0)):
            with pytest.raises(fg.LengthMismatch):
                fg.dirichlet_p_energy(k2_kernel, bad, 2.0)
            with pytest.raises(fg.LengthMismatch):
                fg.frac_p_laplacian(k2_kernel, bad, 2.0)
        # the functions of one state still take one state only
        with pytest.raises(fg.LengthMismatch):
            fg.frac_laplacian(k2_kernel, np.ones((2, 2)))


class TestIntegrationByParts:
    def test_constant_v(self):
        kern = random_kernel(20)
        u = np.random.default_rng(20).normal(size=kern.n)
        v = np.full(kern.n, 4.0)
        assert fg.ibp_residual(kern, u, v, 2.7, 1e-12) <= 1e-12

    def test_v_equals_u_p2(self):
        kern = random_kernel(21)
        u = np.random.default_rng(21).normal(size=kern.n)
        res = fg.ibp_residual(kern, u, u, 2.0)
        energy = fg.dirichlet_p_energy(kern, u, 2.0)
        assert res <= 1e-10 * (2.0 * energy + 1.0)

    @pytest.mark.parametrize("p", [1.0, 0.5, float("nan")])
    def test_p_out_of_range(self, k2_kernel, p):
        u = np.array([1.0, 0.0])
        with pytest.raises(fg.ExponentOutOfRange, match="need p > 1"):
            fg.ibp_residual(k2_kernel, u, u, p)

    @given(seed=st.integers(0, 5_000), p=st.sampled_from([1.5, 2.0, 2.7, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_identity_random(self, seed, p):
        kern = random_kernel(seed)
        rng = np.random.default_rng(seed + 17)
        u = rng.normal(size=kern.n)
        v = rng.normal(size=kern.n)
        mu = kern.graph.mu
        lhs = abs(fg.mu_inner(kern.graph, fg.frac_p_laplacian(kern, u, p, 1e-12), v))
        assert fg.ibp_residual(kern, u, v, p, 1e-12) <= 1e-10 * (2.0 * lhs + 1.0)


kernels = st.builds(
    lambda seed, n, s: fg.build_kernel(
        fg.random_connected_graph(np.random.default_rng(seed), n), s
    ),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
exponents = st.floats(1.0, 4.0, exclude_min=True, exclude_max=True)
regularizations = st.sampled_from([0.0, 1e-12])


class TestDenseReference:
    """The kernel-product operators against the pairwise sums in dense_reference."""

    @given(kern=kernels, p=exponents, eps_reg=regularizations,
           level=st.floats(-2.0, 2.0), log_spread=st.floats(-8.0, 0.0),
           seed=st.integers(0, 2**32 - 1))
    # the left side's terms cancel 2.3e4-fold here: a plain sum of them leaves a
    # residual of 5.79e-15, 1.49e-12 of the sides
    @example(kern=fg.build_kernel(fg.random_connected_graph(np.random.default_rng(49), 49),
                                  0.03125),
             p=1.79296875, eps_reg=0.0, level=0.0, log_spread=0.0, seed=49)
    # the summands cancel 3.2e5-fold here: the compensated sums leave a residual
    # of 3.04e-12 of the sides, 0.087 eps times the summands' absolute sum
    @example(kern=fg.build_kernel(fg.random_connected_graph(np.random.default_rng(180252900),
                                                            48), 0.18527832265137514),
             p=2.739074717718734, eps_reg=0.0, level=-0.45022462188422185,
             log_spread=math.log10(1.2330943153442343e-08), seed=2686360641)
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_sums(self, kern, p, eps_reg, level, log_spread, seed):
        # near-constant states (spread down to 1e-8) are where the expanded
        # products cancel; the bound is relative to the pairwise result
        rng = np.random.default_rng(seed)
        u = level + 10.0**log_spread * rng.uniform(-1.0, 1.0, kern.n)
        v = level + 10.0**log_spread * rng.uniform(-1.0, 1.0, kern.n)

        def assert_close(out, ref):
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

        assert_close(fg.frac_laplacian(kern, u), dense.laplacian(kern, u))
        assert_close(fg.frac_p_laplacian(kern, u, p, eps_reg),
                     dense.p_laplacian(kern, u, p, eps_reg))
        assert_close(fg.dirichlet_p_energy(kern, u, p), dense.dirichlet_p_energy(kern, u, p))
        # the sides may cancel to 1e-5 of their summands and less, where no
        # bound relative to the sides holds in doubles, so the residual is held
        # to the a-priori bound of a floating-point sum (Higham, Accuracy and
        # Stability of Numerical Algorithms, 4.2): a multiple of eps times the
        # absolute sum of the identity's summands.  Over 40 000 draws like
        # these the residual reached 2.0 eps times that sum
        bound = 16.0 * np.finfo(float).eps * dense.ibp_abs_sum(kern, u, v, p, eps_reg)
        assert fg.ibp_residual(kern, u, v, p, eps_reg) <= bound

    @given(kern=kernels, p=exponents, eps_reg=regularizations,
           level=st.floats(-1e6, 1e6))
    @example(kern=fg.build_kernel(make_random_graph(0, n=7), 0.5), p=1.5, eps_reg=0.0,
             level=0.1)
    @settings(max_examples=50, deadline=None)
    def test_constant_state_is_exactly_zero(self, kern, p, eps_reg, level):
        u = np.full(kern.n, level)
        np.testing.assert_array_equal(fg.frac_laplacian(kern, u), 0.0)
        np.testing.assert_array_equal(fg.frac_p_laplacian(kern, u, p, eps_reg), 0.0)
        assert fg.dirichlet_p_energy(kern, u, p) == 0.0
