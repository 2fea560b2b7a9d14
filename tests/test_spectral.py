import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracgraph as fg
import graph_reference as ref
from conftest import DEGENERATE_DOCS, REFERENCE_S, make_random_graph
from linear_flow_reference import fractional_laplacian_spectral


@st.composite
def extreme_graphs(draw):
    """Connected graphs of 2 to 5 vertices with measures and weights 10^e, e in [-320, 308]:
    a random spanning tree, then each other pair an edge or not."""
    n = draw(st.integers(2, 5))
    scale = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
    mu = np.array([draw(scale) for _ in range(n)])
    w = np.zeros((n, n))
    for k in range(1, n):
        j = draw(st.integers(0, k - 1))
        w[k, j] = w[j, k] = draw(scale)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0 and draw(st.booleans()):
                w[i, j] = w[j, i] = draw(scale)
    return fg.Graph(mu=mu, weights=w)


class TestDecompose:
    def test_k2_eigenvalues(self, k2):
        dec = fg.decompose(k2)
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_p3_eigenvalues(self, p3):
        # characteristic polynomial of the 3x3 stencil has roots 0, 1, 3
        dec = fg.decompose(p3)
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_ground_state_is_normalized_constant(self):
        g = make_random_graph(5)
        dec = fg.decompose(g)
        np.testing.assert_allclose(
            dec.phi[0], 1.0 / math.sqrt(g.volume()), rtol=1e-10
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mu_orthonormal_and_reconstruction(self, seed):
        g = make_random_graph(seed)
        dec = fg.decompose(g)
        gram = (dec.phi * g.mu) @ dec.phi.T
        np.testing.assert_allclose(gram, np.eye(g.n), atol=1e-10)

        u = np.random.default_rng(seed).normal(size=g.n)
        coeffs = dec.phi @ (u * g.mu)
        recon = (dec.eigenvalues * coeffs) @ dec.phi
        ref = fg.laplacian_matrix(g) @ u
        np.testing.assert_allclose(recon, ref, atol=1e-10 * (np.abs(ref).max() + 1.0))

    def test_spectral_gap_positive(self):
        g = make_random_graph(9)
        dec = fg.decompose(g)
        assert dec.eigenvalues[0] == 0.0
        assert dec.eigenvalues[1] > 0.0

    def test_eigensolver_failure_is_no_convergence(self, k2, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(fg.NoConvergence, match="did not converge") as info:
            fg.decompose(k2)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_nonzero_smallest_eigenvalue_is_no_convergence(self, p3, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(a):
            vals, vecs = eigh(a)
            return vals + 1e-9, vecs  # the spectrum of p3 is 0, 1, 3

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(fg.NoConvergence, match="smallest eigenvalue 1.000e-09 is not"):
            fg.decompose(p3)

    @pytest.mark.parametrize("name", ["inf", "tiny"])
    def test_overflowing_laplacian_is_domain_error(self, name, monkeypatch):
        g = fg.graph_from_json(json.dumps(DEGENERATE_DOCS[name]))
        monkeypatch.setattr(np.linalg, "eigh", mock.Mock(side_effect=AssertionError))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fg.DomainError, match="overflows a float"):
                fg.decompose(g)

    @pytest.mark.parametrize("factors", [[np.nan] * 3, [1.0, 0.0, 1.0], [1.0, -1.0, 1.0]],
                             ids=["nan", "zero-second", "negative-second"])
    def test_spectrum_without_a_kernel_is_no_convergence(self, p3, monkeypatch, factors):
        eigh = np.linalg.eigh

        def forged(a):
            vals, vecs = eigh(a)
            return vals * factors, vecs  # the spectrum of p3 is 0, 1, 3

        monkeypatch.setattr(np.linalg, "eigh", forged)
        with pytest.raises(fg.NoConvergence, match="is not numerically zero below a positive"):
            fg.decompose(p3)

    @pytest.mark.parametrize("graph", [
        # every entry of S underflows to 0, and so does every eigenvalue
        pytest.param(lambda: fg.graph_from_json(json.dumps(DEGENERATE_DOCS["wide"])), id="wide"),
        # S is finite, but its eigenvalue 2e308 is not
        pytest.param(lambda: fg.Graph(mu=np.ones(2), weights=[[0.0, 1e308], [1e308, 0.0]]),
                     id="overflowing-eigenvalue")])
    def test_graph_without_a_kernel_is_no_convergence(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fg.NoConvergence, match="smallest eigenvalue"):
                fg.decompose(graph())

    @given(graph=extreme_graphs())
    @settings(max_examples=200, deadline=None)
    def test_spectrum_builds_a_kernel_or_is_refused(self, graph):
        """Measures and weights over 1e-320 ... 1e308: a typed refusal, or a spectrum
        with lambda_0 = 0 < lambda_1 and finite eigenpairs, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                dec = fg.decompose(graph)
            except fg.FracGraphError:
                return
        assert np.isfinite(dec.eigenvalues).all() and np.isfinite(dec.phi).all()
        assert dec.eigenvalues[0] == 0.0 < dec.eigenvalues[1]


class TestKernelWeights:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_k2_closed_form(self, k2, s):
        w = fg.kernel_weights(fg.decompose(k2), s)
        assert w[0, 1] == pytest.approx(2.0 ** (s - 1.0), rel=1e-13)
        assert w[0, 0] == 0.0

    def test_exponent_range(self, k2):
        dec = fg.decompose(k2)
        for s in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(fg.ExponentOutOfRange):
                fg.kernel_weights(dec, s)

    @given(seed=st.integers(0, 10_000), s=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    @settings(max_examples=25, deadline=None)
    def test_positive_and_symmetric(self, seed, s):
        g = make_random_graph(seed)
        w = fg.kernel_weights(fg.decompose(g), s)
        off = ~np.eye(g.n, dtype=bool)
        assert np.all(w[off] > 0)
        # the kernel is -C^T C from a symmetric rank-k update, exactly symmetric
        assert np.array_equal(w, w.T)

    def test_nan_kernel_is_positivity_violation(self, p3):
        dec = fg.decompose(p3)
        phi = dec.phi.copy()
        phi[1, 0] = np.nan
        forged = fg.SpectralDecomposition(graph=p3, eigenvalues=dec.eigenvalues, phi=phi)
        with pytest.raises(fg.PositivityViolation, match="entry nan at s=0.5"):
            fg.kernel_weights(forged, 0.5)

    def test_s1_collapse_to_edge_weights(self):
        g = make_random_graph(17, n=8)
        dec = fg.decompose(g)
        w1 = fg.spectral_weight_matrix(dec, 1.0)
        assert np.max(np.abs(w1 - g.weights)) <= 1e-10 * g.weights.max()

    def test_near_one_approaches_edge_weights(self):
        g = make_random_graph(23, n=6)
        dec = fg.decompose(g)
        dev = [
            np.max(np.abs(fg.spectral_weight_matrix(dec, s) - g.weights))
            for s in (0.99, 0.999)
        ]
        assert dev[1] < dev[0]


class TestQuadratureOracle:
    def test_scalar_identity_lambda2(self):
        # s/Gamma(1-s) * int (1 - exp(-2t)) t^(-3/2) dt == sqrt(2)
        assert fg.fractional_power_quadrature(2.0, 0.5) == pytest.approx(
            math.sqrt(2.0), rel=1e-10
        )

    @given(
        lam=st.floats(1e-3, 1e3),
        s=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_matches_power(self, lam, s):
        assert fg.fractional_power_quadrature(lam, s) == pytest.approx(
            lam**s, rel=1e-8
        )

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    def test_right_at_every_scale(self, s):
        # the grid follows lam, so lam = 1e16 and 1e-18 are as right as lam = 2, and
        # so are the smallest subnormal and either side of 2^-25 and 2^24, where an
        # earlier grid switched rule; only overflow is refused (below)
        edges = [np.nextafter(2.0**-25, 0), 2.0**-25, np.nextafter(2.0**24, 0), 2.0**24]
        lams = np.array([10.0**j for j in range(-300, 301)] + [5e-324] + edges)
        values = np.array([fg.fractional_power_quadrature(lam, s) for lam in lams])
        assert np.max(np.abs(values / lams**s - 1.0)) <= 1e-10

    @pytest.mark.parametrize("lam, s", [(1.7e308, 0.95), (math.inf, 0.5)])
    def test_overflow_is_refused(self, lam, s):
        with pytest.raises(fg.QuadratureNotConverged, match=re.escape(f"lam={lam}, s={s}")):
            fg.fractional_power_quadrature(lam, s)

    def test_k2_closed_form(self, k2):
        w = fg.kernel_weights_oracle(fg.decompose(k2), 0.5)
        assert w[0, 1] == pytest.approx(2.0**-0.5, rel=1e-10)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, float("nan")])
    def test_exponent_range(self, k2, s):
        with pytest.raises(fg.ExponentOutOfRange, match="need 0 < s < 1"):
            fg.fractional_power_quadrature(2.0, s)
        with pytest.raises(fg.ExponentOutOfRange, match="need 0 < s < 1"):
            fg.kernel_weights_oracle(fg.decompose(k2), s)

    def test_negative_eigenvalue(self):
        with pytest.raises(fg.DomainError, match="lam = -1e-12, need lam >= 0"):
            fg.fractional_power_quadrature(-1e-12, 0.5)
        with pytest.raises(fg.DomainError, match="lam = nan, need lam >= 0"):
            fg.fractional_power_quadrature(math.nan, 0.5)

    def test_coarse_grid_raises_typed_error(self, k2, monkeypatch):
        # 8 Simpson panels differ from 4 by far more than the check tolerance
        monkeypatch.setattr(fg.spectral, "_PANELS", 8)
        with pytest.raises(fg.QuadratureNotConverged, match="lam=2.0, s=0.5"):
            fg.fractional_power_quadrature(2.0, 0.5)
        # K2's eigenvalues are 0 and 2
        with pytest.raises(fg.QuadratureNotConverged):
            fg.kernel_weights_oracle(fg.decompose(k2), 0.5)

    def test_integrand_is_evaluated_once(self, monkeypatch):
        spy = mock.Mock(wraps=np.expm1)
        monkeypatch.setattr(np, "expm1", spy)
        fg.fractional_power_quadrature(2.0, 0.5)
        assert spy.call_count == 1

    @pytest.mark.parametrize("panels", [fg.spectral._PANELS, 8])
    def test_check_grid_is_the_even_nodes(self, panels):
        # the check's grid of half the panels, bit for bit, so the even nodes of one
        # evaluation of the integrand are its nodes
        lo, hi = fg.spectral._TAU_MIN, fg.spectral._TAU_MAX
        fine, coarse = np.linspace(lo, hi, panels + 1), np.linspace(lo, hi, panels // 2 + 1)
        assert np.ascontiguousarray(fine[::2]).tobytes() == coarse.tobytes()

    @staticmethod
    def _outcome(fn, lam, s):
        """fn(lam, s) as the hex digits of its value, or its error's type and message."""
        try:
            return float.hex(fn(lam, s))
        except fg.FracGraphError as exc:
            return type(exc), str(exc)

    def test_matches_two_grid_form_bit_for_bit(self):
        rng = np.random.default_rng(34)
        lams = [2.0, 1e-300, 1e300, 1e-20, 2e20, *rng.uniform(0.0, 60.0, 100),
                *10.0 ** rng.uniform(-300.0, 300.0, 100),
                0.0, -1.0, math.nan, math.inf, 1.7e308, 5e-324]
        cases = [(float(lam), s) for lam in lams for s in (2.0**-5, 0.3, 0.5, 0.7, 0.99)]
        cases += [(2.0, 0.0), (2.0, 1.0), (2.0, math.nan)]
        outcomes = [(self._outcome(fg.fractional_power_quadrature, lam, s),
                     self._outcome(ref.fractional_power_quadrature, lam, s))
                    for lam, s in cases]
        assert [one for one, two in outcomes if one != two] == []
        # the cases hold values and each kind of error
        kinds = {str if isinstance(two, str) else two[0] for _, two in outcomes}
        assert kinds == {str, fg.QuadratureNotConverged, fg.DomainError, fg.ExponentOutOfRange}

    def test_coarse_grid_matches_two_grid_form(self, monkeypatch):
        monkeypatch.setattr(fg.spectral, "_PANELS", 8)
        for lam, s in [(2.0, 0.5), (1e-20, 0.3), (3e10, 0.99)]:
            one = self._outcome(fg.fractional_power_quadrature, lam, s)
            assert one == self._outcome(ref.fractional_power_quadrature, lam, s)
            assert one == (fg.QuadratureNotConverged, f"lam={lam}, s={s}")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_spectral_kernel(self, seed):
        g = make_random_graph(seed, n=8)
        dec = fg.decompose(g)
        for s in (0.1, 0.5, 0.9):
            w = fg.kernel_weights(dec, s)
            wo = fg.kernel_weights_oracle(dec, s)
            off = ~np.eye(g.n, dtype=bool)
            assert np.max(np.abs(w - wo)[off] / np.abs(w[off])) < 1e-6


class TestMatrixPowerOracle:
    """The kernel against scipy's Schur-Pade fractional matrix power, no eigh.

    W_s = -R S^s R with R = diag(sqrt(mu)) and S the symmetric conjugate of
    -Delta that decompose diagonalizes.  S is singular, so its power is taken
    deflated: S^s = (S + P0)^s - P0, where P0 = sqrt(mu) sqrt(mu)^T / vol V
    projects onto the null space.  Without the deflation scipy's power is off
    by 0.14-0.19 at s = 0.05 on these graphs.  The worst entry is 1.0e-10
    relative (n = 60, s = 0.99).  Scaling the exponent in
    spectral_weight_matrix by 1 + 1e-6 fails every case: its worst entry is
    off by 1.4e-8 (n = 2, s = 0.05) to 9.9e-5 (s = 0.99).
    """

    @pytest.mark.parametrize("n", [2, 8, 20, 60])
    def test_matches_deflated_matrix_power(self, n):
        linalg = pytest.importorskip("scipy.linalg")
        g = fg.random_connected_graph(np.random.default_rng([1, n]), n,
                                      extra_edge_prob=min(0.4, 8 / n))
        rmu = np.sqrt(g.mu)
        s_mat = -g.weights / np.outer(rmu, rmu)
        np.fill_diagonal(s_mat, g.degrees / g.mu)
        p0 = np.outer(rmu, rmu) / g.volume()
        dec = fg.decompose(g)
        off = ~np.eye(n, dtype=bool)
        for s in REFERENCE_S:
            power = linalg.fractional_matrix_power(s_mat + p0, s) - p0
            expected = -rmu[:, None] * power * rmu
            np.testing.assert_allclose(fg.kernel_weights(dec, s)[off], expected[off],
                                       rtol=1e-9, atol=0)


class TestFractionalLaplacianSpectral:
    def test_constant_in_kernel(self):
        g = make_random_graph(31)
        dec = fg.decompose(g)
        out = fractional_laplacian_spectral(dec, 0.5, np.full(g.n, 2.5))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_small_s_limit_is_projection(self):
        g = make_random_graph(13, n=6)
        dec = fg.decompose(g)
        u = np.random.default_rng(0).normal(size=g.n)
        mean = fg.integrate(g, u) / g.volume()
        out = fractional_laplacian_spectral(dec, 0.001, u)
        np.testing.assert_allclose(out, u - mean, atol=0.02 * np.abs(u).max())

    def test_large_s_limit_is_laplacian(self):
        g = make_random_graph(13, n=6)
        dec = fg.decompose(g)
        u = np.random.default_rng(0).normal(size=g.n)
        ref = fg.laplacian_matrix(g) @ u
        out = fractional_laplacian_spectral(dec, 0.999, u)
        np.testing.assert_allclose(out, ref, atol=0.02 * np.abs(ref).max())

    def test_limits_improve_monotonically(self):
        g = make_random_graph(41, n=5)
        dec = fg.decompose(g)
        u = np.random.default_rng(1).normal(size=g.n)
        ref = fg.laplacian_matrix(g) @ u
        errs_up = [
            np.max(np.abs(fractional_laplacian_spectral(dec, s, u) - ref))
            for s in (0.5, 0.6, 0.7, 0.8, 0.9, 0.999)
        ]
        assert all(a >= b for a, b in zip(errs_up, errs_up[1:]))

        mean = fg.integrate(g, u) / g.volume()
        errs_down = [
            np.max(np.abs(fractional_laplacian_spectral(dec, s, u) - (u - mean)))
            for s in (0.5, 0.4, 0.3, 0.2, 0.1, 0.001)
        ]
        assert all(a >= b for a, b in zip(errs_down, errs_down[1:]))

    def test_integrates_to_zero(self):
        g = make_random_graph(19)
        dec = fg.decompose(g)
        u = np.random.default_rng(2).normal(size=g.n)
        out = fractional_laplacian_spectral(dec, 0.3, u)
        assert abs(fg.integrate(g, out)) <= 1e-12 * (np.abs(out * g.mu).sum() + 1.0)


def _assert_same_kernel(w, expected):
    """Exactly symmetric, and within 1e-13 max|W| of the loop form's kernel.

    The two round differently: -C^T C against the averaged general product.
    The measured gap is at most 5.0e-15 max|W| for n <= 60, 2.7e-14 at n = 500.
    """
    assert np.array_equal(w, w.T)
    assert np.max(np.abs(w - expected)) <= 1e-13 * np.max(np.abs(expected))


def _assert_same_spectral_setup(g):
    dec, expected = fg.decompose(g), ref.decompose(g)
    assert dec.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
    assert dec.phi.tobytes() == expected.phi.tobytes()
    for s in REFERENCE_S:
        _assert_same_kernel(fg.kernel_weights(dec, s), ref.kernel_weights(expected, s))


class TestAgainstLoopReference:
    """Loop-free sign fixing, bitwise against the loops, and kernel assembly."""

    @pytest.mark.parametrize("n", range(2, 61))
    def test_bitwise_equal(self, n):
        _assert_same_spectral_setup(make_random_graph(n, n=n))

    def test_bitwise_equal_benchmark_sized(self):
        n = 500
        _assert_same_spectral_setup(
            fg.random_connected_graph(np.random.default_rng(1), n, extra_edge_prob=8 / n))

    @given(seed=st.integers(0, 10_000), s=st.sampled_from(REFERENCE_S))
    @settings(max_examples=50, deadline=None)
    def test_positivity_check_agrees(self, seed, s):
        # pairing eigenvalues with the wrong eigenfunctions makes some kernels
        # negative; both must then raise PositivityViolation, or else agree
        g = make_random_graph(seed)
        dec = fg.decompose(g)
        shuffled = np.random.default_rng(seed).permutation(dec.eigenvalues)
        forged = fg.SpectralDecomposition(graph=g, eigenvalues=shuffled, phi=dec.phi.copy())
        outcomes = []
        for kernel_weights in (fg.kernel_weights, ref.kernel_weights):
            try:
                outcomes.append(kernel_weights(forged, s))
            except fg.PositivityViolation as exc:
                outcomes.append(exc)
        assert type(outcomes[0]) is type(outcomes[1])
        if isinstance(outcomes[0], np.ndarray):
            _assert_same_kernel(*outcomes)
