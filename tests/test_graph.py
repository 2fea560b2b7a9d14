import copy
import json
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracgraph as fg
import graph_reference as ref
from fracgraph import flow, graph
from conftest import DEGENERATE_DOCS, grid_doc, make_random_graph


class TestValidate:
    def test_k2_valid(self, k2):
        assert fg.validate(k2) == []

    def test_negative_weight(self):
        g = fg.Graph(mu=np.ones(2), weights=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        codes = {v.code for v in fg.validate(g)}
        assert "NonPositiveWeight" in codes

    def test_bad_shape(self):
        g = fg.Graph(mu=np.ones(3), weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert fg.validate(g) == [fg.Violation("BadShape", "weights shape (2, 2) != (3,3)")]

    def test_disconnected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = fg.Graph(mu=np.ones(4), weights=w)
        codes = {v.code for v in fg.validate(g)}
        assert codes == {"Disconnected"}

    def test_self_loop(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        g = fg.Graph(mu=np.ones(2), weights=w)
        assert "SelfLoop" in {v.code for v in fg.validate(g)}

    def test_nonpositive_measure(self):
        g = fg.Graph(mu=np.array([1.0, 0.0]), weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert "NonPositiveMeasure" in {v.code for v in fg.validate(g)}

    def test_asymmetric(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        g = fg.Graph(mu=np.ones(2), weights=w)
        assert "AsymmetricWeight" in {v.code for v in fg.validate(g)}

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_weight(self, bad):
        g = fg.Graph(mu=np.ones(2), weights=np.array([[0.0, bad], [bad, 0.0]]))
        codes = {v.code for v in fg.validate(g)}
        assert "NonFiniteWeight" in codes
        assert "AsymmetricWeight" not in codes

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_measure(self, bad):
        g = fg.Graph(mu=np.array([1.0, bad]), weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        codes = {v.code for v in fg.validate(g)}
        assert "NonFiniteMeasure" in codes
        assert "NonPositiveMeasure" not in codes

    def test_require_valid_raises(self):
        g = fg.Graph(mu=np.ones(2), weights=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(fg.InvalidGraph):
            g.require_valid()

    def test_require_valid_checks_once(self, k2, monkeypatch):
        g = fg.graph_from_json(fg.graph_to_json(k2))  # validated while parsed
        spy = mock.Mock(return_value=[])
        monkeypatch.setattr(fg.graph, "validate", spy)
        assert g.require_valid() is g
        fg.decompose(g)
        assert spy.call_count == 0

    def test_owns_read_only_copies(self):
        mu, w = np.ones(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        g = fg.Graph(mu=mu, weights=w).require_valid()
        w[0, 1] = -1.0
        mu[0] = 0.0
        assert g.weights[0, 1] == 1.0 and g.mu[0] == 1.0
        with pytest.raises(ValueError):
            g.weights[0, 1] = -1.0
        with pytest.raises(ValueError):
            g.mu[0] = 0.0

    @pytest.mark.parametrize("copier", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_are_read_only_and_validated_anew(self, copier, monkeypatch):
        g = fg.random_connected_graph(np.random.default_rng(6), 6)
        twin = copier(g)
        for a, b in ((twin.mu, g.mu), (twin.weights, g.weights)):
            assert a is not b and not a.flags.writeable
            np.testing.assert_array_equal(a, b)
            with pytest.raises(ValueError):
                a[0] = -1.0
        assert twin.labels == g.labels
        spy = mock.Mock(wraps=fg.validate)
        monkeypatch.setattr(fg.graph, "validate", spy)
        fg.decompose(twin)
        assert spy.call_count == 1


class TestIntegrate:
    def test_total_measure(self, k2):
        assert fg.integrate(k2, np.ones(2)) == 2.0

    def test_weighted_sum(self):
        g = fg.Graph(mu=np.array([2.0, 3.0]), weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert fg.integrate(g, np.array([1.0, 2.0])) == 8.0

    def test_zero(self, k2):
        assert fg.integrate(k2, np.zeros(2)) == 0.0

    def test_length_mismatch(self, k2):
        with pytest.raises(fg.LengthMismatch):
            fg.integrate(k2, np.ones(3))

    def test_overflowing_volume_is_infinite(self):
        g = fg.graph_from_json(json.dumps(DEGENERATE_DOCS["bigmu"]))
        assert g.volume() == math.inf


class TestVertexCap:
    """MAX_VERTICES, checked before any n x n matrix is made; each test lowers it."""

    def test_weight_matrix_at_the_cap_holds_the_sample_cap(self):
        assert graph.MAX_VERTICES**2 == flow.MAX_SAMPLE_VALUES

    def test_document_over_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_VERTICES", 4)
        assert fg.graph_from_json(json.dumps(grid_doc(1, 4))).n == 4
        monkeypatch.setattr(np, "zeros", mock.Mock(side_effect=AssertionError))
        with pytest.raises(fg.InvalidGraph, match="TooManyVertices: n=5, at most 4 allowed"):
            fg.graph_from_json(json.dumps(grid_doc(1, 5)))

    def test_generator_over_the_cap_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_VERTICES", 4)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(fg.InvalidGraph, match="TooManyVertices: n=5, at most 4 allowed"):
            fg.random_connected_graph(rng, 5)
        assert rng.bit_generator.state == state
        assert fg.random_connected_graph(rng, 4).n == 4

    def test_validate_names_too_many_vertices(self, k5, monkeypatch):
        monkeypatch.setattr(graph, "MAX_VERTICES", 4)
        assert [v.code for v in fg.validate(k5)] == ["TooManyVertices"]
        with pytest.raises(fg.InvalidGraph, match="TooManyVertices"):
            fg.decompose(k5)


class TestLaplacian:
    def test_constant_in_kernel(self, p3):
        out = fg.laplacian_matrix(p3) @ np.full(3, 4.2)
        assert np.all(out == 0.0)

    def test_k2_two_point(self, k2):
        out = fg.laplacian_matrix(k2) @ np.array([1.0, 0.0])
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_p3_stencil(self, p3):
        # hand evaluation: x0 sees x1 only, x1 sees both ends, x2 sees x1
        out = fg.laplacian_matrix(p3) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out, [1.0, -1.0, 0.0])

    def test_k2_matrix(self, k2):
        np.testing.assert_array_equal(
            fg.laplacian_matrix(k2), [[1.0, -1.0], [-1.0, 1.0]]
        )

    def test_p3_matrix(self, p3):
        np.testing.assert_array_equal(
            fg.laplacian_matrix(p3),
            [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
        )

    def test_matrix_row_sums_vanish(self, p3):
        np.testing.assert_allclose(fg.laplacian_matrix(p3) @ np.ones(3), 0.0, atol=1e-15)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_self_adjoint_and_divergence_free(self, seed):
        g = make_random_graph(seed)
        rng = np.random.default_rng(seed + 1)
        u = rng.normal(size=g.n)
        v = rng.normal(size=g.n)
        lu, lv = fg.laplacian_matrix(g) @ u, fg.laplacian_matrix(g) @ v
        scale = abs(fg.mu_inner(g, lu, v)) + abs(fg.mu_inner(g, u, lv)) + 1.0
        assert abs(fg.mu_inner(g, lu, v) - fg.mu_inner(g, u, lv)) <= 1e-12 * scale
        assert abs(fg.integrate(g, lu)) <= 1e-12 * (np.abs(lu * g.mu).sum() + 1.0)

    @pytest.mark.parametrize("name", ["inf", "tiny"])
    def test_overflow_is_a_domain_error(self, name):
        g = fg.graph_from_json(json.dumps(DEGENERATE_DOCS[name]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fg.DomainError, match="^the Laplacian overflows a float$"):
                fg.laplacian_matrix(g)

    def test_matrix_matches_apply(self):
        # the defining sum (1/mu(x)) sum_y w_xy (u(x) - u(y))
        g = make_random_graph(3)
        u = np.random.default_rng(4).normal(size=g.n)
        np.testing.assert_allclose(
            fg.laplacian_matrix(g) @ u, (g.degrees * u - g.weights @ u) / g.mu,
            rtol=1e-13, atol=1e-13,
        )


class TestJsonFormat:
    def test_round_trip(self):
        g = make_random_graph(11, n=6)
        g2 = fg.graph_from_json(fg.graph_to_json(g))
        np.testing.assert_allclose(g2.mu, g.mu)
        np.testing.assert_allclose(g2.weights, g.weights)

    def test_rejects_self_loop(self):
        doc = {
            "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
            "edges": [{"u": "a", "v": "a", "w": 1.0}],
        }
        with pytest.raises(ValueError, match="self-loop"):
            fg.graph_from_json(json.dumps(doc))

    @pytest.mark.parametrize("vertex_mu, weight, message", [
        (True, 1.0, "vertex a: mu = True is not a number"),
        ("2", 1.0, "vertex a: mu = '2' is not a number"),
        (1.0, "1.5", "edge a-b: w = '1.5' is not a number"),
        (1.0, True, "edge a-b: w = True is not a number"),
    ])
    def test_rejects_non_number(self, vertex_mu, weight, message):
        # JSON true is not the number 1, nor is a string of digits a number
        doc = json.dumps({
            "vertices": [{"id": "a", "mu": vertex_mu}, {"id": "b", "mu": 1.0}],
            "edges": [{"u": "a", "v": "b", "w": weight}],
        })
        for parse in (fg.graph_from_json, ref.parse):
            with pytest.raises(ValueError) as exc_info:
                parse(doc)
            assert str(exc_info.value) == message

    def test_json_integers_are_numbers(self):
        doc = {
            "vertices": [{"id": "a", "mu": 2}, {"id": "b", "mu": 1.0}],
            "edges": [{"u": "a", "v": "b", "w": 3}],
        }
        g = fg.graph_from_json(json.dumps(doc))
        assert g.mu.tolist() == [2.0, 1.0] and g.weights[0, 1] == 3.0

    def test_rejects_duplicate_vertex_id(self):
        doc = {
            "vertices": [{"id": "a", "mu": 1.0}, {"id": "a", "mu": 2.0}],
            "edges": [],
        }
        with pytest.raises(ValueError, match="^duplicate vertex ids$"):
            fg.graph_from_json(json.dumps(doc))

    def test_rejects_overflowing_measure(self):
        # json.loads reads 10**400 as an int, which no float holds
        doc = {
            "vertices": [{"id": "a", "mu": 10**400}, {"id": "b", "mu": 1.0}],
            "edges": [{"u": "a", "v": "b", "w": 1.0}],
        }
        with pytest.raises(ValueError, match="^vertex measures must be numbers: int too large"):
            fg.graph_from_json(json.dumps(doc))

    def test_rejects_duplicate_edge(self):
        doc = {
            "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
            "edges": [
                {"u": "a", "v": "b", "w": 1.0},
                {"u": "b", "v": "a", "w": 2.0},
            ],
        }
        with pytest.raises(ValueError, match="duplicate edge"):
            fg.graph_from_json(json.dumps(doc))

    def test_rejects_unknown_vertex(self):
        doc = {
            "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
            "edges": [{"u": "a", "v": "c", "w": 1.0}],
        }
        with pytest.raises(ValueError, match="unknown vertex"):
            fg.graph_from_json(json.dumps(doc))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return exc


# Vertex ids a-e, often joined by a path; extra edges repeat pairs in either
# orientation, and now and then one is a self-loop or names the unknown id "x".
# Weights repeat zeros (so that a zero-weight edge recurs) and include NaN, inf
# and negatives; an integer is a number, but true and "2" are not.
_WEIGHTS = [1.0, 2.5, 0.5] * 2 + [0.0, -0.0, -1.0, float("nan"), float("inf"), 2, True]
_MEASURES = [1.0, 0.5, 3.0] * 4 + [0.0, -2.0, float("nan"), "2"]


@st.composite
def graph_documents(draw):
    labels = ["a", "b", "c", "d", "e"][:draw(st.integers(2, 5))]
    path = list(zip(labels, labels[1:])) if draw(st.booleans()) else []
    ends = [(u, v) for u in labels for v in labels if u != v] * 4
    ends += [(labels[0], labels[0]), (labels[-1], "x"), ("x", labels[0])]
    extra = draw(st.lists(st.sampled_from(ends), max_size=6))
    edges = draw(st.permutations(path + extra))
    weights = draw(st.lists(st.sampled_from(_WEIGHTS), min_size=len(edges),
                            max_size=len(edges)))
    mu = draw(st.lists(st.sampled_from(_MEASURES), min_size=len(labels), max_size=len(labels)))
    return json.dumps({
        "vertices": [{"id": lab, "mu": m} for lab, m in zip(labels, mu)],
        "edges": [{"u": u, "v": v, "w": w} for (u, v), w in zip(edges, weights)],
    })


@st.composite
def weighted_graphs(draw):
    """Small graphs of any structure: asymmetric, disconnected, looped, non-finite."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5, -1.0, np.nan, np.inf])
    w = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        w = np.triu(w, 1) + np.triu(w, 1).T
    mu = draw(st.lists(st.sampled_from(_MEASURES + [np.inf]), min_size=n, max_size=n))
    return fg.Graph(mu=np.array(mu), weights=w)


class TestAgainstLoopReference:
    """Whole-array ingest, validation, generation and serialization against the loops."""

    @given(text=graph_documents())
    @settings(max_examples=300, deadline=None)
    def test_graph_from_json(self, text):
        expected = _outcome(ref.graph_from_json, text)
        got = _outcome(fg.graph_from_json, text)
        assert type(got) is type(expected)
        if isinstance(expected, Exception):
            assert str(got) == str(expected)
            assert getattr(got, "violations", None) == getattr(expected, "violations", None)
        else:
            assert got.labels == expected.labels
            assert got.mu.tobytes() == expected.mu.tobytes()
            assert got.weights.tobytes() == expected.weights.tobytes()
        parsed = _outcome(ref.parse, text)
        if isinstance(parsed, fg.Graph):
            assert fg.validate(parsed) == ref.validate(parsed)

    @given(graph=weighted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_validate(self, graph):
        assert fg.validate(graph) == ref.validate(graph)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           density=st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    @settings(max_examples=100, deadline=None)
    def test_connected(self, seed, n, density):
        # directed, signed and NaN entries: only positive w[x, y] leads x to y
        rng = np.random.default_rng(seed)
        w = (rng.random((n, n)) < density) * rng.choice([1.0, 1.0, -1.0, np.nan], (n, n))
        assert fg.graph._connected(w) == ref.connected(w)

    def test_benchmark_sized_document(self):
        n = 500
        g = _escaped(fg.random_connected_graph(np.random.default_rng(1), n, extra_edge_prob=8 / n))
        text = fg.graph_to_json(g)
        assert text == ref.graph_to_json(g)
        assert fg.graph_from_json(text).weights.tobytes() == ref.graph_from_json(text).weights.tobytes()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("prob", [0, 0.05, 0.4, 1, "8/n", math.nan])
    def test_random_connected_graph(self, bit_generator, prob):
        # the same graphs from the same stream, which ends in the same state;
        # odd n draw from an int weight range
        for n in [*range(2, 61), 500]:
            p = 8 / n if prob == "8/n" else prob
            weight_range = (1, 3) if n % 2 else (0.2, 5.0)
            rng, rng_ref = (np.random.Generator(bit_generator(n)) for _ in range(2))
            g = fg.random_connected_graph(rng, n, weight_range, extra_edge_prob=p)
            expected = ref.random_connected_graph(rng_ref, n, weight_range, extra_edge_prob=p)
            assert g.mu.tobytes() == expected.mu.tobytes()
            assert g.weights.tobytes() == expected.weights.tobytes()
            assert _same_state(rng.bit_generator.state, rng_ref.bit_generator.state)

    @pytest.mark.parametrize("prob", [0.05, 1])
    def test_graph_to_json(self, prob):
        for n in range(2, 61):
            g = fg.random_connected_graph(np.random.default_rng(n), n, extra_edge_prob=prob)
            assert fg.graph_to_json(g) == ref.graph_to_json(g)
            assert fg.graph_to_json(_escaped(g)) == ref.graph_to_json(_escaped(g))

    def test_graph_to_json_spells_numbers_as_json(self):
        # unvalidated graphs: non-finite measures and weights, no edge at all
        inf, nan = math.inf, math.nan
        w = np.array([[0.0, inf, -inf], [inf, 0.0, 1e-300], [-inf, 1e-300, 0.0]])
        for g in (fg.Graph(mu=[nan, -0.0, 1e300], weights=w),
                  fg.Graph(mu=[1.0, 2.0], weights=np.zeros((2, 2)))):
            assert fg.graph_to_json(g) == ref.graph_to_json(g)

    def test_library_graphs_own_read_only_arrays(self, k5):
        # built without the copy a caller's arrays get, so no writable alias
        # may be left behind
        generated = fg.random_connected_graph(np.random.default_rng(2), 30)
        for g in (generated, fg.graph_from_json(fg.graph_to_json(k5))):
            for a in (g.mu, g.weights):
                assert a.base is None and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0


def _escaped(g):
    """g with labels that JSON escapes: quotes, backslashes, control and non-ASCII
    characters, and the ", " that separates numbers in a JSON list."""
    labels = tuple(f'v{i} "\\\n\t\u00e9\u2603\U0001f600, ' for i in range(g.n))
    return fg.Graph(g.mu, g.weights, labels)


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)
