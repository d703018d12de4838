"""Integer kernels: the composition filter against brute force, the packed product against the dense loop."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_capped
from oracles import dense_convolve, dense_vec_pow
from su2haar import _kernel


def brute_compositions(ms, ns, total, tm, tn):
    k = len(ms)
    out = []
    for alpha in itertools.product(range(total + 1), repeat=k):
        if (
            sum(alpha) == total
            and sum(a * m for a, m in zip(alpha, ms)) == tm
            and sum(a * n for a, n in zip(alpha, ns)) == tn
        ):
            out.append(alpha)
    return out


coords = st.lists(st.integers(-4, 4), min_size=1, max_size=5)

# signed coefficients up to 2^200 in size, with zeros (also trailing) and empty vectors
coefficient = st.integers(-(2**200), 2**200) | st.integers(-3, 3) | st.just(0)
signed_vectors = st.lists(coefficient, max_size=8) | st.lists(coefficient, max_size=5).map(lambda v: v + [0, 0])


class TestBalancedCompositions:
    def test_empty_support(self):
        assert _kernel.balanced_compositions([], [], 0, 0, 0) == [()]
        assert _kernel.balanced_compositions([], [], 1, 0, 0) == []

    def test_single_coordinate(self):
        assert _kernel.balanced_compositions([1], [1], 3, 3, 3) == [(3,)]
        assert _kernel.balanced_compositions([1], [1], 3, 0, 0) == []

    def test_descending_lexicographic_order(self):
        got = _kernel.balanced_compositions([0, 0, 0], [0, 0, 0], 3, 0, 0)
        assert got == sorted(got, reverse=True)
        assert got[0] == (3, 0, 0)
        assert len(got) == 10

    @given(coords, st.integers(0, 8), st.integers(-6, 6), st.integers(-6, 6), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, ms, total, tm, tn, rnd):
        ns = [rnd.randint(-4, 4) for _ in ms]
        expected = sorted(brute_compositions(ms, ns, total, tm, tn), reverse=True)
        assert _kernel.balanced_compositions(ms, ns, total, tm, tn) == expected


class TestConvolve:
    def test_basics(self):
        assert _kernel.poly_product([]) == [1]
        assert _kernel.poly_product([([1, 1], 2), ([1, -1], 1)]) == [1, 1, -1, -1]
        assert _kernel.poly_product([([], 1), ([1], 0)]) == []
        assert _kernel.poly_product([([0, 0], 2)]) == [0, 0, 0]         # an all-zero product unpacks at width 2
        assert _kernel.convolve([1, 1], [1, 1]) == [1, 2, 1]
        assert _kernel.convolve([2], [3]) == [6]
        assert _kernel.convolve([], [1]) == []

    def test_vec_pow(self):
        assert _kernel.vec_pow([1, 1], 0) == [1]
        assert _kernel.vec_pow([1, 1], 4) == [1, 4, 6, 4, 1]
        with pytest.raises(ValueError):
            _kernel.vec_pow([1], -1)

    @given(signed_vectors, signed_vectors)
    @settings(max_examples=300, deadline=None)
    def test_convolve_matches_dense_loop(self, a, b):
        assert _kernel.convolve(a, b) == dense_convolve(a, b)

    @given(signed_vectors, st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_vec_pow_matches_dense_loop(self, v, p):
        assert _kernel.vec_pow(v, p) == dense_vec_pow(v, p)

    @given(st.lists(st.tuples(signed_vectors, st.integers(0, 4)), max_size=4))
    @example([([3], 1)])                    # a slot one bit short reads 3 as 1 * 4 - 1
    @settings(max_examples=300, deadline=None)
    def test_poly_product_matches_chained_dense_loop(self, factors):
        """One slot width for the whole product unpacks it exactly: empty, zero and trailing-zero factors included."""
        expected = [1]
        for v, p in factors:
            expected = dense_convolve(expected, dense_vec_pow(v, p))
        assert _kernel.poly_product(factors) == expected

    @given(signed_vectors, signed_vectors)
    @settings(max_examples=100, deadline=None)
    def test_pack_round_trip(self, a, b):
        """Slots wide enough for the product also read every factor back, trailing zeros dropped."""
        # unpack takes no slot under 2 bits, the width poly_product gives a zero product
        width = max(sum(map(abs, a)).bit_length() + sum(map(abs, b)).bit_length() + 1, 2)
        packed = _kernel.pack(a, width)
        stripped = list(a)
        while stripped and not stripped[-1]:
            stripped.pop()
        assert _kernel.unpack(packed, width) == stripped

    def test_unpack_rejects_a_one_bit_slot(self):
        """A 1-bit slot reads 1 as -1, so the loop never reaches 0; a child under a time and memory cap shows it."""
        proc = run_capped("""
            from su2haar import _kernel
            try:
                _kernel.unpack(1, 1)
            except ValueError as e:
                print(e)
        """)
        assert (proc.returncode, proc.stdout) == (0, "width must be >= 2\n"), proc.stderr


class TestSelection:
    def test_backend_name_reports(self):
        assert _kernel.backend_name() == "pure"

    def test_selected_functions_are_importable(self):
        assert callable(_kernel.convolve)
        assert callable(_kernel.vec_pow)
        assert callable(_kernel.balanced_compositions)
