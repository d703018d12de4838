import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import all_indices, idx, product, spin_half_rep, sym_power_rep
from oracles import (
    compose_and_check,
    euler_from_matrix,
    group_matrix,
    legendre_poly,
    representation_matrix,
    sample_haar,
)
from su2haar.integrals import ProductSpec, frequency_of, integrate_product
from su2haar import numeric
from su2haar.numeric import (
    _BLOCK,
    _CHUNK,
    EulerAngles,
    _Block,
    _resolve,
    eval_matrix_element,
    mc_integral,
    mc_scan,
)
from su2haar.powers import FiniteFunction
from su2haar.wigner import MatrixElementIndex, matrix_element_trigpoly

H = Fraction(1, 2)


class TestSampler:
    def test_ranges(self, rng):
        for _ in range(500):
            g = sample_haar(rng)
            assert 0 <= g.phi < 2 * math.pi
            assert 0 <= g.theta <= math.pi
            assert -2 * math.pi <= g.psi < 2 * math.pi

    def test_cos_theta_uniform(self):
        local = np.random.default_rng(77)
        xs = np.array([math.cos(sample_haar(local).theta) for _ in range(40_000)])
        # mean 0 with sd 1/sqrt(3n); third moment 0
        assert abs(xs.mean()) < 4 / math.sqrt(3 * len(xs))
        assert abs((xs ** 3).mean()) < 5 / math.sqrt(len(xs))


class TestEvalMatrixElement:
    def test_constant(self, rng):
        for _ in range(5):
            assert eval_matrix_element(idx(0, 0, 0), sample_haar(rng)) == pytest.approx(1.0)

    def test_defining_at_a_theta(self):
        g = EulerAngles(0.0, 0.9, 0.0)
        assert eval_matrix_element(idx(H, H, H), g) == pytest.approx(math.cos(0.45))
        assert eval_matrix_element(idx(H, H, -H), g) == pytest.approx(1j * math.sin(0.45))

    def test_legendre_diagonal(self, rng):
        for l in (1, 2, 3):
            poly = legendre_poly(l)
            for _ in range(5):
                g = sample_haar(rng)
                expected = float(sum(float(c) * math.cos(g.theta) ** j for j, c in enumerate(poly)))
                assert eval_matrix_element(idx(l, 0, 0), g) == pytest.approx(expected, abs=1e-12)

    def test_k_transformation_laws(self, rng):
        for index in (idx(H, H, -H), idx(1, 1, 0), idx(2, -1, 2)):
            g = sample_haar(rng)
            m = index.m2 / 2
            n = index.n2 / 2
            shifted = EulerAngles(g.phi + 0.3, g.theta, g.psi)
            assert eval_matrix_element(index, shifted) == pytest.approx(
                np.exp(-1j * m * 0.3) * eval_matrix_element(index, g), abs=1e-12
            )
            shifted = EulerAngles(g.phi, g.theta, g.psi + 0.4)
            assert eval_matrix_element(index, shifted) == pytest.approx(
                np.exp(-1j * n * 0.4) * eval_matrix_element(index, g), abs=1e-12
            )


class TestRepresentationMatrix:
    def test_spin_half_at_a(self):
        theta = 1.234
        m = representation_matrix(1, EulerAngles(0.0, theta, 0.0))
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        assert np.allclose(m, [[c, 1j * s], [1j * s, c]], atol=1e-14)

    def test_spin_half_at_k(self):
        phi = 0.81
        m = representation_matrix(1, EulerAngles(phi, 0.0, 0.0))
        assert np.allclose(m, np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)]), atol=1e-14)

    def test_unitarity(self, rng):
        for l2 in range(0, 5):
            for _ in range(100):
                m = representation_matrix(l2, sample_haar(rng))
                assert np.max(np.abs(m @ m.conj().T - np.eye(l2 + 1))) < 1e-10

    def test_matches_symmetric_power_oracle(self, rng):
        for l2 in range(0, 5):
            for _ in range(20):
                g = sample_haar(rng)
                ours = representation_matrix(l2, g)
                oracle = sym_power_rep(l2, spin_half_rep(g))
                assert np.max(np.abs(ours - oracle)) < 1e-12


class TestComposition:
    def test_identity(self, rng):
        e = EulerAngles(0.0, 0.0, 0.0)
        for _ in range(5):
            assert compose_and_check(1, sample_haar(rng), e, 1e-12)

    def test_defining(self, rng):
        for _ in range(100):
            assert compose_and_check(1, sample_haar(rng), sample_haar(rng), 1e-10)

    def test_all_spins_to_two(self, rng):
        """Homomorphism within 1e-10 for 100 random pairs at every spin <= 2."""
        for l2 in range(0, 5):
            for _ in range(100):
                assert compose_and_check(
                    l2, sample_haar(rng), sample_haar(rng), 1e-10
                )

    def test_spin_two_loose_tolerance(self, rng):
        for _ in range(100):
            assert compose_and_check(4, sample_haar(rng), sample_haar(rng), 1e-8)

    def test_euler_recovery_round_trip(self, rng):
        for _ in range(200):
            u = group_matrix(sample_haar(rng)) @ group_matrix(sample_haar(rng))
            r = euler_from_matrix(u)
            assert np.max(np.abs(group_matrix(r) - u)) < 1e-12
        for g in (EulerAngles(0.4, 0.0, 1.0), EulerAngles(0.0, math.pi, -2.2)):
            u = group_matrix(g)
            assert np.max(np.abs(group_matrix(euler_from_matrix(u)) - u)) < 1e-12

    def test_tolerance_validation(self):
        e = EulerAngles(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            compose_and_check(1, e, e, 0.0)


class TestConjugationSymmetry:
    def test_numeric_identity(self, rng):
        for index in all_indices(2):
            sign = -1 if ((index.m2 - index.n2) // 2) % 2 else 1
            flipped = MatrixElementIndex(index.l2, -index.m2, -index.n2)
            for _ in range(3):
                g = sample_haar(rng)
                assert np.conj(eval_matrix_element(index, g)) == pytest.approx(
                    sign * eval_matrix_element(flipped, g), abs=1e-10
                )


class TestMcIntegral:
    def test_constant_spec(self):
        est = mc_integral(product(idx(0, 0, 0)), samples=1000, seed=1)
        assert est.mean == pytest.approx(1.0)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_schur_pair(self):
        spec = product(idx(H, H, H), idx(H, -H, -H))
        est = mc_integral(spec, samples=300_000, seed=2)
        assert abs(est.mean - 0.5) <= 5 * est.std_error

    def test_power_target(self):
        f = FiniteFunction.from_terms([((H, H, H), (1, 0))])
        est = mc_scan(f, 1, samples=200_000, seed=3)[-1]
        assert abs(est.mean) <= 5 * est.std_error

    def test_witness_target(self):
        f = FiniteFunction.from_terms([((H, H, H), (1, 0))])
        est = mc_scan(f, 2, idx(1, -1, -1), samples=300_000, seed=4)[-1]
        assert abs(est.mean - 1 / 3) <= 5 * est.std_error

    def test_seed_determinism(self):
        spec = product(idx(1, 1, -1), idx(1, -1, 1))
        a = mc_integral(spec, samples=50_000, seed=9)
        b = mc_integral(spec, samples=50_000, seed=9)
        assert a == b

    def test_filtered_products_statistically_zero(self, rng):
        import random

        rnd = random.Random(6)
        indices = all_indices(Fraction(3, 2))
        done = 0
        while done < 10:
            spec = ProductSpec(tuple((rnd.choice(indices), rnd.randint(1, 2)) for _ in range(2)))
            if frequency_of(spec) == (0, 0):
                continue
            est = mc_integral(spec, samples=60_000, seed=100 + done)
            assert abs(est.mean) <= 5 * max(est.std_error, 1e-12)
            done += 1

    def test_agreement_on_random_exact_values(self):
        import random

        rnd = random.Random(14)
        indices = all_indices(Fraction(3, 2))
        done = 0
        while done < 8:
            spec = ProductSpec(
                tuple((rnd.choice(indices), rnd.randint(1, 2)) for _ in range(rnd.randint(1, 3)))
            )
            if frequency_of(spec) != (0, 0):
                continue
            if sum(p * i.l2 for i, p in spec.factors) > 8:
                continue
            exact = integrate_product(spec).to_complex()
            est = mc_integral(spec, samples=150_000, seed=200 + done)
            assert abs(est.mean - exact) <= 5 * max(est.std_error, 1e-12)
            done += 1


class TestDrawStream:
    def test_mean_over_the_documented_draws(self):
        """mc_scan's last row is the mean of f^P over phi, psi, then U draws, theta = arccos(1 - 2U)."""
        f = FiniteFunction.from_terms([((H, H, -H), (1, 0)), ((Fraction(3, 2), -H, Fraction(3, 2)), (2, -1))])
        power, seed = 3, 21
        n = _BLOCK + 300                    # past one block boundary, within one chunk
        assert n <= _CHUNK
        est = mc_scan(f, power, samples=n, seed=seed)[-1]

        local = np.random.default_rng(seed)
        phi = local.uniform(0.0, 2.0 * math.pi, n)
        psi = local.uniform(-2.0 * math.pi, 2.0 * math.pi, n)
        theta = np.arccos(1.0 - 2.0 * local.uniform(0.0, 1.0, n))
        coeffs = [(index, complex(float(re), float(im))) for index, (re, im) in f.terms]
        values = [
            sum(a * eval_matrix_element(index, EulerAngles(*g)) for index, a in coeffs) ** power
            for g in zip(phi, theta, psi)
        ]
        assert abs(est.mean - np.mean(values)) <= 1e-12

    @pytest.mark.parametrize("witness", [None, idx(1, -1, 0)], ids=["plain", "with-h"])
    def test_every_row_is_the_mean_over_the_documented_draws(self, witness):
        """Row P of mc_scan is the mean of f^P [h] over the documented draws, drawn once for every row."""
        f = FiniteFunction.from_terms([((H, H, -H), (1, 0)), ((Fraction(3, 2), -H, Fraction(3, 2)), (2, -1))])
        pmax, seed = 5, 22
        n = _BLOCK + 300
        rows = mc_scan(f, pmax, witness, samples=n, seed=seed)

        local = np.random.default_rng(seed)
        phi = local.uniform(0.0, 2.0 * math.pi, n)
        psi = local.uniform(-2.0 * math.pi, 2.0 * math.pi, n)
        theta = np.arccos(1.0 - 2.0 * local.uniform(0.0, 1.0, n))
        coeffs = [(index, complex(float(re), float(im))) for index, (re, im) in f.terms]
        draws = [EulerAngles(*g) for g in zip(phi, theta, psi)]
        bases = np.array([sum(a * eval_matrix_element(index, g) for index, a in coeffs) for g in draws])
        h = np.array([eval_matrix_element(witness, g) for g in draws]) if witness is not None else 1.0
        assert len(rows) == pmax
        for p, est in enumerate(rows, start=1):
            assert (est.samples, est.seed) == (n, seed)
            assert abs(est.mean - np.mean(bases ** p * h)) <= 1e-12, p

    def test_terms_resolve_once_per_call(self, monkeypatch):
        calls = []
        original = numeric._resolve
        monkeypatch.setattr(numeric, "_resolve", lambda index, *coeff: calls.append(index) or original(index, *coeff))
        f = FiniteFunction.from_terms([((H, H, -H), (1, 0)), ((1, 0, 1), (0, 1))])
        mc_scan(f, 2, idx(1, 0, 0), samples=3 * _BLOCK, seed=1)[-1]
        assert len(calls) == 3


class TestHighSpin:
    """The Jacobi form stays accurate where a sum of (c, s) or u terms cancels away."""

    @pytest.mark.parametrize("l2", [15, 30])
    def test_unitary(self, l2, rng):
        gs = [EulerAngles(0.7, theta, -1.3) for theta in np.linspace(0.1, 3.1, 7)]
        gs += [sample_haar(rng) for _ in range(3)]
        for g in gs:
            m = representation_matrix(l2, g)
            assert np.max(np.abs(m @ m.conj().T - np.eye(l2 + 1))) < 1e-9

    @pytest.mark.parametrize("l2", [128, 200])
    def test_representation_at_high_spin(self, l2, rng):
        """A full composition check costs tens of seconds at spin 64, so this checks three entries of
        T(g1 g2), each a row of T(g1) times a column of T(g2), and that those rows have norm 1."""
        g1, g2 = sample_haar(rng), sample_haar(rng)
        g12 = euler_from_matrix(group_matrix(g1) @ group_matrix(g2))
        spins2 = range(l2, -l2 - 1, -2)
        for m2, n2 in ((l2 - 6, 4), (0, 0), (-2 * (l2 // 4), l2 - 2)):
            row = np.array([eval_matrix_element(MatrixElementIndex(l2, m2, j2), g1) for j2 in spins2])
            column = np.array([eval_matrix_element(MatrixElementIndex(l2, j2, n2), g2) for j2 in spins2])
            assert abs(row @ column - eval_matrix_element(MatrixElementIndex(l2, m2, n2), g12)) < 1e-12
            assert abs(np.sum(np.abs(row) ** 2) - 1) < 1e-12

    def test_block_matches_single_samples(self, rng):
        gs = [sample_haar(rng) for _ in range(12)] + [EulerAngles(6.2, 3.1, -6.2)]
        theta = np.array([g.theta for g in gs])
        block = _Block(
            np.array([g.phi for g in gs]), np.cos(theta / 2), np.sin(theta / 2), np.array([g.psi for g in gs])
        )
        for index in all_indices(Fraction(15, 2)):
            if index.l2 != 15:
                continue
            values = block.element(_resolve(index))
            for g, value in zip(gs, values):
                assert abs(value - eval_matrix_element(index, g)) <= 1e-12

    @pytest.mark.parametrize("l2, m2, n2", [(40, 0, 0), (56, 2, -2), (57, 1, -1), (57, 13, 5), (128, 6, -14),
                                            (128, 0, 0), (200, 0, 0), (200, 26, -58)])
    def test_accepted_elements_meet_the_tolerance(self, l2, m2, n2):
        """Each value lies within 1e-12 of the Wigner (c, s) sum `matrix_element_trigpoly` at the same c and s,
        summed in 60 digits: a third formula, beside the float and the exact Jacobi forms."""
        index = MatrixElementIndex(l2, m2, n2)
        terms = [(p, q, part, r, x) for (p, q), coeff in matrix_element_trigpoly(index).items()
                 for part, items in enumerate((coeff.real_terms(), coeff.imag_terms())) for r, x in items]
        for theta in np.linspace(0.1, 3.1, 7):
            c, s = Decimal(math.cos(theta / 2)), Decimal(math.sin(theta / 2))
            exact = [Decimal(0), Decimal(0)]
            with localcontext() as ctx:
                ctx.prec = 60
                for p, q, part, r, x in terms:
                    exact[part] += Decimal(r).sqrt() * Decimal(x.numerator) / x.denominator * c ** p * s ** q
            value = eval_matrix_element(index, EulerAngles(0.0, float(theta), 0.0))
            assert abs(value - complex(float(exact[0]), float(exact[1]))) <= 1e-12

    def test_spin_64_product_agrees_with_the_exact_value(self):
        """The float (c, s) sum of t[64,3,-7] cancelled to a modulus above 20; the Jacobi form gives
        integral(t[64,3,-7] t[64,-3,7]) = 1/129 within five standard errors."""
        spec = product(idx(64, 3, -7), idx(64, -3, 7))
        assert integrate_product(spec).to_complex() == pytest.approx(1 / 129)
        est = mc_integral(spec, samples=20_000, seed=1)
        assert abs(est.mean - 1 / 129) <= 5 * est.std_error


class TestIndependentOracle:
    def test_catches_a_wrong_record(self, monkeypatch):
        """A wrong record, its u-form doubled, reaches every exact route; the Monte Carlo oracle does not read
        the record, so it disagrees beyond five standard errors."""
        from su2haar import integrals, powers, wigner

        index = idx(1, 0, 0)
        original = wigner.theta_restriction

        def doubled(key):
            data = original(key)
            if key != index:
                return data
            return data._replace(poly=tuple(2 * c for c in data.poly))

        for module in (wigner, integrals, powers, numeric):
            if hasattr(module, "theta_restriction"):
                monkeypatch.setattr(module, "theta_restriction", doubled)
        spec = product((index, 2))
        exact = integrate_product(spec).to_complex()
        assert exact == pytest.approx(4 / 3)
        est = mc_integral(spec, samples=100_000, seed=3)
        assert abs(est.mean - exact) > 5 * est.std_error
        assert abs(est.mean - 1 / 3) <= 5 * est.std_error
