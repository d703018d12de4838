import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2haar
from su2haar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def schur_product(tmp_path):
    path = tmp_path / "prod.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "factors": [
                    {"l": "1/2", "m": "1/2", "n": "1/2"},
                    {"l": "1/2", "m": "-1/2", "n": "-1/2"},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def single_element(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "terms": [
                    {"l": "1/2", "m": "1/2", "n": "1/2", "coeff": {"re": "1", "im": "0"}}
                ],
            }
        )
    )
    return str(path)


class TestIntegrate:
    def test_schur_value(self, capsys, schur_product):
        code, out, _ = run_cli(capsys, "integrate", schur_product)
        assert code == 0
        env = json.loads(out)
        assert env["schema"] == 1
        assert env["backend"] == "pure"
        assert env["exact"] == {"real": [{"radicand": 1, "coeff": "1/2"}], "imag": []}

    def test_constant(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"factors": [{"l": "0", "m": "0", "n": "0"}]}))
        code, out, _ = run_cli(capsys, "integrate", str(path))
        assert code == 0
        assert json.loads(out)["exact"] == {
            "real": [{"radicand": 1, "coeff": "1"}],
            "imag": [],
        }

    def test_frequency_violating_is_zero(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"factors": [{"l": "1/2", "m": "1/2", "n": "1/2", "power": 2}]}))
        code, out, _ = run_cli(capsys, "integrate", str(path))
        assert code == 0
        assert json.loads(out)["exact"] == {"real": [], "imag": []}

    def test_mc_block_only_when_requested(self, capsys, schur_product):
        code, out, _ = run_cli(capsys, "integrate", schur_product)
        assert "numeric" not in json.loads(out)
        code, out, _ = run_cli(capsys, "integrate", schur_product, "--mc", "20000", "--seed", "5")
        env = json.loads(out)
        assert env["seed"] == 5
        assert abs(env["numeric"]["mean_re"] - 0.5) < 0.05

    def test_empty_product_with_mc(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": 1, "factors": []}))
        code, out, _ = run_cli(capsys, "integrate", str(path), "--mc", "10000")
        assert code == 0
        env = json.loads(out)
        assert env["exact"] == {"real": [{"radicand": 1, "coeff": "1"}], "imag": []}
        assert env["numeric"] == {"mean_re": 1.0, "mean_im": 0.0, "std_error": 0.0, "samples": 10000}

    def test_negative_mc_exits_2(self, capsys, schur_product):
        code, out, err = run_cli(capsys, "integrate", schur_product, "--mc", "-1")
        assert (code, out) == (2, "")
        assert "--mc" in err

    def test_negative_seed_with_mc_exits_2(self, capsys, schur_product):
        """numpy seeds only from non-negative integers: exit 2 up front, not a traceback."""
        assert run_cli(capsys, "integrate", schur_product, "--mc", "10", "--seed", "-1") == (
            2, "", "error: --seed must be >= 0 with --mc\n")
        assert run_cli(capsys, "integrate", schur_product, "--seed", "-1")[0] == 0

    def test_parse_error_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"factors": [{"l": "1/2", "m": "3/2", "n": "1/2"}]}))
        code, out, err = run_cli(capsys, "integrate", str(path))
        assert code == 2
        assert out == ""
        assert "factors[0]" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "integrate", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err


class TestPowerScan:
    def test_single_element_zeros(self, capsys, single_element):
        code, out, _ = run_cli(capsys, "power-scan", single_element, "--pmax", "4")
        assert code == 0
        env = json.loads(out)
        assert [row["exact"] for row in env["scan"]] == [{"real": [], "imag": []}] * 4

    def test_legendre_row(self, capsys, tmp_path):
        path = tmp_path / "t100.json"
        path.write_text(
            json.dumps({"terms": [{"l": "1", "m": "0", "n": "0", "coeff": {"re": "1", "im": "0"}}]})
        )
        code, out, _ = run_cli(capsys, "power-scan", str(path), "--pmax", "2")
        env = json.loads(out)
        assert env["scan"][0]["exact"] == {"real": [], "imag": []}
        assert env["scan"][1]["exact"] == {"real": [{"radicand": 1, "coeff": "1/3"}], "imag": []}

    def test_with_h(self, capsys, single_element):
        code, out, _ = run_cli(
            capsys, "power-scan", single_element, "--pmax", "3", "--with-h", "1,-1,-1"
        )
        env = json.loads(out)
        values = [row["exact"] for row in env["scan"]]
        assert values[0] == {"real": [], "imag": []}
        assert values[1] == {"real": [{"radicand": 1, "coeff": "1/3"}], "imag": []}
        assert values[2] == {"real": [], "imag": []}

    def test_bad_h_flag(self, capsys, single_element):
        code, _, err = run_cli(capsys, "power-scan", single_element, "--pmax", "2", "--with-h", "1,-1")
        assert code == 2
        assert "--with-h" in err

    def test_nonpositive_pmax_exits_2(self, capsys, single_element):
        code, _, err = run_cli(capsys, "power-scan", single_element, "--pmax", "0")
        assert code == 2
        assert "--pmax" in err

    def test_negative_mc_exits_2(self, capsys, single_element):
        code, out, err = run_cli(capsys, "power-scan", single_element, "--pmax", "2", "--mc", "-1")
        assert (code, out) == (2, "")
        assert "--mc" in err

    def test_negative_seed_with_mc_exits_2(self, capsys, single_element):
        """--seed -5 is refused with --mc and ignored without it."""
        argv = ["power-scan", single_element, "--pmax", "2", "--seed", "-5"]
        assert run_cli(capsys, *argv, "--mc", "10") == (2, "", "error: --seed must be >= 0 with --mc\n")
        assert run_cli(capsys, *argv)[0] == 0

    def test_mc_blocks_are_one_scan(self, capsys, monkeypatch, tmp_path):
        """Every row's numeric block comes from one mc_scan pass: one draw stream for the whole scan."""
        from su2haar import numeric

        passes = []
        blocks = numeric._blocks
        monkeypatch.setattr(numeric, "_blocks", lambda *args: passes.append(args) or blocks(*args))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(GOLDEN_FILES["acceptance.json"]))
        argv = ["power-scan", str(path), "--pmax", "6", "--with-h", "2,-1,1", "--mc", "3000", "--seed", "11"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(passes) == 1
        f = su2haar.FiniteFunction.from_json(GOLDEN_FILES["acceptance.json"])
        expected = numeric.mc_scan(f, 6, su2haar.MatrixElementIndex.of(2, -1, 1), samples=3000, seed=11)
        rows = json.loads(out)["scan"]
        assert [row["numeric"] for row in rows] == [
            {"mean_re": e.mean.real, "mean_im": e.mean.imag, "std_error": e.std_error, "samples": e.samples}
            for e in expected
        ]

    @pytest.mark.parametrize("pmax", ["1", "2"])
    def test_mc_with_non_finite_estimate_exits_2(self, capsys, tmp_path, pmax):
        """10^200 fits a float but its square does not: at P=1 the mean is finite and the
        standard error is not, at P=2 neither; both exit 2 without numpy warnings."""
        path = tmp_path / "big.json"
        terms = [
            {"l": "1/2", "m": "1/2", "n": "1/2", "coeff": {"re": str(10**200), "im": "0"}},
            {"l": "1/2", "m": "-1/2", "n": "-1/2", "coeff": {"re": "1", "im": "0"}},
        ]
        path.write_text(json.dumps({"terms": terms}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "power-scan", str(path), "--pmax", pmax, "--mc", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: --mc: ") and err.count("\n") == 1, err
        assert [str(w.message) for w in caught] == []

    def test_mc_with_float_overflowing_coefficient_exits_2(self, capsys, tmp_path):
        """The exact scan takes any rational; the float Monte Carlo path cannot take 10^400."""
        path = tmp_path / "huge.json"
        term = {"l": "1", "m": "0", "n": "0", "coeff": {"re": str(10**400), "im": "0"}}
        path.write_text(json.dumps({"terms": [term]}))
        assert run_cli(capsys, "power-scan", str(path), "--pmax", "2")[0] == 0
        code, out, err = run_cli(capsys, "power-scan", str(path), "--pmax", "2", "--mc", "100")
        assert (code, out) == (2, "")
        assert "--mc" in err
        assert "Traceback" not in err

    def test_json_number_coefficient_is_its_decimal(self, capsys, tmp_path):
        """{"re": 0.1} is 1/10 as "0.1" is, not the double nearest to it."""
        envelopes = []
        for coeff in ({"re": 0.1, "im": -2.5}, {"re": "0.1", "im": "-5/2"}):
            path = tmp_path / "f.json"
            path.write_text(json.dumps({"terms": [
                {"l": "1/2", "m": "1/2", "n": "-1/2", "coeff": coeff},
                {"l": "1/2", "m": "-1/2", "n": "1/2", "coeff": {"re": 1}},
            ]}))
            code, out, _ = run_cli(capsys, "power-scan", str(path), "--pmax", "4")
            assert code == 0
            env = json.loads(out)
            env.pop("command")
            env.pop("timing_s")
            envelopes.append(env)
        assert envelopes[0] == envelopes[1]
        assert envelopes[0]["scan"][1]["exact"] == {"real": [{"radicand": 1, "coeff": "-1/10"}],
                                                    "imag": [{"radicand": 1, "coeff": "5/2"}]}


class TestMalformedInput:
    """Every malformed file exits 2 with one error line and no traceback."""

    TERM = {"l": "1", "m": "0", "n": "0", "coeff": {"re": "1", "im": "0"}}

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"terms": [dict(TERM, l=1.5)]}, "terms[0].l"),
            ({"terms": [dict(TERM, coeff="1")]}, "terms[0].coeff"),
            ({"terms": "x"}, "terms must be a list"),
            ({"terms": ["x"]}, "terms[0] must be an object"),
            ([TERM], "JSON object"),
            ({"terms": [TERM], "schema": True}, "unsupported schema True"),         # True == 1 in Python
            ({"terms": [TERM], "schema": 1.0}, "unsupported schema 1.0"),           # 1.0 == 1 in Python
            # json.dumps writes these as the JSON extensions NaN, Infinity and -Infinity
            ({"terms": [dict(TERM, coeff={"re": float("nan")})]}, "terms[0].coeff: invalid rational"),
            ({"terms": [dict(TERM, coeff={"re": float("inf")})]}, "terms[0].coeff: invalid rational"),
            ({"terms": [dict(TERM, coeff={"re": 1, "im": -float("inf")})]}, "terms[0].coeff: invalid rational"),
            ({"terms": [dict(TERM, coeff={"re": -0.0})]}, "zero coefficient on t[1,0,0]"),
        ],
        ids=["float-spin", "string-coeff", "string-terms", "string-term", "top-level-list", "schema-true",
             "schema-float", "coeff-nan", "coeff-infinity", "coeff-minus-infinity", "coeff-minus-zero"],
    )
    def test_function_file(self, capsys, tmp_path, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "hull", str(path))
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, template",
        [
            ("hull", '{"terms": [{"l": "1", "m": "0", "n": "0", "coeff": {"re": 1%s, "im": "0"}}]}'),
            ("integrate", '{"factors": [{"l": "1", "m": "0", "n": "0", "power": 1%s}]}'),
        ],
        ids=["hull-coeff", "integrate-power"],
    )
    def test_integer_literal_over_the_digit_limit(self, capsys, tmp_path, command, template):
        path = tmp_path / "big.json"
        path.write_text(template % ("0" * 5000))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert "invalid JSON" in err

    def test_exponent_notation_coefficient_rejected(self, capsys, tmp_path):
        """Fraction("1e200000000") would build 10^200000000; exponents are refused up front."""
        path = tmp_path / "f.json"
        for re in ("1e5", "1E-3", "2.5e200000000"):
            path.write_text(json.dumps({"terms": [dict(self.TERM, coeff={"re": re, "im": "0"})]}))
            code, out, err = run_cli(capsys, "hull", str(path))
            assert (code, out) == (2, ""), re
            assert "terms[0].coeff" in err
        for re in ("3", "-3/4", "0.25", 7):
            path.write_text(json.dumps({"terms": [dict(self.TERM, coeff={"re": re, "im": "0"})]}))
            assert run_cli(capsys, "hull", str(path))[0] == 0, re

    INDEX = {"l": "0", "m": "0", "n": "0"}

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({}, "missing field 'factors'"),
            ({"factors": "x"}, "factors must be a list of factor objects"),
            ({"factors": ["x"]}, "factors[0]: expected an object with fields l, m, n"),
            ({"factors": [dict(INDEX, l=1.5)]}, 'factors[0].l must be a string such as "1/2" or an integer'),
            ({"factors": [dict(INDEX, l="1/3")]}, "factors[0]: not a half-integer: '1/3'"),
            ({"factors": [INDEX, dict(INDEX, power=0)]}, "factors[1].power must be a positive integer"),
            ({"factors": [dict(INDEX, power=True)]}, "factors[0].power must be a positive integer"),
            ({"factors": [dict(INDEX, power=1.5)]}, "factors[0].power must be a positive integer"),
            ({"factors": [], "shift": {"l": "1/2", "m": "3/2", "n": "1/2"}},
             "shift: |m|,|n| must not exceed l: l=1/2, m=3/2, n=1/2"),
            ({"factors": [], "shift": "x"}, "shift: expected an object with fields l, m, n"),
            ({"factors": [INDEX], "schema": True}, "unsupported schema True"),
            ({"factors": [INDEX], "schema": 1.0}, "unsupported schema 1.0"),
        ],
        ids=["no-factors", "string-factors", "string-factor", "float-l", "third-l", "power-0", "power-true",
             "power-float", "shift-out-of-range", "string-shift", "schema-true", "schema-float"],
    )
    def test_product_file(self, capsys, tmp_path, obj, message):
        """Each product-file fault is one stderr line: the path, then the field and what is wrong with it."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli(capsys, "integrate", str(path)) == (2, "", f"error: {path}: {message}\n")

    def test_boolean_power_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"factors": [{"l": "0", "m": "0", "n": "0", "power": True}]}))
        code, out, err = run_cli(capsys, "integrate", str(path))
        assert code == 2
        assert out == ""
        assert "factors[0].power" in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
spin_like = st.sampled_from(["0", "1/2", "1", "-1/2", "-1", "3/2", "2", "1/0", "x", ""]) | st.integers(-3, 3) | json_values
rational_like = st.sampled_from(["0", "1", "-3/4", "1/0", "nan", "1e5", "0.25"]) | st.integers() | json_values
term_like = st.fixed_dictionaries(
    {},
    optional={
        "l": spin_like,
        "m": spin_like,
        "n": spin_like,
        "coeff": st.fixed_dictionaries({}, optional={"re": rational_like, "im": rational_like}) | json_values,
    },
)
valid_term = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).map(
    lambda t: {
        "l": str(Fraction(t[0], 2)),
        "m": str(Fraction(2 * min(t[1], t[0]) - t[0], 2)),
        "n": str(Fraction(2 * min(t[2], t[0]) - t[0], 2)),
        "coeff": {"re": "1", "im": "-1/2"},
    }
)
function_file_like = st.one_of(
    json_values,
    st.fixed_dictionaries({"terms": st.lists(valid_term, min_size=1, max_size=4)}),
    st.fixed_dictionaries(
        {"terms": st.lists(valid_term | term_like, max_size=4) | json_values},
        optional={"schema": st.just(1) | json_values},
    ),
)

# integrate and power-scan do work proportional to spin and power: keep those small
small_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8) | st.floats() | st.text(alphabet="x/-.e ", max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
small_spin_like = st.sampled_from(["0", "1/2", "1", "-1/2", "-1", "3/2", "2", "1/0", "x", ""]) | small_json_values
index_like = st.fixed_dictionaries({}, optional={"l": small_spin_like, "m": small_spin_like, "n": small_spin_like})
valid_index = valid_term.map(lambda term: {key: term[key] for key in ("l", "m", "n")})
valid_factor = st.builds(lambda index, power: dict(index, power=power), valid_index, st.integers(1, 4))
factor_like = st.builds(
    lambda index, power: dict(index, **power),
    index_like | valid_index,
    st.fixed_dictionaries({}, optional={"power": st.integers(-2, 4) | small_json_values}),
)
product_file_like = st.one_of(
    small_json_values,
    st.fixed_dictionaries({"factors": st.lists(valid_factor, min_size=1, max_size=4)}, optional={"shift": valid_index}),
    st.fixed_dictionaries(
        {"factors": st.lists(valid_factor | factor_like, max_size=4) | small_json_values},
        optional={"shift": valid_index | index_like | st.none() | small_json_values, "schema": st.just(1) | small_json_values},
    ),
)
bounded_term_like = st.fixed_dictionaries(
    {},
    optional={
        "l": small_spin_like,
        "m": small_spin_like,
        "n": small_spin_like,
        "coeff": st.fixed_dictionaries({}, optional={"re": rational_like, "im": rational_like}) | small_json_values,
    },
)
bounded_function_file_like = st.one_of(
    small_json_values,
    st.fixed_dictionaries({"terms": st.lists(valid_term, min_size=1, max_size=4)}),
    st.fixed_dictionaries(
        {"terms": st.lists(valid_term | bounded_term_like, max_size=4) | small_json_values},
        optional={"schema": st.just(1) | small_json_values},
    ),
)


class TestArbitraryJsonInput:
    """Commands on any JSON value: exit 0, 2 or 3, no traceback, JSON-only stdout.

    Spin and power caps are still open (a spin or power in the millions runs
    unbounded), so the generators for integrate and power-scan draw spins and
    powers from small ranges; every other field is arbitrary JSON.
    """

    @staticmethod
    def _check(obj, commands):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            for argv in commands:
                argv = [arg.format(path) for arg in argv]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 2, 3), (argv, code, err.getvalue())
                assert "Traceback" not in err.getvalue()
                text = out.getvalue()
                if text:
                    assert text.endswith("\n") and text.count("\n") == 1
                    assert isinstance(json.loads(text), dict)

    @given(function_file_like)
    @settings(max_examples=300, deadline=None)
    def test_hull_and_threshold(self, obj):
        self._check(obj, [["hull", "{}"], ["threshold", "{}", "--h", "1,0,0"]])

    @given(product_file_like)
    @settings(max_examples=200, deadline=None)
    def test_integrate(self, obj):
        self._check(obj, [["integrate", "{}"]])

    @given(bounded_function_file_like)
    @settings(max_examples=200, deadline=None)
    def test_power_scan(self, obj):
        self._check(obj, [["power-scan", "{}", "--pmax", "2"]])


class TestHullAndThreshold:
    def test_hull_outside_with_separator(self, capsys, single_element):
        code, out, _ = run_cli(capsys, "hull", single_element)
        assert code == 0
        env = json.loads(out)
        assert env["hull"]["origin_inside"] is False
        sep = env["hull"]["separator"]
        # separator certifies u*m + v*n >= min_dot > 0 on the support
        from fractions import Fraction

        u, v, bound = Fraction(sep["u"]), Fraction(sep["v"]), Fraction(sep["min_dot"])
        assert bound > 0
        assert u * Fraction(1, 2) + v * Fraction(1, 2) >= bound

    def test_hull_inside_with_weights(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(
            json.dumps(
                {
                    "terms": [
                        {"l": "1/2", "m": "1/2", "n": "-1/2", "coeff": {"re": "1", "im": "0"}},
                        {"l": "1/2", "m": "-1/2", "n": "1/2", "coeff": {"re": "1", "im": "0"}},
                    ]
                }
            )
        )
        code, out, _ = run_cli(capsys, "hull", str(path))
        env = json.loads(out)
        assert env["hull"]["origin_inside"] is True
        assert env["hull"]["weights"] == ["1/2", "1/2"]

    def test_hull_weights_line_up_with_repeated_support(self, capsys, tmp_path):
        """Two terms share (m, n) = (1, 1) at different l: one weight per printed support entry."""
        path = tmp_path / "repeat.json"
        path.write_text(
            json.dumps(
                {
                    "terms": [
                        {"l": l, "m": m, "n": n, "coeff": {"re": "1", "im": "0"}}
                        for l, m, n in (("1", "1", "1"), ("2", "1", "1"), ("1", "-1", "-1"))
                    ]
                }
            )
        )
        code, out, _ = run_cli(capsys, "hull", str(path))
        assert code == 0
        env = json.loads(out)
        assert env["hull"]["origin_inside"] is True
        support = [(Fraction(m), Fraction(n)) for m, n in env["support"]]
        weights = [Fraction(w) for w in env["hull"]["weights"]]
        assert len(support) == len(weights) == 3
        assert all(w >= 0 for w in weights) and sum(weights) == 1
        assert sum(w * m for w, (m, _) in zip(weights, support)) == 0
        assert sum(w * n for w, (_, n) in zip(weights, support)) == 0

    def test_threshold_value(self, capsys, single_element):
        code, out, _ = run_cli(capsys, "threshold", single_element, "--h", "1,-1,-1")
        assert code == 0
        assert json.loads(out)["threshold"] == 3

    def test_threshold_origin_inside_exit_3(self, capsys, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(
            json.dumps(
                {
                    "terms": [
                        {"l": "1/2", "m": "1/2", "n": "-1/2", "coeff": {"re": "1", "im": "0"}},
                        {"l": "1/2", "m": "-1/2", "n": "1/2", "coeff": {"re": "1", "im": "0"}},
                    ]
                }
            )
        )
        code, out, err = run_cli(capsys, "threshold", str(path), "--h", "1,-1,-1")
        assert code == 3
        assert out == ""
        assert "no finite threshold" in err


# values of each fuzz flag, small enough that a draw runs in milliseconds; the invalid
# ones include text the flag's type rejects, which must exit 2 like the command's own checks
VALID_FUZZ_VALUES = {
    "--trials": st.integers(1, 3),
    "--kmax": st.integers(1, 4),
    "--pmax": st.integers(1, 4),
    "--lmax": st.sampled_from(["0", "1/2", "1", "3/2", "2", " 1 ", "2/2", "4/2"]),
    "--rank2-bias": st.sampled_from(["0", "0.5", "1", "1.0"]) | st.floats(0, 1),
}
INVALID_FUZZ_VALUES = {
    "--trials": st.integers(-2, 0) | st.sampled_from(["abc", "1.5"]),
    "--kmax": st.sampled_from([-1, 0, 15, 60, "abc", "1.5"]),
    "--pmax": st.integers(-2, 0) | st.sampled_from(["abc", "1.5"]),
    "--lmax": st.sampled_from(["-1", "-1/2", "-3/2", "1/0", "5/3", "x", ""]),
    "--rank2-bias": st.sampled_from(["-0.1", "1.5", "nan", "inf", "-inf"]),
}
FUZZ_FLAGS = tuple(VALID_FUZZ_VALUES)


@st.composite
def fuzz_argv(draw):
    """A fuzz argv with up to two of its five flags drawn from the invalid values."""
    bad = draw(st.sets(st.sampled_from(FUZZ_FLAGS), max_size=2))
    values = {flag: draw((INVALID_FUZZ_VALUES if flag in bad else VALID_FUZZ_VALUES)[flag]) for flag in FUZZ_FLAGS}
    return ["fuzz", f"--seed={draw(st.integers(-3, 3))}"] + [f"{flag}={value}" for flag, value in values.items()]


class TestFuzzCommand:
    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--seed", "1", "--trials", "100"], "f0103a354118c8e6"),
            (["--seed", "2", "--trials", "20", "--pmax", "20"], "3a93ecbe8a2bc23c"),
            (["--seed", "5", "--trials", "60", "--rank2-bias", "0.5", "--lmax", "5/2"], "033dc06c59028e97"),
        ],
        ids=["seed1-defaults", "seed2-pmax20", "seed5-rank2-lmax5/2"],
    )
    def test_pinned_stream(self, capsys, flags, digest):
        """A seed's stream is fixed across versions: sha256 prefixes of stdout, pinned from an earlier release."""
        code, out, err = run_cli(capsys, "fuzz", *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_stream_determinism(self, capsys):
        flags = ["fuzz", "--seed", "1", "--trials", "12", "--pmax", "4", "--lmax", "3/2"]
        code1, out1, _ = run_cli(capsys, *flags)
        code2, out2, _ = run_cli(capsys, *flags)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert len(lines) == 13
        summary = json.loads(lines[-1])
        assert summary["summary"] is True
        assert summary["trials_run"] == 12
        from su2haar.scalars import parse_half

        for line in lines[:-1]:
            for term in json.loads(line)["function"]["terms"]:
                assert parse_half(term["l"]) <= 3

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys, "fuzz", "--seed", "3", "--trials", "5", "--pmax", "3", "--out", str(out_path)
        )
        assert code == 0
        env = json.loads(out)
        assert env["summary"]["trials_run"] == 5
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 6

    def test_rank2_bias_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--seed", "7", "--trials", "10", "--pmax", "2", "--rank2-bias", "1.0"
        )
        assert code == 0
        for line in out.strip().split("\n")[:-1]:
            assert json.loads(line)["case"] == "three-term-rank-2"

    @pytest.mark.parametrize(
        "flags, named",
        [
            pytest.param(["--trials", "0"], "--trials", id="trials-0"),
            pytest.param(["--trials", "1", "--kmax", "0"], "--kmax", id="kmax-0"),
            pytest.param(["--trials", "1", "--pmax", "0"], "--pmax", id="pmax-0"),
            pytest.param(["--trials", "1", "--rank2-bias", "2"], "--rank2-bias", id="rank2-bias-2"),
            pytest.param(["--trials", "1", "--rank2-bias", "nan"], "--rank2-bias", id="rank2-bias-nan"),
            pytest.param(
                ["--trials", "1", "--rank2-bias", "0.5", "--kmax", "2"], "--rank2-bias", id="rank2-bias-kmax-2"
            ),
            pytest.param(
                ["--trials", "1", "--rank2-bias", "0.5", "--kmax", "3", "--lmax", "0"], "--rank2-bias",
                id="rank2-bias-lmax-0",
            ),
            pytest.param(["--trials", "1", "--rank2-bias", "-0.5"], "--rank2-bias", id="rank2-bias-negative"),
            pytest.param(["--trials", "1", "--lmax", "-1"], "--lmax", id="lmax-negative"),
            pytest.param(["--trials", "1", "--lmax=-1/2"], "--lmax", id="lmax-minus-half"),
            pytest.param(["--trials", "1", "--lmax", "1/0"], "--lmax", id="lmax-1/0"),
            pytest.param(["--trials", "1", "--lmax", "5/3"], "--lmax", id="lmax-5/3"),
            pytest.param(["--trials", "1", "--lmax", "1", "--kmax", "15"], "--kmax", id="kmax-over-index-count"),
            pytest.param(["--trials", "-2", "--pmax", "0"], "--trials", id="trials-first"),
        ],
    )
    def test_flag_errors_exit_2(self, capsys, flags, named):
        code, out, err = run_cli(capsys, "fuzz", "--seed", "1", *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named}: ")
        assert err.endswith("\n") and err.count("\n") == 1

    @given(fuzz_argv())
    @settings(max_examples=200, deadline=None)
    def test_argv_exit_contract(self, argv):
        """Any fuzz argv exits 0, 2 or 4 without a traceback; exit 2 prints one `error: <flag>: ` line."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 4), (argv, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert any(err.startswith(f"error: {flag}: ") for flag in FUZZ_FLAGS), err
        else:
            trials = int(argv[2].removeprefix("--trials="))
            lines = out.splitlines()
            assert json.loads(lines[-1])["trials_run"] == trials == len(lines) - 1

    @pytest.mark.parametrize("flags", [["--lmax", "0"], ["--lmax", "1/2", "--kmax", "6"]], ids=["lmax-0", "lmax-1/2-kmax-6"])
    def test_kmax_over_index_count_exits_2_without_hanging(self, flags):
        """More distinct indices per trial than exist up to --lmax: exit 2 at once, not an endless draw."""
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "su2haar.cli", "fuzz", "--seed", "1", "--trials", "3", *flags],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: --kmax: k_max must be <= ")
        assert "Traceback" not in proc.stderr

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "fuzz", "--seed", "1", "--trials", "1", "--pmax", "1",
            "--out", str(tmp_path / "no" / "dir" / "x.jsonl"),
        )
        assert code == 2
        assert "cannot write" in err

    def test_violation_exits_4_with_reproduction_data(self, capsys, monkeypatch):
        import su2haar.harness as harness_mod
        from su2haar.harness import InstanceReport, check_proven_direction

        real = check_proven_direction

        def forced_violation(f, pmax, trial=None):
            report = real(f, pmax, trial=trial)
            return InstanceReport(
                function=report.function,
                case_tag=report.case_tag,
                origin_inside=report.origin_inside,
                pmax=report.pmax,
                scan=report.scan,
                verdict="violation",
                first_nonzero_p=report.first_nonzero_p,
                trial=report.trial,
            )

        monkeypatch.setattr(harness_mod, "check_proven_direction", forced_violation)
        code, out, err = run_cli(capsys, "fuzz", "--seed", "2", "--trials", "5", "--pmax", "2")
        assert code == 4
        assert "violation at trial 0" in err
        lines = out.strip().split("\n")
        assert json.loads(lines[0])["verdict"] == "violation"
        assert json.loads(lines[0])["function"]["terms"]
        assert json.loads(lines[-1])["violations"] == [0]


def _terms(*rows):
    return {"schema": 1, "terms": [
        {"l": l, "m": m, "n": n, "coeff": {"re": re, "im": im}} for l, m, n, re, im in rows]}


GOLDEN_FILES = {
    # the acceptance instance: k=5, spin 2, support on the line n = -m, origin inside
    "acceptance.json": _terms(("2", "2", "-2", "1", "0"), ("2", "-2", "2", "1/2", "0"),
                              ("2", "1", "-1", "0", "1"), ("2", "-1", "1", "1", "1"),
                              ("2", "0", "0", "-2", "0")),
    # spin 5/2 with radicands 10 and 2 on a 2-D support, origin inside
    "radicals.json": _terms(("5/2", "5/2", "-1/2", "1", "0"), ("5/2", "-3/2", "1/2", "0", "1"),
                            ("5/2", "-1/2", "-3/2", "-2", "1"), ("2", "-1", "1", "1/2", "0")),
    # origin outside the hull
    "outside.json": _terms(("2", "2", "1", "1", "1"), ("1", "1", "0", "2", "0"),
                           ("1/2", "1/2", "-1/2", "0", "-1")),
    "shifted.json": {"schema": 1, "factors": [
        {"l": "1", "m": "0", "n": "1"}, {"l": "1", "m": "1", "n": "1", "power": 2},
        {"l": "5/2", "m": "-5/2", "n": "-5/2"}, {"l": "1", "m": "-1", "n": "-1"}],
        "shift": {"l": "3/2", "m": "3/2", "n": "1/2"}},
}


E = "e3b0c44298fc1c14"                   # sha256 of empty output


class TestGoldenOutputs:
    """Stdout (without timing_s and command), stderr and exit code of fixed calls, pinned.

    The sha256 prefixes were computed at an earlier release; a change that
    alters any printed byte of these calls fails here.
    """

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (["power-scan", "acceptance.json", "--pmax", "18"], (0, "da35ac28073a5380", E)),
            (["power-scan", "acceptance.json", "--pmax", "18", "--with-h", "2,-1,1"], (0, "cab18c190e684ea2", E)),
            (["power-scan", "radicals.json", "--pmax", "12", "--with-h", "3/2,-1/2,1/2"], (0, "6f21cdb94ef707ec", E)),
            (["integrate", "shifted.json"], (0, "9a2e852e2841543d", E)),
            (["integrate", "shifted.json", "--mc", "2000", "--seed", "3"], (0, "e1c5ff80fad7dd9e", E)),
            (["power-scan", "acceptance.json", "--pmax", "4", "--mc", "2000", "--seed", "3"], (0, "4143b0a66a99e4e4", E)),
            (["power-scan", "acceptance.json", "--pmax", "4", "--mc", "2000", "--seed", "3", "--with-h", "2,-1,1"],
             (0, "78c46fd793d61230", E)),
            (["hull", "acceptance.json"], (0, "dec701f92e19a315", E)),
            (["hull", "outside.json"], (0, "8af21db3c29b8c52", E)),
            (["threshold", "acceptance.json", "--h", "1,0,0"], (3, E, "b6cc0593e966fdfa")),
            (["threshold", "outside.json", "--h", "3/2,-3/2,-1/2"], (0, "c29ecdf1eb76dfa7", E)),
            (["verify"], (0, "d575b6e57cf3b04b", "a8a5c6a396a37120")),
        ],
        ids=["scan-acceptance", "scan-acceptance-with-h", "scan-radicals-with-h", "integrate-shift", "integrate-shift-mc",
             "scan-acceptance-mc", "scan-acceptance-with-h-mc",
             "hull-inside", "hull-outside", "threshold-inside", "threshold-outside", "verify"],
    )
    def test_pinned_output(self, capsys, tmp_path, monkeypatch, argv, pinned):
        for name, obj in GOLDEN_FILES.items():
            (tmp_path / name).write_text(json.dumps(obj))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        if out:
            env = json.loads(out)
            env.pop("timing_s")
            env.pop("command")
            out = json.dumps(env, sort_keys=True) + "\n"
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (code, digest(out), digest(err)) == pinned


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, obj in GOLDEN_FILES.items():
        (path / name).write_text(json.dumps(obj))
    return path


# the flags of each command, and values for them small enough that any call runs in milliseconds
ARGV_FLAGS = {
    "integrate": ("--mc", "--seed"),
    "power-scan": ("--pmax", "--with-h", "--mc", "--seed"),
    "hull": (),
    "threshold": ("--h",),
    "fuzz": ("--seed", "--trials", "--lmax", "--kmax", "--pmax", "--rank2-bias", "--out"),
    "verify": (),
}
ARGV_VALUES = {
    "--mc": st.integers(-1, 100).map(str),
    "--seed": st.integers(-2, 3).map(str),
    "--pmax": st.integers(0, 3).map(str),
    "--trials": st.integers(0, 3).map(str),
    "--kmax": st.integers(0, 4).map(str),
    "--lmax": st.sampled_from(["0", "1/2", "3/2", "2", "-1/2", "x"]),
    "--rank2-bias": st.sampled_from(["0", "0.5", "1", "nan", "x"]),
    "--with-h": st.sampled_from(["1,-1,-1", "2,-1,1", "1,0", "-1,0,0", "x,y,z"]),
    "--h": st.sampled_from(["1,0,0", "3/2,-3/2,-1/2", "1,0", "-1,0,0"]),
    "--out": st.just("{}/reports.jsonl"),
}
# the file of each command that takes one: the right kind, the wrong kind, or none at all
ARGV_FILES = {"integrate": ["shifted.json", "acceptance.json", "missing.json"],
              **dict.fromkeys(("power-scan", "hull", "threshold"),
                              ["acceptance.json", "radicals.json", "outside.json", "shifted.json", "missing.json"])}
NOT_INTS = ["abc", "1.5", "", "1" + "0" * 4300]          # the last is over the 4 300-digit limit of int()
# items no command accepts, or accepts only in place of what it needs
ODD_ITEMS = ["--pm", "--tri=1", "--nope", "--", "-x", "-h", "--help", "{}/extra.json"]


@st.composite
def cli_argv(draw):
    """Argv for any command: its flags in both forms and in any order, with at most one fault."""
    command = draw(st.sampled_from([*ARGV_FLAGS, "bogus"]))
    flags = ARGV_FLAGS.get(command, ())
    groups = [["{}/" + draw(st.sampled_from(ARGV_FILES[command]))]] if command in ARGV_FILES else []
    fault = draw(st.sampled_from(["none"] * 4 + ["odd-item", "not-an-int", "no-value", "no-required"]))
    # the required flags, and fuzz's --pmax, whose default of 12 is not small
    first = {"power-scan": ["--pmax"], "threshold": ["--h"], "fuzz": ["--seed", "--trials", "--pmax"]}
    drawn = draw(st.lists(st.sampled_from(flags), max_size=4)) if flags else []
    for flag in (first.get(command, []) if fault != "no-required" else []) + drawn:
        value = draw(ARGV_VALUES[flag])
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    int_flags = [flag for flag in flags if flag in ("--mc", "--seed", "--pmax", "--trials", "--kmax")]
    if fault == "odd-item":
        groups.append([draw(st.sampled_from(ODD_ITEMS))])
    elif fault == "not-an-int" and int_flags:
        groups.append([draw(st.sampled_from(int_flags)), draw(st.sampled_from(NOT_INTS))])
    argv = [command] + [item for group in draw(st.permutations(groups)) for item in group]
    return argv + [draw(st.sampled_from(flags))] if fault == "no-value" and flags else argv


class TestArgv:
    def test_help_names_every_command_and_flag(self, capsys):
        """The usage block has one line per command, naming each of its flags: the table and the text agree."""
        from su2haar.cli import _COMMANDS

        for argv in (["-h"], ["--help"], ["fuzz", "--seed", "1", "--help"], ["power-scan", "-h", "--pm"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == su2haar.cli.__doc__
        usage = {line.split()[1]: line.split()[2:] for line in out.splitlines() if line.startswith("  su2haar ")}
        assert list(usage) == list(_COMMANDS)
        for command, (_, names, flags) in _COMMANDS.items():
            words = [word.strip("[]") for word in usage[command]]
            assert [word for word in words if word.startswith("--")] == list(flags), command
            assert words[:len(names)] == [name.upper() for name in names], command

    def test_help_as_a_positional_is_data(self, capsys, tmp_path, monkeypatch):
        """After `--`, -h is the file to read, not a request for the usage."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "hull", "--", "-h")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read -h: ")

    def test_help_as_a_flag_value_is_data(self, capsys, tmp_path, monkeypatch):
        """The item after a flag is its value: --out -h writes the reports to the file -h."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "fuzz", "--seed", "1", "--trials", "1", "--out", "-h")
        assert (code, err) == (0, "")
        assert json.loads(out)["out"] == "-h"
        assert len((tmp_path / "-h").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["power-scan", "{f}", "--pmax", "2", "--with-h="], "--with-h: expected 'l,m,n', got ''"),
            (["threshold", "{f}", "--h="], "--h: expected 'l,m,n', got ''"),
        ],
        ids=["with-h", "h"],
    )
    def test_empty_index_flag_exits_2(self, capsys, single_element, argv, line):
        """An empty value is a value: it is parsed and rejected, never read as an absent flag."""
        argv = [arg.replace("{f}", single_element) for arg in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    def test_empty_out_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--seed", "1", "--trials", "1", "--out=")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write : ") and err.count("\n") == 1

    def test_help_under_python_oo(self):
        """-OO strips docstrings; the usage block is assigned to __doc__, so --help still prints it."""
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-OO", "-m", "su2haar.cli", "--help"], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, su2haar.cli.__doc__, "")

    @pytest.mark.parametrize(
        "argv, line",
        [
            ([], "expected a command: integrate, power-scan, hull, threshold, fuzz, verify"),
            (["bogus"], "bogus: unknown command, expected one of integrate, power-scan, hull, threshold, fuzz, verify"),
            (["power-scan", "f.json", "--pm", "3"], "--pm: not a flag of power-scan"),
            (["fuzz", "--seed", "1", "--trials", "1", "-x"], "fuzz: takes 0 positional argument(s), got ['-x']"),
            (["hull"], "hull: takes 1 positional argument(s), got []"),
            (["power-scan", "f.json", "--pmax"], "--pmax: expected a value"),
            (["threshold", "f.json"], "--h: required by threshold"),
            (["fuzz", "--seed", "1", "--trials", "abc"], "--trials: invalid int value: 'abc'"),
            (["fuzz", "--seed", "1", "--trials", "1", "--rank2-bias=x"], "--rank2-bias: invalid float value: 'x'"),
        ],
        ids=["empty", "unknown-command", "abbreviation", "single-dash", "no-file", "no-value", "no-required", "not-an-int",
             "not-a-float"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "argv, parsed",
        [
            (["integrate", "f.json"], dict(file="f.json", mc=0, seed=0)),
            (["power-scan", "f.json", "--pmax", "3"], dict(file="f.json", pmax=3, with_h=None, mc=0, seed=0)),
            (["hull", "f.json"], dict(file="f.json")),
            (["threshold", "f.json", "--h", "1,0,0"], dict(file="f.json", h="1,0,0")),
            (["fuzz", "--seed", "1", "--trials", "2"],
             dict(seed=1, trials=2, lmax="2", kmax=4, pmax=12, rank2_bias=0.0, out=None)),
            (["verify"], {}),
            (["fuzz", "--seed", "-1", "--trials", "1", "--lmax=-1/2"],
             dict(seed=-1, trials=1, lmax="-1/2", kmax=4, pmax=12, rank2_bias=0.0, out=None)),
            (["integrate", "f.json", "--mc=100", "--seed", "-1"], dict(file="f.json", mc=100, seed=-1)),
            (["power-scan", "--pmax", "4", "--with-h", "1,0,0", "--mc", "10", "--seed=7", "f.json"],
             dict(file="f.json", pmax=4, with_h="1,0,0", mc=10, seed=7)),
            (["threshold", "--h=3/2,-3/2,-1/2", "f.json"], dict(file="f.json", h="3/2,-3/2,-1/2")),
            (["power-scan", "f.json", "--pmax", "2", "--pmax=5", "--seed", "1", "--seed", "2"],
             dict(file="f.json", pmax=5, with_h=None, mc=0, seed=2)),
            (["fuzz", "--seed", "3", "--trials", "5", "--lmax", "5/2", "--kmax", "3", "--pmax", "20",
              "--rank2-bias", "0.5", "--out", "r.jsonl", "--trials=6"],
             dict(seed=3, trials=6, lmax="5/2", kmax=3, pmax=20, rank2_bias=0.5, out="r.jsonl")),
            (["fuzz", "--seed", " 4 ", "--trials", "+2", "--rank2-bias", "1e-1", "--kmax", "1_0"],
             dict(seed=4, trials=2, lmax="2", kmax=10, pmax=12, rank2_bias=0.1, out=None)),
            (["power-scan", "--pmax", "2", "--", "-f.json"], dict(file="-f.json", pmax=2, with_h=None, mc=0, seed=0)),
        ],
        ids=["integrate-defaults", "power-scan-defaults", "hull", "threshold", "fuzz-defaults", "verify",
             "negative-values", "integrate-both-forms", "file-after-flags", "threshold-file-last",
             "repeat-last-wins", "fuzz-every-flag", "int-and-float-text", "end-of-flags"],
    )
    def test_parse_parity(self, argv, parsed):
        """The values argparse gave for these argv at an earlier release, pinned."""
        from su2haar.cli import parse_argv

        assert vars(parse_argv(argv)) == dict(parsed, cmd=argv[0])

    @given(cli_argv())
    @settings(max_examples=300, deadline=None)
    def test_argv_exit_contract(self, golden_dir, argv):
        """Any argv returns 0, 2, 3, 4 or 5 without a traceback or SystemExit; exit 2 prints one `error: ` line."""
        argv = [arg.replace("{}", str(golden_dir)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                pytest.fail(f"SystemExit({e.code}) on {argv}")
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3, 4, 5), (argv, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (argv, err)


class TestVerifyCommand:
    def test_exit_zero_and_items(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        env = json.loads(out)
        assert env["verification"]["all_passed"] is True
        assert "PASS schur-orthogonality" in err

    def test_failure_exits_5(self, capsys, monkeypatch):
        from su2haar import cli as cli_mod
        from su2haar.harness import SuiteItem, SuiteReport

        broken = SuiteReport((SuiteItem("schur-orthogonality", False, "forced for the test"),))
        monkeypatch.setattr(cli_mod, "run_verification_suite", lambda: broken)
        code, out, err = run_cli(capsys, "verify")
        assert code == 5
        assert "FAIL schur-orthogonality" in err
        assert "failed items: schur-orthogonality" in err


class TestEntryPoint:
    def test_console_script(self, schur_product):
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "su2haar.cli", "integrate", schur_product],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["exact"]["real"][0]["coeff"] == "1/2"



class TestBackendContract:
    def test_former_backend_variable_is_ignored(self):
        """clibench's call server reads su2haar.cli.backend_name(); it stays, pinned to "pure"."""
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import su2haar.cli; print(su2haar.cli.backend_name())"],
            capture_output=True,
            text=True,
            env=dict(os.environ, SU2HAAR_BACKEND="c", PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "pure"

    def test_names_the_benchmark_reads_resolve(self):
        """clibench/ reads these after `import su2haar.cli` alone; a missing one fails its install.

        The tracer's hooks also read what the spans pass and return: the
        `points` of a hull span's first argument, `is_zero()` on an
        `integrate_product` result, `samples` on an `mc_integral` result,
        and hashes of the `ProductSpec` and `MatrixElementIndex` arguments.
        """
        root = pathlib.Path(__file__).resolve().parents[1]
        src = str(root / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = (
            "import sys\n"
            "import su2haar.cli\n"
            "assert 'su2haar.numeric' in sys.modules\n"
            "assert 'to_json' in sys.modules['su2haar.scalars'].RadicalScalar.__dict__\n"
            "assert su2haar.cli.backend_name() == 'pure'\n"
            f"sys.path.insert(0, {str(root / 'clibench')!r})\n"
            "import tracer\n"
            "for module, attr, _ in tracer.FUNCTIONS:\n"
            "    assert callable(getattr(sys.modules[module], attr)), (module, attr)\n"
            "from su2haar.hull import SupportHull\n"
            "from su2haar.integrals import ProductSpec, integrate_product\n"
            "from su2haar.numeric import mc_integral\n"
            "from su2haar.powers import FiniteFunction\n"
            "from su2haar.wigner import MatrixElementIndex\n"
            "index = MatrixElementIndex.of(1, 0, 0)\n"
            "spec = ProductSpec(((index, 2),))\n"
            "hull = SupportHull.from_function(FiniteFunction(((index, (1, 0)),)))\n"
            "assert len(hull.points) == 1\n"
            "assert integrate_product(spec).is_zero() is False\n"
            "assert mc_integral(spec, samples=8).samples == 8\n"
            "hash((spec, index)); hash((spec, None))\n"
            "print(len(tracer.FUNCTIONS))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    TRACED_ARGV = (
        ["integrate", "shifted.json"],
        ["power-scan", "acceptance.json", "--pmax", "4", "--with-h", "2,-1,1"],
        ["power-scan", "acceptance.json", "--pmax", "4", "--mc", "2000", "--seed", "3"],
        ["hull", "acceptance.json"],
        ["threshold", "outside.json", "--h", "3/2,-3/2,-1/2"],
        ["verify"],
    )

    @staticmethod
    def _without_timing(out: str) -> dict:
        env = json.loads(out)
        env.pop("timing_s")
        return env

    def test_traced_calls_match_untraced(self, capsys, tmp_path, monkeypatch):
        """Commands run under the benchmark's installed tracer print what they print untraced, and no call
        bypasses its span: a refactor of a wrapped function or RadicalScalar method cannot break traced runs
        unseen."""
        for name, obj in GOLDEN_FILES.items():
            (tmp_path / name).write_text(json.dumps(obj))
        root = pathlib.Path(__file__).resolve().parents[1]
        path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        script = textwrap.dedent(f"""
            import contextlib, io, json, sys
            import su2haar.cli
            sys.path.insert(0, {str(root / 'clibench')!r})
            import tracer
            trace = tracer.install()
            runs = []
            for argv in {[list(argv) for argv in self.TRACED_ARGV]!r}:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = su2haar.cli.main(argv)
                runs.append([code, out.getvalue(), err.getvalue()])
            summary = trace.summary()
            print(json.dumps({{"runs": runs, "escaped": summary["escaped"], "calls": summary["calls"]}}))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(proc.stdout)
        assert traced["escaped"] == {}
        assert traced["calls"].get("scalars", 0) > 0 and traced["calls"].get("cli.main") == len(self.TRACED_ARGV)
        monkeypatch.chdir(tmp_path)
        for argv, (code, out, err) in zip(self.TRACED_ARGV, traced["runs"]):
            expected = run_cli(capsys, *argv)
            assert (code, err) == (expected[0], expected[2]), argv
            assert self._without_timing(out) == self._without_timing(expected[1]), argv


class TestColdStart:
    def test_numpy_loads_on_the_first_numeric_call(self, tmp_path):
        """Commands without --mc run without numpy, and every command without argparse, gettext or locale;
        eval_matrix_element and --mc import numpy and give the pinned values."""
        for name, obj in GOLDEN_FILES.items():
            (tmp_path / name).write_text(json.dumps(obj))
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = textwrap.dedent("""
            import contextlib, io, sys
            unloaded = lambda: [name for name in ('numpy', 'argparse', 'gettext', 'locale') if name in sys.modules]
            import su2haar
            assert unloaded() == [], 'import su2haar'
            import su2haar.cli
            assert unloaded() == [], 'import su2haar.cli'
            for argv in (['hull', 'acceptance.json'], ['threshold', 'outside.json', '--h', '3/2,-3/2,-1/2'],
                         ['fuzz', '--seed', '1', '--trials', '2'], ['verify'],
                         ['power-scan', 'acceptance.json', '--pmax', '6'], ['integrate', 'shifted.json']):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert su2haar.cli.main(argv) == 0, argv
                assert unloaded() == [], (argv, unloaded())
            from su2haar.numeric import EulerAngles, eval_matrix_element
            from su2haar.wigner import MatrixElementIndex
            print(repr(eval_matrix_element(MatrixElementIndex.of('3/2', '1/2', '-3/2'), EulerAngles(0.3, 1.1, -0.7))))
            assert 'numpy' in sys.modules, 'eval_matrix_element'
            su2haar.cli.main(['integrate', 'shifted.json', '--mc', '2000', '--seed', '3'])
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        value, out = proc.stdout.split("\n", 1)
        assert value == "(-0.14618029862696336+0.37599789223625335j)"
        env = json.loads(out)
        env.pop("timing_s")
        env.pop("command")
        digest = hashlib.sha256((json.dumps(env, sort_keys=True) + "\n").encode()).hexdigest()[:16]
        assert digest == "e1c5ff80fad7dd9e"              # TestGoldenOutputs' integrate-shift-mc pin
