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
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import run_capped
from oracles import parse_value

import su2haar
from su2haar.cli import main
from su2haar.scalars import MAX_DIGITS


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

    @pytest.mark.parametrize("command, fixture, flags, rows", [
        ("integrate", "schur_product", [], 1),
        ("power-scan", "single_element", ["--pmax", "2"], 2),
    ], ids=["integrate", "power-scan"])
    def test_one_sample_has_zero_std_error(self, capsys, request, command, fixture, flags, rows):
        """With one sample there is no variance to estimate: every row reports a standard error of 0."""
        code, out, _ = run_cli(capsys, command, request.getfixturevalue(fixture), *flags, "--mc", "1")
        env = json.loads(out)
        assert code == 0
        assert [(row["numeric"]["samples"], row["numeric"]["std_error"]) for row in env.get("scan", [env])] == [
            (1, 0.0)] * rows

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

    def test_mc_agrees_at_spin_64(self, capsys, tmp_path):
        """The float (c, s) sum of a spin-64 element cancelled (the product below read 82.2 +- 2.0 against
        1/129); the Jacobi form agrees with the exact value within five standard errors, in a product and
        in a scan."""
        product = tmp_path / "p.json"
        factors = [{"l": "64", "m": "3", "n": "-7"}, {"l": "64", "m": "-3", "n": "7"}]
        product.write_text(json.dumps({"factors": factors}))
        function = tmp_path / "f.json"
        function.write_text(json.dumps({"terms": [{"l": "64", "m": "3", "n": "-7", "coeff": {"re": "1"}}]}))
        code, out, err = run_cli(capsys, "integrate", str(product), "--mc", "20000", "--seed", "1")
        env = json.loads(out)
        assert (code, err, env["exact"]) == (0, "", {"real": [{"radicand": 1, "coeff": "1/129"}], "imag": []})
        rows = [(1 / 129, env["numeric"])]
        code, out, err = run_cli(capsys, "power-scan", str(function), "--pmax", "2", "--mc", "20000", "--seed", "1")
        assert (code, err) == (0, "")
        rows += [(0, row["numeric"]) for row in json.loads(out)["scan"]]     # frequency (6, -14) P times
        for exact, numeric in rows:
            assert abs(complex(numeric["mean_re"], numeric["mean_im"]) - exact) <= 5 * numeric["std_error"]


    def test_prints_exact_values_past_the_digit_limit(self, capsys, tmp_path):
        """str() of an int refuses past 4 300 digits; 1/3^9100 (4 342 digits) and the square of a 3 000-digit
        coefficient print in full, read back here through Decimal."""
        path = tmp_path / "f.json"
        template = '{"terms": [{"l": "0", "m": "0", "n": "0", "coeff": {"re": "%s"}}]}'
        path.write_text(template % "1/3")
        code, out, err = run_cli(capsys, "power-scan", str(path), "--pmax", "9100")
        assert (code, err) == (0, "")
        last = json.loads(out)["scan"][-1]
        (real,) = last["exact"]["real"]
        num, den = real["coeff"].split("/")
        assert (last["P"], real["radicand"], last["exact"]["imag"]) == (9100, 1, [])
        assert (num, int(Decimal(den))) == ("1", 3 ** 9100)
        assert parse_value(last["exact"]) == {1: (Fraction(1, 3 ** 9100), 0)}
        path.write_text(template % ("7" * 3000))
        code, out, err = run_cli(capsys, "power-scan", str(path), "--pmax", "2")
        assert (code, err) == (0, "")
        (real,) = json.loads(out)["scan"][1]["exact"]["real"]
        assert int(Decimal(real["coeff"])) == int("7" * 3000) ** 2

    def test_reads_coefficients_past_the_digit_limit(self, capsys, tmp_path):
        """A function file's coefficient reads as the value field prints: (10^5000+1)/3 is 5 000 digits over 3."""
        big = Fraction(10 ** 5000 + 1, 3)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"l": "0", "m": "0", "n": "0", "coeff": {"re": f"1{'0' * 4999}1/3"}}]}))
        code, out, err = run_cli(capsys, "power-scan", str(path), "--pmax", "1")
        assert (code, err) == (0, "")
        assert parse_value(json.loads(out)["scan"][0]["exact"]) == {1: (big, 0)}

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

    def test_json_number_coefficient_keeps_every_digit(self, capsys, tmp_path):
        """A JSON number past a double's 17 digits is read exactly, and an exponent past a double's range exits 2 fast."""
        path = tmp_path / "f.json"
        template = '{"terms": [{"l": "1", "m": "0", "n": "0", "coeff": {"re": %s}}]}'
        path.write_text(template % "0.10000000000000000001")
        code, out, _ = run_cli(capsys, "power-scan", str(path), "--pmax", "2")
        assert code == 0
        value = Fraction(10**19 + 1, 10**20) ** 2 / 3           # integral of t[1,0,0]^2 is 1/3
        assert json.loads(out)["scan"][1]["exact"] == {"real": [{"radicand": 1, "coeff": str(value)}], "imag": []}
        path.write_text(template % "1e5")
        code, out, _ = run_cli(capsys, "power-scan", str(path), "--pmax", "1", "--with-h", "1,0,0")
        assert json.loads(out)["scan"][0]["exact"]["real"] == [{"radicand": 1, "coeff": str(Fraction(10**5, 3))}]
        for number in ("2.5e200000000", "-1e-400", "1e309"):
            path.write_text(template % number)
            started = time.perf_counter()
            code, out, err = run_cli(capsys, "hull", str(path))
            assert (code, out) == (2, ""), number
            assert err == f"error: {path}: terms[0].coeff: a JSON number's exponent must lie in -324..308\n"
            assert time.perf_counter() - started < 1.0, number

    def test_long_coefficients_exit_2_fast(self, tmp_path):
        """A 10^6-digit coefficient, as p/q text, decimal text or a JSON number, exits 2 in under a second with one
        error line; before the cap, reading the p/q text ran past 20 s.  A capped child runs the calls."""
        digits = "7" * 10 ** 6
        for name, coeff in (("ratio", f'"{digits}/3"'), ("decimal", f'"0.{digits}"'), ("number", f"0.{digits}")):
            (tmp_path / f"{name}.json").write_text(
                '{"terms": [{"l": "1", "m": "0", "n": "0", "coeff": {"re": %s}}]}' % coeff)
        proc = run_capped("""
            import contextlib, io, json, time
            from su2haar.cli import main
            rows = []
            for name in ("ratio", "decimal", "number"):
                out, err = io.StringIO(), io.StringIO()
                started = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["hull", "%s/" + name + ".json"])
                rows.append([code, out.getvalue(), err.getvalue(), time.perf_counter() - started < 1.0])
            print(json.dumps(rows))
        """ % tmp_path)
        assert proc.returncode == 0, proc.stderr
        message = f"terms[0].coeff: a rational may have at most {MAX_DIGITS} digits\n"
        assert json.loads(proc.stdout) == [
            [2, "", f"error: {tmp_path}/{name}.json: {message}", True] for name in ("ratio", "decimal", "number")]

    def test_one_grammar_at_every_length(self, capsys, tmp_path):
        """A 4 400-digit decimal text reads, as its "p/q" spelling does; before, past the 4 300-digit limit only
        "p" and "p/q" text read."""
        template = '{"terms": [{"l": "0", "m": "0", "n": "0", "coeff": {"re": "%s"}}]}'
        values = []
        for coeff in ("0." + "7" * 4400, "7" * 4400 + "/1" + "0" * 4400):
            path = tmp_path / "f.json"
            path.write_text(template % coeff)
            code, out, err = run_cli(capsys, "power-scan", str(path), "--pmax", "1")
            assert (code, err) == (0, "")
            values.append(parse_value(json.loads(out)["scan"][0]["exact"]))
        assert values[0] == values[1] == {1: (Fraction(int(Decimal("7" * 4400)), 10 ** 4400), 0)}


class TestMalformedInput:
    """Every malformed file exits 2 with one error line and no traceback."""

    TERM = {"l": "1", "m": "0", "n": "0", "coeff": {"re": "1", "im": "0"}}
    RATIONALS = 'terms[0].coeff: re and im must be rationals such as "-3/4"'

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
            ({"terms": [dict(TERM, coeff={"re": "none"})]}, "terms[0].coeff: invalid rational"),   # has an e, no exponent
            ({"terms": [dict(TERM, coeff={"re": -0.0})]}, "zero coefficient on t[1,0,0]"),
            ({}, "missing field 'terms'"),
            ({"terms": [dict(TERM, coeff={"re": [1]})]}, RATIONALS),
            ({"terms": [dict(TERM, coeff={"im": {"p": 1}})]}, RATIONALS),
            ({"terms": [dict(TERM, coeff={"re": True})]}, RATIONALS),
            ({"terms": [dict(TERM, coeff={"im": None})]}, RATIONALS),
        ],
        ids=["float-spin", "string-coeff", "string-terms", "string-term", "top-level-list", "schema-true",
             "schema-float", "coeff-nan", "coeff-infinity", "coeff-minus-infinity", "coeff-word", "coeff-minus-zero", "no-terms",
             "coeff-re-list", "coeff-im-object", "coeff-re-boolean", "coeff-im-null"],
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

    @pytest.mark.parametrize(
        "command, text",
        [
            ("hull", '{"terms": ' + "[" * 1000 + "]" * 1000 + "}"),
            ("integrate", '{"factors": [' + '{"a": ' * 5000 + "1" + "}" * 5000 + "]}"),
        ],
        ids=["function-file", "product-file"],
    )
    def test_deep_nesting(self, capsys, tmp_path, command, text):
        """json.load raises RecursionError past about 1 000 levels; that is invalid JSON too."""
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
# `TestArbitraryJsonInput._check` writes LONG_NUMBER as a bare JSON number of MAX_DIGITS + 1 digits: the cap holds
# for texts and JSON numbers alike, and a spelling at the cap still reads
LONG_NUMBER = "\0long number"
rational_like = st.sampled_from(
    ["0", "1", "-3/4", "1/0", "nan", "1e5", "0.25", "7" * MAX_DIGITS, "7" * (MAX_DIGITS - 1) + "/3",
     "7" * MAX_DIGITS + "/3", "0." + "7" * MAX_DIGITS, LONG_NUMBER]
) | st.integers() | json_values
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
small_spin_like = st.sampled_from(
    ["0", "1/2", "1", "-1/2", "-1", "3/2", "2", "1/0", "x", "", "501", "1001/2", 10 ** 23]
) | small_json_values
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

    A spin past 500 exits 2 before any record is built, so the spins include
    above-cap spellings; so does a coefficient past `scalars.MAX_DIGITS`
    digits, so the coefficients include texts and JSON numbers at and past that
    cap.  The power cap is still open (a power in the millions runs unbounded),
    so powers stay small.  Every other field is arbitrary JSON.
    """

    @staticmethod
    def _check(obj, commands):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(obj).replace(json.dumps(LONG_NUMBER), "0." + "7" * MAX_DIGITS))
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


class TestSpinCap:
    def test_every_entry_point_exits_2_at_once(self, tmp_path):
        """A spin past 500 in a term, a product factor, --with-h or --lmax exits 2 without a traceback, before
        any exact record is built: at spin 10^23 `factorial` overflowed (exit 1), and t[100000,0,0] and
        --with-h 3000,0,0 ran past 10 s.  A spin of 5 000 or 20 000 digits is named as such, not by int()'s
        digit-limit message."""
        big = str(10 ** 23)
        spin_5k, spin_20k = "1" + "0" * 4999, "1" + "0" * 19999
        too_long = f"a half-integer may have at most {MAX_DIGITS} digits"
        term = lambda l: {"l": l, "m": "0", "n": "0", "coeff": {"re": "1"}}
        files = {"big.json": {"terms": [term(big)]}, "wide.json": {"terms": [term("100000")]},
                 "one.json": {"terms": [term("1")]}, "long.json": {"terms": [term(spin_5k)]},
                 "longer.json": {"terms": [term(spin_20k)]},
                 "product.json": {"factors": [{"l": "1", "m": "0", "n": "0"}, {"l": big, "m": "0", "n": "0"}]}}
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        calls = {
            ("power-scan", "big.json", "--pmax", "1"): "big.json: terms[0]: spin must be at most 500, got l=" + big,
            ("power-scan", "wide.json", "--pmax", "2"): "wide.json: terms[0]: spin must be at most 500, got l=100000",
            ("integrate", "product.json"): "product.json: factors[1]: spin must be at most 500, got l=" + big,
            ("power-scan", "one.json", "--pmax", "3", "--with-h", "3000,0,0"):
                "--with-h: spin must be at most 500, got l=3000",
            ("power-scan", "one.json", "--pmax", "1", "--with-h", big + ",0,0"):
                f"--with-h: spin must be at most 500, got l={big}",
            ("fuzz", "--seed", "1", "--trials", "1", "--lmax", big):
                "--lmax: l_max2 (twice the largest spin) must be <= 1000",
            ("fuzz", "--seed", "1", "--trials", "3", "--lmax", "1000"):
                "--lmax: l_max2 (twice the largest spin) must be <= 1000",
            ("hull", "long.json"): "long.json: terms[0]: spin must be at most 500, got l=" + spin_5k,
            ("hull", "longer.json"): "longer.json: terms[0]: " + too_long,
            ("power-scan", "one.json", "--pmax", "1", "--with-h", spin_5k + ",0,0"):
                "--with-h: spin must be at most 500, got l=" + spin_5k,
            ("power-scan", "one.json", "--pmax", "1", "--with-h", spin_20k + ",0,0"): "--with-h: " + too_long,
            ("fuzz", "--seed", "1", "--trials", "1", "--lmax", spin_5k):
                "--lmax: l_max2 (twice the largest spin) must be <= 1000",
            ("fuzz", "--seed", "1", "--trials", "1", "--lmax", spin_20k): "--lmax: " + too_long,
        }
        proc = run_capped(f"""
            import contextlib, io, json, os, time
            import su2haar.cli
            os.chdir({str(tmp_path)!r})
            for argv in {[list(argv) for argv in calls]!r}:
                out, err = io.StringIO(), io.StringIO()
                started = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = su2haar.cli.main(argv)
                print(json.dumps([code, out.getvalue(), err.getvalue(), time.perf_counter() - started < 1.0]))
        """)
        assert proc.returncode == 0, proc.stderr
        runs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert runs == [[2, "", f"error: {line}\n", True] for line in calls.values()]

    def test_exact_values_at_the_spin_cap(self, capsys, tmp_path):
        """Spin 500, the largest an index may carry, gives the exact Schur values 1/(2l+1) = 1/1001."""
        one_over_1001 = {"real": [{"radicand": 1, "coeff": "1/1001"}], "imag": []}
        product_file = tmp_path / "p.json"
        product_file.write_text(json.dumps({"factors": [{"l": "500", "m": "3", "n": "-7"},
                                                        {"l": "500", "m": "-3", "n": "7"}]}))
        code, out, err = run_cli(capsys, "integrate", str(product_file))
        assert (code, err, json.loads(out)["exact"]) == (0, "", one_over_1001)
        function_file = tmp_path / "f.json"
        function_file.write_text(json.dumps({"terms": [{"l": "500", "m": "0", "n": "0", "coeff": {"re": "1"}}]}))
        code, out, err = run_cli(capsys, "power-scan", str(function_file), "--pmax", "2")
        assert (code, err, json.loads(out)["scan"][-1]) == (0, "", {"P": 2, "exact": one_over_1001})


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
        """A hull that wrongly puts the origin outside turns the first nonzero scan into a violation."""
        import su2haar.harness as harness_mod

        monkeypatch.setattr(harness_mod, "origin_in_hull", lambda hull: False)
        code, out, err = run_cli(capsys, "fuzz", "--seed", "2", "--trials", "5", "--pmax", "2")
        assert code == 4
        assert "violation at trial 0" in err
        lines = out.strip().split("\n")
        assert json.loads(lines[0])["verdict"] == "violation"
        assert json.loads(lines[0])["function"]["terms"]
        assert json.loads(lines[-1])["violations"] == [0]
        assert json.loads(lines[0])["first_nonzero_p"] == 1 and len(lines) == 2     # the run stops at trial 0


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


# id -> (argv, (exit code, sha256 prefix of stdout, of stderr)) of the pinned calls
GOLDEN_CALLS = {
    "scan-acceptance": (["power-scan", "acceptance.json", "--pmax", "18"], (0, "da35ac28073a5380", E)),
    "scan-acceptance-with-h": (["power-scan", "acceptance.json", "--pmax", "18", "--with-h", "2,-1,1"],
                               (0, "cab18c190e684ea2", E)),
    "scan-radicals-with-h": (["power-scan", "radicals.json", "--pmax", "12", "--with-h", "3/2,-1/2,1/2"],
                             (0, "6f21cdb94ef707ec", E)),
    "scan-acceptance-deep": (["power-scan", "acceptance.json", "--pmax", "64"], (0, "638f4a5c37641057", E)),
    "scan-acceptance-deep-with-h": (["power-scan", "acceptance.json", "--pmax", "64", "--with-h", "2,-1,1"],
                                    (0, "0e8dcfd661015581", E)),
    # 2-D support: states and elements lie off both axes, so steps shift by u^sh
    "scan-radicals-deep-with-h": (["power-scan", "radicals.json", "--pmax", "24", "--with-h", "3/2,-1/2,1/2"],
                                  (0, "1b7ca8e91571a7d2", E)),
    "integrate-shift": (["integrate", "shifted.json"], (0, "9a2e852e2841543d", E)),
    "integrate-shift-mc": (["integrate", "shifted.json", "--mc", "2000", "--seed", "3"], (0, "e1c5ff80fad7dd9e", E)),
    "scan-acceptance-mc": (["power-scan", "acceptance.json", "--pmax", "4", "--mc", "2000", "--seed", "3"],
                           (0, "340c0b6b16754b24", E)),
    "scan-acceptance-with-h-mc": (["power-scan", "acceptance.json", "--pmax", "4", "--mc", "2000", "--seed", "3",
                                   "--with-h", "2,-1,1"], (0, "537999ce58300ccb", E)),
    "hull-inside": (["hull", "acceptance.json"], (0, "dec701f92e19a315", E)),
    "hull-outside": (["hull", "outside.json"], (0, "8af21db3c29b8c52", E)),
    "threshold-inside": (["threshold", "acceptance.json", "--h", "1,0,0"], (3, E, "b6cc0593e966fdfa")),
    "threshold-outside": (["threshold", "outside.json", "--h", "3/2,-3/2,-1/2"], (0, "c29ecdf1eb76dfa7", E)),
    "verify": (["verify"], (0, "d575b6e57cf3b04b", "a8a5c6a396a37120")),
}


class TestGoldenOutputs:
    """Stdout (without timing_s and command), stderr and exit code of fixed calls, pinned.

    The sha256 prefixes were computed at an earlier release; a change that
    alters any printed byte of these calls fails here.
    """

    @pytest.mark.parametrize("argv, pinned", list(GOLDEN_CALLS.values()), ids=list(GOLDEN_CALLS))
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

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["power-scan", "{f}", "--pmax", "2", "--with-h", "1_0,0,0"], "--with-h: not a half-integer: '1_0'"),
            (["power-scan", "{f}", "--pmax", "2", "--with-h", "1.5,0,0"], "--with-h: not a half-integer: '1.5'"),
            (["fuzz", "--seed", "1", "--trials", "1", "--lmax", ""], "--lmax: not a half-integer: ''"),
            (["hull", "{g}"], "{g}: terms[0]: not a half-integer: '1_0'"),
        ],
        ids=["with-h-underscore", "with-h-decimal", "lmax-empty", "file-underscore"],
    )
    def test_malformed_half_integer_exits_2(self, capsys, tmp_path, single_element, argv, line):
        """Indices and --lmax take no "_" between digits, as coefficients do, and every other text that is no
        half-integer is named as such; before, "1_0" read as 10 and int()'s own message leaked."""
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"terms": [{"l": "1_0", "m": "0", "n": "0", "coeff": {"re": "1"}}]}))
        argv = [arg.format(f=single_element, g=path) for arg in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {line.format(g=path)}\n")

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
            (["fuzz", "--seed", "1", "--trials", "1", "--kmax", "1_0", "--lmax", "1"],
             "--kmax: invalid int value: '1_0'"),
            (["fuzz", "--seed", "1", "--trials", "1", "--rank2-bias", "0_5"], "--rank2-bias: invalid float value: '0_5'"),
            (["integrate", "f.json", "--mc", "1_000"], "--mc: invalid int value: '1_000'"),
        ],
        ids=["empty", "unknown-command", "abbreviation", "single-dash", "no-file", "no-value", "no-required", "not-an-int",
             "not-a-float", "int-underscore", "float-underscore", "mc-underscore"],
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
            (["fuzz", "--seed", " 4 ", "--trials", "+2", "--rank2-bias", "1e-1"],
             dict(seed=4, trials=2, lmax="2", kmax=4, pmax=12, rank2_bias=0.1, out=None)),
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

    @given(cli_argv(), st.sampled_from(["-h", "--help"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_help_wins_where_a_flag_may_stand(self, argv, word, data):
        """-h or --help as the command or where a flag may stand prints the usage, over any usage fault in the argv;
        as a flag's value or after `--` it is data, and the argv is parsed or rejected as usual."""
        from su2haar.cli import InputError, parse_argv

        assume(not {"-h", "--help"} & set(argv))
        at = data.draw(st.integers(0, len(argv)), label="at")
        is_data = at > 0 and ("--" in argv[1:at] or argv[at - 1] in ARGV_FLAGS.get(argv[0], ()))
        argv = argv[:at] + [word] + argv[at:]
        if is_data:
            with contextlib.suppress(InputError):       # a usage error is not the usage
                assert parse_argv(argv) is not None, argv
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, out.getvalue(), err.getvalue()) == (0, su2haar.cli.__doc__, ""), argv


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

    # every command that writes stdout, into a pipe whose read end is closed, and one into a full device
    UNWRITABLE_STDOUT = [
        *[pytest.param(argv, "pipe", id=argv[0]) for argv in (
            ["integrate", "shifted.json"],
            ["power-scan", "acceptance.json", "--pmax", "3"],
            ["hull", "acceptance.json"],
            ["threshold", "outside.json", "--h", "3/2,-3/2,-1/2"],
            ["fuzz", "--seed", "1", "--trials", "5"],
            ["verify"],
            ["-h"],
        )],
        pytest.param(["hull", "acceptance.json"], "/dev/full", id="hull-dev-full",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    ]

    @pytest.mark.parametrize("argv, sink", UNWRITABLE_STDOUT)
    def test_unwritable_stdout_exits_2(self, golden_dir, argv, sink):
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        if sink == "pipe":
            read_end, out = os.pipe()
            os.close(read_end)
        else:
            out = os.open(sink, os.O_WRONLY)
        try:
            proc = subprocess.run([sys.executable, "-m", "su2haar.cli", *argv], stdout=out, stderr=subprocess.PIPE,
                                  text=True, cwd=golden_dir, env=dict(os.environ, PYTHONPATH=path))
        finally:
            os.close(out)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: cannot write stdout: ")
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr



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
            "hull = SupportHull(FiniteFunction(((index, (1, 0)),)).support_points())\n"
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
        """Commands without --mc run without numpy, and every command without argparse, gettext, locale,
        dataclasses or inspect; eval_matrix_element and --mc import numpy and give the pinned values."""
        for name, obj in GOLDEN_FILES.items():
            (tmp_path / name).write_text(json.dumps(obj))
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = textwrap.dedent("""
            import contextlib, io, sys
            unloaded = lambda: [name for name in ('numpy', 'argparse', 'gettext', 'locale', 'dataclasses', 'inspect')
                                if name in sys.modules]
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


TRACER = "pinned by name in clibench/tracer.py, whose install looks every name up"
SCALAR = "RadicalScalar stays whole as the value type (README, Power engine); the test oracles compute with it"


class TestReachability:
    """Every function defined in src/su2haar is reached by a CLI call or listed in UNREACHED with its reason."""

    CALLS = [argv for argv, _ in GOLDEN_CALLS.values()] + [
        ["fuzz", "--seed", "1", "--trials", "30"],
        ["fuzz", "--seed", "1", "--trials", "30", "--rank2-bias", "0.5", "--out", "fuzz.jsonl"],
        ["-h"],
        ["hull", "duplicate.json"],             # exit 2 from the function-file loader
        ["integrate", "no-factors.json"],       # exit 2 from the product-file loader
    ]
    CODES = [code for _, (code, _, _) in GOLDEN_CALLS.values()] + [0, 0, 0, 2, 2]

    # "module:qualname" -> why the package keeps a function that no call above reaches
    UNREACHED = {
        "_kernel:balanced_compositions": TRACER,
        "_kernel:convolve": TRACER,
        "_kernel:vec_pow": TRACER,
        "powers:enumerate_balanced_compositions": TRACER,
        "powers:power_integral": TRACER,
        "powers:power_integral_with_witness": TRACER,
        "wigner:matrix_element_trigpoly": TRACER,
        "numeric:eval_matrix_element": "library API shown in the README (Monte Carlo); the oracles build "
                                       "representation matrices on it",
        **{f"scalars:RadicalScalar.{name}": SCALAR for name in (
            "__add__", "__sub__", "__neg__", "__mul__", "__bool__", "__hash__", "__repr__", "__str__",
            "__str__.<locals>.side", "conjugate", "times_i_power", "one", "real_terms", "imag_terms",
            "to_complex")},
    }

    # Qualified names are derived in the walk, not read off co_qualname (Python 3.11+), so the test needs nothing
    # newer than the package's floor, 3.10; a profiled frame is matched to its definition by (module, first line, name).
    SCRIPT = textwrap.dedent("""
        import contextlib, inspect, io, json, os, sys, types
        root = os.path.join(sys.argv[1], "su2haar") + os.sep
        called = set()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(root):
                called.add((os.path.basename(code.co_filename)[:-3], code.co_firstlineno, code.co_name))

        sys.setprofile(profile)
        from su2haar.cli import main
        codes = []
        for argv in json.loads(sys.argv[2]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
        sys.setprofile(None)

        qualnames = {}      # (module, first line, name) -> qualified name

        def walk(code, module, prefix):
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    qualname = prefix + const.co_name
                    assert getattr(const, "co_qualname", qualname) == qualname, (const.co_qualname, qualname)
                    key = (module, const.co_firstlineno, const.co_name)
                    if not const.co_name.startswith("<"):       # no lambdas, comprehensions or modules
                        assert key not in qualnames, key
                        qualnames[key] = qualname
                    # a class body's names are attributes; a function's are its locals
                    walk(const, module, qualname + (".<locals>." if const.co_flags & inspect.CO_NEWLOCALS else "."))

        for name in sorted(os.listdir(root)):
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    walk(compile(fh.read(), os.path.join(root, name), "exec"), name[:-3], "")
        label = lambda key: key[0] + ":" + qualnames[key]
        print(json.dumps({"codes": codes, "defined": sorted(map(label, qualnames)),
                          "reached": sorted(map(label, called & qualnames.keys()))}))
    """)

    def test_every_library_function_is_reached_or_listed(self, tmp_path):
        for name, obj in GOLDEN_FILES.items():
            (tmp_path / name).write_text(json.dumps(obj))
        term = {"l": "1", "m": "0", "n": "0", "coeff": {"re": "1"}}
        (tmp_path / "duplicate.json").write_text(json.dumps({"terms": [term, term]}))
        (tmp_path / "no-factors.json").write_text("{}")
        src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, src, json.dumps(self.CALLS)], capture_output=True,
                              text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        run = json.loads(proc.stdout)
        assert run["codes"] == self.CODES
        defined, reached = set(run["defined"]), set(run["reached"])
        listed = set(self.UNREACHED)
        faults = {"unreached, not listed": sorted(defined - reached - listed),
                  "listed, but reached": sorted(listed & reached), "listed, not defined": sorted(listed - defined)}
        assert faults == {fault: [] for fault in faults}
