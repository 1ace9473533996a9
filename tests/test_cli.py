"""Expression grammar and command line behavior."""

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfps.automata import LinearRepresentation, equal, minimize, rep_shuffle, rep_star, rep_word
from ncfps.cli import main
from ncfps.exprs import (
    ExprSyntaxError,
    infer_alphabet,
    parse_expression,
    representation_of,
    series_of,
)
from ncfps.rings import QQ, QT
from ncfps.series import parse_series_text, series_text
from ncfps.words import Alphabet, word_text


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()


class TestGrammar:
    def test_infix_products_and_words(self):
        s = series_of("x0 shuffle x1", 4)
        assert series_text(s.poly) == "1*x0.x1 + 1*x1.x0"
        s = series_of("x0.x1 + x1.x0", 4)
        assert series_text(s.poly) == "1*x0.x1 + 1*x1.x0"

    def test_one_is_the_empty_word(self):
        s = series_of("1", 3)
        assert s.poly.terms == {(): Fraction(1)}

    def test_unary_minus_and_subtraction(self):
        s = series_of("-x0 + x1 - 2*x0", 2)
        assert s.poly.terms == {("x0",): Fraction(-3), ("x1",): Fraction(1)}

    def test_scalar_binds_tighter_than_concatenation(self):
        a = series_of("2*x0.x1", 4)
        b = series_of("(2*x0).x1", 4)
        assert a.poly.terms == b.poly.terms == {("x0", "x1"): Fraction(2)}

    def test_postfix_star_after_scalar(self):
        # 2*x0* reads as 2 times the star of x0.
        s = series_of("2*x0*", 2)
        assert s.poly.terms == {
            (): Fraction(2),
            ("x0",): Fraction(2),
            ("x0", "x0"): Fraction(2),
        }

    def test_star_of_scaled_word(self):
        s = series_of("(2*x0)*", 2)
        assert s.poly.terms == {
            (): Fraction(1),
            ("x0",): Fraction(2),
            ("x0", "x0"): Fraction(4),
        }

    def test_iterated_star(self):
        # (x0*)* is rejected: the inner star is not proper.
        with pytest.raises(ValueError):
            series_of("x0**", 3)

    def test_precedence_shuffle_looser_than_concatenation(self):
        a = series_of("x0.x1 shuffle x1", 6)
        b = series_of("(x0.x1) shuffle x1", 6)
        assert a.poly.terms == b.poly.terms

    def test_precedence_sum_loosest(self):
        a = series_of("x0 + x1 shuffle x1", 4)
        b = series_of("x0 + (x1 shuffle x1)", 4)
        assert a.poly.terms == b.poly.terms

    def test_polynomial_coefficient_ring(self):
        s = series_of("t^2*x0 - x1", 3, ring="Q[t]")
        assert s.poly.terms[("x0",)] == QT.parse("t^2")

    def test_chained_scalar_prefixes(self):
        s = series_of("-4*t^4*x0.x1", 3, ring="Q[t]")
        assert s.poly.terms == {("x0", "x1"): QT.parse("-4*t^4")}

    def test_y_alphabet_inference(self):
        node = parse_expression("y1 stuffle y2")
        assert infer_alphabet(node).kind == "Y"
        s = series_of("y1 stuffle y2", 4)
        assert s.poly.terms[("y3",)] == Fraction(1)

    def test_alphabet_inference_gaps(self):
        node = parse_expression("x0 + x2")
        assert infer_alphabet(node).letters == ("x0", "x2")

    def test_no_letters_defaults_to_one_letter(self):
        assert infer_alphabet(parse_expression("3")).letters == ("x0",)

    @pytest.mark.parametrize(
        "bad",
        ["x0*x1", "x0 shuffle y1", "", "x0 +", "(x0", "x0)", "shuffle x0", "x0 . ", "$"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            series_of(bad, 3)

    def test_coefficient_rejected_by_ring(self):
        with pytest.raises(ExprSyntaxError, match="t\\^2"):
            series_of("t^2*x0", 3, ring="Q")

    def test_star_of_nonproper_rejected_both_modes(self):
        with pytest.raises(ValueError):
            series_of("(1 + x0)*", 3)
        with pytest.raises(ValueError):
            representation_of("(1 + x0)*")


class TestCompile:
    @pytest.mark.parametrize(
        "text",
        [
            "x0 shuffle x1",
            "(x0.x1)*",
            "2*x0* + x1.x0",
            "(-1*x0.x1)* shuffle (x0.x1)*",
            "(x0 + x1)* - x0*",
            "1 - 2/3*x0.x0",
        ],
    )
    def test_representation_matches_series(self, text):
        node = parse_expression(text)
        alphabet = infer_alphabet(node)
        rep = representation_of(text)
        s = series_of(text, 5)
        for w in alphabet.words_up_to(5):
            assert rep.coeff(w) == s.poly.terms.get(w, Fraction(0))

    def test_representation_matches_series_stuffle(self):
        rep = representation_of("(y1)* stuffle (y2)*")
        s = series_of("(y1)* stuffle (y2)*", 4)
        for w in Alphabet.y().words_up_to(4):
            assert rep.coeff(w) == s.poly.terms.get(w, Fraction(0))

    def test_expression_star_agrees_with_constructors(self):
        viaexpr = representation_of("(-1*x0.x1)* shuffle (x0.x1)*")
        a = Alphabet.x(2)
        w = rep_word(a, QQ, ("x0", "x1"))
        byhand = rep_shuffle(rep_star(representation_of("-1*x0.x1")), rep_star(w))
        assert equal(viaexpr, byhand)


def _texts(letters, coeffs, products):
    """Expression texts over the letters: sums, differences, leading signs,
    scalar prefixes, products, and stars of proper subexpressions."""

    def grow(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from((" + ", " - ", ".", *products)), sub).map(lambda t: "({}){}({})".format(*t)),
            st.tuples(st.sampled_from(coeffs), sub).map(lambda t: f"{t[0]}*({t[1]})"),
            sub.map(lambda e: f"-({e})"),
            st.tuples(st.sampled_from(letters), sub).map(lambda t: f"({t[0]}.({t[1]}))*"),
        )

    return st.recursive(st.sampled_from(letters + coeffs), grow, max_leaves=6)


_FOLD_CASES = [
    (QQ, Alphabet.x(2), _texts(("x0", "x1"), ("1", "2", "1/3"), (" shuffle ",))),
    (QT, Alphabet.x(2), _texts(("x0", "x1"), ("1", "t", "t^2/2"), (" shuffle ",))),
    (QQ, Alphabet.y(), _texts(("y1", "y2"), ("1", "3/2"), (" shuffle ", " stuffle "))),
    (QT, Alphabet.y(), _texts(("y1", "y2"), ("1", "t"), (" shuffle ", " stuffle "))),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_series_and_representation_folds_agree(data):
    ring, alphabet, texts = data.draw(st.sampled_from(_FOLD_CASES))
    text, bound = data.draw(texts), data.draw(st.integers(0, 5))
    want = series_of(text, bound, ring, alphabet).poly
    assert representation_of(text, ring, alphabet).expand(bound).poly == want


class TestCliExpand:
    def test_expand_shuffle_example(self):
        code, out, err = run_cli("expand", "x0 shuffle x1")
        assert (code, err) == (0, "")
        assert out == "1*x0.x1 + 1*x1.x0\n"

    def test_star_subcommand(self):
        code, out, _ = run_cli("star", "x0.x1", "--max-length", "4")
        assert code == 0
        assert out == "1 + 1*x0.x1 + 1*x0.x1.x0.x1\n"

    def test_op_subcommand_names(self):
        assert run_cli("op", "sum", "x0", "x1")[1] == "1*x0 + 1*x1\n"
        assert run_cli("op", "conc", "x0", "x1")[1] == "1*x0.x1\n"
        assert run_cli("op", "shuffle", "x0", "x1")[1] == "1*x0.x1 + 1*x1.x0\n"
        assert run_cli("op", "stuffle", "y1", "y1")[1] == "1*y2 + 2*y1.y1\n"

    def test_emitted_polynomial_reparses_equal(self):
        for text in ["(x0.x1)*", "x0 shuffle x1 shuffle x1", "(x0 - x1)*"]:
            code, out, _ = run_cli("expand", text, "--max-length", "5")
            assert code == 0
            line = out.strip()
            node = parse_expression(text)
            alphabet = infer_alphabet(node)
            back = parse_series_text(line, alphabet, QQ)
            assert series_text(back) == line
            # The printed form is also a valid expression.
            again = series_of(line, 5, alphabet=alphabet)
            assert series_text(again.poly) == line

    def test_byte_stability(self):
        first = run_cli("expand", "(x0 + 2*x1)*", "--max-length", "4")
        second = run_cli("expand", "(x0 + 2*x1)*", "--max-length", "4")
        assert first == second


class TestCliRepresentations:
    def test_minimize_star_is_two_dimensional(self):
        code, out, _ = run_cli("minimize", "(x0.x1)*")
        assert code == 0
        rep = LinearRepresentation.from_json(out)
        assert rep.dim == 2
        assert equal(rep, representation_of("(x0.x1)*"))

    def test_minimize_accepts_rep_file(self, tmp_path):
        rep = representation_of("(x0.x1)* shuffle x0*")
        f = tmp_path / "rep.json"
        f.write_text(rep.to_json())
        code, out, _ = run_cli("minimize", "--rep", str(f))
        assert code == 0
        small = LinearRepresentation.from_json(out)
        assert small.dim == minimize(rep.embed_field()).dim
        assert equal(small, rep)

    def test_classify_examples(self):
        assert run_cli("classify", "(x0 + x1)*")[1] == "exchangeable\n"
        assert run_cli("classify", "x0.x1")[1] == "nilpotent\n"
        assert run_cli("classify", "x0* . x1 . (-1*x0)*")[1] == "solvable\n"
        assert run_cli("classify", "(x0.x1)*")[1] == "general\n"

    def test_check_identity_holds_exits_zero(self):
        code, out, _ = run_cli(
            "check-identity",
            "(-1*x0.x1)* shuffle (x0.x1)*",
            "(-4*x0.x0.x1.x1)*",
        )
        assert code == 0
        assert out == "identity holds (exact)\n"

    def test_check_identity_polynomial_ring(self):
        code, out, _ = run_cli(
            "check-identity",
            "(-t^2*x0.x1)* shuffle (t^2*x0.x1)*",
            "(-4*t^4*x0.x0.x1.x1)*",
            "--ring",
            "Q[t]",
        )
        assert (code, out) == (0, "identity holds (exact)\n")

    def test_check_identity_fails_exits_one(self):
        code, out, _ = run_cli("check-identity", "x0.x1", "x0 shuffle x1")
        assert code == 1
        assert out == "identity fails (exact)\n"


class TestCliAnalytic:
    def test_chen_rows(self):
        code, out, _ = run_cli(
            "chen", "--inputs", "x0=1", "--z0", "0", "--z", "1/2", "--max-length", "3"
        )
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["1"] == "1.0"
        assert abs(float(rows["x0"]) - 0.5) < 1e-12
        assert abs(float(rows["x0.x0"]) - 0.125) < 1e-12
        assert abs(float(rows["x0.x0.x0"]) - 1 / 48) < 1e-12

    def test_chen_far_pole_is_fast(self):
        start = time.perf_counter()
        pole = "x0=1/(z-100000000000000000000000000003)"
        code, out, _ = run_cli("chen", "--inputs", pole, "--z0", "0", "--z", "1", "--max-length", "2")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert set(rows) == {"1", "x0", "x0.x0"}
        assert all(abs(float(v)) < 1e-20 for w, v in rows.items() if w != "1")

    def test_chen_and_pair_near_a_pole(self):
        # the pole at 10001/10000 sits 1e-4 past the far endpoint
        control = "x0=1/(z-10001/10000)"
        code, out, _ = run_cli("chen", "--inputs", control, "--z0", "0", "--z", "1", "--max-length", "2")
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert abs(float(rows["x0"]) + math.log(10001)) < 1e-12
        code, out, _ = run_cli("pair", "x0*", "--inputs", control, "--z0", "0", "--z", "1")
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        assert abs(float(fields["value"]) - 1 / 10001) <= float(fields["tail"])
        assert abs(float(fields["ode"]) - 1 / 10001) <= 1e-12 / 10001

    def test_chen_refuses_rounding_noise_next_to_a_strong_pole(self):
        # an order-8 pole 1e-14 past z = 1/2, where x0 is about 1.43e97: the
        # half steps that round to noise there do not pass as converged
        control = "x0=1/(z-(100000000000002/200000000000000))^8"
        code, out, err = run_cli("chen", "--inputs", control, "--z0", "3/10", "--z", "1/2", "--max-length", "1")
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_chen_orders_letters_by_index(self):
        code, out, _ = run_cli("chen", "--inputs", "x2=1,x10=z", "--max-length", "1")
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()] == ["1", "x2", "x10"]

    def test_chen_non_finite_integrand_fails_at_once(self):
        # pow(z, -97/100) sets the substitution s^64, which underflows z to 0
        # at the first node, where 10^300/(z + 10^-300) leaves the double
        # range: one error line, no numpy warnings, no bisection
        inputs = "x0=10^300/(z+1/10^300),x1=pow(z,-97/100)"
        argv = ["chen", "--inputs", inputs, "--z0", "0", "--z", "1/2", "--max-length", "2"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ncfps.cli", *argv], capture_output=True, text=True)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "x0" in lines[0] and "z = 0.0" in lines[0] and "s^64" in lines[0]

    def test_chen_overflow_fails_with_one_message(self):
        # x0.x0 = (e^z - 1)^2 / 2 exceeds the largest double near z = 355
        argv = ["chen", "--inputs", "x0=exp", "--z0", "0", "--z", "1000", "--max-length", "2"]
        proc = subprocess.run([sys.executable, "-m", "ncfps.cli", *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "overflow" in lines[0] and "z = " in lines[0]
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chen", "--inputs", "x0=10^400", "--z0", "0", "--z", "1"], "input coefficient of about 1e400"),
            (["pair", "x0*", "--inputs", "x0=-1/10^400+10^400*z", "--z0", "0", "--z", "1"], "outside the double range"),
            (["chen", "--inputs", "x0=(z^1000)^1000", "--z0", "1/2", "--z", "1"], "degree above 1000"),
            (["derive-ode", "x0*", "--inputs", "x0=z^600*z^600"], "degree above 1000"),
            (["derive-ode", "x0*", "--inputs", "x0=(3/7*z^2+1/5*z-2)^500"], "more than 2048 bits"),
        ],
    )
    def test_oversized_controls_fail_at_once(self, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(*argv, *(["--max-length", "1"] if argv[0] == "chen" else []))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chen", "--inputs", "x0=1", "--max-length", "100000000"], "the length bound 100000000 is above 4096"),
            (["chen", "--inputs", "x0=1,x1=1", "--max-length", "30"], "2 letters up to length 30 give more than"),
            (["pair", "(x0+x1)*", "--inputs", "x0=1,x1=1", "--max-length", "30"], "2 letters up to length 30"),
        ],
    )
    def test_oversized_families_fail_at_once(self, argv, message):
        # refused before any array is built: no hang, no memory error
        start = time.perf_counter()
        code, out, err = run_cli(*argv, "--z0", "0", "--z", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    def test_chen_refuses_more_words_than_it_prints_before_integrating(self, monkeypatch):
        # 2^22 words are within the library's cap, but printing them took
        # 16.5 s and 802 MB; the CLI prints at most 2^20
        import ncfps.chen

        def integrate(*args):
            raise AssertionError("chen_series ran")

        monkeypatch.setattr(ncfps.chen, "chen_series", integrate)
        start = time.perf_counter()
        code, out, err = run_cli("chen", "--inputs", "x0=1,x1=1", "--z0", "0", "--z", "1", "--max-length", "21")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", "error: 2 letters up to length 21 give more than 1048576 words\n")

    def test_chen_print_cap_is_checked_exactly_at_the_bound(self, monkeypatch):
        import ncfps.cli

        monkeypatch.setattr(ncfps.cli, "_PRINT_WORDS", 7)
        code, out, _ = run_cli("chen", "--inputs", "x0=1,x1=1", "--max-length", "2")
        assert code == 0 and len(out.splitlines()) == 7
        code, out, err = run_cli("chen", "--inputs", "x0=1,x1=1", "--max-length", "3")
        assert (code, out, err) == (2, "", "error: 2 letters up to length 3 give more than 7 words\n")

    def test_derive_ode_power_control_is_fast(self):
        start = time.perf_counter()
        code, out, _ = run_cli("derive-ode", "x0*", "--inputs", "x0=(z+1)^1000")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.startswith("y' + (-z^1000-1000*z^999-")

    def test_chen_double_pole_is_singular(self):
        code, out, err = run_cli("chen", "--inputs", "x0=1/(z^4-4*z^2+4)", "--z0", "1", "--z", "2")
        assert (code, out) == (2, "")
        assert "inside the path" in err

    def test_chen_divergent_rows_are_labeled(self):
        code, out, _ = run_cli(
            "chen",
            "--inputs",
            "x0=1/z,x1=1/(1-z)",
            "--z0",
            "0",
            "--z",
            "1/2",
            "--max-length",
            "2",
        )
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["x0"] == "divergent"
        assert rows["x0.x0"] == "divergent"
        assert rows["x1.x0"] == "divergent"
        # The dilogarithm coefficient stays, with the inner integral regular.
        assert abs(float(rows["x0.x1"]) - 0.5822405264650125) < 1e-8
        assert abs(float(rows["x1"]) - math.log(2)) < 1e-10

    def test_pair_lines(self):
        code, out, _ = run_cli(
            "pair", "(x1)*", "--inputs", "x1=1/(1-z)", "--z0", "0", "--z", "1/2"
        )
        assert code == 0
        lines = out.splitlines()
        assert [l.split()[0] for l in lines] == ["value", "tail", "certified", "ode"]
        value = float(lines[0].split()[1])
        tail = float(lines[1].split()[1])
        assert lines[2] == "certified yes"
        assert abs(value - 2.0) <= tail + 1e-6
        assert abs(float(lines[3].split()[1]) - 2.0) < 1e-6

    def test_pair_checks_and_bounds_each_control_once(self, monkeypatch):
        from collections import Counter

        from ncfps.chen import InputFunction

        calls = {"validate_on": Counter(), "sup_on": Counter()}
        for name, seen in calls.items():

            def counted(f, *args, _call=getattr(InputFunction, name), _seen=seen):
                _seen[repr(f)] += 1
                return _call(f, *args)

            monkeypatch.setattr(InputFunction, name, counted)
        code, out, _ = run_cli(
            "pair", "(1/2*x0 + x1)* shuffle (x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)", "--z0", "2/5", "--z", "3/5"
        )
        assert code == 0 and out.splitlines()[3].startswith("ode ")
        controls = {repr(InputFunction.from_text(t)) for t in ("1/z", "1/(1-z)")}
        assert calls["validate_on"] == Counter(dict.fromkeys(controls, 1))
        assert set(calls["sup_on"]) <= controls and max(calls["sup_on"].values()) == 1

    def test_chen_prints_each_word_in_order(self):
        # the rows as the per-word lookups print them, divergent words included
        from ncfps.chen import chen_series

        ev = chen_series({"x0": "1/z", "x1": "1/(1-z)", "x2": "pow(z, -1/2)"}, (0, "1/2"), 4)
        want = "".join(
            f"{word_text(w)}\t{'divergent' if w in ev.excluded else repr(ev.values[w])}\n"
            for w in ev.alphabet.words_up_to(4)
        )
        inputs = "x0=1/z,x1=1/(1-z),x2=pow(z,-1/2)"
        assert run_cli("chen", "--inputs", inputs, "--z0", "0", "--z", "1/2", "--max-length", "4")[1] == want

    def test_pair_certifies_a_rational_control(self):
        # the sup of 1/(1+z^2) on [0, 1/2] is bounded exactly
        code, out, _ = run_cli("pair", "x1*", "--inputs", "x1=1/(1+z^2)", "--z0", "0", "--z", "1/2")
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        assert fields["certified"] == "yes"
        assert abs(float(fields["value"]) - float(fields["ode"])) <= float(fields["tail"])
        assert abs(float(fields["ode"]) - math.exp(math.atan(0.5))) < 1e-12

    @pytest.mark.parametrize(
        "control, z",
        [("x0=exp", "1000"), ("x0=10^300*z^2", "10000000000"), ("x0=pow(z,81/2)", "10000000000")],
    )
    def test_pair_with_a_sup_beyond_the_double_range(self, control, z):
        # the tail is inf and uncertified, as for an unbounded control, and no traceback ends the call
        code, out, err = run_cli("pair", "x0*", "--inputs", control, "--z0", "0", "--z", z, "--max-length", "0")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[1:3] == ["tail inf", "certified no"] and lines[3].startswith("ode unavailable: ")

    def test_pair_reports_uncovered_letters(self):
        code, _, err = run_cli(
            "pair", "(x0.x1)*", "--inputs", "x1=1", "--z0", "0", "--z", "1"
        )
        assert code == 2
        assert "x0" in err

    def test_derive_ode_fixtures(self):
        assert run_cli("derive-ode", "x1*", "--inputs", "x1=1/(1-z)")[1] == "(z-1)*y' + y = 0\n"
        assert run_cli("derive-ode", "x0*", "--inputs", "x0=1/z")[1] == "z*y' - y = 0\n"
        code, out, _ = run_cli(
            "derive-ode", "(x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)"
        )
        assert code == 0
        assert out == "(z^2-z)*y'' + (z-1)*y' + y = 0\n"

    def test_analytic_byte_stability(self):
        argv = ("pair", "(x0.x1)*", "--inputs", "x0=1/z,x1=1/(1-z)", "--z0", "1/10", "--z", "1/2")
        assert run_cli(*argv) == run_cli(*argv)


class TestCliBases:
    def test_table_contains_dual_pair_rows(self):
        code, out, _ = run_cli("bases", "--max-length", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[0] == "1"
        assert "x0.x1\t1*x0.x1 - 1*x1.x0\t1*x0.x1" in lines

    def test_table_y_alphabet(self):
        code, out, _ = run_cli("bases", "--alphabet", "y", "--max-length", "2")
        assert code == 0
        for line in out.splitlines():
            assert len(line.split("\t")) == 5

    def test_bad_alphabet(self):
        code, _, err = run_cli("bases", "--alphabet", "z3")
        assert code == 2
        assert "alphabet" in err


class TestCliErrors:
    def test_unknown_subcommand_exits_two(self):
        assert run_cli("frobnicate")[0] == 2

    def test_bad_expression_exits_two(self):
        code, out, err = run_cli("expand", "x0*x1")
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_unknown_op_name_exits_two(self):
        assert run_cli("op", "cap", "x0", "x1")[0] == 2

    def test_bad_ring_exits_two(self):
        assert run_cli("expand", "x0", "--ring", "Z[w]")[0] == 2

    def test_bad_inputs_exit_two(self):
        code, _, err = run_cli("chen", "--inputs", "x0:1", "--z0", "0", "--z", "1")
        assert code == 2
        assert "letter=function" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("chen", "--inputs", "x0=1/z,x0=1/(1-z)", "--z0", "1", "--z", "2"),
            ("pair", "x0*", "--inputs", "x0=1,x0=2", "--z0", "0", "--z", "1"),
            ("derive-ode", "x0*", "--inputs", "x0=1/z, x0 = 1/(1-z)"),
        ],
    )
    def test_repeated_input_letter_exits_two(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == "error: input letter x0 is given more than once\n"

    def test_pole_on_path_exits_two(self):
        code, _, err = run_cli("chen", "--inputs", "x0=1/z", "--z0", "-1", "--z", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_inputs_flag_exits_two(self):
        assert run_cli("chen", "--z0", "0", "--z", "1")[0] == 2

    def test_seed_flag_is_refused(self):
        code, out, _ = run_cli("--seed", "7", "expand", "x0")
        assert (code, out) == (2, "")

    def test_rep_and_expression_together_rejected(self, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(representation_of("x0*").to_json())
        assert run_cli("classify", "x0*", "--rep", str(f))[0] == 2

    @pytest.mark.parametrize(
        ("changes", "named"),
        [
            (None, "object"),  # the file holds a list
            ({"mu": []}, "'mu'"),
            ({"mu": {"x0": [None]}}, "'mu'"),
            ({"mu": {"x0": ["1", "0"]}}, "'mu'"),
            ({"eta": [1]}, "'eta'"),
            ({"nu": [None]}, "'nu'"),
            ({"nu": ["1", "0"]}, "'nu'"),
            ({"dim": 2}, "'nu'"),
            ({"dim": "1"}, "'dim'"),
            ({"dim": True}, "'dim'"),
            ({"dim": -1}, "'dim'"),
            ({"alphabet": "x0"}, "'alphabet'"),
            ({"alphabet": [0]}, "'alphabet'"),
            ({"ring": None}, "'ring'"),
        ],
    )
    @pytest.mark.parametrize("command", ["minimize", "classify"])
    def test_malformed_rep_file_is_one_error_line(self, tmp_path, command, changes, named):
        base = {"alphabet": ["x0"], "ring": "Q", "dim": 1, "nu": ["1"], "mu": {"x0": ["1"]}, "eta": ["1"]}
        f = tmp_path / "rep.json"
        f.write_text(json.dumps([base] if changes is None else {**base, **changes}))
        code, out, err = run_cli(command, "--rep", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and named in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["chen", "--inputs", "x0=1", "--z0", "1e400", "--z", "1"],
                "path endpoint '1e400' is outside the double range",
            ),
            (["star", "1"], "cannot star a series whose constant term is 1"),
            (["chen", "--inputs", "x0=pow(z,1/0)"], "cannot read the power exponent '1/0'"),
            (["chen", "--inputs", "x0=1/0"], "division by zero in '1/0'"),
            (["expand", "1/0*x0"], "cannot read '1/0' at position 0 as an element of Q"),
            (["derive-ode", "x0*", "--inputs", "x1=1"], "no input given for x0"),
            (["chen", "--inputs", "x0=1", "--tol", "nan"], "the tolerance must be a number >= 0, not nan"),
            (["pair", "x0*", "--inputs", "x0=1", "--tol", "-1"], "the tolerance must be a number >= 0, not -1.0"),
            (["bases", "--max-length", "-1"], "the grade bound must be nonnegative"),
            # endpoints regular as exact numbers whose doubles are poles
            (
                ["chen", "--inputs", "x0=1/z", "--z0", "1e-400", "--z", "1"],
                "the start endpoint rounds to 0.0 in double precision, onto a singularity of the input",
            ),
            (
                ["chen", "--inputs", "x1=1/(1-z)", "--z0", "1.000000000000000000000000000001", "--z", "2"],
                "the start endpoint rounds to 1.0 in double precision, onto a singularity of the input",
            ),
            (
                ["chen", "--inputs", "x1=1/(1-z)", "--z0", "2", "--z", "1.000000000000000000000000000001"],
                "the far endpoint rounds to 1.0 in double precision, onto a singularity of the input",
            ),
            (
                ["chen", "--inputs", "x0=pow(z,-1/2)", "--z0", "1", "--z", "1e-400"],
                "the far endpoint rounds to 0.0 in double precision, onto a singularity of the input",
            ),
        ],
    )
    def test_bad_values_are_one_error_line(self, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncfps.cli", "expand", "x0 shuffle x1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1*x0.x1 + 1*x1.x0\n"

    def test_module_invocation_identity_failure_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncfps.cli", "check-identity", "x0", "x1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
