from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mpf

from hyperseries import netexpr
from hyperseries.netexpr import (Bin, Call, EvalError, Lit, Neg, ParseError,
                                 Var, eval_exact, eval_mpf, evaluate, parse,
                                 to_text)


def test_power_ast_shape():
    node = parse("rho^(-(n*1+1))")
    assert isinstance(node, Bin) and node.op == "^"
    assert node.left == Var("rho")
    assert isinstance(node.right, Neg)


def test_exponential_coefficients_parse():
    node = parse("1/factorial(n)")
    assert isinstance(node, Bin) and node.op == "/"
    assert node.right == Call("factorial", (Var("n"),))


def test_zero_class_net_parses():
    node = parse("rho^((n+1)/eps)")
    assert netexpr.free_vars(node) == {"rho", "n", "eps"}


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than * and /
    assert parse("-2^2") == Neg(Bin("^", Lit("2"), Lit("2")))
    assert parse("2^-3") == Bin("^", Lit("2"), Neg(Lit("3")))
    two_ab = parse("1 - 2*n")
    assert two_ab.op == "-" and two_ab.right.op == "*"
    assert parse("2^n^2") == Bin("^", Lit("2"), Bin("^", Var("n"), Lit("2")))


@pytest.mark.parametrize("text,offset_range", [
    ("1 +", (3, 4)),
    ("(1", (2, 3)),
    ("nope", (0, 1)),
    ("min(1)", (0, 4)),
    ("1 @ 2", (2, 3)),
])
def test_parse_errors_carry_offsets(text, offset_range):
    with pytest.raises(ParseError) as err:
        parse(text)
    lo, hi = offset_range
    assert lo <= err.value.offset <= hi
    assert err.value.expected


def test_factorial_eval():
    assert eval_mpf(parse("factorial(n)"), {"n": 5}, 128) == 120
    assert eval_exact(parse("factorial(n)"), {"n": 5}) == 120


def test_power_eval():
    with mpmath.workprec(128):
        value = eval_mpf(parse("rho^(-2)"), {"rho": mpf("0.01")}, 128)
        assert abs(value - 10000) <= mpf(2) ** -90


def test_log_eval_matches_independent_value():
    # second evaluator: plain mpmath expression at the same precision
    with mpmath.workprec(256):
        rho_value = mpf(10) ** -3
        expected = -mpmath.log(rho_value)
        got = eval_mpf(parse("-log(rho)"), {"rho": rho_value}, 256)
        assert abs(got - expected) <= abs(expected) * mpf(2) ** -240


@pytest.mark.parametrize("text,env", [
    ("log(0-1)", {}),
    ("1/0", {}),
    ("sqrt(0-4)", {}),
    ("factorial(n)", {"n": -2}),
])
def test_domain_errors_name_subexpression(text, env):
    with pytest.raises(EvalError) as err:
        eval_mpf(parse(text), env, 64)
    assert str(err.value)


def test_unbound_variable_rejected():
    with pytest.raises(EvalError):
        eval_mpf(parse("n + 1"), {}, 64)


def test_exact_evaluation_stays_rational():
    assert eval_exact(parse("(n+1)/4"), {"n": 2}) == Fraction(3, 4)
    assert eval_exact(parse("2^n"), {"n": 10}) == 1024
    assert eval_exact(parse("exp(1)"), {}) is None
    assert eval_exact(parse("rho^n"), {"rho": mpf("0.1"), "n": 2}) is None


_FINITE = "finite"

# text, then the outcome of eval_exact and of eval_mpf: an EvalError cause,
# None (no rational value) or a finite mpf value
_MODES = [
    ("1/0", "division by zero", "division by zero"),
    ("0^(0-1)", "zero base with negative exponent",
     "zero base with negative exponent"),
    ("factorial(0-2)", "factorial of negative integer",
     "factorial of negative integer"),
    ("factorial(1/2)", "factorial of non-integer", "factorial of non-integer"),
    ("log(0-1)", None, "log of non-positive value"),
    ("sqrt(0-4)", None, "sqrt of negative value"),
    ("(0-8)^(1/3)", None, "negative base with non-integer exponent"),
    ("2^20000", None, _FINITE),
    ("factorial(10001)", None, _FINITE),
]


@pytest.mark.parametrize("text,exact,inexact", _MODES,
                         ids=[row[0] for row in _MODES])
def test_exact_and_mpf_modes_share_their_guards(text, exact, inexact):
    node = parse(text)
    messages = []
    for run, expected in ((lambda: eval_exact(node, {}), exact),
                          (lambda: eval_mpf(node, {}, 64), inexact)):
        if expected is None:
            assert run() is None
        elif expected == _FINITE:
            assert mpmath.isfinite(run())
        else:
            with pytest.raises(EvalError) as err:
                run()
            assert str(err.value).startswith(expected + " in ")
            messages.append(str(err.value))
    assert len(set(messages)) <= 1


def test_evaluate_prefers_the_exact_value():
    value = evaluate(parse("(n+1)/4"), {"n": 2}, 64)
    assert isinstance(value, Fraction) and value == Fraction(3, 4)
    value = evaluate(parse("exp(1)"), {}, 64)
    assert isinstance(value, mpf) and abs(value - mpmath.e) < mpf(2) ** -50


def test_decimal_literals_are_exact():
    assert Lit("0.25").fraction() == Fraction(1, 4)
    assert Lit("1e-3").fraction() == Fraction(1, 1000)
    assert eval_exact(parse("0.1"), {}) == Fraction(1, 10)


def test_literal_parsed_once(monkeypatch):
    """Each literal's decimal text is parsed into a Fraction once, however
    often and in whichever mode its tree is evaluated."""
    calls = []
    parse_decimal = netexpr._decimal_fraction

    def counting(text):
        calls.append(text)
        return parse_decimal(text)

    monkeypatch.setattr(netexpr, "_decimal_fraction", counting)
    node = parse("3/2^n + 0.5*n - 1e-2*eps")
    for n in range(12):
        assert eval_exact(node, {"n": n, "eps": Fraction(1, 10)}) == \
            Fraction(3, 2 ** n) + Fraction(n, 2) - Fraction(1, 1000)
        eval_mpf(node, {"n": n, "eps": mpf("0.1")}, 128)
        evaluate(node, {"n": n, "eps": mpf("0.1")}, 128)
    assert sorted(calls) == ["0.5", "1e-2", "2", "3"]


# ---------------------------------------------------------------------------
# canonical printer round trip
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.sampled_from([Var("eps"), Var("n"), Var("rho")]),
    st.integers(min_value=0, max_value=99).map(lambda k: Lit(str(k))),
    st.sampled_from([Lit("0.5"), Lit("1e-2"), Lit("2.25")]),
)


def _branch(children):
    unary = children.map(Neg)
    binary = st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda t: Bin(t[0], t[1], t[2]))
    call1 = st.tuples(st.sampled_from(["log", "exp", "sqrt", "abs", "floor"]),
                      children).map(lambda t: Call(t[0], (t[1],)))
    call2 = st.tuples(st.sampled_from(["min", "max"]), children,
                      children).map(lambda t: Call(t[0], (t[1], t[2])))
    return st.one_of(unary, binary, call1, call2)


_ast = st.recursive(_leaf, _branch, max_leaves=25)


@given(_ast)
def test_print_parse_round_trip(node):
    text = to_text(node)
    reparsed = parse(text)
    assert to_text(reparsed) == text
    assert parse(to_text(reparsed)) == reparsed


def test_eval_monotone_in_precision():
    # doubling precision moves results by less than the coarse roundoff
    corpus = ["rho^((n+1)/eps)", "1/factorial(n)", "-log(rho)",
              "exp(1/(1+n)) - sqrt(eps)", "min(rho, eps^2) + max(n, 2)"]
    env = {"eps": mpf(10) ** -3, "rho": mpf(10) ** -3, "n": 7}
    for text in corpus:
        node = parse(text)
        coarse = eval_mpf(node, env, 128)
        fine = eval_mpf(node, env, 256)
        if fine == 0:
            assert coarse == 0
        else:
            assert abs(coarse - fine) <= abs(fine) * mpf(2) ** -100
