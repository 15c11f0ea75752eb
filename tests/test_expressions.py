import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavepot.errors import ExprEvalError, ExprSyntaxError, NonFiniteSampleError
from wavepot.expressions import (
    FUNCTIONS,
    Binary,
    Call,
    Name,
    Number,
    Unary,
    evaluate,
    free_names,
    parse,
    references_time,
    sample,
    separate,
    to_source,
)


class TestParse:
    def test_power(self):
        assert evaluate(parse("x^2"), {"x": 2.0}) == 4.0

    def test_harmonic_form(self):
        assert evaluate(parse("0.5*m*w^2*x^2"), {"m": 1.0, "w": 2.0, "x": 1.0}) == 2.0

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("2+*3")
        assert err.value.position == 2

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function"):
            parse("sinh(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 )")

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(x")

    @pytest.mark.parametrize(
        "source,env,expected",
        [
            ("2^3^2", {}, 512.0),             # right associative
            ("-2^2", {}, -4.0),               # unary binds below ^
            ("2^-2", {}, 0.25),
            ("2-3-4", {}, -5.0),              # left associative
            ("12/4/3", {}, 1.0),
            ("1+2*3", {}, 7.0),
            ("(1+2)*3", {}, 9.0),
            ("1.5e-2 * 100", {}, 1.5),
            ("abs(-3)+sqrt(4)", {}, 5.0),
            ("tanh(0)+cos(0)", {}, 1.0),
        ],
    )
    def test_precedence_and_functions(self, source, env, expected):
        assert evaluate(parse(source), env) == pytest.approx(expected, rel=1e-15)

    def test_free_names_and_time(self):
        node = parse("sin(2*pi*x/L) + t*q")
        assert free_names(node) == {"pi", "x", "L", "t", "q"}
        assert references_time(node)
        assert not references_time(parse("x+y"))


class TestEvaluate:
    def test_unbound_variable(self):
        with pytest.raises(ExprEvalError, match="w"):
            evaluate(parse("w*2"), {})

    def test_vectorized_over_arrays(self):
        xs = np.linspace(0, 1, 5)
        out = evaluate(parse("x^2 + 1"), {"x": xs})
        assert np.allclose(out, xs**2 + 1)


class TestSample:
    def test_zero_everywhere(self, grid64):
        f = sample(parse("0"), grid64)
        assert np.all(f.values == 0.0)

    def test_single_fourier_mode(self, grid64):
        f = sample(parse("sin(2*pi*x/L)"), grid64, {"L": grid64.lengths[0]})
        hat = np.fft.fft(f.values)
        live = np.zeros(64, dtype=bool)
        live[[1, 63]] = True
        assert np.max(np.abs(hat[~live])) <= 1e-12 * np.max(np.abs(hat))

    def test_division_by_zero_at_gridpoint(self, grid64):
        with pytest.raises(NonFiniteSampleError, match="x=0"):
            sample(parse("1/x"), grid64)

    def test_pi_and_t_bound(self, grid64):
        f = sample(parse("cos(pi) + t"), grid64, t=2.0)
        assert np.allclose(f.values, 1.0)

    def test_y_unbound_in_1d(self, grid64):
        with pytest.raises(ExprEvalError):
            sample(parse("y"), grid64)


# random ASTs for the round-trip property
_numbers = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
).map(lambda v: Number(float(v)))
_names = st.sampled_from(["x", "a", "b"]).map(Name)


def _exprs(children):
    binaries = st.tuples(st.sampled_from("+-*/"), children, children).map(
        lambda t: Binary(t[0], t[1], t[2])
    )
    powers = st.tuples(children, st.integers(0, 3)).map(
        lambda t: Binary("^", t[0], Number(float(t[1])))
    )
    unaries = children.map(lambda c: Unary("-", c))
    calls = st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(
        lambda t: Call(t[0], t[1])
    )
    return st.one_of(binaries, powers, unaries, calls)


ast_strategy = st.recursive(st.one_of(_numbers, _names), _exprs, max_leaves=20)


class TestRoundTrip:
    @given(node=ast_strategy, seed=st.integers(0, 2**16))
    def test_print_parse_evaluates_identically(self, node, seed):
        rng = np.random.default_rng(seed)
        env = {"x": rng.uniform(-2, 2), "a": rng.uniform(-2, 2), "b": rng.uniform(-2, 2)}
        reparsed = parse(to_source(node))
        with np.errstate(all="ignore"):
            val_a = evaluate(node, env)
            val_b = evaluate(reparsed, env)
        if np.isfinite(val_a) and np.isfinite(val_b):
            scale = max(abs(float(val_a)), 1.0)
            assert abs(float(val_a) - float(val_b)) <= 1e-15 * scale
        else:
            # non-finite evaluations must at least agree on being non-finite
            assert not (np.isfinite(val_a) or np.isfinite(val_b))

    @given(text=st.text(max_size=40))
    def test_parse_is_total(self, text):
        try:
            parse(text)
        except ExprSyntaxError as err:
            assert 0 <= err.position <= len(text)


def _leaves(node) -> int:
    if isinstance(node, Binary):
        return _leaves(node.left) + _leaves(node.right)
    if isinstance(node, (Unary, Call)):
        return _leaves(node.operand if isinstance(node, Unary) else node.arg)
    return 1


# a factor in one of x, y, t or a binding: t-free or coordinate-free
_factors = st.one_of(
    _numbers,
    st.tuples(st.sampled_from(["sin", "cos", "exp"]), st.sampled_from(["x", "y", "t", "a"]),
              _numbers).map(lambda f: Call(f[0], Binary("+", Name(f[1]), f[2]))),
)


@st.composite
def _separable(draw):
    """A sum of products of factors, each term maybe negated or divided by a factor,
    and the whole maybe times or over one more factor: separable by construction."""
    node = None
    products = st.lists(st.lists(_factors, min_size=1, max_size=3), min_size=1, max_size=4)
    for factors in draw(products):
        term = factors[0]
        for f in factors[1:]:
            term = Binary("*", term, f)
        shape = draw(st.sampled_from(["", "-", "/"]))
        if shape == "-":
            term = Unary("-", term)
        elif shape == "/":
            term = Binary("/", term, draw(_factors))
        node = term if node is None else Binary(draw(st.sampled_from("+-")), node, term)
    outer = draw(st.sampled_from(["", "*", "/"]))
    return Binary(outer, node, draw(_factors)) if outer else node


class TestSeparate:
    @pytest.mark.parametrize("source, terms", [
        ("0", [("0.0", "1.0")]),
        ("sin(t)", [("1.0", "sin(t)")]),
        ("0.5*cos(x+2*y)*sin(t+0.3)", [("0.5 * cos(x + 2.0 * y)", "sin(t + 0.3)")]),
        ("sin(t+0.3)*0.5*cos(x)", [("cos(x)", "sin(t + 0.3) * 0.5")]),
        ("(2+cos(x))/(t-0.04)", [("2.0 + cos(x)", "1.0 / (t - 0.04)")]),
        ("(cos(x)*t - sin(y))/exp(x)", [("cos(x) / exp(x)", "t"), ("sin(y) / exp(x)", "-1.0")]),
        ("-sin(x)*cos(t) + cos(x)*sin(t) - 3*t",
         [("-sin(x)", "cos(t)"), ("cos(x)", "sin(t)"), ("1.0", "-(3.0 * t)")]),
        ("sin(t)*(cos(x)*cos(t) + sin(x))", [("cos(x)", "sin(t) * cos(t)"), ("sin(x)", "sin(t)")]),
        ("cos(x-t)", None),
        ("(x*t)^2", None),
        ("(cos(x) + sin(t))*(sin(x) + cos(t))", None),
        ("cos(x)/sin(x+t)", None),
    ])
    def test_terms(self, source, terms):
        found = separate(parse(source))
        if terms is None:
            assert found is None
        else:
            assert [(to_source(s), to_source(g)) for s, g in found] == terms

    @given(node=_separable(), seed=st.integers(0, 2**16))
    def test_terms_sum_to_the_expression(self, node, seed):
        terms = separate(node)
        assert terms is not None and len(terms) <= _leaves(node)
        for s, g in terms:
            assert "t" not in free_names(s) and free_names(g).isdisjoint({"x", "y"})
        rng = np.random.default_rng(seed)
        env = {name: rng.uniform(-2, 2) for name in ("x", "y", "t", "a")}
        with np.errstate(all="ignore"):
            value = evaluate(node, env)
            parts = [evaluate(s, env) * evaluate(g, env) for s, g in terms]
        if np.isfinite(value) and np.isfinite(parts).all():
            scale = abs(value) + sum(abs(p) for p in parts)
            assert abs(sum(parts) - value) <= 1e-12 * scale
