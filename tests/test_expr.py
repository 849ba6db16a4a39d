"""Parser, printer and evaluator tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doa.expr import (
    BinOp,
    Call,
    Coord,
    ExprEvalError,
    ExprSyntaxError,
    Lit,
    Neg,
    PiConst,
    Pow,
    Sym,
    evaluate,
    parse,
    to_text,
    walk,
)
from doa.grid import GridSpec
from helpers import reference_evaluate


def ev(text, coords=()):
    return evaluate(parse(text), list(coords))


def test_literal():
    assert parse("1") == Lit(1.0)
    assert ev("1") == 1.0


def test_sqrt2_sin_tree():
    # sin(2*pi*0.25) = 1, so the whole thing is sqrt(2)
    assert abs(ev("sqrt(2)*sin(2*pi*k1)", [0.25]) - math.sqrt(2)) < 1e-14


def test_square_minus_twelfth():
    assert abs(ev("k1^2 - 1/12", [0.5]) - (0.25 - 1 / 12)) < 1e-15


def test_eval_pi():
    assert abs(ev("pi") - math.pi) < 1e-15


def test_eval_cos_half():
    assert abs(ev("cos(2*pi*k1)", [0.5]) - (-1.0)) < 1e-14


def test_eval_product_zero():
    assert ev("exp(k1)*sin(k2)", [0.0, 0.0]) == 0.0


# twenty hand-checked (expression, coords, value) triples; the expected
# values come from math/cmath, independent of the tree evaluator
HAND_CHECKED = [
    ("2+3*4", (), 14.0),
    ("(2+3)*4", (), 20.0),
    ("2-3-4", (), -5.0),
    ("2-(3-4)", (), 3.0),
    ("12/4/3", (), 1.0),
    ("2^10", (), 1024.0),
    ("-2^2", (), -4.0),
    ("(-2)^2", (), 4.0),
    ("2i*2i", (), -4.0),
    ("1+1i", (), 1 + 1j),
    ("sqrt(4)", (), 2.0),
    ("sqrt(2i)", (), cmath.sqrt(2j)),
    ("exp(1)", (), math.e),
    ("sin(pi/6)", (), math.sin(math.pi / 6)),
    ("cos(pi/3)", (), math.cos(math.pi / 3)),
    ("k1*k2^2", (3.0, 2.0), 12.0),
    ("-k1/2", (0.5,), -0.25),
    ("exp(k1)*cos(k2)", (1.0, 2.0), math.e * math.cos(2.0)),
    ("1/(1+k1^2)", (2.0,), 0.2),
    ("sqrt(2)*sin(2*pi*k1)", (0.125,), math.sqrt(2) * math.sin(math.pi / 4)),
]


@pytest.mark.parametrize("text,coords,want", HAND_CHECKED)
def test_hand_checked_values(text, coords, want):
    assert abs(ev(text, coords) - complex(want)) <= 1e-14


def test_precedence_power_over_unary_minus():
    assert parse("-k1^2") == Neg(Pow(Coord(1), 2))


def test_left_associativity():
    assert parse("1-2-3") == BinOp("-", BinOp("-", Lit(1.0), Lit(2.0)), Lit(3.0))


def test_whitespace_insensitive():
    assert parse(" 1 +  2*k1 ") == parse("1+2*k1")


def test_complex_literal_suffix():
    assert parse("2i") == Lit(2j)
    assert parse("1.5e-3i") == Lit(1.5e-3j)


@pytest.mark.parametrize(
    "bad,kind",
    [
        ("", ExprSyntaxError),
        ("1.2.3", ExprSyntaxError),
        ("bogus", ExprSyntaxError),
        ("sin 2", ExprSyntaxError),
        ("(1+2", ExprSyntaxError),
        ("1+", ExprSyntaxError),
        ("2^k1", ExprSyntaxError),
        ("2^-3", ExprSyntaxError),
        ("k0", ExprSyntaxError),
        ("1 @ 2", ExprSyntaxError),
    ],
)
def test_syntax_errors(bad, kind):
    with pytest.raises(kind):
        parse(bad)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + bogus")
    assert err.value.offset == 4


def test_unknown_identifier_message():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse("lambdax")


def test_lambda_is_a_symbol():
    assert parse("2*lambda") == BinOp("*", Lit(2.0), Sym("lambda"))
    assert evaluate(parse("2*lambda"), [], {"lambda": 1.5j}) == 3j
    with pytest.raises(ExprEvalError, match="no value given for 'lambda'"):
        ev("1+lambda")


def test_division_by_zero_has_location():
    with pytest.raises(ExprEvalError) as err:
        ev("1 + 1/(k1-k1)", [0.5])
    assert err.value.offset == 5


def test_sqrt_negative_real_rejected():
    with pytest.raises(ExprEvalError, match="sqrt of negative real"):
        ev("sqrt(-1)")


def test_missing_coordinate():
    with pytest.raises(ExprEvalError, match="missing coordinate k2"):
        ev("k2", [0.5])


@pytest.mark.parametrize("text", ["exp(1000)", "sin(1000i)", "cos(1000i)", "(1e200*k1)^2"])
def test_overflow_of_finite_argument(text):
    with pytest.raises(ExprEvalError, match="overflow"):
        ev(text, [0.5])


def test_zero_power_negative_is_division_error():
    with pytest.raises(ExprEvalError):
        ev("1/k1^2", [0.0])


# --- printer round trips -------------------------------------------------

_leaves = st.one_of(
    st.integers(0, 9).map(lambda n: Lit(complex(n))),
    st.floats(0.0, 100.0, allow_nan=False).map(lambda x: Lit(complex(x))),
    st.integers(0, 50).map(lambda n: Lit(complex(0, n / 4))),
    st.just(PiConst()),
    st.integers(1, 3).map(Coord),
    st.just(Sym("lambda")),
)


def _combine(children):
    binop = st.builds(
        BinOp, st.sampled_from("+-*/"), children, children
    )
    return st.one_of(
        binop,
        st.builds(Neg, children),
        st.builds(Pow, children, st.integers(0, 4)),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt"]), children),
    )


trees = st.recursive(_leaves, _combine, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_print_parse_round_trip(tree):
    assert parse(to_text(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(trees)
def test_double_round_trip_stable(tree):
    text = to_text(tree)
    assert to_text(parse(text)) == text


# --- array evaluation against the node-by-node reference ---------------

GRID = GridSpec((5, 4, 3))
NODES = [GRID.node_coords(multi) for multi in np.ndindex(*GRID.shape)]


def _reference_grid(tree, symbols):
    """Node-by-node values, or None if some node fails or is not finite."""
    try:
        values = [reference_evaluate(tree, point, symbols) for point in NODES]
    except (ExprEvalError, OverflowError):
        return None
    out = np.array(values, dtype=np.complex128).reshape(GRID.shape)
    return out if np.isfinite(out).all() else None


def _array_grid(tree, symbols):
    """Whole-grid values, or None if evaluation fails or is not finite."""
    coords = np.meshgrid(*map(GRID.coordinates, range(3)), indexing="ij", sparse=True)
    try:
        out = np.broadcast_to(evaluate(tree, coords, symbols), GRID.shape)
    except ExprEvalError:
        return None
    return np.ascontiguousarray(out) if np.isfinite(out).all() else None


def _sqrt_of_imaginary(tree, symbols) -> bool:
    """Whether some sqrt in the tree sees a purely imaginary value."""
    for node in walk(tree):
        if isinstance(node, Call) and node.func == "sqrt":
            for point in NODES:
                try:
                    v = reference_evaluate(node.arg, point, symbols)
                except (ValueError, OverflowError):
                    continue
                if v.real == 0 and v.imag != 0:
                    return True
    return False


@settings(max_examples=300, deadline=None)
@given(trees, st.complex_numbers(max_magnitude=4))
def test_array_evaluation_matches_reference_bit_for_bit(tree, lam):
    # numpy's sqrt of a purely imaginary value may differ from cmath's in
    # the last place; every other operation must agree exactly
    symbols = {"lambda": lam}
    assume(not _sqrt_of_imaginary(tree, symbols))
    try:
        want = _reference_grid(tree, symbols)
    except ValueError:
        # cmath rejects a NaN/inf argument where numpy goes on with NaN,
        # which a later x^0 can turn back into 1
        assume(False)
    got = _array_grid(tree, symbols)
    assert (want is None) == (got is None)
    if want is not None:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("text", ["lambda*k1", "lambda/k1", "lambda^2", "lambda^7", "-lambda^0"])
def test_complex_arithmetic_matches_python_bit_for_bit(text):
    # numpy's own complex *, / and ** differ from Python's in the last place
    # or the sign of zero on many of these
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, 3, 1000)) + 1j * rng.standard_normal((2, 3, 1000))
    a[1].imag, b[1].imag = 0.0, -0.0
    a[2].real, b[2].real = -0.0, 0.0
    got = evaluate(parse(text), [b.ravel()], {"lambda": a.ravel()})
    want = np.array(
        [reference_evaluate(parse(text), [y], {"lambda": x}) for x, y in zip(a.flat, b.flat)]
    )
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "text",
    [
        "1-(2-3)",
        "(1+2)*3",
        "-(k1+k2)",
        "(-k1)^2",
        "(k1^2)^3",
        "sqrt(2)*sin(2*pi*k1)",
        "k1^2-1/12",
        "--k1",
        "1/(2*k2)",
    ],
)
def test_parse_print_parse_identity(text):
    tree = parse(text)
    assert parse(to_text(tree)) == tree
