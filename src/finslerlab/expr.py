"""Metric-definition expression language: parser and evaluator.

Grammar (precedence climbing):

    expr    :=  term   {("+" | "-") term}
    term    :=  factor {("*" | "/") factor}
    factor  :=  power
    power   :=  prefix ["^" power]            (right associative)
    prefix  :=  "-" prefix-at-power-level | primary
    primary :=  number | variable | parameter | call | "(" expr ")"
    call    :=  ("sqrt" | "exp" | "ln") "(" expr ")"

Variables are x1..xn and y1..yn for the declared dimension.  "^" takes a
literal rational exponent only (number, negated number, or a quotient of
two numbers, folded at parse time); general expr^expr has ambiguous
branch cuts and is rejected.  Unary minus binds tighter than "*" but
looser than "^", so -x1^2 means -(x1^2).

Evaluation is scalar-ring-generic: the same tree runs over floats or
truncated series, with identical control flow.  A tree passed through
hoist() marks each maximal subtree that reads variables of one kind
alone (a Hoisted node), and evaluate runs such a subtree in the stage
ring of that kind through series.one_kind: one of x alone in the
(cap_x, 0) stage ring, one of y alone in the (0, cap_y) one.  one_kind
passes floats and other rings' scalars through, so a hoisted tree still
evaluates in every ring, to the same value part.  squared() gives the tree of F^2
for an F whose root is a square root or a power.
"""

import math
import re
from dataclasses import dataclass, field, replace

from .errors import ConfigError, DomainError, EvalError, ParseError
from .scalars import exp as _exp
from .scalars import ln as _ln
from .scalars import powr as _powr
from .scalars import sqrt as _sqrt
from .series import one_kind

FUNCTIONS = ("sqrt", "exp", "ln")

_VARIABLE = re.compile(r"^([xy])([1-9][0-9]*)$")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Literal:
    value: float
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Variable:
    kind: str  # "x" or "y"
    index: int  # 1-based, as written
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Parameter:
    name: str
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sqrt | exp | ln
    child: object
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: object
    right: object
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Hoisted:
    kind: str  # "x" or "y": the only kind of variable child reads
    child: object


_BINARY_OPS = {"+": ("add", 10), "-": ("sub", 10), "*": ("mul", 20), "/": ("div", 20)}
_POW_BP = 30
_NEG_BP = 25


class _Tokens:
    def __init__(self, source):
        self.source = source
        self.items = []
        pos = 0
        while pos < len(source):
            if not source[pos:].strip():
                break
            m = _TOKEN.match(source, pos)
            if m is None:
                stripped = source[pos:].lstrip()
                at = len(source) - len(stripped)
                raise ParseError("unrecognized character %r" % stripped[0], at)
            self.items.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.cursor = 0

    def peek(self):
        if self.cursor < len(self.items):
            return self.items[self.cursor]
        return ("eof", "", len(self.source))

    def advance(self):
        tok = self.peek()
        self.cursor += 1
        return tok


def parse(source, dimension, parameter_names=()):
    """Parse a DSL expression for the given dimension.

    parameter_names lists identifiers to accept as parameter nodes;
    names shadowing variables or builtin functions are rejected up
    front since the reference would be ambiguous.
    """
    parameter_names = frozenset(parameter_names)
    for name in parameter_names:
        if _VARIABLE.match(name) or name in FUNCTIONS:
            raise ConfigError(
                "parameter name %r collides with a variable or function" % name
            )
    if not source.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    tokens = _Tokens(source)
    tree = _parse_expr(tokens, 0, dimension, parameter_names)
    kind, text, pos = tokens.peek()
    if kind != "eof":
        raise ParseError(
            "unexpected %r" % text, pos, expected=("operator", "end of input")
        )
    return tree


def parse_x_field(source, dimension, parameter_names, what):
    """parse() of a field of x alone, such as a metric coefficient or a
    volume density; a ConfigError naming `what` if it depends on y."""
    tree = parse(source, dimension, parameter_names)
    if any(kind == "y" for kind, _ in variables_used(tree)):
        raise ConfigError("%s may not depend on y" % what)
    return tree


def _parse_expr(tokens, min_bp, dim, params):
    left = _parse_prefix(tokens, dim, params)
    while True:
        kind, text, pos = tokens.peek()
        if kind != "op":
            break
        if text == "^":
            if _POW_BP < min_bp:
                break
            tokens.advance()
            exponent = _parse_exponent(tokens, dim, params)
            left = Binary("pow", left, exponent, position=pos)
            continue
        if text in _BINARY_OPS:
            op, bp = _BINARY_OPS[text]
            if bp < min_bp:
                break
            tokens.advance()
            right = _parse_expr(tokens, bp + 1, dim, params)
            left = Binary(op, left, right, position=pos)
            continue
        break
    return left


def _parse_prefix(tokens, dim, params):
    kind, text, pos = tokens.advance()
    if kind == "num":
        return Literal(float(text), position=pos)
    if kind == "ident":
        if text in FUNCTIONS:
            k2, t2, p2 = tokens.advance()
            if (k2, t2) != ("op", "("):
                raise ParseError(
                    "function %r needs an argument list" % text, p2, expected=("(",)
                )
            arg = _parse_expr(tokens, 0, dim, params)
            k3, t3, p3 = tokens.advance()
            if (k3, t3) != ("op", ")"):
                raise ParseError("unbalanced parenthesis", p3, expected=(")",))
            return Unary(text, arg, position=pos)
        m = _VARIABLE.match(text)
        if m:
            index = int(m.group(2))
            if index > dim:
                raise ParseError(
                    "variable %s out of range for dimension %d" % (text, dim), pos
                )
            return Variable(m.group(1), index, position=pos)
        if text in params:
            return Parameter(text, position=pos)
        raise ParseError("unknown identifier %r" % text, pos)
    if (kind, text) == ("op", "-"):
        child = _parse_expr(tokens, _NEG_BP, dim, params)
        return Unary("neg", child, position=pos)
    if (kind, text) == ("op", "("):
        inner = _parse_expr(tokens, 0, dim, params)
        k2, t2, p2 = tokens.advance()
        if (k2, t2) != ("op", ")"):
            raise ParseError("unbalanced parenthesis", p2, expected=(")",))
        return inner
    if kind == "eof":
        raise ParseError("unexpected end of input", pos, expected=("expression",))
    raise ParseError("unexpected %r" % text, pos, expected=("expression",))


def _parse_exponent(tokens, dim, params):
    """Exponent of "^": a finite literal rational, folded to a single
    Literal (1e400 reads as inf, which no power takes)."""
    node = _parse_expr(tokens, _POW_BP, dim, params)
    folded = _fold_rational(node)
    if folded is None:
        raise ParseError(
            "exponent must be a literal rational", _position_of(node)
        )
    if not math.isfinite(folded):
        raise ParseError(
            "exponent %r is not finite" % folded, _position_of(node)
        )
    return Literal(folded, position=_position_of(node))


def _fold_rational(node):
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Unary) and node.op == "neg":
        inner = _fold_rational(node.child)
        return None if inner is None else -inner
    if isinstance(node, Binary) and node.op == "div":
        num = _fold_rational(node.left)
        den = _fold_rational(node.right)
        if num is None or den is None or den == 0.0:
            return None
        return num / den
    return None


def _position_of(node):
    return getattr(node, "position", 0)


def evaluate(expr, x, y, parameters=None):
    """Evaluate a parsed tree at vectors x, y over any scalar ring.

    The ring is whatever the entries of x and y are (floats or
    series); literals and parameter values are plain floats coerced by
    the ring's arithmetic.  Domain failures (ln/sqrt/division) surface
    as EvalError carrying the source position of the failing node.
    """
    parameters = parameters or {}
    return _eval(expr, x, y, parameters)


def _eval(node, x, y, params):
    if isinstance(node, Hoisted):
        if node.kind == "x":
            return one_kind(lambda xs: _eval(node.child, xs, y, params), x, "x")
        return one_kind(lambda ys: _eval(node.child, x, ys, params), y, "y")
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Variable):
        vec = x if node.kind == "x" else y
        return vec[node.index - 1]
    if isinstance(node, Parameter):
        try:
            return float(params[node.name])
        except KeyError:
            raise EvalError(
                "unbound parameter %r" % node.name, node.position
            ) from None
    if isinstance(node, Unary):
        child = _eval(node.child, x, y, params)
        if node.op == "neg":
            return -child
        try:
            if node.op == "sqrt":
                return _sqrt(child)
            if node.op == "exp":
                return _exp(child)
            return _ln(child)
        except DomainError as err:
            raise EvalError(str(err), node.position) from err
    left = _eval(node.left, x, y, params)
    if node.op == "pow":
        try:
            return _powr(left, node.right.value)
        except DomainError as err:
            raise EvalError(str(err), node.position) from err
    right = _eval(node.right, x, y, params)
    if node.op == "add":
        return left + right
    if node.op == "sub":
        return left - right
    if node.op == "mul":
        return left * right
    try:
        return left / right
    except (DomainError, ZeroDivisionError) as err:
        raise EvalError(str(err), node.position) from err


def squared(node):
    """The tree of F^2 for the tree F: E for sqrt(E); E^(2 p/q) for
    E^(p/q), which is sqrt(E) at p/q = 1/4 (and E at p/q = 1/2, where
    the power returns its base).  None for any other root, whose square
    is F * F."""
    if isinstance(node, Unary) and node.op == "sqrt":
        return node.child
    if not (isinstance(node, Binary) and node.op == "pow"):
        return None
    q = 2.0 * node.right.value  # doubling is exact, short of overflow
    if not math.isfinite(q):
        return None
    if q == 0.5:
        return Unary("sqrt", node.left, position=node.position)
    return Binary(
        "pow", node.left, Literal(q, position=node.right.position),
        position=node.position,
    )


def hoist(node):
    """The tree with each maximal subtree that reads variables of one kind
    alone, x or y, under a Hoisted node of that kind (module notes).  A
    subtree that runs no ring product or graded operation (a variable, or
    sums and constant multiples of variables) stays as it is: it costs less
    in the ring than moving it to the smaller ring and back."""
    node, kinds = _hoist(node)
    return _mark(node, kinds)


def _hoist(node):
    """(node with its maximal one-kind proper subtrees marked, the kinds of
    variable node reads)."""
    if isinstance(node, Variable):
        return node, {node.kind}
    if isinstance(node, Unary):
        child, kinds = _hoist(node.child)
        return replace(node, child=child), kinds
    if isinstance(node, Binary):
        left, left_kinds = _hoist(node.left)
        right, right_kinds = _hoist(node.right)
        kinds = left_kinds | right_kinds
        if len(kinds) < 2:
            return replace(node, left=left, right=right), kinds
        # each one-kind side is maximal; a quotient by one is a product by
        # its reciprocal, which runs in the smaller ring too (the ring's
        # quotient a / b is a * (1 / b) itself)
        if node.op == "div" and len(right_kinds) == 1:
            inverse = Binary(
                "div", Literal(1.0, position=node.position), right,
                position=node.position,
            )
            return Binary(
                "mul", _mark(left, left_kinds), _mark(inverse, right_kinds),
                position=node.position,
            ), kinds
        return replace(
            node, left=_mark(left, left_kinds), right=_mark(right, right_kinds)
        ), kinds
    return node, set()


def _mark(node, kinds):
    if len(kinds) != 1 or not _costly(node):
        return node
    (kind,) = kinds
    return Hoisted(kind, node)


def _costly(node):
    """Whether evaluating node in a ring runs a ring product or a graded
    operation: a function, a power, or a product or quotient of two sides
    that read variables."""
    if isinstance(node, Unary):
        return node.op != "neg" or _costly(node.child)
    if not isinstance(node, Binary):
        return False
    if node.op == "pow" or (
        node.op in ("mul", "div")
        and variables_used(node.left) and variables_used(node.right)
    ):
        return True
    return _costly(node.left) or _costly(node.right)


def variables_used(node):
    """Set of (kind, index) variable references in a tree."""
    if isinstance(node, Variable):
        return {(node.kind, node.index)}
    if isinstance(node, Unary):
        return variables_used(node.child)
    if isinstance(node, Binary):
        return variables_used(node.left) | variables_used(node.right)
    return set()
