"""An Alloy-like relational expression and formula language.

The paper's methodology hinges on having *one* model description consumed by
every tool: the Alloy model is both empirically tested (via Kodkod/SAT) and
compiled to Coq (via alloqc) for proof.  This module is our analog of the
Alloy DSL: memory models (:mod:`repro.ptx.spec`, :mod:`repro.rc11.spec`,
and every :mod:`repro.cat` model once parsed) are ASTs built from the nodes
defined here, and are then

* evaluated concretely over candidate executions (:mod:`repro.lang.eval`),
* translated to CNF for bounded model finding (:mod:`repro.kodkod`), and
* manipulated symbolically by the proof kernel (:mod:`repro.proof`).

Expressions denote finite relations (arity 1 = sets, arity 2 = binary
relations).  Formulas denote booleans.  All nodes are frozen dataclasses, so
they are hashable and compare structurally — a property the proof kernel
relies on.

Operator sugar on :class:`Expr`:

* ``a | b``  union, ``a & b`` intersection, ``a - b`` difference
* ``a @ b``  relational join (Alloy's dot / the ``;`` of cat models)
* ``~a``     transpose (converse)
* ``a.plus()`` transitive closure, ``a.star()`` reflexive-transitive,
  ``a.opt()`` the ``r?`` shorthand
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional as Opt
from typing import Tuple


class Expr:
    """Base class for relational expressions."""

    arity: int

    def __or__(self, other: "Expr") -> "Expr":
        return Union_(self, other)

    def __and__(self, other: "Expr") -> "Expr":
        return Inter(self, other)

    def __sub__(self, other: "Expr") -> "Expr":
        return Diff(self, other)

    def __matmul__(self, other: "Expr") -> "Expr":
        return Join(self, other)

    def __invert__(self) -> "Expr":
        return Transpose(self)

    def plus(self) -> "Expr":
        """Transitive closure ``r+``."""
        return TClosure(self)

    def star(self) -> "Expr":
        """Reflexive-transitive closure ``r*``."""
        return RTClosure(self)

    def opt(self) -> "Expr":
        """Reflexive closure ``r?`` (``r ∪ iden``)."""
        return Optional_(self)

    def product(self, other: "Expr") -> "Expr":
        """Cartesian product (Alloy ``->``)."""
        return Product(self, other)

    # -- formula shorthands -------------------------------------------------
    def in_(self, other: "Expr") -> "Formula":
        """The inclusion formula ``self ⊆ other``."""
        return Subset(self, other)

    def eq(self, other: "Expr") -> "Formula":
        """The equality formula ``self = other``."""
        return Equal(self, other)


def _binary_arity(left: Expr, right: Expr, op: str) -> int:
    if left.arity != right.arity:
        raise ValueError(f"{op}: arity mismatch {left.arity} vs {right.arity}")
    return left.arity


@dataclass(frozen=True)
class Var(Expr):
    """A named relation variable, bound by an environment at evaluation time."""

    name: str
    arity: int = 2

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Iden(Expr):
    """The identity relation over the universe."""

    arity: int = field(default=2, init=False)

    def __repr__(self) -> str:
        return "iden"


@dataclass(frozen=True)
class Univ(Expr):
    """The universe, as a set (arity 1)."""

    arity: int = field(default=1, init=False)

    def __repr__(self) -> str:
        return "univ"


@dataclass(frozen=True)
class Empty(Expr):
    """The empty relation of a given arity."""

    arity: int = 2

    def __repr__(self) -> str:
        return "none"


@dataclass(frozen=True)
class Union_(Expr):
    """Set union."""

    left: Expr
    right: Expr

    def __post_init__(self):
        object.__setattr__(self, "arity", _binary_arity(self.left, self.right, "union"))

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True)
class Inter(Expr):
    """Set intersection."""

    left: Expr
    right: Expr

    def __post_init__(self):
        object.__setattr__(self, "arity", _binary_arity(self.left, self.right, "inter"))

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True)
class Diff(Expr):
    """Set difference."""

    left: Expr
    right: Expr

    def __post_init__(self):
        object.__setattr__(self, "arity", _binary_arity(self.left, self.right, "diff"))

    def __repr__(self) -> str:
        return f"({self.left!r} - {self.right!r})"


@dataclass(frozen=True)
class Join(Expr):
    """Relational (dot) join; for binary relations this is composition ``;``."""

    left: Expr
    right: Expr

    def __post_init__(self):
        arity = self.left.arity + self.right.arity - 2
        if arity < 1:
            raise ValueError("join would produce arity 0")
        object.__setattr__(self, "arity", arity)

    def __repr__(self) -> str:
        return f"({self.left!r} ; {self.right!r})"


@dataclass(frozen=True)
class Product(Expr):
    """Cartesian product (Alloy ``->``)."""

    left: Expr
    right: Expr

    def __post_init__(self):
        object.__setattr__(self, "arity", self.left.arity + self.right.arity)

    def __repr__(self) -> str:
        return f"({self.left!r} -> {self.right!r})"


@dataclass(frozen=True)
class Transpose(Expr):
    """Converse of a binary relation (Alloy ``~``)."""

    inner: Expr
    arity: int = field(default=2, init=False)

    def __post_init__(self):
        if self.inner.arity != 2:
            raise ValueError("transpose requires a binary expression")

    def __repr__(self) -> str:
        return f"~{self.inner!r}"


@dataclass(frozen=True)
class TClosure(Expr):
    """Transitive closure ``^r``."""

    inner: Expr
    arity: int = field(default=2, init=False)

    def __post_init__(self):
        if self.inner.arity != 2:
            raise ValueError("closure requires a binary expression")

    def __repr__(self) -> str:
        return f"^{self.inner!r}"


@dataclass(frozen=True)
class RTClosure(Expr):
    """Reflexive-transitive closure ``*r``."""

    inner: Expr
    arity: int = field(default=2, init=False)

    def __post_init__(self):
        if self.inner.arity != 2:
            raise ValueError("closure requires a binary expression")

    def __repr__(self) -> str:
        return f"*{self.inner!r}"


@dataclass(frozen=True)
class Optional_(Expr):
    """The axiomatic-model ``r?`` shorthand: ``r ∪ iden``."""

    inner: Expr
    arity: int = field(default=2, init=False)

    def __post_init__(self):
        if self.inner.arity != 2:
            raise ValueError("r? requires a binary expression")

    def __repr__(self) -> str:
        return f"{self.inner!r}?"


@dataclass(frozen=True)
class Bracket(Expr):
    """``[s]``: the identity relation restricted to the set ``s``.

    This is the standard herd/cat idiom for domain/range restriction:
    ``[W] ; po ; [R]`` relates writes to program-order-later reads.
    """

    inner: Expr
    arity: int = field(default=2, init=False)

    def __post_init__(self):
        if self.inner.arity != 1:
            raise ValueError("[s] requires a set (arity-1) expression")

    def __repr__(self) -> str:
        return f"[{self.inner!r}]"


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------
class Formula:
    """Base class for boolean formulas over relational expressions."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        """The implication formula ``self -> other``."""
        return Or(Not(self), other)


@dataclass(frozen=True)
class Subset(Formula):
    """``left ⊆ right`` (Alloy ``in``)."""

    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"{self.left!r} in {self.right!r}"


@dataclass(frozen=True)
class Equal(Formula):
    """``left = right``."""

    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"{self.left!r} = {self.right!r}"


@dataclass(frozen=True)
class NoF(Formula):
    """``no e`` — the expression is empty."""

    expr: Expr

    def __repr__(self) -> str:
        return f"no {self.expr!r}"


@dataclass(frozen=True)
class SomeF(Formula):
    """``some e`` — the expression is non-empty."""

    expr: Expr

    def __repr__(self) -> str:
        return f"some {self.expr!r}"


@dataclass(frozen=True)
class Acyclic(Formula):
    """``acyclic(e)`` — the transitive closure of ``e`` is irreflexive."""

    expr: Expr

    def __post_init__(self):
        if self.expr.arity != 2:
            raise ValueError("acyclic requires a binary expression")

    def __repr__(self) -> str:
        return f"acyclic({self.expr!r})"


@dataclass(frozen=True)
class Irreflexive(Formula):
    """``irreflexive(e)`` — ``e`` contains no self-pair."""

    expr: Expr

    def __post_init__(self):
        if self.expr.arity != 2:
            raise ValueError("irreflexive requires a binary expression")

    def __repr__(self) -> str:
        return f"irreflexive({self.expr!r})"


@dataclass(frozen=True)
class And(Formula):
    """Conjunction."""

    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} && {self.right!r})"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction."""

    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} || {self.right!r})"


@dataclass(frozen=True)
class Not(Formula):
    """Negation."""

    inner: Formula

    def __repr__(self) -> str:
        return f"!{self.inner!r}"


@dataclass(frozen=True)
class TrueF(Formula):
    """The trivially true formula."""

    def __repr__(self) -> str:
        return "true"


# ---------------------------------------------------------------------------
# convenience constructors (the public builder vocabulary)
# ---------------------------------------------------------------------------
def rel(name: str) -> Var:
    """A named binary relation variable."""
    return Var(name, arity=2)


def set_(name: str) -> Var:
    """A named set (arity-1) variable."""
    return Var(name, arity=1)


def bracket(s: Expr) -> Bracket:
    """``[s]`` — identity restricted to the set ``s``."""
    return Bracket(s)


def seq(*exprs: Expr) -> Expr:
    """Relational composition chain ``e0 ; e1 ; ... ; en``."""
    if not exprs:
        raise ValueError("seq() needs at least one expression")
    out = exprs[0]
    for e in exprs[1:]:
        out = Join(out, e)
    return out


def union(*exprs: Expr) -> Expr:
    """N-ary union."""
    if not exprs:
        raise ValueError("union() needs at least one expression")
    out = exprs[0]
    for e in exprs[1:]:
        out = Union_(out, e)
    return out


def conj(*formulas: Formula) -> Formula:
    """N-ary conjunction."""
    out: Formula = TrueF()
    for f in formulas:
        out = f if isinstance(out, TrueF) else And(out, f)
    return out


def free_vars(node) -> Tuple[Var, ...]:
    """All :class:`Var` leaves of an expression or formula, in first-seen order."""
    seen: dict = {}

    def walk(n) -> None:
        if isinstance(n, Var):
            seen.setdefault(n, None)
            return
        for attr in ("left", "right", "inner", "expr"):
            child = getattr(n, attr, None)
            if isinstance(child, (Expr, Formula)):
                walk(child)

    walk(node)
    return tuple(seen)
