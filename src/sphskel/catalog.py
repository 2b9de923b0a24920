"""Generators for the symmetric families and table verification sweeps.

Each family is plain data: its ambient simple type and its spherical roots
as (pattern kind, embedding) pairs.  ``PARAMETRIC_FAMILIES`` states each
parametric family's type, parameters, admitted (l, m) and roots in l, m
and the rank; ``FIXED`` states the exceptional families 18-30; family 2,
the group embeddings, is the one special case.  ``FamilySpec.parse``,
``all_specs`` and ``listing`` (the ``catalog-list`` text) read the same
tables, and ``generate`` is the one place that embeds the roots.  No
family states S^p: axiom (S) makes it the union of the roots' circle-free
vertices.  The full color sets (with anticanonical coefficients) are
reconstructed from that data, and a marking adds one invariant divisor
pairing -1 with the chosen spherical root.  The closed-form value registries drive the
verification sweeps; they are the external cross-check that the family
data is right.  A sweep solves the markings of each distinct skeleton once
(the specs of families 8 and 14 that differ only in their unread m share
one), in one ``compute_p_each`` on the skeleton that carries all of them,
and writes one ``CatalogRow`` per marking, which both the table and the
equality reports read.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .linalg import format_rational
# compute_p is not called here but stays a name of this module: the
# benchmark's tracer rebinds every module's alias of a traced function, and
# its own tests read catalog.compute_p.
from .pinv import compute_p, compute_p_each, evaluate_objective, theta_feasible
from .roots import RootSystem, SimpleType
from .skeleton import (
    GammaDivisor,
    SphericalSkeleton,
    make_skeleton,
    validate,
)
from .sphroots import (
    A3_MIDDLE,
    A_CHAIN,
    ALPHA,
    B_CHAIN_DOUBLED,
    C_CHAIN_PINNED,
    D_CHAIN,
    DOUBLE_ALPHA,
    F4_ROOT,
    SUM_OF_TWO,
    make_root,
)


class ParameterOutOfRange(ValueError):
    pass


class FamilySpec(NamedTuple):
    family: str
    series: SimpleType | None = None  # group embeddings only
    l: int | None = None
    m: int | None = None

    def label(self) -> str:
        if self.family == "2":
            return f"2:{self.series}"
        if self.l is None and self.m is None:
            return self.family
        parts = []
        if self.l is not None:
            parts.append(f"l={self.l}")
        if self.m is not None:
            parts.append(f"m={self.m}")
        return f"{self.family}:{','.join(parts)}"

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        text = text.strip()
        fam, _, rest = text.partition(":")
        fam = fam.strip()
        if fam not in FAMILIES:
            raise ParameterOutOfRange(f"unknown family {fam!r}")
        if fam == "2":
            if not rest:
                raise ParameterOutOfRange("family 2 needs a simple type, e.g. 2:G2")
            return FamilySpec("2", series=SimpleType.parse(rest))
        if fam in FIXED:
            ambient = FIXED[fam][0]
            if rest.strip() not in ("", ambient):
                raise ParameterOutOfRange(
                    f"family {fam} takes no parameters, only its type {ambient}: {text!r}"
                )
            return FamilySpec(fam)
        # Each of l and m at most once, as ASCII digits with no leading
        # zero: int() would also read a sign, an underscore or another
        # script's digits.  The m that families 8 and 14 do not use keeps
        # int()'s reading until it is dropped (_SWEPT_M).
        values: dict[str, int] = {}
        if rest:
            for part in rest.split(","):
                key, _, val = part.partition("=")
                key, val = key.strip().lower(), val.strip()
                if key not in ("l", "m"):
                    raise ParameterOutOfRange(f"unknown parameter {part!r}")
                if key in values:
                    raise ParameterOutOfRange(f"parameter {key} given twice: {text!r}")
                digits = val.isascii() and val.isdigit() and (val[0] != "0" or val == "0")
                if not digits and not (key == "m" and fam in _SWEPT_M):
                    raise ParameterOutOfRange(
                        f"parameter {key} takes ASCII digits with no leading zero: {text!r}"
                    )
                values[key] = int(val)
        named = PARAMETRIC_FAMILIES[fam].params + ("m" if fam in _SWEPT_M else "")
        for key in values:
            if key not in named:
                raise ParameterOutOfRange(f"family {fam} takes no parameter {key}")
        return FamilySpec(fam, l=values.get("l"), m=values.get("m"))


# One spherical root as family data: its pattern kind and its embedding.
Embedded = tuple[str, tuple[int, ...]]


def _doubled(m: int) -> list[Embedded]:
    """2 alpha_i for i < m."""
    return [(DOUBLE_ALPHA, (i,)) for i in range(m)]


def _sums(m: int, n: int) -> list[Embedded]:
    """alpha_k + alpha_{n-1-k} for k < m."""
    return [(SUM_OF_TWO, (k, n - 1 - k)) for k in range(m)]


def _middles(m: int) -> list[Embedded]:
    """The A3-middle roots on 2i, 2i+1, 2i+2 for i < m."""
    return [(A3_MIDDLE, (2 * i, 2 * i + 1, 2 * i + 2)) for i in range(m)]


class Family(NamedTuple):
    """One parametric family: its ambient simple type (a letter, and a rank
    in l and m), the parameters its label names, the (l, m) it admits, as a
    rule and as the text ``catalog-list`` prints, and its spherical roots in
    l, m and the rank n."""

    letter: str
    rank: Callable[[int, int], int]
    params: str  # "l", "m" or "lm"
    rule: Callable[[int, int], bool]
    conditions: str
    sigma: Callable[[int, int, int], Sequence[Embedded]]


_PAIRED = (  # families 9 and 10/11
    lambda l, m: (m == 0 and l >= 2) or (m >= 1 and l >= 1),
    "(m = 0, l >= 2) or (m >= 1, l >= 1)",
)

PARAMETRIC_FAMILIES: dict[str, Family] = {
    "3": Family("A", lambda l, m: 2 * m + l, "lm", lambda l, m: l >= 1 and m >= 0,
                "l >= 1, m >= 0",
                lambda l, m, n: _sums(m, n)
                + [(ALPHA, (m,)) if l == 1 else (A_CHAIN, tuple(range(m, m + l)))]),
    "4": Family("A", lambda l, m: 2 * m + 1, "m", lambda l, m: m >= 0, "m >= 0",
                lambda l, m, n: _sums(m, n) + [(DOUBLE_ALPHA, (m,))]),
    "5": Family("A", lambda l, m: m, "m", lambda l, m: m >= 2, "m >= 2",
                lambda l, m, n: _doubled(m)),
    "6": Family("A", lambda l, m: 2 * m + 1, "m", lambda l, m: m >= 1, "m >= 1",
                lambda l, m, n: _middles(m)),
    "8": Family("B", lambda l, m: l + 1, "l", lambda l, m: l >= 1, "l >= 1",
                lambda l, m, n: [(ALPHA, (0,)), (DOUBLE_ALPHA, (1,)) if l == 1
                                 else (B_CHAIN_DOUBLED, tuple(range(1, l + 1)))]),
    "9": Family("B", lambda l, m: m + l, "lm", *_PAIRED,
                lambda l, m, n: _doubled(m) + [
                    (DOUBLE_ALPHA, (m,)) if l == 1
                    else (B_CHAIN_DOUBLED, tuple(range(m, m + l)))]),
    "10/11": Family("C", lambda l, m: 2 * m + l + 1, "lm", *_PAIRED,
                    lambda l, m, n: _middles(m) + [
                        (B_CHAIN_DOUBLED, (2 * m + 1, 2 * m)) if l == 1
                        else (C_CHAIN_PINNED, tuple(range(2 * m, 2 * m + l + 1)))]),
    "12": Family("C", lambda l, m: m + 1, "m", lambda l, m: m >= 2, "m >= 2",
                 lambda l, m, n: _doubled(m) + [(ALPHA, (m,))]),
    "13": Family("C", lambda l, m: m + 1, "m", lambda l, m: m >= 2, "m >= 2",
                 lambda l, m, n: _doubled(m + 1)),
    "14": Family("D", lambda l, m: l + 2, "l", lambda l, m: l >= 2, "l >= 2",
                 lambda l, m, n: [(ALPHA, (0,)), (D_CHAIN, tuple(range(1, l + 2)))]),
    "15": Family(
        "D", lambda l, m: m + l + 1, "lm",
        lambda l, m: (
            (m == 0 and l >= 3)
            or (m == 1 and l >= 2)
            or (m >= 2 and l >= 1)
            or (m >= 3 and l == 0)
        ),
        "(m = 0, l >= 3) or (m = 1, l >= 2) or (m >= 2, l >= 1) or (m >= 3, l = 0)",
        lambda l, m, n: _doubled(m) + [
            (DOUBLE_ALPHA, (m,)) if l == 0
            else (SUM_OF_TWO, (m, m + 1)) if l == 1
            else (D_CHAIN, tuple(range(m, m + l + 1)))
        ],
    ),
    "16/1": Family("D", lambda l, m: 2 * m + 3, "m", lambda l, m: m >= 1, "m >= 1",
                   lambda l, m, n: _middles(m)
                   + [(A_CHAIN, (2 * m + 1, 2 * m, 2 * m + 2))]),
    "16/2": Family("D", lambda l, m: 2 * m + 2, "m", lambda l, m: m >= 1, "m >= 1",
                   lambda l, m, n: _middles(m) + [(ALPHA, (2 * m + 1,))]),
    "17": Family("D", lambda l, m: 2 * m + 2, "m", lambda l, m: m >= 1, "m >= 1",
                 lambda l, m, n: _middles(m) + [(DOUBLE_ALPHA, (2 * m + 1,))]),
}

# Families 8 and 14 take only l, yet their labels carry an m: all_specs
# sweeps it, and the benchmark references pin the labels `8:l=..,m=..` and
# `14:l=..,m=..` (ROADMAP item 1, program follow-ups).  FamilySpec.parse
# accepts that m and refuses every other parameter a family does not name.
_SWEPT_M = ("8", "14")

# The two D5 roots that families 19, 22, 23 and 26 share.
_D5_PAIR = ((D_CHAIN, (0, 2, 3, 1, 4)), (D_CHAIN, (5, 4, 3, 1, 2)))

# The exceptional families: ambient simple type and spherical roots.
FIXED: dict[str, tuple[str, Sequence[Embedded]]] = {
    "18": ("E6", ((A_CHAIN, (0, 2, 3, 4, 5)), (D_CHAIN, (1, 3, 2, 4)))),
    "19": ("E6", _D5_PAIR),
    "20": ("E6", ((SUM_OF_TWO, (0, 5)), (SUM_OF_TWO, (2, 4)),
                  (DOUBLE_ALPHA, (3,)), (DOUBLE_ALPHA, (1,)))),
    "21": ("E6", _doubled(6)),
    "22": ("E7", (*_D5_PAIR, (ALPHA, (6,)))),
    "23": ("E7", (*_D5_PAIR, (DOUBLE_ALPHA, (6,)))),
    "24": ("E7", ((DOUBLE_ALPHA, (0,)), (DOUBLE_ALPHA, (2,)),
                  (A3_MIDDLE, (1, 3, 4)), (A3_MIDDLE, (4, 5, 6)))),
    "25": ("E7", _doubled(7)),
    "26": ("E8", (*_D5_PAIR, (DOUBLE_ALPHA, (6,)), (DOUBLE_ALPHA, (7,)))),
    "27": ("E8", _doubled(8)),
    "28": ("F4", ((F4_ROOT, (0, 1, 2, 3)),)),
    "29": ("F4", _doubled(4)),
    "30": ("G2", _doubled(2)),
}
FIXED_FAMILIES = tuple(FIXED)
FAMILIES = ("2", *PARAMETRIC_FAMILIES, *FIXED_FAMILIES)


def listing() -> list[tuple[str, str]]:
    """(spec form, parameter conditions) of every family, in catalog order."""
    return [
        ("2:<type>", "group embeddings, type A1..G2 (e.g. 2:A3, 2:E6)"),
        *(
            (f"{fam}:" + ",".join(f"{p}=.." for p in family.params), family.conditions)
            for fam, family in PARAMETRIC_FAMILIES.items()
        ),
        *((fam, "fixed") for fam in FIXED_FAMILIES),
    ]


def _system(spec: FamilySpec) -> tuple[RootSystem, Sequence[Embedded]]:
    """The ambient root system and the spherical roots, as family data."""
    fam = spec.family
    if fam == "2":
        t = spec.series
        if t is None:
            raise ParameterOutOfRange("family 2 needs a simple type")
        return RootSystem((t, t)), [(SUM_OF_TWO, (i, t.rank + i)) for i in range(t.rank)]
    if fam in FIXED:
        ambient, sigma = FIXED[fam]
        return RootSystem.parse(ambient), sigma

    l = spec.l if spec.l is not None else 0
    m = spec.m if spec.m is not None else 0
    family = PARAMETRIC_FAMILIES.get(fam)
    if family is None or not family.rule(l, m):
        raise ParameterOutOfRange(f"parameters l={l}, m={m} out of range for {fam}")
    n = family.rank(l, m)
    return RootSystem((SimpleType(family.letter, n),)), family.sigma(l, m, n)


@cache
def generate(spec: FamilySpec) -> SphericalSkeleton:
    """The family's skeleton with empty Gamma; always validates.

    No family states its S^p: by axiom (S) it meets each root's support in
    exactly the pattern's circle-free vertices, so it is their union.
    ``validate`` checks the axiom in full.  Built once per spec and process:
    the skeleton is an immutable value.
    """
    rs, roots = _system(spec)
    sigma = [make_root(kind, embedding, rs) for kind, embedding in roots]
    # Filled in ascending order, as a range is: a frozenset's iteration
    # order, and so the skeleton's repr, depends on its insertion order.
    sp = frozenset(sorted(v for root in sigma for v in root.sp_vertices()))
    sk = make_skeleton(rs, sigma, sp)
    problems = validate(sk)
    if problems:
        raise ParameterOutOfRange(
            f"{spec.label()} does not produce a valid skeleton: {problems}"
        )
    return sk


def sigma_size(spec: FamilySpec) -> int:
    return len(generate(spec).sigma)


def mark(spec: FamilySpec, gamma_index: int) -> SphericalSkeleton:
    """Reduced-elementary marking: one divisor pairing -1 with gamma_k."""
    sk = generate(spec)
    n = len(sk.sigma)
    if not 1 <= gamma_index <= n:
        raise ParameterOutOfRange(f"marking index {gamma_index} not in 1..{n}")
    return sk._replace(gamma=(_marking(n, gamma_index),))


def _marking(n: int, k: int) -> GammaDivisor:
    """The divisor of marking k of n spherical roots: id mark{k}, row -e_k."""
    return GammaDivisor(f"mark{k}", tuple(-1 if j == k - 1 else 0 for j in range(n)))


# ---------------------------------------------------------------------------
# Expected values (the appendix tables, as closed forms / literal lists).
# An integer value is an int; only a quotient, such as 37/2, is a Fraction.

def group_embedding_value(series: str, n: int, k: int) -> int | Q:
    if series == "A":
        kk = min(k, n + 1 - k)
        return n * n - 2 * kk * n + 3 * n + 2 * kk * kk - 6 * kk + 4
    if series == "B":
        if k == 1:
            return 3 * n - 1
        if k == n:
            return n * n - n
        return 3 * n + k * k - 2 * k - 4
    if series == "C":
        if k == n:
            return n * n + 1
        return n + k * k - 1
    if series == "D":
        if k == 1:
            return 3 * n - 3
        if k >= n - 1:
            return n * n - 2 * n + 1
        return 3 * n + k * k - 2 * k - 6
    return EXCEPTIONAL_GROUP_VALUES[f"{series}{n}"][k - 1]


def symmetric_subgroup_value(fam: str, l: int, m: int, k: int) -> int | Q:
    if fam == "3":
        if k == 1:
            return 3 * m + 2 * l - 1
        if k <= m:
            return 3 * m + 2 * l + k * k - 2 * k - 4
        return m * m + l * m + l - 2
    if fam == "4":
        if k <= m:
            return m + k * k - 1
        return m * m + m + 1
    if fam == "5":
        kk = min(k, m + 1 - k)
        return Q(m * m - 2 * kk * m + 3 * m + 2 * kk * kk - 8 * kk + 6, 2)
    if fam == "6":
        kk = min(k, m + 1 - k)
        return 2 * m * m - 4 * kk * m + 6 * m + 4 * kk * kk - 10 * kk + 6
    if fam == "8":
        return 2 * l - 2 if k == 1 else 4 * l - 2
    if fam == "9":
        if k == 1:
            return m + 2 * l - 1
        if k == m + 1:
            return Q(m * m, 2) + l * m - m + l - Q(3, 2)
        if k == m:
            return Q(m * m, 2) - 1 if l == 1 else Q(m * m + m, 2) + 2 * l - 4
        return m + 2 * l + Q(k * k - k, 2) - 4
    if fam == "10/11":
        if k <= m:
            return 3 * m + 2 * l + 2 * k * k - k - 1
        return 2 * m * m + 4 * m + 3 if l == 1 else 2 * m * (m + l + 1) + 2 * l
    if fam == "12":
        if k == 1:
            return m + 1
        if k <= m:
            return m + Q(k * k - k, 2) - 2
        return Q(m * m + m, 2) - 1
    if fam == "13":
        if k <= m:
            return Q(k * k + k, 2) - 1
        return Q(m * m + m, 2) + 1
    if fam == "14":
        return 2 * l - 1 if k == 1 else 4 * l
    if fam == "15":
        if l == 0 and k >= m:
            return Q(m * m - m, 2)
        if k == 1:
            return m + 2 * l
        if k == m + 1:
            return Q(m * m, 2) + l * m - Q(m, 2) + l - 1
        if k == m:
            return Q(m * m + m, 2) + 2 * l - 3
        return m + 2 * l + Q(k * k - k, 2) - 3
    if fam == "16/1":
        if k == 1:
            return 7 * m + 5
        if k <= m:
            return 7 * m + 2 * k * k - 5 * k + 2
        return 2 * m * m + 4 * m + 1
    if fam == "16/2":
        if k == 1:
            return 7 * m + 1
        if k <= m:
            return 7 * m + 2 * k * k - 5 * k - 2
        return 2 * m * m + 2 * m - 1
    if fam == "17":
        if k <= m:
            return 3 * m + 2 * k * k - k - 1
        return 2 * m * m + 2 * m + 1
    raise KeyError(fam)


# The value of marking k is entry k - 1, in both exceptional tables.
EXCEPTIONAL_GROUP_VALUES: dict[str, tuple[int | Q, ...]] = {
    "E6": (Q(37, 2), 16, 16, 14, 16, Q(37, 2)),
    "E7": (27, 25, 25, 22, 19, 19, 20),
    "E8": (38, 36, 36, 32, 27, 24, 22, 21),
    "F4": (12, 10, 8, 7),
    "G2": (2, 4),
}

EXCEPTIONAL_SUBGROUP_VALUES: dict[str, tuple[int | Q, ...]] = {
    "18": (13, 20),
    "19": (24, 24),
    "20": (4, 5, 6, 7),
    "21": (Q(13, 2), 5, 5, 4, 5, Q(13, 2)),
    "22": (31, 22, 23),
    "23": (14, 23, 25),
    "24": (13, 12, 11, 9),
    "25": (10, 9, 9, 8, 6, 6, Q(13, 2)),
    "26": (19, 23, 24, 25),
    "27": (15, 14, 14, 13, 10, 8, 7, Q(13, 2)),
    "28": (10,),
    "29": (4, 3, 2, Q(3, 2)),
    "30": (0, 1),
}


def expected_value(spec: FamilySpec, k: int) -> int | Q:
    if spec.family == "2":
        return group_embedding_value(spec.series.letter, spec.series.rank, k)
    if spec.family in FIXED_FAMILIES:
        return EXCEPTIONAL_SUBGROUP_VALUES[spec.family][k - 1]
    return symmetric_subgroup_value(spec.family, spec.l or 0, spec.m or 0, k)


def all_specs(max_rank: int = 8) -> Iterator[FamilySpec]:
    """Every catalog instance with ambient simple-factor rank within budget."""
    for letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        for n in range(lo, max_rank + 1):
            yield FamilySpec("2", series=SimpleType(letter, n))
    for letter, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)):
        if n <= max_rank:
            yield FamilySpec("2", series=SimpleType(letter, n))
    for fam, family in PARAMETRIC_FAMILIES.items():
        # m is swept for every family that takes l, 8 and 14 too (_SWEPT_M).
        uses_l = "l" in family.params
        for l in range(max_rank + 3 if uses_l else 1):
            for m in range(max_rank + 1):
                if family.rule(l, m) and 1 <= family.rank(l, m) <= max_rank:
                    yield FamilySpec(fam, l=l if uses_l else None, m=m)
    for fam, (ambient, _) in FIXED.items():
        if SimpleType.parse(ambient).rank <= max_rank:
            yield FamilySpec(fam)


# ---------------------------------------------------------------------------
# Equality cases (the upper bound is attained) with their printed vertices.

def _theta_mirror(values: Sequence[int | Q], mirror: bool) -> tuple[int | Q, ...]:
    return tuple(reversed(values)) if mirror else tuple(values)


def equality_entries(spec: FamilySpec) -> dict[int, tuple[int | Q, ...]]:
    """Marking index -> optimal vertex theta, for the attained-bound cases."""
    fam = spec.family
    out: dict[int, tuple[int | Q, ...]] = {}
    if fam == "2" and spec.series.letter == "A":
        n = spec.series.rank
        squares = [(j + 1) ** 2 for j in range(n)]
        out[1] = tuple(squares)
        out[n] = _theta_mirror(squares, True)
    elif fam == "3" and spec.m == 0 and (spec.l or 0) >= 1:
        out[1] = (1,)
    elif fam == "4" and spec.m == 0:
        out[1] = (1,)
    elif fam == "5":
        m = spec.m
        vals = [(j + 1) * (j + 2) // 2 for j in range(m)]  # triangular numbers
        out[1] = tuple(vals)
        out[m] = _theta_mirror(vals, True)
    elif fam == "6":
        m = spec.m
        vals = [2 * (j + 1) ** 2 - (j + 1) for j in range(m)]
        out[1] = tuple(vals)
        out[m] = _theta_mirror(vals, True)
    elif fam == "9" and spec.m == 0 and (spec.l or 0) >= 2:
        out[1] = (1,)
    elif fam == "15" and spec.m == 0 and (spec.l or 0) >= 3:
        out[1] = (1,)
    elif fam == "19":
        out[1] = (1, 10)
        out[2] = (10, 1)
    return out


# ---------------------------------------------------------------------------
# Verification sweeps.

class CatalogRow(NamedTuple):
    """One catalog marking, solved once and read by both tables."""

    family: str
    params: str
    marking: int
    expected: int | Q
    p_value: int | Q | None
    bound: int
    theta: tuple[str, ...] | None  # optimal vertex and dual as "p/q", None at p = +inf
    dual: tuple[str, ...] | None
    listed: bool  # an equality case of the paper's list
    is_equality: bool
    theta_ok: bool  # printed vertex feasible and attaining (listed rows only)

    @property
    def table_match(self) -> bool:
        return self.p_value == self.expected

    @property
    def equality_match(self) -> bool:
        return self.listed == self.is_equality and (not self.listed or self.theta_ok)


def table_tasks(max_rank: int = 8) -> list[tuple[FamilySpec, int]]:
    tasks = []
    for spec in all_specs(max_rank):
        for k in range(1, sigma_size(spec) + 1):
            tasks.append((spec, k))
    return tasks


# What a row reads from its marking's solve: the value, the bound, the
# optimal vertex and dual as texts, and whether the bound is attained.
_Solved = tuple[int | Q | None, int, tuple[str, ...] | None, tuple[str, ...] | None, bool]


def _evaluate(
    spec: FamilySpec, tasks: Sequence[int], solved: list[_Solved]
) -> list[CatalogRow]:
    """The rows of spec's markings tasks, in order.

    An empty ``solved`` is filled by one ``compute_p_each`` on spec's
    skeleton carrying all the marking divisors: one validation and one
    shared LP for the spec, and one solve per marking.  A filled one, from
    an earlier spec with an equal skeleton, is read as it is.  The
    expected value, the listing and theta_ok are the spec's own: for listed
    markings the printed optimal vertex must be feasible and attain the
    value; every other marking must be strictly below the bound.
    """
    fam, _, params = spec.label().partition(":")
    listed = equality_entries(spec)
    if not solved:
        base = generate(spec)
        n = len(base.sigma)
        markings = base._replace(gamma=tuple(_marking(n, k) for k in tasks))
        solved += [
            (r.p_value, r.bound, _texts(r.theta), _texts(r.dual), r.is_equality)
            for r in compute_p_each(markings)
        ]
    rows = []
    for k in tasks:
        p_value, bound, theta, dual, is_equality = solved[k - 1]
        theta_ok = True
        if k in listed:
            sk, vertex = mark(spec, k), listed[k]
            theta_ok = (
                theta_feasible(sk, vertex)
                and evaluate_objective(sk, vertex) == p_value
            )
        rows.append(CatalogRow(
            fam,
            params,
            k,
            expected_value(spec, k),
            p_value,
            bound,
            theta,
            dual,
            k in listed,
            is_equality,
            theta_ok,
        ))
    return rows


def _texts(values: Sequence[int | Q] | None) -> tuple[str, ...] | None:
    return None if values is None else tuple(map(format_rational, values))


def verify_catalog(max_rank: int = 8) -> list[CatalogRow]:
    """One sweep over every (family, params, marking).

    Each distinct skeleton is solved once per sweep: the specs of families
    8 and 14 that differ only in the m they do not read generate equal
    skeletons, and the later ones read the first one's solves.  Each row
    checks its table value, and that the bound is attained exactly on the
    listed markings.
    """
    rows: list[CatalogRow] = []
    shared: dict[SphericalSkeleton, list[_Solved]] = {}
    for spec, tasks in groupby(table_tasks(max_rank), key=itemgetter(0)):
        solved = shared.setdefault(generate(spec), [])
        rows += _evaluate(spec, [k for _, k in tasks], solved)
    return rows
