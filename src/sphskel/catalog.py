"""Generators for the symmetric families and table verification sweeps.

Each family is stored as structured data: ambient root system, spherical
roots as embedded table patterns, and the parabolic set S^p.  One table,
``PARAMETRIC_FAMILIES``, states each parametric family's ambient type, its
parameters and the (l, m) it admits; ``FamilySpec.parse``, ``_system``,
``all_specs`` and ``listing`` (the ``catalog-list`` text) all read it.  The
full color sets (with anticanonical coefficients) are reconstructed from
that data, and a marking adds one invariant divisor pairing -1 with the
chosen spherical root.  The closed-form value registries drive the
verification sweeps; they are the external cross-check that the family
data is right.  A sweep solves each marking once into one ``CatalogRow``,
which both the table and the equality reports read.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .linalg import format_rational
from .pinv import compute_p, evaluate_objective, theta_feasible
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
    SphericalRoot,
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
        l = m = None
        if rest:
            for part in rest.split(","):
                key, _, val = part.partition("=")
                key = key.strip().lower()
                if key == "l":
                    l = int(val)
                elif key == "m":
                    m = int(val)
                elif key and fam in FIXED_FAMILIES:
                    continue  # tolerate a group label suffix like 29:F4
                else:
                    raise ParameterOutOfRange(f"unknown parameter {part!r}")
        if fam in FIXED_FAMILIES:
            return FamilySpec(fam)
        named = PARAMETRIC_FAMILIES[fam].params + ("m" if fam in _SWEPT_M else "")
        for key, value in (("l", l), ("m", m)):
            if value is not None and key not in named:
                raise ParameterOutOfRange(f"family {fam} takes no parameter {key}")
        return FamilySpec(fam, l=l, m=m)


class Family(NamedTuple):
    """One parametric family: its ambient simple type (a letter, and a rank
    in l and m), the parameters its label names, and the (l, m) it admits,
    as a rule and as the text ``catalog-list`` prints."""

    letter: str
    rank: Callable[[int, int], int]
    params: str  # "l", "m" or "lm"
    rule: Callable[[int, int], bool]
    conditions: str


_PAIRED = (  # families 9 and 10/11
    lambda l, m: (m == 0 and l >= 2) or (m >= 1 and l >= 1),
    "(m = 0, l >= 2) or (m >= 1, l >= 1)",
)

PARAMETRIC_FAMILIES: dict[str, Family] = {
    "3": Family("A", lambda l, m: 2 * m + l, "lm", lambda l, m: l >= 1 and m >= 0,
                "l >= 1, m >= 0"),
    "4": Family("A", lambda l, m: 2 * m + 1, "m", lambda l, m: m >= 0, "m >= 0"),
    "5": Family("A", lambda l, m: m, "m", lambda l, m: m >= 2, "m >= 2"),
    "6": Family("A", lambda l, m: 2 * m + 1, "m", lambda l, m: m >= 1, "m >= 1"),
    "8": Family("B", lambda l, m: l + 1, "l", lambda l, m: l >= 1, "l >= 1"),
    "9": Family("B", lambda l, m: m + l, "lm", *_PAIRED),
    "10/11": Family("C", lambda l, m: 2 * m + l + 1, "lm", *_PAIRED),
    "12": Family("C", lambda l, m: m + 1, "m", lambda l, m: m >= 2, "m >= 2"),
    "13": Family("C", lambda l, m: m + 1, "m", lambda l, m: m >= 2, "m >= 2"),
    "14": Family("D", lambda l, m: l + 2, "l", lambda l, m: l >= 2, "l >= 2"),
    "15": Family(
        "D", lambda l, m: m + l + 1, "lm",
        lambda l, m: (
            (m == 0 and l >= 3)
            or (m == 1 and l >= 2)
            or (m >= 2 and l >= 1)
            or (m >= 3 and l == 0)
        ),
        "(m = 0, l >= 3) or (m = 1, l >= 2) or (m >= 2, l >= 1) or (m >= 3, l = 0)",
    ),
    "16/1": Family("D", lambda l, m: 2 * m + 3, "m", lambda l, m: m >= 1, "m >= 1"),
    "16/2": Family("D", lambda l, m: 2 * m + 2, "m", lambda l, m: m >= 1, "m >= 1"),
    "17": Family("D", lambda l, m: 2 * m + 2, "m", lambda l, m: m >= 1, "m >= 1"),
}

# Families 8 and 14 take only l, yet their labels carry an m: all_specs
# sweeps it, and the benchmark references pin the labels `8:l=..,m=..` and
# `14:l=..,m=..` (ROADMAP item 1, program follow-ups).  FamilySpec.parse
# accepts that m and refuses every other parameter a family does not name.
_SWEPT_M = ("8", "14")

FIXED_FAMILIES = (
    "18", "19", "20", "21", "22", "23", "24",
    "25", "26", "27", "28", "29", "30",
)
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


def _system(spec: FamilySpec) -> tuple[RootSystem, list[SphericalRoot], frozenset[int]]:
    fam = spec.family
    if fam == "2":
        t = spec.series
        if t is None:
            raise ParameterOutOfRange("family 2 needs a simple type")
        rs = RootSystem((t, t))
        n = t.rank
        sigma = [make_root(SUM_OF_TWO, (i, n + i), rs) for i in range(n)]
        return rs, sigma, frozenset()
    if fam in FIXED_FAMILIES:
        return _fixed_system(fam)

    l = spec.l if spec.l is not None else 0
    m = spec.m if spec.m is not None else 0
    family = PARAMETRIC_FAMILIES.get(fam)
    if family is None or not family.rule(l, m):
        raise ParameterOutOfRange(f"parameters l={l}, m={m} out of range for {fam}")
    n = family.rank(l, m)
    rs = RootSystem((SimpleType(family.letter, n),))

    if fam == "3":
        sigma = [make_root(SUM_OF_TWO, (k, n - 1 - k), rs) for k in range(m)]
        if l == 1:
            sigma.append(make_root(ALPHA, (m,), rs))
            sp: frozenset[int] = frozenset()
        else:
            sigma.append(make_root(A_CHAIN, tuple(range(m, m + l)), rs))
            sp = frozenset(range(m + 1, m + l - 1))
        return rs, sigma, sp
    if fam == "4":
        sigma = [make_root(SUM_OF_TWO, (k, n - 1 - k), rs) for k in range(m)]
        sigma.append(make_root(DOUBLE_ALPHA, (m,), rs))
        return rs, sigma, frozenset()
    if fam == "5":
        return rs, [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(m)], frozenset()
    if fam == "6":
        sigma = [
            make_root(A3_MIDDLE, (2 * i, 2 * i + 1, 2 * i + 2), rs) for i in range(m)
        ]
        return rs, sigma, frozenset(range(0, 2 * m + 1, 2))
    if fam == "8":
        sigma = [make_root(ALPHA, (0,), rs)]
        if l == 1:
            sigma.append(make_root(DOUBLE_ALPHA, (1,), rs))
            return rs, sigma, frozenset()
        sigma.append(make_root(B_CHAIN_DOUBLED, tuple(range(1, l + 1)), rs))
        return rs, sigma, frozenset(range(2, l + 1))
    if fam == "9":
        sigma = [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(m)]
        if l == 1:
            sigma.append(make_root(DOUBLE_ALPHA, (m,), rs))
            return rs, sigma, frozenset()
        sigma.append(make_root(B_CHAIN_DOUBLED, tuple(range(m, m + l)), rs))
        return rs, sigma, frozenset(range(m + 1, m + l))
    if fam == "10/11":
        sigma = [
            make_root(A3_MIDDLE, (2 * i, 2 * i + 1, 2 * i + 2), rs) for i in range(m)
        ]
        sp = set(range(0, 2 * m + 1, 2))
        if l == 1:
            sigma.append(make_root(B_CHAIN_DOUBLED, (2 * m + 1, 2 * m), rs))
        else:
            sigma.append(
                make_root(C_CHAIN_PINNED, tuple(range(2 * m, 2 * m + l + 1)), rs)
            )
            sp |= set(range(2 * m + 2, 2 * m + l + 1))
        return rs, sigma, frozenset(sp)
    if fam == "12":
        sigma = [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(m)]
        sigma.append(make_root(ALPHA, (m,), rs))
        return rs, sigma, frozenset()
    if fam == "13":
        return rs, [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(m + 1)], frozenset()
    if fam == "14":
        sigma = [
            make_root(ALPHA, (0,), rs),
            make_root(D_CHAIN, tuple(range(1, l + 2)), rs),
        ]
        return rs, sigma, frozenset(range(2, l + 2))
    if fam == "15":
        sigma = [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(m)]
        if l == 0:
            sigma.append(make_root(DOUBLE_ALPHA, (m,), rs))
            return rs, sigma, frozenset()
        if l == 1:
            sigma.append(make_root(SUM_OF_TWO, (m, m + 1), rs))
            return rs, sigma, frozenset()
        sigma.append(make_root(D_CHAIN, tuple(range(m, m + l + 1)), rs))
        return rs, sigma, frozenset(range(m + 1, m + l + 1))
    if fam == "16/1":
        sigma = [
            make_root(A3_MIDDLE, (2 * i, 2 * i + 1, 2 * i + 2), rs) for i in range(m)
        ]
        sigma.append(make_root(A_CHAIN, (2 * m + 1, 2 * m, 2 * m + 2), rs))
        return rs, sigma, frozenset(range(0, 2 * m + 1, 2))
    # 16/2 and 17
    sigma = [
        make_root(A3_MIDDLE, (2 * i, 2 * i + 1, 2 * i + 2), rs) for i in range(m)
    ]
    kind = ALPHA if fam == "16/2" else DOUBLE_ALPHA
    sigma.append(make_root(kind, (2 * m + 1,), rs))
    return rs, sigma, frozenset(range(0, 2 * m + 1, 2))


def _fixed_system(fam: str) -> tuple[RootSystem, list[SphericalRoot], frozenset[int]]:
    if fam == "18":
        rs = RootSystem.parse("E6")
        return rs, [
            make_root(A_CHAIN, (0, 2, 3, 4, 5), rs),
            make_root(D_CHAIN, (1, 3, 2, 4), rs),
        ], frozenset({2, 3, 4})
    if fam == "19":
        rs = RootSystem.parse("E6")
        return rs, [
            make_root(D_CHAIN, (0, 2, 3, 1, 4), rs),
            make_root(D_CHAIN, (5, 4, 3, 1, 2), rs),
        ], frozenset({1, 2, 3, 4})
    if fam == "20":
        rs = RootSystem.parse("E6")
        return rs, [
            make_root(SUM_OF_TWO, (0, 5), rs),
            make_root(SUM_OF_TWO, (2, 4), rs),
            make_root(DOUBLE_ALPHA, (3,), rs),
            make_root(DOUBLE_ALPHA, (1,), rs),
        ], frozenset()
    if fam == "21":
        rs = RootSystem.parse("E6")
        return rs, [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(6)], frozenset()
    if fam in ("22", "23"):
        rs = RootSystem.parse("E7")
        last = ALPHA if fam == "22" else DOUBLE_ALPHA
        return rs, [
            make_root(D_CHAIN, (0, 2, 3, 1, 4), rs),
            make_root(D_CHAIN, (5, 4, 3, 1, 2), rs),
            make_root(last, (6,), rs),
        ], frozenset({1, 2, 3, 4})
    if fam == "24":
        rs = RootSystem.parse("E7")
        return rs, [
            make_root(DOUBLE_ALPHA, (0,), rs),
            make_root(DOUBLE_ALPHA, (2,), rs),
            make_root(A3_MIDDLE, (1, 3, 4), rs),
            make_root(A3_MIDDLE, (4, 5, 6), rs),
        ], frozenset({1, 4, 6})
    if fam == "25":
        rs = RootSystem.parse("E7")
        return rs, [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(7)], frozenset()
    if fam == "26":
        rs = RootSystem.parse("E8")
        return rs, [
            make_root(D_CHAIN, (0, 2, 3, 1, 4), rs),
            make_root(D_CHAIN, (5, 4, 3, 1, 2), rs),
            make_root(DOUBLE_ALPHA, (6,), rs),
            make_root(DOUBLE_ALPHA, (7,), rs),
        ], frozenset({1, 2, 3, 4})
    if fam == "27":
        rs = RootSystem.parse("E8")
        return rs, [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(8)], frozenset()
    if fam == "28":
        rs = RootSystem.parse("F4")
        return rs, [make_root(F4_ROOT, (0, 1, 2, 3), rs)], frozenset({0, 1, 2})
    if fam == "29":
        rs = RootSystem.parse("F4")
        return rs, [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(4)], frozenset()
    if fam == "30":
        rs = RootSystem.parse("G2")
        return rs, [make_root(DOUBLE_ALPHA, (i,), rs) for i in range(2)], frozenset()
    raise ParameterOutOfRange(f"unknown family {fam!r}")


@cache
def generate(spec: FamilySpec) -> SphericalSkeleton:
    """The family's skeleton with empty Gamma; always validates.

    Built once per spec and process: the skeleton is an immutable value.
    """
    rs, sigma, sp = _system(spec)
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
    row = tuple(-1 if j == gamma_index - 1 else 0 for j in range(n))
    return sk._replace(gamma=(GammaDivisor(f"mark{gamma_index}", row),))


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
    exceptional = {
        "E6": {1: Q(37, 2), 2: 16, 3: 16, 4: 14, 5: 16, 6: Q(37, 2)},
        "E7": {1: 27, 2: 25, 3: 25, 4: 22, 5: 19, 6: 19, 7: 20},
        "E8": {1: 38, 2: 36, 3: 36, 4: 32, 5: 27, 6: 24, 7: 22, 8: 21},
        "F4": {1: 12, 2: 10, 3: 8, 4: 7},
        "G2": {1: 2, 2: 4},
    }
    return exceptional[f"{series}{n}"][k]


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
    for fam in FIXED_FAMILIES:
        rank = _fixed_system(fam)[0].total_rank
        if rank <= max_rank:
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
    p_value: Q | None
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


def _evaluate(spec: FamilySpec, k: int) -> CatalogRow:
    """Solve one marking once.

    For listed markings the printed optimal vertex must be feasible and
    attain the value; every other marking must be strictly below the bound.
    """
    sk = mark(spec, k)
    report = compute_p(sk)
    listed = equality_entries(spec)
    theta_ok = True
    if k in listed:
        theta = listed[k]
        theta_ok = (
            theta_feasible(sk, theta)
            and evaluate_objective(sk, theta) == report.p_value
        )
    fam, _, params = spec.label().partition(":")
    return CatalogRow(
        fam,
        params,
        k,
        expected_value(spec, k),
        report.p_value,
        report.bound,
        _texts(report.theta),
        _texts(report.dual),
        k in listed,
        report.is_equality,
        theta_ok,
    )


def _texts(values: Sequence[Q] | None) -> tuple[str, ...] | None:
    return None if values is None else tuple(map(format_rational, values))


def verify_catalog(max_rank: int = 8) -> list[CatalogRow]:
    """One sweep over every (family, params, marking).

    Each row recomputes its table value, and checks that the bound is
    attained exactly on the listed markings.
    """
    return [_evaluate(spec, k) for spec, k in table_tasks(max_rank)]
