"""The identity registry: every verified statement as an IdentityEntry.

Groups, in registry order:

  A. toolkit: product rearrangements, the theta shift/reflection laws,
     base-doubling laws, the generic two-theta product identities, the
     three-term Weierstrass relation, the quintuple product, the two
     Hecke-type vanishing sums, the lost-notebook split of the universal
     mock theta function g and its even/odd root-of-unity corollaries.
     Each generic-variable law is written once in LAWS, over exponent
     vectors in q and its variables; its entries are that law at fixed
     batches of specializations q -> q^m, x -> +-q^a, listed here and
     mapped by the one substitution _monomial;
  B. the fifth-order mock theta conjectures (f0, f1);
  C. 2-dissections of rank and crank deviations mod 4, with the
     intermediate forms and the split rewrites that connect them;
  D. 2-dissections of rank deviations mod 8, 4-dissections of crank
     deviations mod 8, and their support machinery;
  E. the ten Lewis/Santa-Gadea rank-crank relations and the mod 4/8
     rank-difference theorems and corollaries;
  F. support lemmas for the g-combinations (residues mod 4);
  G. 5- and 7-dissections of rank and crank deviations;
  H. Lewis's rank-crank difference conjectures mod 8: the 4-dissection,
     its reduction identities (checked in q^4-deflated form), the
     inequalities, and the closing positivity statement.

Groups C, D and G read every deviation line from one table, _LINES: the
k-dissection entries, the pairwise sums mod 8 and the halved mod-4 crank
lines in the 2-dissected D_C(0,8) and D_C(2,8).  Every g term of a
deviation form on base q^16 is read from it too: each first-stage form
of a rank deviation mod 4 or 8 (the -pre, -alt, -gf and -prefinal
entries) takes the G4/G8 terms of the same combination of lines.

Entry ids are stable across releases.  Chained equalities (for example
the four-way relations) live under one id with every leg compared
against the first.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .identities import Counts, Eulerian, G, IdentityEntry, Quot, ThetaSum
from .theta import GSpec, J, Jbar, ThetaAtom, eta_atom

THETA_PREC = 200  # theta-only entries (cheap, sparse expansions)
MOCK_PREC = 100  # entries whose parts evaluate mock g
HALF, QUARTER, EIGHTH = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)

# atoms and numerators shared by many statements
J4 = eta_atom(4)
Q14, Q14BAR = (J(1, 2), J(1, 4)), (Jbar(1, 2), Jbar(1, 4))


# -- the parts of a side ----------------------------------------------------------
#
# A side of a statement is a terms(...) tuple of (scale, part) pairs, each
# part a frozen record of identities (Quot, G, Counts, ThetaSum, Eulerian).
# The helpers below keep those transcriptions close to how the statements
# are written, and the dissection families expand into the same pairs; a
# constant or monomial value*q^e is the empty quotient _quot(value, e).
# The toolkit's generic laws (group A) are not written as pairs: each is
# one statement over exponent vectors, and _law_entry substitutes a
# specialization into it to make these same pairs.
#
# Scales are exact rationals (int or Fraction); the entry, not the
# registry, clears them: IdentityEntry.denominator is the lcm of their
# denominators, and identities.build_side sums d*scale times each part's
# integer series.  A deviation D(a,M) enters as (1/M) * (M*D(a,M)).


def _quot(scale, shift, num=(), den=()):
    return scale, Quot(num, den, shift)


def _g(scale, shift, sign, a, m):
    return scale, G(GSpec(sign, a, m), shift)


def _dev(scale, stat, a, M):
    return Fraction(scale, M), Counts(((M, stat, a, M), (-1, "crank", 0, 1)))


def terms(*parts):
    return parts


def count_rows(rows, t=1, r=0, twist=False):
    return terms((1, Counts(rows, t, r, twist)))


def deviation(stat, a, M):
    return terms(_dev(1, stat, a, M))


def deviation_sum(stat, M, residues=None):
    """Sum of D(a,M) (D_C for cranks) over the residues, all M by default."""
    residues = range(M) if residues is None else residues
    return terms(*(_dev(1, stat, a, M) for a in residues))


# -- the dissection families ------------------------------------------------------
#
# Each theta family is (d, denominator atoms, one (shift, numerator atoms)
# slot per coefficient), with the prefactor 1/d; each G family has one
# (constant, shift, sign, a, m) slot per coefficient, standing for
# constant + q^shift g(sign*q^a; q^m).  Groups C, D and G read their
# deviation lines from _LINES, written in these families.

_THETA_FAMILIES = {
    "theta4": (4, (eta_atom(4),), (
        (0, (Jbar(4, 8), Jbar(6, 16))), (2, (Jbar(0, 8), Jbar(14, 16))),
        (1, (Jbar(4, 8), Jbar(14, 16))), (1, (Jbar(0, 8), Jbar(6, 16))))),
    "theta8": (8, (eta_atom(4),), (
        (0, (Jbar(4, 8), Jbar(28, 64))), (4, (Jbar(0, 8), Jbar(52, 64))),
        (1, (Jbar(4, 8), Jbar(20, 64))), (1, (Jbar(0, 8), Jbar(28, 64))),
        (2, (Jbar(0, 8), Jbar(20, 64))), (6, (Jbar(4, 8), Jbar(60, 64))),
        (3, (Jbar(4, 8), Jbar(52, 64))), (7, (Jbar(0, 8), Jbar(60, 64))))),
    "theta8prime": (2, (eta_atom(4),), (
        (0, (J(4, 8), Jbar(28, 64))), (1, (J(4, 8), Jbar(20, 64))),
        (6, (J(4, 8), Jbar(60, 64))), (3, (J(4, 8), Jbar(52, 64))))),
    "theta5": (5, ((eta_atom(5), 2),), (
        (0, ((J(10, 25), 3),)), (1, (J(5, 25), (J(10, 25), 2))),
        (2, ((J(5, 25), 2), J(10, 25))), (3, ((J(5, 25), 3),)))),
    "theta7": (7, (eta_atom(7),), (
        (0, ((J(21, 49), 2),)), (1, (J(14, 49), J(21, 49))), (2, ((J(14, 49), 2),)),
        (3, (J(7, 49), J(21, 49))), (4, (J(7, 49), J(14, 49))), (6, ((J(7, 49), 2),)))),
}

_G_FAMILIES = {
    "G4": ((-1, 2, -1, 2, 16), (0, 5, -1, 6, 16)),
    "G8": ((1, 2, 1, 2, 16), (-1, 2, -1, 2, 16), (0, 5, 1, 6, 16), (0, 5, -1, 6, 16)),
    "G5": ((0, 5, 1, 5, 25), (0, 8, 1, 10, 25)),
    "G7": ((1, 7, 1, 7, 49), (0, 16, 1, 21, 49), (0, 13, 1, 14, 49)),
}

# The k-dissection of each deviation D(a,M) (D_C for cranks), one line per
# residue a <= M/2: _LINES[(stat, M)] = (k, family names, {a: one
# (coefficients, scale) per family}).  Every g term of a deviation form is
# read from here: the first-stage forms mod 4 and 8 take the G4/G8 part
# of their combination of lines (_first_stage).
_LINES = {
    ("rank", 4): (2, ("theta4", "G4"), {
        0: (((-5, 3, 1, 1), 1), ((-1, 0), 2)),
        1: (((3, -1, -3, 1), 1), ((1, 1), 1)),
        2: (((-1, -1, 5, -3), 1), ((0, -1), 2))}),
    ("crank", 4): (2, ("theta4",), {
        0: (((3, -1, 1, -3), 1),),
        1: (((-1, -1, 1, 1), 1),),
        2: (((-1, 3, -3, 1), 1),)}),
    ("rank", 8): (2, ("theta8", "G8"), {
        0: (((-9, 7, -3, 5, -1, -1, 5, -3), 1), ((1, -1, 0, 0), 1)),
        1: (((7, -5, -3, 1, 3, -1, -3, 1), 1), ((-1, 1, 1, 1), Fraction(1, 2))),
        2: (((-1, -1, 5, -3, -1, -1, 5, -3), 1), ((0, 0, 0, -1), 1)),
        3: (((-1, 3, -3, 1, -5, 7, -3, 1), 1), ((1, 1, -1, 1), Fraction(1, 2))),
        4: (((-1, -1, 5, -3, 7, -9, -3, 5), 1), ((-1, -1, 0, 0), 1))}),
    ("crank", 8): (4, ("theta8", "theta8prime"), {
        0: (((3, -1, 1, -3, -1, 3, 1, -3), 1), ((1, -1, -1, 1), 1)),
        1: (((-1, -1, 1, 1, -1, -1, 1, 1), 1), ((0, 1, 0, -1), 1)),
        2: (((-1, 3, -3, 1, 3, -1, -3, 1), 1), ((0, 0, 0, 0), 1)),
        3: (((-1, -1, 1, 1, -1, -1, 1, 1), 1), ((0, -1, 0, 1), 1)),
        4: (((3, -1, 1, -3, -1, 3, 1, -3), 1), ((-1, 1, 1, -1), 1))}),
    ("rank", 5): (5, ("theta5", "G5"), {
        0: (((2, 2, -1, 1), 2), ((-1, 0), 2)),
        1: (((-1, -1, 3, -3), 1), ((1, -1), 1)),
        2: (((-1, -1, -2, 2), 1), ((0, 1), 1))}),
    ("crank", 5): (5, ("theta5",), {
        0: (((2, -3, -1, 1), 2),),
        1: (((-1, 4, -2, -3), 1),),
        2: (((-1, -1, 3, 2), 1),)}),
    ("rank", 7): (7, ("theta7", "G7"), {
        0: (((-4, 3, -1, 2, 1, -2), 2), ((1, 0, 0), 2)),
        1: (((6, -1, 5, -3, 2, 3), 1), ((-1, 1, 0), 1)),
        2: (((-1, -1, -2, 4, -5, 3), 1), ((0, -1, 1), 1)),
        3: (((-1, -1, -2, -3, 2, -4), 1), ((0, 0, -1), 1))}),
    ("crank", 7): (7, ("theta7",), {
        0: (((3, -4, -1, 2, 1, -2), 2),),
        1: (((-1, 6, -2, -3, -5, 3), 1),),
        2: (((-1, -1, 5, -3, 2, -4), 1),),
        3: (((-1, -1, -2, 4, 2, 3), 1),)}),
}


def family(name, coefficients, scale=1):
    """The parts of scale * (a dissection family with these coefficients):
    one per nonzero coefficient, then a G family's constants as one part."""
    if name in _THETA_FAMILIES:
        d, den, slots = _THETA_FAMILIES[name]
    elif name in _G_FAMILIES:
        slots = _G_FAMILIES[name]
    else:
        raise ValueError(f"unknown dissection family {name!r}")
    if len(coefficients) != len(slots):
        raise ValueError(
            f"{name} takes {len(slots)} coefficients, got {len(coefficients)}")
    weighted = [(c * scale, slot) for c, slot in zip(coefficients, slots) if c]
    if name in _THETA_FAMILIES:
        return [_quot(Fraction(c, d), shift, num, den) for c, (shift, num) in weighted]
    const = sum(c * slot[0] for c, slot in weighted)
    return [_g(c, *slot[1:]) for c, slot in weighted] + ([_quot(const, 0)] if const else [])


def combo(*families):
    """Sum of (family, coefficients, scale) dissection families."""
    return terms(*(part for f in families for part in family(*f)))


def _eq(entry_id, label, sides, prec, **fields):
    return IdentityEntry(entry_id, label, "equality", prec, sides, **fields)


def _line(stat, M, weights, only=None):
    """The combination sum weight * (the _LINES line of D(a,M), D_C for
    cranks) over weights {a: weight}, as a side; only the family named
    `only` when it is given."""
    _, names, lines = _LINES[stat, M]
    families = []
    for i, name in enumerate(names):
        if only in (None, name):
            rows = [[c * s * w for c in coeffs]
                    for (coeffs, s), w in ((lines[a][i], w) for a, w in weights.items())]
            families.append((name, [sum(col) for col in zip(*rows)], 1))
    return combo(*families)


def _first_stage(M, weights, *quots, theta4=(0, 0, 0, 0)):
    """A first-stage form of the rank deviations mod M (4 or 8) combined by
    weights {a: weight}: the G4/G8 terms of the same combination of _LINES
    lines, the theta4 slots with these coefficients and the unsplit
    quotients."""
    g_family = _LINES["rank", M][1][1]
    return _line("rank", M, weights, g_family) + combo(("theta4", theta4, 1)) + terms(*quots)


def _letter(stat):
    return "D" if stat == "rank" else "D_C"


def _dev_lines(stat, M):
    """The k-dissection entries of D(a,M) (D_C for cranks), one per line of
    _LINES.  D(M-a,M) = D(a,M) is no leg of them: the count tables keep one
    row for both classes, so such a leg would compare a row with itself."""
    k, _, lines = _LINES[stat, M]
    return [_eq(f"dev-{stat}-{a}-{M}", f"{_letter(stat)}({a},{M}) {k}-dissection",
                [deviation(stat, a, M), _line(stat, M, {a: 1})], MOCK_PREC)
            for a in lines]


def _dev_sum(stat, M):
    return _eq(f"dev-{stat}-{M}-sum", f"{stat} deviations mod {M} sum to zero",
               [deviation_sum(stat, M), terms()], MOCK_PREC)


# -- group A: toolkit -------------------------------------------------------------


# Each generic law is written once, as data over its variables x_0, x_1, ...
# An exponent vector (c, k_0, k_1, ...) stands for q^c x_0^k_0 x_1^k_1 ...;
# an atom (sign, vec, b) is j(sign*q^vec; q^b), and (atom, p) its p-th
# power.  A term (scale, vec, part) is scale * q^vec * part, where part is
# ("quot", num[, den]), a quotient of atoms, ("g", atom), g at the atom's
# argument and base, or ("sum", atom, s), the atom's triple-product sum at
# base s*q^b, evaluated unfolded: the shift and reflection laws state the
# fold itself, so their left sides are such sums.  LAWS maps a law's id to
# (label, prec, sides); jsplit shares split-2-term's sides under its own
# label.
#
# A specialization (m, (s_0, a_0), ...) puts q -> q^m and x_i -> s_i q^a_i.
# _monomial is the one place that maps a vector under it, and _law_entry
# the one place that turns a law at a specialization into an entry.  The
# specs name distinct statements once atoms are folded: the fold maps an
# atom's x to q^m x and to q^m/x, theta-pair-even is unchanged under
# (x, y) -> (-x, -y), and hecke-sum-alt at x is hecke-sum at -q^(+-4m) x.
# No spec puts a vanishing factor j(q^(km);q^m) into a quotient, which
# would drop its term from the check.

_JX = (1, (0, 1), 1)  # j(x;q)
_J1, _J2, _J4 = (1, (1,), 3), (1, (2,), 6), (1, (4,), 12)  # J_k = j(q^k;q^3k)


def _split_sides(M):
    # term k: (-1)^k q^C(k,2) z^k j((-1)^(M+1) q^(C(M,2)+Mk) z^M; q^(M^2))
    return ([(1, (0,), ("quot", [_JX]))],
            [((-1) ** k, (k * (k - 1) // 2, k),
              ("quot", [((-1) ** (M + 1), (M * (M - 1) // 2 + M * k, M), M * M)]))
             for k in range(M)])


LAWS = {
    "shift-law": ("j(qx;q) = -x^-1 j(x;q)", THETA_PREC, (
        [(1, (0,), ("sum", (1, (1, 1), 1), 1))],
        [(-1, (0, -1), ("quot", [_JX]))])),
    "reflect-law": ("j(x;q) = j(q/x;q)", THETA_PREC, (
        [(1, (0,), ("sum", (1, (1, -1), 1), 1))],
        [(1, (0,), ("quot", [_JX]))])),
    "base-double": ("j(x;q) = J1 j(x;q^2) j(qx;q^2)/J2^2", THETA_PREC, (
        [(1, (0,), ("quot", [_JX]))],
        [(1, (0,), ("quot", [_J1, (1, (0, 1), 2), (1, (1, 1), 2)], [(_J2, 2)]))])),
    "neg-base": ("j(x;-q) = j(x;q^2) j(-qx;q^2)/j(q;q^4)", THETA_PREC, (
        [(1, (0,), ("sum", _JX, -1))],
        [(1, (0,), ("quot", [(1, (0, 1), 2), (-1, (1, 1), 2)], [(1, (1,), 4)]))])),
    **{f"split-{M}-term": (f"{M}-term splitting of j(z;q)", THETA_PREC, _split_sides(M))
       for M in (2, 3, 5)},
    "jsplit": ("j(z;q) = j(-qz^2;q^4) - z j(-q^3z^2;q^4)", THETA_PREC, _split_sides(2)),
    # variables x, y
    "theta-pair": (
        "j(x;q)j(y;q) = j(-xy;q^2)j(-qy/x;q^2) - x j(-qxy;q^2)j(-y/x;q^2)", THETA_PREC, (
            [(1, (0,), ("quot", [_JX, (1, (0, 0, 1), 1)]))],
            [(1, (0,), ("quot", [(-1, (0, 1, 1), 2), (-1, (1, -1, 1), 2)])),
             (-1, (0, 1), ("quot", [(-1, (1, 1, 1), 2), (-1, (0, -1, 1), 2)]))])),
    "theta-pair-even": (
        "j(-x;q)j(y;q) + j(x;q)j(-y;q) = 2 j(xy;q^2) j(qy/x;q^2)", THETA_PREC, (
            [(1, (0,), ("quot", [(-1, (0, 1), 1), (1, (0, 0, 1), 1)])),
             (1, (0,), ("quot", [_JX, (-1, (0, 0, 1), 1)]))],
            [(2, (0,), ("quot", [(1, (0, 1, 1), 2), (1, (1, -1, 1), 2)]))])),
    # variables a, b, c, d: j(ac)j(a/c)j(bd)j(b/d)
    #   = j(ad)j(a/d)j(bc)j(b/c) + (b/c) j(ab)j(a/b)j(cd)j(c/d), all on base q
    "weierstrass": ("three-term Weierstrass relation", THETA_PREC, (
        [(1, (0,), ("quot", [(1, (0, 1, 0, 1, 0), 1), (1, (0, 1, 0, -1, 0), 1),
                             (1, (0, 0, 1, 0, 1), 1), (1, (0, 0, 1, 0, -1), 1)]))],
        [(1, (0,), ("quot", [(1, (0, 1, 0, 0, 1), 1), (1, (0, 1, 0, 0, -1), 1),
                             (1, (0, 0, 1, 1, 0), 1), (1, (0, 0, 1, -1, 0), 1)])),
         (1, (0, 0, 1, -1, 0), ("quot", [
             (1, (0, 1, 1, 0, 0), 1), (1, (0, 1, -1, 0, 0), 1),
             (1, (0, 0, 0, 1, 1), 1), (1, (0, 0, 0, 1, -1), 1)]))])),
    "quintuple": ("quintuple product identity", THETA_PREC, (
        [(1, (0,), ("quot", [(1, (1, 3), 3)])),
         (1, (0, 1), ("quot", [(1, (2, 3), 3)]))],
        [(1, (0,), ("quot", [_J1, (1, (0, 2), 1)], [_JX]))])),
    "hecke-sum": (
        "j(q^2x;q^4)j(q^5x;q^8) + (q/x) j(x;q^4)j(qx;q^8) "
        "= (J1/J4) j(-q^3x;q^4)j(q^3x;q^8)", THETA_PREC, (
            [(1, (0,), ("quot", [(1, (2, 1), 4), (1, (5, 1), 8)])),
             (1, (1, -1), ("quot", [(1, (0, 1), 4), (1, (1, 1), 8)])),
             (-1, (0,), ("quot", [_J1, (-1, (3, 1), 4), (1, (3, 1), 8)], [_J4]))],
            [])),
    "hecke-sum-alt": (
        "j(-x;q^4)j(-q^5x;q^8) - j(-q^2x;q^4)j(-qx;q^8) "
        "= x (J1/J4) j(q^3x;q^4)j(-q^7x;q^8)", THETA_PREC, (
            [(1, (0,), ("quot", [(-1, (0, 1), 4), (-1, (5, 1), 8)])),
             (-1, (0,), ("quot", [(-1, (2, 1), 4), (-1, (1, 1), 8)])),
             (-1, (0, 1), ("quot", [_J1, (1, (3, 1), 4), (-1, (7, 1), 8)], [_J4]))],
            [])),
    "gsplit": (
        "g(x;q) = -x^-1 + qx^-3 g(-q/x^2;q^4) - q g(-qx^2;q^4) "
        "+ J2 j(q^2;q^4)^2/(x j(x;q) j(-qx^2;q^2))", MOCK_PREC, (
            [(1, (0,), ("g", _JX))],
            [(-1, (0, -1), ("quot", [])),
             (1, (1, -3), ("g", (-1, (1, -2), 4))),
             (-1, (1,), ("g", (-1, (1, 2), 4))),
             (1, (0, -1), ("quot", [_J2, ((1, (2,), 4), 2)], [_JX, (-1, (1, 2), 2)]))])),
    "g-even-part": (
        "g(x;q) + g(-x;q) = -2q g(-qx^2;q^4) "
        "+ 2 J2 j(-q;q^4)^2/(j(-qx^2;q^4) j(x^2;q^2))", MOCK_PREC, (
            [(1, (0,), ("g", _JX)), (1, (0,), ("g", (-1, (0, 1), 1)))],
            [(-2, (1,), ("g", (-1, (1, 2), 4))),
             (2, (0,), ("quot", [_J2, ((-1, (1,), 4), 2)],
                        [(-1, (1, 2), 4), (1, (0, 2), 2)]))])),
    "g-odd-part": (
        "g(x;q) - g(-x;q) = -2x^-1 + 2qx^-3 g(-q/x^2;q^4) "
        "+ 2 J2 j(-q;q^4)^2/(x j(-q^3x^2;q^4) j(x^2;q^2))", MOCK_PREC, (
            [(1, (0,), ("g", _JX)), (-1, (0,), ("g", (-1, (0, 1), 1)))],
            [(-2, (0, -1), ("quot", [])),
             (2, (1, -3), ("g", (-1, (1, -2), 4))),
             (2, (0, -1), ("quot", [_J2, ((-1, (1,), 4), 2)],
                           [(-1, (3, 2), 4), (1, (0, 2), 2)]))])),
}


def _monomial(vec, spec):
    """(sign, e) with q^c x_0^k_0 ... = sign * q^e under spec."""
    n = len(vec)
    if n > len(spec):
        raise ValueError(f"vector {vec} has more variables than specialization {spec}")
    sign, e = 1, spec[0] * vec[0]
    for i in range(1, n):
        s, a = spec[i]
        k = vec[i]
        if k % 2:  # s ** k is a float for k < 0
            sign *= s
        e += k * a
    return sign, e


def _atom(atom, spec):
    """The ThetaAtom of atom under spec; a power stays on its pair."""
    if len(atom) == 2:
        return _atom(atom[0], spec), atom[1]
    sign, vec, b = atom
    s, e = _monomial(vec, spec)
    return ThetaAtom(sign * s, e, b * spec[0])


def _term(term, spec, law_shift):
    scale, vec, part = term
    sign, shift = _monomial(vec, spec)
    scale *= sign
    shift += law_shift
    if part[0] == "quot":
        return _quot(scale, shift, [_atom(a, spec) for a in part[1]],
                     [_atom(a, spec) for a in part[2]] if len(part) > 2 else ())
    atom = _atom(part[1], spec)
    if part[0] == "g":
        return _g(scale, shift, atom.sign, atom.a, atom.m)
    if shift:
        raise ValueError("a triple-product sum takes no monomial")
    return scale, ThetaSum(atom, part[2])


def _law_entry(entry_id, name, spec, label=None, shift=0):
    """The entry stating q^shift times law `name` at the specialization spec."""
    law_label, prec, sides = LAWS[name]
    return _eq(entry_id, label or law_label,
               [terms(*[_term(term, spec, shift) for term in side]) for side in sides],
               prec)


def _specialize(laws):
    """Entries <name>-<i> for each law at the i-th spec of its list,
    interleaved by i."""
    return [_law_entry(f"{name}-{i}", name, spec)
            for i, specs in enumerate(zip(*laws.values())) for name, spec in zip(laws, specs)]


def _toolkit_entries():
    # each rearrangement writes one atom as c * num/den
    rearr = [
        ("rearr-0a", "j(-1;q) = 2 j(-q;q^4)", Jbar(0, 1), 2, [Jbar(1, 4)], []),
        ("rearr-0b", "j(-q;q^4) = J2^2/J1", Jbar(1, 4), 1, [(eta_atom(2), 2)], [eta_atom(1)]),
        ("rearr-1", "j(-q;q^2) = J2^5/(J1^2 J4^2)", Jbar(1, 2),
         1, [(eta_atom(2), 5)], [(eta_atom(1), 2), (eta_atom(4), 2)]),
        ("rearr-2", "j(q;q^2) = J1^2/J2", J(1, 2), 1, [(eta_atom(1), 2)], [eta_atom(2)]),
        ("rearr-3", "j(-q;q^3) = J2 J3^2/(J1 J6)", Jbar(1, 3),
         1, [eta_atom(2), (eta_atom(3), 2)], [eta_atom(1), eta_atom(6)]),
        ("rearr-4", "j(q;q^4) = J1 J4/J2", J(1, 4), 1, [eta_atom(1), eta_atom(4)], [eta_atom(2)]),
        ("rearr-5", "j(q;q^6) = J1 J6^2/(J2 J3)", J(1, 6),
         1, [eta_atom(1), (eta_atom(6), 2)], [eta_atom(2), eta_atom(3)]),
        ("rearr-6", "j(-q;q^6) = J2^2 J3 J12/(J1 J4 J6)", Jbar(1, 6),
         1, [(eta_atom(2), 2), eta_atom(3), eta_atom(12)], [eta_atom(1), eta_atom(4), eta_atom(6)]),
    ]

    # the g laws at x = q^a on base q^m; gsplit also at x = -q^a, and the g
    # parts at a = 3, 5 on base q^16 (at 2 and 6 they are group F's g2/g6)
    g_specs = [(4, (1, 1)), (16, (1, 2)), (16, (1, 6)), (10, (1, 2)), (10, (1, 4)),
               (25, (1, 5)), (25, (1, 10)), (49, (1, 7)), (49, (1, 21)), (49, (1, 14)),
               (64, (1, 12)), (64, (1, 20)), (64, (1, 4)), (64, (1, 28))]
    g_parts = g_specs[:1] + [(16, (1, 3)), (16, (1, 5))] + g_specs[3:]
    pairs = [(3, (1, 1), (1, 2)), (3, (1, 1), (-1, 1)), (3, (-1, 1), (-1, 2)),
             (5, (1, 2), (1, 3)), (5, (-1, 1), (1, 3)), (5, (1, 1), (1, 4)),
             (7, (-1, 2), (-1, 3)), (7, (1, 3), (-1, 1)), (2, (1, 1), (1, 1)),
             (4, (-1, 1), (1, 2)), (4, (1, 3), (-1, 2)), (8, (1, 1), (-1, 5)),
             (8, (-1, 3), (-1, 7)), (9, (1, 2), (1, 7)), (6, (1, 1), (1, 5)),
             (1, (-1, 1), (-1, 1)), (8, (1, 2), (1, 3)), (8, (-1, 2), (1, 5)),
             (2, (1, 1), (-1, 2)), (12, (1, 5), (1, 2))]
    # each law's own spec where the shared one would restate another id
    # or hold a vanishing factor
    pair_specs = {
        "theta-pair": {1: (5, (-1, 1), (-1, 1))},
        "theta-pair-even": {2: (4, (1, 1), (-1, 1)), 10: (12, (1, 2), (-1, 5)),
                            15: (5, (1, 1), (-1, 1)), 18: (4, (1, 1), (1, 2))}}
    return (
        [_eq(entry_id, label, [terms(_quot(1, 0, [atom])), terms(_quot(c, 0, num, den))],
             THETA_PREC) for entry_id, label, atom, c, num, den in rearr]
        + _specialize({"shift-law": [(3, (1, 1)), (5, (-1, 2)), (4, (1, 3)), (1, (-1, 1)),
                                     (8, (1, 5))]})
        + _specialize({"reflect-law": [(3, (1, 1)), (4, (-1, 1)), (7, (1, 2)), (8, (-1, 3)),
                                       (5, (-1, 1))]})
        + _specialize({"base-double": [(2, (1, 1)), (3, (-1, 1)), (5, (1, 2)), (4, (-1, 3)),
                                       (8, (1, 1))]})
        + _specialize({"neg-base": [(1, (1, 1)), (2, (-1, 1)), (2, (1, 1)), (2, (-1, 3)),
                                    (3, (1, 2))]})
        # one index across M = 2, 3, 5
        + [_law_entry(f"split-{M}-term-{i}", f"split-{M}-term", spec)
           for i, (M, spec) in enumerate([(2, (5, (1, 1))), (2, (3, (-1, 1))),
                                          (3, (2, (1, 1))), (3, (3, (-1, 2))),
                                          (5, (3, (1, 1))), (5, (2, (-1, 1)))])]
        + _specialize({"jsplit": [
            (6, (1, 1)), (5, (-1, 1)), (2, (1, 1)), (2, (-1, 1)), (4, (1, 1)), (4, (-1, 1)),
            (5, (1, 2)), (6, (-1, 1)), (16, (1, 3)), (16, (-1, 3)), (16, (1, 5)),
            (16, (-1, 5)), (8, (1, 1)), (8, (-1, 5)), (32, (1, 4)), (32, (-1, 8)),
            (3, (1, 2)), (5, (-1, 2)), (16, (1, 7)), (7, (-1, 3))]})
        + _specialize({name: [own.get(i, spec) for i, spec in enumerate(pairs)]
                       for name, own in pair_specs.items()})
        + _specialize({"weierstrass": [
            (64, (-1, 32), (1, 20), (1, 16), (-1, 8)), (4, (1, 2), (-1, 4), (1, 1), (-1, 1)),
            (4, (-1, 2), (1, 3), (-1, 1), (1, 2)), (8, (1, 5), (-1, 3), (1, 2), (1, 1)),
            (8, (1, 2), (1, 3), (1, 1), (-1, 2)), (4, (1, 2), (1, 4), (1, 1), (-1, 1)),
            (12, (1, 6), (1, 5), (-1, 3), (1, 2)), (2, (1, 2), (-1, 1), (1, 1), (-1, 2)),
            (16, (-1, 7), (1, 4), (1, 3), (1, 1)), (8, (1, 2), (-1, 2), (1, 4), (1, 8))]})
        + _specialize({"quintuple": [
            (4, (1, 1)), (4, (-1, 1)), (5, (1, 1)), (5, (1, 2)), (7, (-1, 1)),
            (7, (1, 2)), (8, (-1, 3)), (8, (1, 3)), (25, (1, 5)), (25, (1, 10))]})
        + _specialize({
            "hecke-sum": [(1, (1, 1)), (4, (-1, 2)), (2, (1, 1)), (1, (-1, 2)), (2, (-1, 1)),
                          (3, (-1, 2)), (3, (1, 1)), (3, (-1, 1)), (3, (1, 2)), (1, (-1, 6))],
            "hecke-sum-alt": [(2, (1, 1)), (2, (-1, 1)), (2, (1, 5)), (2, (-1, 5)), (1, (1, 3)),
                              (2, (1, 4)), (3, (1, 1)), (3, (-1, 1)), (3, (1, 2)),
                              (3, (-1, 2))]})
        + _specialize({"gsplit": g_specs + [(4, (-1, 1)), (16, (-1, 2)), (16, (-1, 6))]})
        + _specialize({"g-even-part": g_parts, "g-odd-part": g_parts})
    )


# -- group B: fifth-order mock theta conjectures -----------------------------------


def _mock_theta_entries():
    return [
        _eq("mock-theta-f0", "f0(q) = -2q^2 g(q^2;q^10) + j(q^5;q^10)j(q^2;q^5)/J1",
            [terms((1, Eulerian("f0"))), terms(_g(-2, 2, 1, 2, 10),
                       _quot(1, 0, [J(5, 10), J(2, 5)], [eta_atom(1)]))],
            MOCK_PREC),
        _eq("mock-theta-f1", "f1(q) = -2q^3 g(q^4;q^10) + j(q^5;q^10)j(q;q^5)/J1",
            [terms((1, Eulerian("f1"))), terms(_g(-2, 3, 1, 4, 10),
                       _quot(1, 0, [J(5, 10), J(1, 5)], [eta_atom(1)]))],
            MOCK_PREC),
    ]


# -- groups C and D: deviation dissections mod 4 and mod 8 --------------------------


def _deviation_entries():
    # rank deviations mod 4: 2-dissection, the paper's label stating the
    # symmetry that the count tables give
    entries = _dev_lines("rank", 4)
    entries[1] = replace(entries[1], paper_label="D(1,4) = D(3,4) 2-dissection")
    entries.append(_dev_sum("rank", 4))

    # crank deviations mod 4
    entries += _dev_lines("crank", 4)
    entries.append(_dev_sum("crank", 4))

    # mod 4 rank proposition (g on base q^16) and its first-stage form (base q^4)
    entries.append(_eq(
        "dev-rank-0-4-pre", "D(0,4) via g(-q^2;q^16)",
        [deviation("rank", 0, 4),
         _first_stage(4, {0: 1}, _quot(HALF, 0, Q14BAR, [J4]), _quot(QUARTER, 0, Q14, [J4]),
                      theta4=(-8, 0, 0, 0))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-rank-1-4-pre", "D(1,4) via g(-q^2;q^16), g(-q^6;q^16)",
        [deviation("rank", 1, 4),
         _first_stage(4, {1: 1}, _quot(1, 0, [Jbar(4, 8), J(1, 4)], [J4]),
                      _quot(-QUARTER, 0, Q14, [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-rank-2-4-pre", "D(2,4) via g(-q^6;q^16)",
        [deviation("rank", 2, 4),
         _first_stage(4, {2: 1}, _quot(-HALF, 0, Q14BAR, [J4]), _quot(QUARTER, 0, Q14, [J4]),
                      theta4=(0, 0, 8, 0))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-rank-0-4-base", "D(0,4) via g(+-q;q^4)",
        [deviation("rank", 0, 4),
         terms(_g(1, 1, -1, 1, 4), _g(-1, 1, 1, 1, 4),
               _quot(HALF, 0, Q14BAR, [J4]),
               _quot(QUARTER, 0, Q14, [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-rank-1-4-base", "D(1,4) via g(-q;q^4)",
        [deviation("rank", 1, 4),
         terms(_g(-1, 1, -1, 1, 4),
               _quot(-QUARTER, 0, Q14, [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-rank-2-4-base", "D(2,4) via g(+-q;q^4)",
        [deviation("rank", 2, 4),
         terms(_g(1, 1, -1, 1, 4), _g(1, 1, 1, 1, 4),
               _quot(-HALF, 0, Q14BAR, [J4]),
               _quot(QUARTER, 0, Q14, [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-rank-2-4-alt", "D(2,4), the Jbar_{1,2}J_{2,4}/J1 form",
        [deviation("rank", 2, 4),
         _first_stage(4, {2: 1}, _quot(-HALF, 0, [Jbar(1, 2), J(2, 4)], [eta_atom(1)]),
                      _quot(QUARTER, 0, Q14, [J4]), theta4=(0, 0, 8, 0))],
        MOCK_PREC))

    # crank mod 4 first stage
    entries.append(_eq(
        "dev-crank-0-4-pre", "D_C(0,4) = (1/2) J_{1,2}Jbar_{1,4}/J4 + (1/4) J_{1,2}J_{1,4}/J4",
        [deviation("crank", 0, 4),
         terms(_quot(HALF, 0, [J(1, 2), Jbar(1, 4)], [J4]),
               _quot(QUARTER, 0, Q14, [J4]))],
        MOCK_PREC))

    # split rewrites connecting the two shapes (theta only): each quotient
    # is a sum of theta4 slots, the family's 1/4 cleared by the scale 4
    for entry_id, quotient, num, coefficients in [
            ("split-rw-1", "J_{1,2}J_{1,4}", Q14, (1, 1, -1, -1)),
            ("split-rw-2", "Jbar_{1,2}Jbar_{1,4}", Q14BAR, (1, 1, 1, 1)),
            ("split-rw-3", "Jbar_{4,8}J_{1,4}", (Jbar(4, 8), J(1, 4)), (1, 0, -1, 0)),
            ("split-rw-crank", "J_{1,2}Jbar_{1,4}", (J(1, 2), Jbar(1, 4)), (1, -1, 1, -1))]:
        entries.append(_eq(
            entry_id, f"{quotient}/J4 two-square split",
            [terms(_quot(1, 0, num, [J4])), combo(("theta4", coefficients, 4))],
            THETA_PREC))

    return entries


def _mod8_entries():
    entries = _dev_lines("rank", 8)
    entries.append(_dev_sum("rank", 8))

    # first-stage forms of the rank deviations mod 8
    extra8 = [eta_atom(8), Jbar(1, 2), J(1, 8), Jbar(3, 8)]
    extra8_den = [(J4, 2), eta_atom(16)]
    pre_forms = {
        0: _first_stage(8, {0: 1}, _quot(-1, 0, [Jbar(4, 8), J(6, 16)], [J4]),
                        _quot(QUARTER, 0, Q14BAR, [J4]), _quot(EIGHTH, 0, Q14, [J4]),
                        _quot(HALF, 0, extra8, extra8_den), theta4=(-4, 0, 0, 0)),
        1: _first_stage(8, {1: 1}, _quot(HALF, 0, [Jbar(4, 8), J(1, 4)], [J4]),
                        _quot(-HALF, 1, [Jbar(4, 8), J(2, 16)], [J4]),
                        _quot(HALF, 0, [Jbar(4, 8), J(6, 16)], [J4]),
                        _quot(-EIGHTH, 0, Q14, [J4]),
                        _quot(HALF, 1, [Jbar(1, 2), J(14, 16)], [J4])),
        2: _first_stage(8, {2: 1}, _quot(-QUARTER, 0, Q14BAR, [J4]),
                        _quot(EIGHTH, 0, Q14, [J4]), theta4=(0, 0, 4, 0)),
        3: _first_stage(8, {3: 1}, _quot(HALF, 0, [Jbar(4, 8), J(1, 4)], [J4]),
                        _quot(HALF, 1, [Jbar(4, 8), J(2, 16)], [J4]),
                        _quot(-HALF, 0, [Jbar(4, 8), J(6, 16)], [J4]),
                        _quot(-EIGHTH, 0, Q14, [J4]),
                        _quot(-HALF, 1, [Jbar(1, 2), J(2, 16)], [J4])),
        4: _first_stage(8, {4: 1}, _quot(1, 0, [Jbar(4, 8), J(6, 16)], [J4]),
                        _quot(QUARTER, 0, Q14BAR, [J4]), _quot(EIGHTH, 0, Q14, [J4]),
                        _quot(-HALF, 0, extra8, extra8_den), theta4=(-4, 0, 0, 0)),
    }
    for a, rhs in pre_forms.items():
        entries.append(_eq(
            f"dev-rank-{a}-8-pre", f"D({a},8) via g on base q^16",
            [deviation("rank", a, 8), rhs], MOCK_PREC))

    entries.append(_eq(
        "split-rw-8", "J8 Jbar_{1,2} J_{1,8} Jbar_{3,8}/(J4^2 J16) two-square split",
        [terms(_quot(1, 0, extra8, extra8_den)),
         terms(_quot(1, 0, [Jbar(4, 8), J(6, 16)], [J4]),
               _quot(-1, 2, [Jbar(0, 8), J(14, 16)], [J4]),
               _quot(1, 1, [Jbar(0, 8), J(6, 16)], [J4]),
               _quot(-1, 1, [Jbar(4, 8), J(14, 16)], [J4]))],
        THETA_PREC))

    # the jsplit law at q -> q^16, x = -+q^6 and -+q^2
    entries += [_law_entry(f"base-split-{i}", "jsplit", (16, x), label) for i, (label, x) in
                enumerate([("j(-q^6;q^16) split to base q^64", (-1, 6)),
                           ("j(-q^2;q^16) split to base q^64", (-1, 2)),
                           ("j(q^6;q^16) split to base q^64", (1, 6)),
                           ("j(q^2;q^16) split to base q^64", (1, 2))])]

    # crank deviations mod 8: 4-dissections
    entries += _dev_lines("crank", 8)
    entries.append(_dev_sum("crank", 8))

    # first-stage crank forms
    entries.append(_eq(
        "dev-crank-0-8-pre", "D_C(0,8) before base splitting",
        [deviation("crank", 0, 8),
         terms(_quot(HALF, 0, [J(4, 8), J(6, 16)], [J4]),
               _quot(-HALF, 1, [J(4, 8), J(2, 16)], [J4]),
               _quot(QUARTER, 0, [J(1, 2), Jbar(1, 4)], [J4]),
               _quot(EIGHTH, 0, Q14, [J4]))],
        MOCK_PREC))
    # D_C(a,4) = D_C(a,8) + D_C(a+4,8) and D_C(6,8) = D_C(2,8): D_C(2,8) is half
    # the D_C(2,4) line, D_C(0,8) half the D_C(0,4) line plus (D_C(0,8) - D_C(4,8))/2
    entries.append(_eq(
        "dev-crank-0-8-mid", "D_C(0,8) 2-dissected",
        [deviation("crank", 0, 8),
         _line("crank", 4, {0: HALF})
         + terms(_quot(HALF, 0, [J(4, 8), J(6, 16)], [J4]),
                 _quot(-HALF, 1, [J(4, 8), J(2, 16)], [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-crank-2-8-pre", "D_C(2,8) before 2-dissection",
        [deviation("crank", 2, 8),
         terms(_quot(-QUARTER, 0, [J(1, 2), Jbar(1, 4)], [J4]),
               _quot(EIGHTH, 0, Q14, [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "dev-crank-2-8-mid", "D_C(2,8) 2-dissected",
        [deviation("crank", 2, 8), _line("crank", 4, {2: HALF})], MOCK_PREC))

    # pairwise sums used by the four-way relations
    for stat, a, b in [("crank", 0, 1), ("crank", 3, 4), ("rank", 1, 2), ("rank", 3, 4)]:
        entries.append(_eq(
            f"dev-{stat}-8-sum-{a}{b}", f"{_letter(stat)}({a},8) + {_letter(stat)}({b},8)",
            [deviation_sum(stat, 8, (a, b)), _line(stat, 8, {a: 1, b: 1})], MOCK_PREC))

    return entries


# -- group E: rank-crank relations ---------------------------------------------------


def _rank_crank_entries():
    entries = []
    EVEN_PREC = 151  # arguments 2n, 2n+1 up to 301
    QUAD_PREC = 76  # arguments 4n+k up to 307

    def nc(entry_id, label, t, r, legs, prec):
        sides = [count_rows(rows, t=t, r=r) for rows in legs]
        entries.append(_eq(entry_id, label, sides, prec))

    N, C = "rank", "crank"
    nc("NC-8", "Lewis/Santa-Gadea (8)", 2, 0,
       [[(1, N, 2, 4)], [(1, C, 1, 4)]], EVEN_PREC)
    nc("NC-9", "Lewis/Santa-Gadea (9)", 2, 1,
       [[(1, N, 0, 4)], [(1, C, 1, 4)]], EVEN_PREC)
    nc("NC-10", "Lewis/Santa-Gadea (10)", 4, 0,
       [[(1, C, 1, 8)], [(1, C, 3, 8)], [(1, N, 2, 8)], [(1, N, 4, 8)]], QUAD_PREC)
    nc("NC-11", "Lewis/Santa-Gadea (11)", 4, 1,
       [[(1, C, 0, 8), (1, C, 1, 8)], [(1, C, 3, 8), (1, C, 4, 8)],
        [(1, N, 1, 8), (1, N, 2, 8)], [(1, N, 3, 8), (1, N, 4, 8)]], QUAD_PREC)
    nc("NC-12", "Lewis/Santa-Gadea (12)", 4, 2,
       [[(1, C, 1, 8)], [(1, C, 3, 8)], [(1, N, 0, 8)], [(1, N, 2, 8)]], QUAD_PREC)
    nc("NC-13", "Lewis/Santa-Gadea (13)", 4, 3,
       [[(1, C, 0, 8), (1, C, 1, 8)], [(1, C, 3, 8), (1, C, 4, 8)],
        [(1, N, 0, 8), (1, N, 1, 8)], [(1, N, 2, 8), (1, N, 3, 8)]], QUAD_PREC)
    nc("NC-14", "Lewis/Santa-Gadea (14)", 4, 0,
       [[(1, N, 3, 8)], [(1, C, 2, 8)]], QUAD_PREC)
    nc("NC-15", "Lewis/Santa-Gadea (15)", 4, 1,
       [[(1, N, 3, 8)], [(1, C, 2, 8)]], QUAD_PREC)
    nc("NC-16", "Lewis/Santa-Gadea (16)", 4, 2,
       [[(1, N, 1, 8)], [(1, C, 2, 8)]], QUAD_PREC)
    nc("NC-17", "Lewis/Santa-Gadea (17)", 4, 3,
       [[(1, N, 1, 8)], [(1, C, 2, 8)]], QUAD_PREC)

    entries.append(_eq(
        "rank-diff-mod4-even",
        "N(0,4;2n) - N(2,4;2n) = (-1)^n [N(0,8;2n) - N(4,8;2n)]",
        [count_rows([(1, N, 0, 4), (-1, N, 2, 4)], t=2, r=0),
         count_rows([(1, N, 0, 8), (-1, N, 4, 8)], t=2, r=0, twist=True)], EVEN_PREC))
    entries.append(_eq(
        "rank-diff-mod4-odd",
        "N(0,4;2n+1) - N(2,4;2n+1) = (-1)^n [N(0,8;2n+1) + 2N(1,8;2n+1) "
        "- 2N(3,8;2n+1) - N(4,8;2n+1)]",
        [count_rows([(1, N, 0, 4), (-1, N, 2, 4)], t=2, r=1),
         count_rows([(1, N, 0, 8), (2, N, 1, 8), (-2, N, 3, 8), (-1, N, 4, 8)],
                t=2, r=1, twist=True)], EVEN_PREC))

    entries.append(_eq(
        "rank-diff-04-gf",
        "sum (N(0,4;n)-N(2,4;n)) q^n = 2 - 2q^2 g(-q^2;q^16) + 2q^5 g(-q^6;q^16) "
        "- J_{2,4}Jbar_{6,16}/J4 + q J_{2,4}Jbar_{2,16}/J4",
        [count_rows([(1, N, 0, 4), (-1, N, 2, 4)]),
         _first_stage(4, {0: 1, 2: -1}, _quot(-1, 0, [J(2, 4), Jbar(6, 16)], [J4]),
                      _quot(1, 1, [J(2, 4), Jbar(2, 16)], [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "rank-diff-08-gf",
        "sum (N(0,8;n)-N(4,8;n)) q^n = 2 + 2q^2 g(q^2;q^16) "
        "- Jbar_{2,4}J_{6,16}/J4 + q Jbar_{2,4}J_{2,16}/J4",
        [count_rows([(1, N, 0, 8), (-1, N, 4, 8)]),
         _first_stage(8, {0: 1, 4: -1}, _quot(-1, 0, [Jbar(2, 4), J(6, 16)], [J4]),
                      _quot(1, 1, [Jbar(2, 4), J(2, 16)], [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "rank-diff-18-gf",
        "sum (N(1,8;n)-N(3,8;n)) q^n = -1 - q^2 g(q^2;q^16) + q^5 g(q^6;q^16) "
        "+ Jbar_{2,4}J_{6,16}/J4",
        [count_rows([(1, N, 1, 8), (-1, N, 3, 8)]),
         _first_stage(8, {1: 1, 3: -1}, _quot(1, 0, [Jbar(2, 4), J(6, 16)], [J4]))],
        MOCK_PREC))
    entries.append(_eq(
        "rank-diff-04-product",
        "Jbar_{1,4}J_{1,2}/J4 = (J_{2,4}/J4) J_{1,4} "
        "= (J_{2,4}/J4)(Jbar_{6,16} - q Jbar_{14,16})",
        [terms(_quot(1, 0, [Jbar(1, 4), J(1, 2)], [J4])),
         terms(_quot(1, 0, [J(2, 4), J(1, 4)], [J4])),
         terms(_quot(1, 0, [J(2, 4), Jbar(6, 16)], [J4]),
               _quot(-1, 1, [J(2, 4), Jbar(14, 16)], [J4]))],
        THETA_PREC))
    entries.append(_eq(
        "rank-diff-04-prefinal",
        "sum (N(0,4;n)-N(2,4;n)) q^n = 2 - 2q^2 g(-q^2;q^16) "
        "+ 2q^5 g(-q^6;q^16) - J_{1,2}Jbar_{1,4}/J4",
        [count_rows([(1, N, 0, 4), (-1, N, 2, 4)]),
         _first_stage(4, {0: 1, 2: -1}, _quot(-1, 0, [J(1, 2), Jbar(1, 4)], [J4]))],
        MOCK_PREC))
    # the two Hecke-sum consequences that collapse the mod-8 differences
    entries.append(_eq(
        "mod8-diff-split-even",
        "Jbar_{4,8}J_{6,16} + q^2 Jbar_{0,8}J_{14,16} = Jbar_{2,4}J_{6,16}",
        [terms(_quot(1, 0, [Jbar(4, 8), J(6, 16)]),
               _quot(1, 2, [Jbar(0, 8), J(14, 16)])),
         terms(_quot(1, 0, [Jbar(2, 4), J(6, 16)]))],
        THETA_PREC))
    entries.append(_eq(
        "mod8-diff-split-odd",
        "Jbar_{0,8}J_{6,16} - Jbar_{4,8}J_{14,16} = Jbar_{2,4}J_{2,16}",
        [terms(_quot(1, 0, [Jbar(0, 8), J(6, 16)]),
               _quot(-1, 0, [Jbar(4, 8), J(14, 16)])),
         terms(_quot(1, 0, [Jbar(2, 4), J(2, 16)]))],
        THETA_PREC))

    return entries


# -- group F: support lemmas -----------------------------------------------------------


def _support_entries():
    # q^shift [g(q^a;q^16) +- g(-q^a;q^16)]: q^shift times the even or odd
    # part of g at x = q^a on base q^16
    entries = []
    combos = [
        ("g2-plus", "q^2[g(q^2;q^16) + g(-q^2;q^16)]", "g-even-part", 2, 2, 2),
        ("g2-minus", "q^2[g(q^2;q^16) - g(-q^2;q^16)]", "g-odd-part", 2, 2, 0),
        ("g6-plus", "q^5[g(q^6;q^16) + g(-q^6;q^16)]", "g-even-part", 6, 5, 1),
        ("g6-minus", "q^5[g(q^6;q^16) - g(-q^6;q^16)]", "g-odd-part", 6, 5, 3),
    ]
    for entry_id, label, law, a, shift, residue in combos:
        expansion = _law_entry(entry_id, law, (16, (1, a)), label + " expansion", shift)
        entries.append(expansion)
        entries.append(IdentityEntry(
            f"{entry_id}-support", label + f" supported on {residue} mod 4",
            "support", MOCK_PREC, expansion.sides[:1], support_t=4,
            support_allowed=frozenset([residue])))

    return entries


# -- group G: dissections mod 5 and 7 ----------------------------------------------------


def _mod57_entries():
    entries = []

    for M in (5, 7):
        entries += _dev_lines("rank", M) + _dev_lines("crank", M)
        entries += [_dev_sum("rank", M), _dev_sum("crank", M)]

    entries.append(_eq(
        "theta-product-5", "J_{1,5}J_{2,5} = J1 J5",
        [terms(_quot(1, 0, [J(1, 5), J(2, 5)])),
         terms(_quot(1, 0, [eta_atom(1), eta_atom(5)]))],
        THETA_PREC))
    entries.append(_eq(
        "theta-product-7", "J_{1,7}J_{2,7}J_{3,7} = J1 J7^2",
        [terms(_quot(1, 0, [J(1, 7), J(2, 7), J(3, 7)])),
         terms(_quot(1, 0, [eta_atom(1), (eta_atom(7), 2)]))],
        THETA_PREC))
    entries.append(_eq(
        "eta1-quintuple",
        "J1 = J25 (J_{10,25}/J_{5,25} - q^2 J_{20,25}/J_{10,25} - q)",
        [terms(_quot(1, 0, [eta_atom(1)])),
         terms(_quot(1, 0, [eta_atom(25), J(10, 25)], [J(5, 25)]),
               _quot(-1, 2, [eta_atom(25), J(20, 25)], [J(10, 25)]),
               _quot(-1, 1, [eta_atom(25)]))],
        THETA_PREC))

    return entries


# -- group H: Lewis's conjectures mod 8 ---------------------------------------------------


def _lewis_entries():
    entries = []
    N, C = "rank", "crank"
    # common quotient denominator of the 4-dissection, and deflated q^4 -> q
    DEN64 = [(J(8, 64), 2), J(16, 64), (J(24, 64), 2), J(32, 64)]
    DEN16 = [(J(2, 16), 2), J(4, 16), (J(6, 16), 2), J(8, 16)]

    dev_diff = terms(_dev(1, N, 0, 8), _dev(-1, C, 0, 8))
    # the g term of both forms of dev_diff, and q Jbar_{0,8} Jbar_{13,16}/J1,
    # the series that (003) reduces, that counts N - C on 4n+3 and that is
    # positive
    g12 = _g(2, 12, -1, 12, 64)
    closing = _quot(1, 1, [Jbar(0, 8), Jbar(13, 16)], [eta_atom(1)])

    entries.append(_eq(
        "lewis-dissection", "4-dissection of D(0,8) - D_C(0,8)",
        [dev_diff,
         terms(g12,
               _quot(-2, 8, [(Jbar(4, 64), 2), (Jbar(20, 64), 2), Jbar(28, 64),
                             (eta_atom(64), 2)], DEN64),
               _quot(2, 1, [(Jbar(12, 64), 2), Jbar(20, 64), (Jbar(28, 64), 2),
                            (eta_atom(64), 2)], DEN64),
               _quot(-2, 10, [(Jbar(4, 64), 2), Jbar(12, 64), Jbar(20, 64),
                              Jbar(28, 64), (eta_atom(64), 2)], DEN64),
               _quot(2, 7, [Jbar(4, 64), (Jbar(12, 64), 2), Jbar(20, 64),
                            Jbar(28, 64), (eta_atom(64), 2)], DEN64))],
        MOCK_PREC))

    entries.append(_eq(
        "lewis-dissection-raw", "D(0,8) - D_C(0,8) before reduction",
        [dev_diff,
         terms(g12,
               _quot(2, 0, [eta_atom(32), (Jbar(16, 64), 2)], [Jbar(52, 64), J(4, 32)]),
               _quot(-2, 0, [Jbar(16, 32), Jbar(28, 64)], [J4]),
               _quot(-1, 4, [Jbar(0, 32), Jbar(28, 64)], [J4]),
               _quot(2, 4, [Jbar(8, 32), Jbar(52, 64)], [J4]),
               _quot(2, 1, [Jbar(8, 32), Jbar(28, 64)], [J4]),
               _quot(-1, 5, [Jbar(0, 32), Jbar(20, 64)], [J4]),
               _quot(-1, 10, [Jbar(0, 32), Jbar(60, 64)], [J4]),
               _quot(1, 7, [Jbar(0, 32), Jbar(52, 64)], [J4]))],
        MOCK_PREC))

    # reduction identities, written in the q^4-deflated variable
    entries.append(_eq(
        "lewis-000", "Lewis reduction identity (000), q^4-deflated",
        [terms(_quot(2, 0, [eta_atom(8), (Jbar(4, 16), 2)], [Jbar(13, 16), J(1, 8)]),
               _quot(-2, 0, [Jbar(4, 8), Jbar(7, 16)], [eta_atom(1)]),
               _quot(-1, 1, [Jbar(0, 8), Jbar(7, 16)], [eta_atom(1)]),
               _quot(2, 1, [Jbar(2, 8), Jbar(13, 16)], [eta_atom(1)])),
         terms(_quot(-2, 2, [(Jbar(1, 16), 2), (Jbar(5, 16), 2), Jbar(7, 16),
                             (eta_atom(16), 2)], DEN16))],
        MOCK_PREC))
    entries.append(_eq(
        "lewis-001", "Lewis reduction identity (001), q^4-deflated",
        [terms(_quot(2, 0, [Jbar(2, 8), Jbar(7, 16)], [eta_atom(1)]),
               _quot(-1, 1, [Jbar(0, 8), Jbar(5, 16)], [eta_atom(1)])),
         terms(_quot(2, 0, [(Jbar(3, 16), 2), Jbar(5, 16), (Jbar(7, 16), 2),
                            (eta_atom(16), 2)], DEN16))],
        MOCK_PREC))
    entries.append(_eq(
        "lewis-002", "Lewis reduction identity (002), q^4-deflated",
        [terms(_quot(1, 2, [Jbar(0, 8), Jbar(15, 16)], [eta_atom(1)])),
         terms(_quot(2, 2, [(Jbar(1, 16), 2), Jbar(3, 16), Jbar(5, 16),
                            Jbar(7, 16), (eta_atom(16), 2)], DEN16))],
        MOCK_PREC))
    entries.append(_eq(
        "lewis-003", "Lewis reduction identity (003), q^4-deflated",
        [terms(closing),
         terms(_quot(2, 1, [Jbar(1, 16), (Jbar(3, 16), 2), Jbar(5, 16),
                            Jbar(7, 16), (eta_atom(16), 2)], DEN16))],
        MOCK_PREC))

    entries.append(_eq(
        "eta1-as-quotient", "J1 as a base-16 quotient, q^4-deflated",
        [terms(_quot(1, 0, [eta_atom(1)])),
         terms(_quot(1, 0, [(J(2, 16), 2), J(4, 16), (J(6, 16), 2), J(8, 16),
                            Jbar(8, 32)],
                     [Jbar(1, 16), Jbar(3, 16), Jbar(5, 16), Jbar(7, 16),
                      (eta_atom(16), 2)]))],
        THETA_PREC))
    # (a, b, c, d) = (1, q^6, -q^3, -q^4) on base q^16
    entries.append(_law_entry(
        "lewis-weierstrass-stop", "weierstrass", (16, (1, 0), (1, 6), (-1, 3), (-1, 4)),
        "closing three-term relation, q^4-deflated"))
    entries.append(_eq(
        "lewis-001-reduced", "reduced form of (001), q^4-deflated",
        [terms(_quot(1, 0, [Jbar(1, 16), Jbar(2, 8), Jbar(7, 16)]),
               _quot(-1, 1, [Jbar(1, 16), Jbar(5, 16), Jbar(8, 32)])),
         terms(_quot(1, 0, [Jbar(3, 16), Jbar(7, 16), Jbar(8, 32)]))],
        THETA_PREC))
    entries.append(_eq(
        "lewis-000-piece-1", "first regrouped piece of (000), q^4-deflated",
        [terms(_quot(1, 1, [Jbar(8, 32), Jbar(7, 16), J(1, 8), Jbar(3, 16)]),
               _quot(-1, 2, [Jbar(1, 16), Jbar(5, 16), Jbar(8, 32), J(1, 8)])),
         terms(_quot(1, 1, [Jbar(8, 32), (J(1, 8), 2), J(2, 8)]))],
        THETA_PREC))
    entries.append(_eq(
        "lewis-000-piece-2", "second regrouped piece of (000), q^4-deflated",
        [terms(_quot(1, 0, [Jbar(4, 8), J(1, 4), J(2, 8), Jbar(8, 32)]),
               _quot(-1, 1, [Jbar(8, 32), (J(1, 8), 2), J(2, 8)])),
         terms(_quot(1, 0, [(J(1, 8), 2), (J(6, 16), 2)]))],
        THETA_PREC))
    entries.append(_eq(
        "lewis-000-reduced", "reduced vanishing form of (000), q^4-deflated",
        [terms(_quot(1, 0, [J(1, 8), (J(6, 16), 2)]),
               _quot(-1, 0, [Jbar(4, 8), Jbar(7, 16), Jbar(3, 16)]),
               _quot(1, 1, [Jbar(2, 8), Jbar(13, 16), Jbar(3, 16)])),
         terms()],
        THETA_PREC))

    entries.append(_eq(
        "lewis-positivity-id",
        "sum (N(0,8;4n+3) - C(0,8;4n+3)) q^n = q Jbar_{0,8} Jbar_{13,16}/J1",
        [count_rows([(1, N, 0, 8), (-1, C, 0, 8)], t=4, r=3),
         terms(closing)], 101))

    entries.append(IdentityEntry(
        "lewis-positivity", "q Jbar_{0,8} Jbar_{13,16}/J1 has positive coefficients",
        "positivity", 151,
        [terms(closing)]))

    ineqs = [
        ("lewis-ineq-0", "N(0,8;4n+1) >= C(0,8;4n+1) for n >= 2", 1, 2, N, C),
        ("lewis-ineq-1", "C(0,8;4n+2) >= N(0,8;4n+2) for n >= 2", 2, 2, C, N),
        ("lewis-ineq-2", "N(0,8;4n+3) >= C(0,8;4n+3) for n >= 1", 3, 1, N, C),
    ]
    for entry_id, label, r, threshold, lhs, rhs in ineqs:
        entries.append(IdentityEntry(
            entry_id, label, "inequality", 100,
            [count_rows([(1, stat, 0, 8)], t=4, r=r) for stat in (lhs, rhs)],
            ineq_threshold=threshold))

    return entries


def build_registry():
    """All entries, in stable registry order."""
    registry = []
    registry.extend(_toolkit_entries())
    registry.extend(_mock_theta_entries())
    registry.extend(_deviation_entries())
    registry.extend(_mod8_entries())
    registry.extend(_rank_crank_entries())
    registry.extend(_support_entries())
    registry.extend(_mod57_entries())
    registry.extend(_lewis_entries())
    ids = [e.id for e in registry]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise RuntimeError(f"duplicate registry ids: {dupes}")
    return registry
