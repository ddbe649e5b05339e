"""
Quiver Hecke algebras with exact integer arithmetic.

An algebra context is built from a quiver without loops (or directly from
a Q-matrix).  ``QuiverData`` is the one quiver type of the package (the
Hall, Fock and Hecke-bridge layers read their arrows from it too);
``linear_quiver(k)``, ``cyclic_quiver(e)`` and ``parse_quiver`` build
one.  Elements are kept in PBW normal form: integer combinations of
words

    tau_w x_1^{a_1} ... x_n^{a_n} 1_v

where v is a source idempotent (a tuple of vertices), w runs over the
canonical reduced words of the symmetric group and the x-exponents sit to
the right.  Multiplication is done by a rewriting engine that moves x's
to the right (one push, shared with the torsion rewriter of the larger
presentation) and recombines tau-words along the canonical-word segment
structure; the polynomial representation (divided differences and twisted
multiplication operators) provides an independent engine used as an
oracle and for extracting PBW coordinates of operators.  Symbolically
(``represent``), tau_w 1_v acts as sum_s (N_s / Delta_u) s with
polynomial numerators N_s over the one denominator Delta_u, the product
of x_a - x_b over equal labels u_a = u_b of the target u = w(v).
``relation_cases`` checks the defining relations on a module given by its
tau_i on term dicts: ``apply_tau``, or the Demazure operators at one vertex.
On term dicts tau_l acts through `tau_column`, its memoized column on one
monomial (built from `polyring`'s steps, summed with `linalg.add_column`),
which the Hecke bridge's ``tau`` reads too.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from .coxeter import Permutation, segments_of_canonical_word
from .laurent import Laurent
from .linalg import Combination, Echelon, add_column, bump
from .polyring import (
    MPoly,
    add_product,
    demazure_exponents,
    divide_exact,
    divide_exact_by_x_difference,
    elementary_symmetric,
    exponent_tuples,
    swap_adjacent,
)


# -- quiver and Q-matrix data --------------------------------------------


class QuiverData:
    """A quiver: vertex set and arrow multiplicities d_{ij}, loops allowed.

    This is the one quiver type of the package: the KLR, Hall, Fock and
    Hecke-bridge layers read their arrows from it.  ``arrows`` lists each
    arrow (i, j) as often as its multiplicity, sorted; ``arrow_index``
    lists the same arrows as positions (of i, of j) in ``vertices``.
    """

    def __init__(self, vertices, arrow_counts=None):
        self.vertices = tuple(sorted(set(vertices)))
        counts = {}
        for (i, j), d in (arrow_counts or {}).items():
            if i not in self.vertices or j not in self.vertices:
                raise ValueError(
                    f"arrow {i} -> {j} has an endpoint outside the vertices "
                    f"{list(self.vertices)}"
                )
            if not isinstance(d, int) or d < 0:
                raise ValueError(
                    f"arrow {i} -> {j} needs a nonnegative integer "
                    f"multiplicity, got {d!r}"
                )
            if d:
                counts[(i, j)] = d
        self.arrow_counts = counts
        self.arrows = tuple(a for a, d in sorted(counts.items()) for _ in range(d))
        position = {v: k for k, v in enumerate(self.vertices)}
        self.arrow_index = tuple((position[i], position[j]) for i, j in self.arrows)
        self._cartan = {
            (i, j): (2 if i == j else 0) - self.m(i, j)
            for i in self.vertices
            for j in self.vertices
        }

    def d(self, i, j) -> int:
        """Number of arrows i -> j."""
        return self.arrow_counts.get((i, j), 0)

    def m(self, i, j) -> int:
        """Number of edges between i and j (orientation forgotten); a loop
        at i counts twice in m(i, i)."""
        return self.d(i, j) + self.d(j, i)

    def cartan(self, i, j) -> int:
        """Symmetric Cartan matrix entry 2 delta_{ij} - m_{ij}, so
        2 - 2 d_{ii} on the diagonal."""
        entry = self._cartan.get((i, j))
        if entry is None:
            raise ValueError(f"cartan({i}, {j}) needs vertices of {self}")
        return entry

    def __repr__(self):
        arrows = ", ".join(
            f"{i}->{j}" + (f" x{d}" if d > 1 else "")
            for (i, j), d in sorted(self.arrow_counts.items())
        )
        return f"QuiverData({list(self.vertices)}; {arrows})"


def single_vertex_quiver():
    return QuiverData((1,))


def linear_quiver(k: int):
    """Type A_k quiver: vertices 1..k, one arrow i -> i+1."""
    if k < 1:
        raise ValueError(f"a linear quiver needs k >= 1, got {k}")
    return QuiverData(range(1, k + 1), {(i, i + 1): 1 for i in range(1, k)})


def cyclic_quiver(e: int):
    """Cyclic quiver of type A_{e-1}^{(1)}: vertices 0..e-1, one arrow
    i -> i+1 mod e (a loop at e = 1, a 2-cycle at e = 2)."""
    if e < 1:
        raise ValueError(f"a cyclic quiver needs e >= 1, got {e}")
    return QuiverData(range(e), {(i, (i + 1) % e): 1 for i in range(e)})


def parse_quiver(text: str) -> QuiverData:
    """Read a quiver from lines of the form "vertex i" or "i -> j"."""
    vertices = set()
    counts = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertex"):
            vertices.add(int(line.split()[1]))
            continue
        left, right = line.split("->")
        i, j = int(left), int(right)
        vertices.update((i, j))
        counts[(i, j)] = counts.get((i, j), 0) + 1
    if not vertices:
        raise ValueError("a quiver file needs at least one vertex")
    return QuiverData(vertices, counts)


class QMatrix:
    """The matrix of bivariate polynomials Q_{ij}(u, u').

    Each entry is a dict mapping exponent tuples to coefficients; the
    first two entries of an exponent tuple are the powers of u and u',
    any further entries are powers of the generic parameters in
    ``params``.  Q_{ii} = 0 is implicit; every Q_{ij} with i != j must
    be given, and the symmetry Q_{ij}(u, u') = Q_{ji}(u', u) is checked.
    """

    def __init__(self, vertices, entries, params=()):
        self.vertices = tuple(sorted(set(vertices)))
        self.params = tuple(params)
        self.entries = {}
        for (i, j), poly in entries.items():
            if i == j:
                raise ValueError(f"Q_{{ii}} is zero, got an entry at ({i}, {j})")
            clean = {tuple(e): c for e, c in poly.items() if c != 0}
            if not clean:
                raise ValueError(f"Q_{{ij}} must be nonzero for i != j, at ({i}, {j})")
            self.entries[(i, j)] = clean
        if missing := set(itertools.permutations(self.vertices, 2)) - self.entries.keys():
            raise ValueError(f"Q_{{ij}} has no entry at {min(missing)}")
        for (i, j), poly in self.entries.items():
            mirror = {(e[1], e[0]) + tuple(e[2:]): c for e, c in poly.items()}
            if self.entries.get((j, i)) != mirror:
                raise ValueError(f"Q_{{ij}}(u,u') is not Q_{{ji}}(u',u) at ({i}, {j})")

    @staticmethod
    def from_quiver(quiver: QuiverData) -> "QMatrix":
        """Quiver specialization Q_{ij} = (-1)^{d_{ij}} (u - u')^{m_{ij}}."""
        entries = {}
        for i in quiver.vertices:
            for j in quiver.vertices:
                if i == j:
                    continue
                m = quiver.m(i, j)
                sign = (-1) ** quiver.d(i, j)
                poly = {}
                for k in range(m + 1):
                    poly[(m - k, k)] = sign * math.comb(m, k) * (-1) ** k
                entries[(i, j)] = poly
        return QMatrix(quiver.vertices, entries)

    def instantiate(self, i, j, a: int, b: int, nx: int) -> MPoly:
        """Q_{ij}(x_a, x_b) as a polynomial in x_1..x_nx (plus params)."""
        if i == j:
            raise ValueError(f"Q_{{ij}} is instantiated for i != j, got {i} twice")
        width = nx + len(self.params)
        terms = {}
        for e, c in self.entries[(i, j)].items():
            exps = [0] * width
            exps[a - 1] += e[0]
            exps[b - 1] += e[1]
            for k, pe in enumerate(e[2:]):
                exps[nx + k] += pe
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
        return MPoly(nx, self.params, terms)


# -- algebra context -----------------------------------------------------


class KLRContext:
    """Immutable data for H_n of a quiver (or an explicit Q-matrix)."""

    def __init__(self, quiver: QuiverData, n: int, qmat: QMatrix = None):
        if n < 1:
            raise ValueError(f"a quiver Hecke algebra needs n >= 1, got {n}")
        if any(i == j for i, j in quiver.arrows):
            raise ValueError(
                f"a quiver Hecke algebra needs a quiver without loops, got {quiver}"
            )
        self.quiver = quiver
        self.n = n
        self.qmat = qmat if qmat is not None else QMatrix.from_quiver(quiver)
        if self.qmat.vertices != quiver.vertices:
            raise ValueError(
                f"Q-matrix vertices {list(self.qmat.vertices)} are not the "
                f"quiver's {list(quiver.vertices)}"
            )
        self.params = self.qmat.params
        self.width = n + len(self.params)
        self._q_cache = {}
        self._tau_cache = {}
        self._expand_cache = {}
        self._column_cache = {}

    def check_idempotent(self, v):
        v = tuple(v)
        if len(v) != self.n or any(s not in self.quiver.vertices for s in v):
            raise ValueError(
                f"{v} is not an idempotent of H_{self.n}: it needs {self.n} "
                f"vertices from {list(self.quiver.vertices)}"
            )
        return v

    def zero_exps(self):
        return (0,) * self.width

    def q_poly(self, i, j, a: int, b: int) -> MPoly:
        """Q_{ij}(x_a, x_b); zero when i == j."""
        key = (i, j, a, b)
        out = self._q_cache.get(key)
        if out is None:
            if i == j:
                out = MPoly.zero(self.n, self.params)
            else:
                out = self.qmat.instantiate(i, j, a, b, self.n)
            self._q_cache[key] = out
        return out

    def p_poly(self, i, j, a: int, b: int) -> MPoly:
        """P_{ij}(x_a, x_b) with P_{ij} = Q_{ij} for i < j and P_{ji} = 1."""
        if i == j:
            raise ValueError(f"P_{{ij}} is defined for i != j, got {i} twice")
        if i < j:
            return self.q_poly(i, j, a, b)
        return MPoly.one(self.n, self.params)

    def braid_correction(self, s, t, i: int) -> MPoly:
        """(Q_st(x_{i+2}, x_{i+1}) - Q_st(x_i, x_{i+1})) / (x_{i+2} - x_i), the
        deformed braid term at v_i = v_{i+2} = s != t = v_{i+1}."""
        num = self.q_poly(s, t, i + 2, i + 1) - self.q_poly(s, t, i, i + 1)
        return divide_exact_by_x_difference(num, i + 2, i)

    def tau_degree(self, u, l: int) -> int:
        """Degree of tau_l applied at the idempotent u: -a_{u_l, u_{l+1}}."""
        return -self.quiver.cartan(u[l - 1], u[l])

    def word_degree(self, w: Permutation, v) -> int:
        """Degree of the tau-word of w applied at the source idempotent v."""
        deg = 0
        u = list(v)
        for l in reversed(w.canonical_word()):
            deg += self.tau_degree(u, l)
            u[l - 1], u[l] = u[l], u[l - 1]
        return deg

    def degree(self, v, w: Permutation, a) -> int:
        """Degree of the PBW word tau_w x^a 1_v: 2 per x, plus the word degree."""
        return 2 * sum(a) + self.word_degree(w, v)


def make_klr(quiver: QuiverData, n: int, qmat: QMatrix = None) -> KLRContext:
    return KLRContext(quiver, n, qmat)


# -- rewriting engine ----------------------------------------------------

_PUSH_CACHE = {}


def _push_x(j: int, word, v):
    """Move x_j from the left of the tau-word ``word`` (source v) to the right.

    Returns a list of (letters, jn, sign) triples.  Full passes keep all
    the letters and carry the transformed variable index jn; correction
    terms (from the straightening relation at equal adjacent vertices)
    drop one letter and have jn None.
    """
    key = (j, word, v)
    out = _PUSH_CACHE.get(key)
    if out is not None:
        return out
    if not word:
        out = [((), j, 1)]
        _PUSH_CACHE[key] = out
        return out
    l = word[0]
    rest = word[1:]
    if j == l:
        sj = l + 1
    elif j == l + 1:
        sj = l
    else:
        sj = j
    out = [
        ((l,) + letters, jn, sign) for letters, jn, sign in _push_x(sj, rest, v)
    ]
    u = Permutation.from_word(rest, len(v)).act_on_list(v)
    if u[l - 1] == u[l]:
        # x_{l+1} tau_l = tau_l x_l + 1 and x_l tau_l = tau_l x_{l+1} - 1
        if j == l + 1:
            out.append((rest, None, 1))
        elif j == l:
            out.append((rest, None, -1))
    _PUSH_CACHE[key] = out
    return out


def _push_poly(ctx: KLRContext, poly: MPoly, word, v) -> dict:
    """poly * tau_word 1_v as formal words {(letters, exps): coeff}, by the
    x-tau relations alone, which both presentations share.  Corrections
    drop letters; the terms that came through whole keep ``word``."""
    out = {}
    for exps, coeff in poly.terms.items():
        items = {(tuple(word), (0,) * ctx.n + tuple(exps[ctx.n:])): coeff}
        for j in range(1, ctx.n + 1):
            for _ in range(exps[j - 1]):
                nxt = {}
                for (wrd, e), c in items.items():
                    for letters, jn, sign in _push_x(j, wrd, v):
                        b = e if jn is None else e[: jn - 1] + (e[jn - 1] + 1,) + e[jn:]
                        bump(nxt, (letters, b), sign * c)
                items = nxt
        for key, c in items.items():
            bump(out, key, c)
    return out


def _lmul_poly(ctx: KLRContext, p: MPoly, el: "KLRElement") -> "KLRElement":
    """p * el in PBW normal form, each word left by the push normalized once."""
    if (p.nx, p.params) != (ctx.n, ctx.params):
        raise ValueError(f"{p.var_names()} are not the variables of H_{ctx.n}")
    out = {}
    for (v, w, a), c in el.terms.items():
        word = w.canonical_word()
        for (letters, e), d in _push_poly(ctx, p, word, v).items():
            if letters == word:
                bump(out, (v, w, tuple(x + y for x, y in zip(e, a))), c * d)
                continue
            for (v2, w2, b), c2 in _word_to_element(ctx, letters, v).terms.items():
                b = tuple(x + y + z for x, y, z in zip(b, e, a))
                bump(out, (v2, w2, b), c * d * c2)
    return KLRElement(ctx, out)


def _lmul_tau(ctx: KLRContext, i: int, el: "KLRElement") -> "KLRElement":
    out = {}
    for (v, w, a), c in el.terms.items():
        sub = _tau_times_word(ctx, i, w.canonical_word(), v, ctx.n)
        for (v2, w2, b2), c2 in sub.terms.items():
            b = tuple(p + q for p, q in zip(b2, a))
            bump(out, (v2, w2, b), c * c2)
    return KLRElement(ctx, out)


def _word_to_element(ctx: KLRContext, letters, v) -> "KLRElement":
    """Normalize an arbitrary tau-word applied to 1_v."""
    el = KLRElement.idempotent(ctx, v)
    for l in reversed(letters):
        el = _lmul_tau(ctx, l, el)
    return el


def _single(ctx: KLRContext, v, word) -> "KLRElement":
    return KLRElement(
        ctx, {(v, Permutation.from_word(word, ctx.n), ctx.zero_exps()): 1}
    )


def _tau_times_word(ctx, i, word, v, rank) -> "KLRElement":
    key = (i, word, v, rank)
    out = ctx._tau_cache.get(key)
    if out is None:
        out = _tau_times_word_compute(ctx, i, word, v, rank)
        ctx._tau_cache[key] = out
    return out


def _tau_times_word_compute(ctx, i, word, v, rank) -> "KLRElement":
    """tau_i * (tau-word applied to 1_v), word canonical inside S_rank.

    The case split follows the first ascending segment of the canonical
    word; the result is again in PBW normal form.
    """
    n = ctx.n
    if not 1 <= i <= rank - 1:
        raise ValueError(f"tau_{i} is not a generator of H_{rank}")
    if not word:
        return _single(ctx, v, (i,))
    seg = segments_of_canonical_word(word)[0]
    if seg[-1] < rank - 1:
        # w fixes rank, so it lives in a smaller symmetric group
        if i == rank - 1:
            return _single(ctx, v, (i,) + tuple(word))
        return _tau_times_word(ctx, i, word, v, rank - 1)
    j0 = seg[0]
    rest = tuple(word[len(seg):])
    if i <= j0 - 2:
        # tau_i commutes past the whole segment
        sub = _tau_times_word(ctx, i, rest, v, rank - 1)
        return _prepend_segment(ctx, seg, sub)
    if i == j0 - 1:
        # the word grows by one letter and stays canonical
        return _single(ctx, v, (i,) + tuple(word))
    if i == j0:
        # quadratic relation at the head of the segment
        inner = tuple(seg[1:]) + rest
        u1 = Permutation.from_word(inner, n).act_on_list(v)
        vi, vj = u1[j0 - 1], u1[j0]
        if vi == vj:
            return KLRElement.zero(ctx)
        base = _single(ctx, v, inner)
        return _lmul_poly(ctx, ctx.q_poly(vi, vj, j0, j0 + 1), base)
    # j0 < i <= rank - 1: braid tau_i through the segment
    sub = _tau_times_word(ctx, i - 1, rest, v, rank - 1)
    out = _prepend_segment(ctx, seg, sub)
    tail = tuple(range(i + 1, rank)) + rest
    ub = Permutation.from_word(tail, n).act_on_list(v)
    a0 = i - 1  # braid pattern acts at positions a0, a0+1, a0+2
    if ub[a0 - 1] == ub[a0 + 1] != ub[a0]:
        corr = ctx.braid_correction(ub[a0 - 1], ub[a0], a0)
        extra = _lmul_poly(ctx, corr, _single(ctx, v, tail))
        for l in reversed(range(j0, i - 1)):
            extra = _lmul_tau(ctx, l, extra)
        out = out + extra
    return out


def _prepend_segment(ctx: KLRContext, seg, el: "KLRElement") -> "KLRElement":
    """Left-multiply by the tau-word of an ascending segment (j0..rank-1).

    Every permutation in ``el`` fixes rank..n, so the concatenated word
    stays canonical and no relation fires.
    """
    seg_perm = Permutation.from_word(tuple(seg), ctx.n)
    out = {}
    for (v, w, a), c in el.terms.items():
        bump(out, (v, seg_perm * w, a), c)
    return KLRElement(ctx, out)


# -- elements ------------------------------------------------------------


class KLRElement(Combination):
    """Integer combination of PBW words (v, w, exponents)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: KLRContext, terms=None):
        self.ctx = ctx
        self.terms = {}
        for (v, w, a), c in (terms or {}).items():
            if c != 0:
                if len(a) != ctx.width:
                    raise ValueError(
                        f"exponents {tuple(a)} need {ctx.width} entries"
                    )
                self.terms[(tuple(v), w, tuple(a))] = c

    @staticmethod
    def zero(ctx) -> "KLRElement":
        return KLRElement(ctx)

    @staticmethod
    def idempotent(ctx, v) -> "KLRElement":
        v = ctx.check_idempotent(v)
        return KLRElement(
            ctx, {(v, Permutation.identity(ctx.n), ctx.zero_exps()): 1}
        )

    @staticmethod
    def x(ctx, i, v) -> "KLRElement":
        v = ctx.check_idempotent(v)
        if not 1 <= i <= ctx.n:
            raise ValueError(f"x_{i} is not a generator of H_{ctx.n}")
        exps = [0] * ctx.width
        exps[i - 1] = 1
        return KLRElement(
            ctx, {(v, Permutation.identity(ctx.n), tuple(exps)): 1}
        )

    @staticmethod
    def tau(ctx, i, v) -> "KLRElement":
        v = ctx.check_idempotent(v)
        if not 1 <= i <= ctx.n - 1:
            raise ValueError(f"tau_{i} is not a generator of H_{ctx.n}")
        return KLRElement(
            ctx, {(v, Permutation.simple(i, ctx.n), ctx.zero_exps()): 1}
        )

    @staticmethod
    def basis_word(ctx, v, w: Permutation, exps) -> "KLRElement":
        v = ctx.check_idempotent(v)
        if w.n != ctx.n:
            raise ValueError(f"{w} is not a permutation of {ctx.n} letters")
        exps = tuple(exps)
        if len(exps) == ctx.n:
            exps = exps + (0,) * len(ctx.params)
        return KLRElement(ctx, {(v, w, exps): 1})

    def _like(self, terms) -> "KLRElement":
        el = KLRElement(self.ctx)
        el.terms = terms
        return el

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("operands in different KLR contexts")

    def __mul__(self, other) -> "KLRElement":
        if not isinstance(other, KLRElement):
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        by_target = {}
        for (v2, w2, a2), c2 in other.terms.items():
            by_target.setdefault(w2.act_on_list(v2), {})[(v2, w2, a2)] = c2
        out = {}
        for (v1, w1, a1), c1 in self.terms.items():
            if v1 not in by_target:
                continue
            mono = MPoly(ctx.n, ctx.params, {a1: c1})
            cur = _lmul_poly(ctx, mono, self._like(by_target[v1]))
            for l in reversed(w1.canonical_word()):
                cur = _lmul_tau(ctx, l, cur)
            for key, c in cur.terms.items():
                bump(out, key, c)
        return self._like(out)

    def degrees(self):
        """Set of degrees of the homogeneous components (quiver mode)."""
        if self.ctx.params:
            raise ValueError(f"degrees need no parameters, got {self.ctx.params}")
        return {self.ctx.degree(*key) for key in self.terms}

    def apply(self, module: dict) -> dict:
        """Apply to an element of the polynomial module.

        ``module`` maps idempotents to polynomials; the result does too.
        The images are summed as term dicts, one per target idempotent.
        """
        ctx = self.ctx
        acc = {}
        for (v, w, a), c in self.terms.items():
            p = module.get(v)
            if p is None or p.is_zero():
                continue
            if p.nx != ctx.n or p.params != ctx.params:
                raise ValueError(
                    f"the module component at {v} is a polynomial in "
                    f"{p.var_names()}, not in {ctx.n} variables with "
                    f"parameters {ctx.params}"
                )
            tgt, img = _apply_word(ctx, v, w, a, p.terms)
            add_column(acc.setdefault(tgt, {}), img.items(), c)
        return {u: MPoly(ctx.n, ctx.params, t) for u, t in acc.items() if t}

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].images, kv[0][2])
        )

    def to_text(self) -> str:
        """Canonical text form: "coef * tau[word] x[a1,...,an] e(v)" terms."""
        if not self.terms:
            return "0"
        parts = []
        for (v, w, a), c in self.sorted_terms():
            word = ",".join(str(l) for l in w.canonical_word())
            exps = ",".join(str(e) for e in a)
            vtx = ",".join(str(s) for s in v)
            parts.append(f"{c} * tau[{word}] x[{exps}] e({vtx})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.to_text()


def _apply_word(ctx: KLRContext, v, w: Permutation, a, terms: dict):
    """Apply tau_w x^a 1_v to the polynomial with term dict ``terms``
    (exponent tuple -> coefficient) in the component M_v.

    Returns the target idempotent w(v) and the image's term dict.  The
    letters of the canonical word act right to left on term dicts: at the
    current idempotent u, tau_l is the Demazure operator d_l when u_l =
    u_{l+1}, and otherwise swaps x_l and x_{l+1} and multiplies by
    P_{u_l u_{l+1}}(x_{l+1}, x_l).  The image of one monomial e under one
    letter is its `tau_column`, which depends on (u_l, u_{l+1}, l, e) alone.
    """
    if any(a):
        terms = {tuple(p + q for p, q in zip(e, a)): c for e, c in terms.items()}
    u = v
    for l in reversed(w.canonical_word()):
        terms = _apply_letter(ctx, u[l - 1], u[l], l, terms)
        u = swap_adjacent(u, l)
    return u, terms


def _apply_letter(ctx: KLRContext, s, t, l: int, terms: dict) -> dict:
    """tau_l on the term dict ``terms`` at an idempotent with u_l = s and
    u_{l+1} = t, through the memoized columns."""
    out = {}
    for e, c in terms.items():
        add_column(out, tau_column(ctx, s, t, l, e), c)
    return out


def apply_tau(ctx: KLRContext, i: int, module: dict) -> dict:
    """tau_i = sum_v tau_i 1_v on a module of term dicts.

    ``module`` maps idempotents to term dicts (exponent tuple ->
    coefficient); so does the result, without empty components.  Each
    source idempotent v goes to s_i(v) through the columns that
    ``KLRElement.apply`` memoizes, and s_i permutes the idempotents, so
    no two images share a target.
    """
    if not 1 <= i <= ctx.n - 1:
        raise ValueError(f"tau_{i} is not a generator of H_{ctx.n}")
    out = {}
    for v, terms in module.items():
        s, t = v[i - 1], v[i]
        img = _apply_letter(ctx, s, t, i, terms)
        if img:
            out[v[: i - 1] + (t, s) + v[i + 1:]] = img
    return out


def tau_column(ctx: KLRContext, s, t, l: int, e) -> tuple:
    """tau_l applied to the monomial x^e at an idempotent with u_l = s and
    u_{l+1} = t, as (exponents, coefficient) pairs: d_l(x^e) when s == t,
    else x^e swapped at l times P_st(x_{l+1}, x_l).  Memoized in
    ``ctx._column_cache``; `_apply_letter` and `HeckeBridge.tau` read it."""
    key = (s, t, l, e)
    col = ctx._column_cache.get(key)
    if col is None:
        if s == t:
            sign, monomials = demazure_exponents(e, l)
            col = tuple((m, sign) for m in monomials)
        else:
            p = ctx.p_poly(s, t, l + 1, l).terms
            col = tuple(add_product({}, {swap_adjacent(e, l): 1}, p).items())
        ctx._column_cache[key] = col
    return col


# -- defining relations on a module --------------------------------------

# idempotents x monomials x n^2 x (max_deg + 1), read before any work.
# klr-relations on single at n = 20 (2.8M) and on a2 at n = 7 (3.0M) take
# 5-7s, demazure --n 4 --max-deg 20 (3.6M) 2.3s; a3 at n = 6 (8.8M) took
# 18s and demazure --n 5 --max-deg 30 (252M) over 60s (2 vCPU, Python 3.11)
_MAX_RELATION_COST = 4_000_000


def relation_cases(ctx: KLRContext, tau, max_deg: int) -> dict:
    """{row: lazy bools}, the relations of H_n on a module given by
    ``tau(i, module)`` on term dicts {idempotent: {exponents: coefficient}}
    without empty components, as ``apply_tau``.  A case is (v, p, letters),
    in that order, on x^p 1_v, deg p <= max_deg.  The right-hand sides read
    Q_st = (-1)^{d_st} (x_a - x_b)^{m_st} off ``ctx.quiver``, not ctx.q_poly,
    so a context whose Q-matrix is not the quiver's raises ValueError."""
    n, quiver = ctx.n, ctx.quiver
    # monomials without a parameter tail would drop any parameter of Q
    if (ctx.qmat.params, ctx.qmat.entries) != ((), QMatrix.from_quiver(quiver).entries):
        raise ValueError("the relation table needs the Q-matrix of the quiver")
    idems, monos = len(quiver.vertices) ** n, math.comb(n + max_deg, n)
    if (cost := idems * monos * n * n * (max_deg + 1)) > _MAX_RELATION_COST:
        raise ValueError(
            f"the relations on {idems} idempotents and {monos} monomials of degree at "
            f"most {max_deg} at n = {n} cost {cost}, above the limit {_MAX_RELATION_COST}"
        )
    monomials = list(exponent_tuples(n, max_deg))

    @functools.cache
    def q(s, t, a, b):
        if s == t:
            return MPoly.zero(n)
        diff = MPoly.x(a, n) - MPoly.x(b, n)
        return diff ** quiver.m(s, t) * (-1) ** quiver.d(s, t)

    def plus(mod, v, terms, p):  # mod + x^p terms at v
        out = dict(mod)
        out[v] = add_product(dict(mod.get(v, {})), terms, {p: 1})
        return out if out[v] else {u: t for u, t in out.items() if u != v}

    def x(a, mod):
        return {v: {e[: a - 1] + (e[a - 1] + 1,) + e[a:]: c for e, c in t.items()}
                for v, t in mod.items()}

    def quadratic(v, p, one):
        for i in range(1, n):
            yield tau(i, tau(i, one)) == plus({}, v, q(v[i - 1], v[i], i, i + 1).terms, p)

    def straightening(v, p, one):
        for i in range(1, n):
            image = tau(i, one)
            for a in range(1, n + 1):
                rhs = x(i + 1 if a == i else i if a == i + 1 else a, image)
                if v[i - 1] == v[i] and a in (i, i + 1):
                    rhs = plus(rhs, v, {(0,) * n: 1 if a == i + 1 else -1}, p)
                yield tau(i, x(a, one)) == rhs

    def commutation(v, p, one):
        pairs = ((i, j) for i in range(1, n) for j in range(i + 2, n))
        return (tau(i, tau(j, one)) == tau(j, tau(i, one)) for i, j in pairs)

    def braid(v, p, one):
        for i in range(1, n - 1):
            rhs = tau(i, tau(i + 1, tau(i, one)))
            if v[i - 1] == v[i + 1] != v[i]:
                num = q(v[i - 1], v[i], i + 2, i + 1) - q(v[i - 1], v[i], i, i + 1)
                rhs = plus(rhs, v, divide_exact_by_x_difference(num, i + 2, i).terms, p)
            yield tau(i + 1, tau(i, tau(i + 1, one))) == rhs

    def cases(row):
        for v in itertools.product(quiver.vertices, repeat=n):
            for p in monomials:
                yield from row(v, p, {v: {p: 1}})

    return {row.__name__: cases(row) for row in (quadratic, straightening, commutation, braid)}


# -- symbolic operators and PBW coordinates ------------------------------


def _delta(ctx: KLRContext, u) -> MPoly:
    """Delta_u = prod over a < b with u_a = u_b of (x_a - x_b)."""
    out = MPoly.one(ctx.n, ctx.params)
    for a, b in itertools.combinations(range(1, ctx.n + 1), 2):
        if u[a - 1] == u[b - 1]:
            out = out * (
                MPoly.x(a, ctx.n, ctx.params) - MPoly.x(b, ctx.n, ctx.params)
            )
    return out


class KLROperator(Combination):
    """Endomorphism of the polynomial module, one component per idempotent.

    The component at v is a finite sum sum_s (N_s / Delta_{s(v)}) s over
    permutations s, stored as ``terms[(v, s)] = N_s`` with polynomial
    numerators N_s.  The denominator Delta_u (see ``_expand_word``)
    depends only on the target labeling u = s(v), so numerators with the
    same (v, s) add and compare as plain polynomials.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: KLRContext, terms=None):
        self.ctx = ctx
        self.terms = {(tuple(v), s): f for (v, s), f in (terms or {}).items() if f}

    def _like(self, terms) -> "KLROperator":
        op = KLROperator(self.ctx)
        op.terms = terms
        return op

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("operators of different algebra contexts")


def _expand_word(ctx: KLRContext, w: Permutation, v) -> dict:
    """tau_w 1_v as sum_s (N_s / Delta_u) s on rational functions.

    Returns {s: N_s}.  Every s has the same target labeling u = s(v) =
    w(v), and Delta_u = prod_{a < b, u_a = u_b} (x_a - x_b) is the one
    denominator: a letter s_l with u_l != u_{l+1} maps Delta_u to
    Delta_{s_l u}, and one with u_l = u_{l+1} maps Delta_u to -Delta_u.
    The letters of the canonical word act right to left on numerators,
    starting from {id: Delta_v}:

    - u_l != u_{l+1}: tau_l = P_{u_l u_{l+1}}(x_{l+1}, x_l) s_l, so
      N_{s_l s} = P s_l(N_s);
    - u_l = u_{l+1}: tau_l = (x_l - x_{l+1})^{-1} (s_l - 1), so the
      contributions -s_l(N_s) to s_l s and -N_s to s are summed per
      target and each sum is divided by x_l - x_{l+1}.

    That every numerator stays a polynomial is the invariant: a division
    that is not exact raises ArithmeticError (only the sums divide; the
    single contributions do not, first at the word (1, 2, 1)).  Each
    word extends the memoized expansion of the word one letter shorter,
    in ``ctx._expand_cache[v]`` under its letters; ``pbw_leading_terms``
    drops v's expansions once v is certified.
    """
    return _expand_letters(ctx, w.canonical_word(), v)


def _expand_letters(ctx: KLRContext, word, v) -> dict:
    cache = ctx._expand_cache.setdefault(v, {})
    out = cache.get(word)
    if out is not None:
        return out
    if not word:
        out = {Permutation.identity(ctx.n): _delta(ctx, v)}
    else:
        l, rest = word[0], word[1:]
        u = list(v)
        for k in reversed(rest):
            u[k - 1], u[k] = u[k], u[k - 1]
        prev = _expand_letters(ctx, rest, v)
        sl = Permutation.simple(l, ctx.n)
        out = {}
        if u[l - 1] != u[l]:
            p = ctx.p_poly(u[l - 1], u[l], l + 1, l)
            for s, num in prev.items():
                out[sl * s] = p * num.act_simple(l)
        else:
            for s, num in prev.items():
                bump(out, sl * s, -num.act_simple(l))
                bump(out, s, -num)
            out = {
                s: divide_exact_by_x_difference(num, l, l + 1)
                for s, num in out.items()
            }
    cache[word] = out
    return out


def represent(el: KLRElement) -> KLROperator:
    """The element as an operator on the polynomial module (faithful):
    tau_w x^a 1_v contributes N_s s(x^a) to the numerator at s."""
    ctx = el.ctx
    terms = {}
    for (v, w, a), c in el.terms.items():
        mono = MPoly(ctx.n, ctx.params, {tuple(a): c})
        for s, num in _expand_word(ctx, w, v).items():
            bump(terms, (v, s), num * mono.act(s))
    return KLROperator(ctx, terms)


def pbw_leading_terms(ctx: KLRContext, v) -> bool:
    """Certify that the PBW words tau_w x^a 1_v with source v, over every
    permutation w and every exponent vector a, act linearly
    independently on the polynomial module.

    ``_expand_word`` writes tau_w 1_v = sum_s (N_s / Delta_u) s over
    rational functions, u = w(v).  The certificate checks, for each w,
    that N_w != 0 and that every other s in the sum is shorter than w.

    Why that is a proof: suppose sum_{w,a} c_{w,a} tau_w x^a 1_v acted as
    zero, and take a longest w with P_w = sum_a c_{w,a} x^a != 0.  Those
    terms act as sum_s (N_s / Delta_u) s(P_w) s, and every other word
    with P_{w'} != 0 is no longer than w, so none of its s equals w.  The
    coefficient of the automorphism w in the whole sum is therefore
    N_w w(P_w) / Delta_u != 0.  Distinct field automorphisms are linearly
    independent (Dedekind), so the sum is nonzero on rational functions,
    hence on polynomials: a rational function is a polynomial over a
    symmetric denominator, which every s fixes.  ``pbw_coordinates``
    inverts ``represent`` by the same triangularity.
    """
    v = ctx.check_idempotent(v)
    lengths = {w: w.length() for w in Permutation.all(ctx.n)}
    certified = True
    for w, length in lengths.items():
        comp = _expand_word(ctx, w, v)
        if not comp.get(w) or any(s != w and lengths[s] >= length for s in comp):
            certified = False
            break
    ctx._expand_cache.pop(v, None)  # n! expansions; pbw_coordinates rebuilds its leads
    return certified


def pbw_coordinates(op: KLROperator) -> KLRElement:
    """Invert represent() by triangular elimination on permutation length.

    The longest sigma left in the residual at v carries the numerator
    N_sigma sigma(P) of the words tau_sigma P 1_v, over the same
    denominator as the lead N_sigma of tau_sigma 1_v, so sigma(P) is one
    exact polynomial division.  Raises ArithmeticError if the operator
    is not in the image (a lead does not divide its residual, or a
    residual survives) or a coordinate is not an integer polynomial.
    """
    ctx = op.ctx
    out = KLRElement.zero(ctx)
    residuals = {}
    for (v, s), f in op.terms.items():
        residuals.setdefault(v, {})[s] = f
    for v, residual in residuals.items():
        while residual:
            # longest permutations first: expansions are triangular in length
            sigma = max(residual, key=Permutation.length_key)
            lead = _expand_word(ctx, sigma, v)[sigma]
            piece_terms = {}
            for exps, cm in divide_exact(residual[sigma], lead).terms.items():
                if isinstance(cm, Fraction):
                    raise ArithmeticError(f"non-integer PBW coordinate {cm}")
                a = tuple(exps[sigma(j) - 1] for j in range(1, ctx.n + 1))
                a = a + tuple(exps[ctx.n:])
                piece_terms[(v, sigma, a)] = cm
            piece = KLRElement(ctx, piece_terms)
            out = out + piece
            for (_, s), g in represent(piece).terms.items():
                bump(residual, s, -g)
            if sigma in residual:
                raise ArithmeticError("operator is not in the image of represent")
    return out


# -- graded dimensions of Hom spaces -------------------------------------

# the words tau_w 1_v, w in S_n, over the source idempotents v, read before
# any work.  verify grdim on a2 at n = 6 (46,080 words), a3 at n = 5
# (29,160) and single at n = 8 (40,320) takes 1.3-3.1s; with a scan of all
# of S_n, a2 at n = 7 (645,120) took 71s and single at n = 9 (362,880) 28s
# (2 vCPU, Python 3.11)
_MAX_GRDIM_WORDS = 50_000


def check_grdim_size(ctx: KLRContext, sources: int, blocks):
    """Raise ValueError if the graded dimensions from ``sources`` source
    idempotents, each carried by prod_b b! permutations over ``blocks``,
    range over more than _MAX_GRDIM_WORDS words tau_w 1_v."""
    if (words := sources * math.prod(map(math.factorial, blocks))) > _MAX_GRDIM_WORDS:
        count = " x ".join([str(sources)] + [f"{b}!" for b in blocks])
        raise ValueError(
            f"graded dimensions at n = {ctx.n} range over {count} = "
            f"{words} words tau_w 1_v, above the limit {_MAX_GRDIM_WORDS}"
        )


def hom_graded_dimension(ctx: KLRContext, v, vp) -> Laurent:
    """grdim of the free factor of 1_{v'} H 1_v, by PBW enumeration.

    The variable is q^{1/2}: each basis word tau_w contributes its word
    degree and the polynomial tensor factor is omitted.  The w that carry
    v to v' are built from one bijection per vertex, from its positions
    in v to its positions in v'.
    """
    v = ctx.check_idempotent(v)
    vp = ctx.check_idempotent(vp)
    if sorted(v) != sorted(vp):
        return Laurent.zero()
    verts = sorted(set(v))
    sources = [k for s in verts for k in range(ctx.n) if v[k] == s]
    targets = [[k + 1 for k in range(ctx.n) if vp[k] == s] for s in verts]
    out = Laurent.zero()
    for images in itertools.product(*map(itertools.permutations, targets)):
        w = Permutation(j for _, j in sorted(zip(sources, itertools.chain(*images))))
        out = out + Laurent.gen(ctx.word_degree(w, v))
    return out


def hom_graded_dimension_closed(ctx: KLRContext, v, vp) -> Laurent:
    """grdim of the free factor of 1_{v'} H 1_v in closed form: an
    inversion count over the tuples of bijections, one per vertex, from
    its positions in v to its positions in v'.  The strands from
    positions a < b cross when their targets come in the opposite order,
    and each crossing has degree -a_{v_a v_b}, read from ``quiver.cartan``.
    No word is built, so the PBW enumeration is an independent oracle.
    """
    v = ctx.check_idempotent(v)
    vp = ctx.check_idempotent(vp)
    if sorted(v) != sorted(vp):
        return Laurent.zero()
    n = ctx.n
    verts = sorted(set(v))
    sources = [a for s in verts for a in range(n) if v[a] == s]
    targets = [[b for b in range(n) if vp[b] == s] for s in verts]
    cartan = ctx.quiver.cartan
    pairs = [(a, b, -cartan(v[a], v[b])) for a in range(n) for b in range(a + 1, n)]
    degrees = Counter()
    target = [0] * n
    for images in itertools.product(*map(itertools.permutations, targets)):
        for a, t in zip(sources, itertools.chain(*images)):
            target[a] = t
        degrees[sum(d for a, b, d in pairs if target[a] > target[b])] += 1
    return Laurent(degrees)


# -- torsion between the two presentations -------------------------------
#
# The larger presentation (without the deformed braid relation) maps onto
# the algebra with kernel made of polynomial torsion.  The rewriter below
# only uses moves valid in the larger presentation: x-straightening,
# quadratic pairs, commutation, and braid moves at idempotents where the
# braid relation holds on the nose.  x-straightening is the product's push.


def _prime_reduce(ctx: KLRContext, word, v) -> dict:
    """Sound reduction of tau_word 1_v; result maps (word', exps) to coeffs.

    Irreducible words are kept as formal basis elements: no completeness
    is claimed, every applied move is an identity in the larger
    presentation.
    """
    word = tuple(word)
    n = ctx.n
    # quadratic pairs
    for p in range(len(word) - 1):
        if word[p] == word[p + 1]:
            l = word[p]
            right = word[p + 2:]
            u = Permutation.from_word(right, n).act_on_list(v)
            vi, vj = u[l - 1], u[l]
            if vi == vj:
                return {}
            qp = ctx.q_poly(vi, vj, l, l + 1)
            return _prime_reduce_terms(ctx, word[:p], _push_poly(ctx, qp, right, v), v)
    # commutation: sort far-apart letters ascending to expose pairs
    for p in range(len(word) - 1):
        if abs(word[p] - word[p + 1]) > 1 and word[p] > word[p + 1]:
            swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2:]
            return _prime_reduce(ctx, swapped, v)
    # braid moves, only where they are exact and create a quadratic pair
    for p in range(len(word) - 2):
        c1, c2, c3 = word[p], word[p + 1], word[p + 2]
        if c1 == c3 and abs(c1 - c2) == 1:
            a = min(c1, c2)
            u = Permutation.from_word(word[p + 3:], n).act_on_list(v)
            sound = u[a - 1] != u[a + 1] or u[a - 1] == u[a]
            if not sound:
                continue
            new = word[:p] + (c2, c1, c2) + word[p + 3:]
            creates = (p > 0 and word[p - 1] == c2) or (
                p + 3 < len(word) and word[p + 3] == c2
            )
            if creates:
                return _prime_reduce(ctx, new, v)
    return {(word, ctx.zero_exps()): 1}


def _prime_reduce_terms(ctx: KLRContext, prefix, terms, v) -> dict:
    """Sound reduction of the formal terms {(word, exps): coeff}, each read
    as tau_{prefix + word} 1_v times x^exps: ``_prime_reduce`` of
    prefix + word, shifted by exps."""
    out = {}
    for (word, exps), c in terms.items():
        for (w2, e2), c2 in _prime_reduce(ctx, prefix + word, v).items():
            bump(out, (w2, tuple(a + b for a, b in zip(e2, exps))), c * c2)
    return out


def torsion_check(ctx: KLRContext, v, i: int = 1) -> MPoly:
    """Verify the torsion statement behind the deformed braid relation.

    For v with v_i = v_{i+2} != v_{i+1}, the discrepancy
    a = tau_{i+1} tau_i tau_{i+1} - tau_i tau_{i+1} tau_i - correction
    need not vanish in the larger presentation, but tau_i * a does, hence
    Q_{v_i,v_{i+1}}(x_i, x_{i+1}) * a = 0.  Both facts are checked using
    only sound moves; the multiplier polynomial is returned, and a failed
    check raises ArithmeticError.  Any other v or i raises ValueError.
    """
    v = ctx.check_idempotent(v)
    if not 1 <= i <= ctx.n - 2 or not v[i - 1] == v[i + 1] != v[i]:
        raise ValueError(
            f"torsion_check needs v_i = v_(i+2) != v_(i+1) at i = {i}: {v}"
        )
    vi, vj = v[i - 1], v[i]
    corr = ctx.braid_correction(vi, vj, i)
    # the discrepancy as formal (word, exps) terms at source v
    disc = {
        ((i + 1, i, i + 1), ctx.zero_exps()): 1,
        ((i, i + 1, i), ctx.zero_exps()): -1,
    }
    for exps, c in corr.terms.items():
        bump(disc, ((), tuple(exps)), -c)
    # the discrepancy itself does not reduce away: the torsion is genuine
    if not _prime_reduce_terms(ctx, (), disc, v):
        raise ArithmeticError("discrepancy reduced to zero without the extra relation")
    # tau_i * a = 0 using sound moves only
    if _prime_reduce_terms(ctx, (i,), disc, v):
        raise ArithmeticError("tau * discrepancy did not reduce to zero")
    # the quadratic pair tau_i tau_i at the source v is exactly the
    # multiplier, so multiplier * a = tau tau a = 0
    mult = ctx.q_poly(vi, vj, i, i + 1)
    pair = _prime_reduce(ctx, (i, i), v)
    pair_poly = MPoly(
        ctx.n, ctx.params, {exps: c for (wrd, exps), c in pair.items() if not wrd}
    )
    if any(wrd for wrd, _ in pair) or pair_poly != mult:
        raise ArithmeticError("tau_i tau_i 1_v is not the multiplier")
    return mult


# -- central multiples inside two-sided ideals ---------------------------


def _orbit(v):
    return sorted(set(itertools.permutations(v)))


def _vectorize(el: KLRElement, index: dict):
    """Coefficients of el on real columns (0, k), numbering new keys."""
    vec = {}
    for key, c in el.terms.items():
        if key not in index:
            index[key] = len(index)
        vec[(0, index[key])] = c
    return vec


def _symmetric_candidates(ctx: KLRContext, orbit, max_deg: int):
    """Elements P * id over the orbit, P symmetric per vertex group.

    P runs over monomials in the elementary symmetric polynomials of each
    vertex's variable group, with x-degree bounded by max_deg; each
    candidate is returned with a label and its element.
    """
    base = orbit[0]
    verts = sorted(set(base))
    counts = {s: base.count(s) for s in verts}
    # exponent patterns: for each vertex s, exponents of e_1..e_{n_s}
    pattern_vars = []
    for s in verts:
        pattern_vars.extend((s, r) for r in range(1, counts[s] + 1))
    max_each = [max_deg // r for (_, r) in pattern_vars]
    out = []
    for exps in itertools.product(*(range(m + 1) for m in max_each)):
        deg = sum(e * r for e, (_, r) in zip(exps, pattern_vars))
        if deg == 0 or deg > max_deg:
            continue
        el = KLRElement.zero(ctx)
        for mu in orbit:
            poly = MPoly.one(ctx.n, ctx.params)
            positions = {
                s: [k for k in range(1, ctx.n + 1) if mu[k - 1] == s]
                for s in verts
            }
            for e, (s, r) in zip(exps, pattern_vars):
                if e:
                    poly = poly * elementary_symmetric(
                        r, ctx.n, ctx.params, positions[s]
                    ) ** e
            el = el + _lmul_poly(ctx, poly, KLRElement.idempotent(ctx, mu))
        label = tuple(
            (s, r, e) for e, (s, r) in zip(exps, pattern_vars) if e
        )
        out.append((label, el))
    out.sort(key=lambda pair: (max(sum(a) for (_, _, a) in pair[1].terms), pair[0]))
    return out


def central_ideal_probe(ctx: KLRContext, v, gens, max_deg: int = 4):
    """Search for a symmetric polynomial multiple of the identity in an ideal.

    gens are elements of the idempotent-truncated algebra over the orbit
    of v.  Bounded products word * g * word are formed; if some rational
    combination equals a nonzero symmetric candidate P * id, the pair
    (P at the base idempotent, candidate label) is returned.  Returns
    None when the bounded search finds nothing (inconclusive).
    """
    v = ctx.check_idempotent(v)
    orbit = _orbit(v)
    n = ctx.n
    # bounded basis words of the truncated algebra
    words = []
    for mu in orbit:
        for w in Permutation.all(n):
            for exps in itertools.product(
                *(range(max_deg // 2 + 1) for _ in range(n))
            ):
                if 2 * sum(exps) > max_deg:
                    continue
                words.append(KLRElement.basis_word(ctx, mu, w, exps))
    members = []
    for g in gens:
        for left in words:
            lg = left * g
            if lg.is_zero():
                continue
            for right in words:
                prod = lg * right
                if prod.is_zero():
                    continue
                if any(2 * sum(a) > 2 * max_deg for (_, _, a) in prod.terms):
                    continue
                members.append(prod)
    candidates = _symmetric_candidates(ctx, orbit, max_deg)
    if not members or not candidates:
        return None
    # members span the ideal slice; each candidate carries a tag column
    # (1, idx) sorting after every real column (0, k), so a candidate
    # whose real part reduces away leaves the combination in its tags
    index = {}
    echelon = Echelon()
    for m in members:
        echelon.insert(_vectorize(m, index))
    for idx, (_, el) in enumerate(candidates):
        vec = _vectorize(el, index)
        vec[(1, idx)] = 1
        vec = echelon.insert(vec)
        if min(vec)[0] == 0:
            continue
        scale = math.lcm(*(c.denominator for c in vec.values()))
        poly = MPoly.zero(ctx.n, ctx.params)
        labels = []
        for (_, k), c in sorted(vec.items()):
            label_k, el_k = candidates[k]
            coeff = int(c * scale)
            base = _candidate_base_polynomial(ctx, orbit[0], el_k)
            poly = poly + base.scale(coeff)
            labels.append((label_k, coeff))
        return poly, tuple(labels)
    return None


def _candidate_base_polynomial(ctx: KLRContext, base, el: KLRElement) -> MPoly:
    poly = MPoly.zero(ctx.n, ctx.params)
    ident = Permutation.identity(ctx.n)
    for (mu, w, a), c in el.terms.items():
        if mu == base:
            if w != ident:
                raise ArithmeticError(f"candidate term at {base} has tau-word {w}, not 1")
            poly = poly + MPoly(ctx.n, ctx.params, {tuple(a): c})
    return poly
