"""
Cyclotomic quotients of the nil affine Hecke algebra (the single-vertex,
sl2 case) and a small brute-force quotient for general quivers.

For a single vertex with highest weight n, the cyclotomic algebra C_i(n)
is the nil affine Hecke algebra on i strands over Z[z_1..z_n], modulo
the left ideal generated by

    g = x_1^n + z_1 x_1^{n-1} + ... + z_n.

Repeatedly applying -d_j to g produces reduction elements r_1 = g and
r_{j+1} = -d_j(r_j), all inside the left ideal.  r_j involves only
x_1..x_j and carries the monomial x_j^{n-j+1} with coefficient 1; every
other monomial has strictly smaller x_j exponent.  Rewriting with these
pivots terminates and puts the polynomial module into the span of the
monomials x^a with a_j <= n-j, a free Z[z]-module of rank n!/(n-i)!, so
each monomial has one normal form (`CycloContext._normal`, memoized per
context).  The algebra acts faithfully there, so exhibiting
i! * n!/(n-i)! many independent operators x^a T_w certifies the rank of
C_i(n).  Their independence is checked modulo a prime at integer z: the
columns of x^a and of T_w are normal forms of monomials and of
`nilhecke._d_column`, and each operator is flattened into one row of a
sparse elimination (`spanning_rank`).

For i > n the chain reaches the constant r_{n+1} = 1, so the quotient
vanishes.

The classical shadow: C_i(n) is isomorphic to the subalgebra of the nil
affine Hecke algebra on n strands generated by T_1..T_{i-1}, X_1..X_i
and the symmetric polynomials, via z_l -> (-1)^l e_l(x_1..x_n).
"""

from __future__ import annotations

import itertools
from math import factorial, perm
from operator import add

from .coxeter import length_order, poincare_polynomial
from .fock import all_partitions, residue_content
from .laurent import Laurent, q_binomial, q_factorial
from .linalg import PRIME, Echelon, add_column, rank_mod_p
from .nilhecke import NilHeckeElement, _d_column
from .polyring import MPoly, elementary_symmetric, exponent_tuples


# -- the single-vertex (sl2) quotient -------------------------------------


def highest_weight_params(n: int) -> tuple:
    """Parameter names z_1..z_n of the coefficient ring."""
    return tuple(f"z{l}" for l in range(1, n + 1))


def cyclotomic_polynomial(n: int, i: int, z_values=None) -> MPoly:
    """g = x_1^n + z_1 x_1^{n-1} + ... + z_n in i variables.

    With ``z_values`` the parameters are specialized to integers and the
    result has no parameter tail.
    """
    if n < 0 or i < 1:
        raise ValueError(f"g needs n >= 0 and i >= 1, got n = {n}, i = {i}")
    if z_values is not None and len(z_values) != n:
        raise ValueError(f"g of level {n} needs {n} z_values, got {len(z_values)}")
    params = highest_weight_params(n) if z_values is None else ()
    terms = {}
    for l in range(n + 1):
        e = [0] * (i + len(params))
        e[0] = n - l
        if l and z_values is None:
            e[i + l - 1] = 1  # the parameter z_l
        terms[tuple(e)] = z_values[l - 1] if l and z_values is not None else 1
    return MPoly(i, params, terms)


class CycloContext:
    """Reduction data for C_i(n) acting on its polynomial module.

    ``z_values`` switches to a specialization of the parameters at
    integers (z_values = all zeros is the reduced algebra).
    """

    def __init__(self, n: int, i: int, z_values=None):
        if n < 0 or i < 0:
            raise ValueError(f"C_i(n) needs n, i >= 0, got n = {n}, i = {i}")
        if z_values is not None and len(z_values) != n:
            raise ValueError(f"C_i({n}) needs {n} z_values, got {len(z_values)}")
        self.n = n
        self.i = i
        self.z_values = None if z_values is None else tuple(z_values)
        self.params = highest_weight_params(n) if z_values is None else ()
        self.is_zero_algebra = i > n
        self._memo = {}  # exponents -> the pairs of `_normal`
        # reduction elements r_1..r_jmax; r_j pivots on x_j^{n-j+1}
        self.rules = []
        jmax = min(i, n + 1)
        if jmax >= 1:
            r = cyclotomic_polynomial(n, i, self.z_values)
            self.rules.append(r)
            for j in range(1, jmax):
                r = -r.demazure(j)
                self.rules.append(r)
        if i > n and self.rules[n] != MPoly.one(i, self.params):
            raise ArithmeticError(
                f"the reduction chain of C_{i}({n}) does not reach 1 at r_{n + 1}"
            )

    def module_basis(self):
        """In-bounds monomial exponents a with a_j <= n-j, sorted."""
        if self.is_zero_algebra:
            return []
        ranges = [range(self.n - j + 1) for j in range(1, self.i + 1)]
        return sorted(itertools.product(*ranges))

    def _normal(self, e):
        """The normal form of the monomial x^e, as (exponents, coefficient)
        pairs, memoized.  At the largest j with e_j > n-j, x^e = x^f
        x_j^{n-j+1} becomes x^f (x_j^{n-j+1} - r_j), whose monomials keep
        the exponents above j and have a smaller x_j exponent; a work stack,
        not recursion, reduces those first, whatever the depth of the rewrite."""
        if e in self._memo:
            return self._memo[e]
        memo, stack = self._memo, [(e, None)]
        while stack:
            top, steps = stack.pop()
            if steps is not None:  # its monomials are reduced by now
                out = {}
                for g, c in steps:
                    add_column(out, memo[g], -c)
                memo[top] = tuple(out.items())
                continue
            if top in memo:  # pushed twice before its first reduction
                continue
            for j in range(len(self.rules), 0, -1):
                if top[j - 1] > self.n - j:
                    break
            else:
                memo[top] = ((top, 1),)
                continue
            f = top[: j - 1] + (top[j - 1] - self.n + j - 1,) + top[j:]
            steps = [(tuple(map(add, f, g)), c) for g, c in self.rules[j - 1].terms.items()]
            steps = [(g, c) for g, c in steps if g != top]
            stack.append((top, steps))
            stack += [(g, None) for g, _ in steps if g not in memo]
        return memo[e]

    def reduce(self, p: MPoly) -> MPoly:
        """Normal form of p modulo the left-ideal submodule."""
        if p.nx != self.i or p.params != self.params:
            raise ValueError(
                f"C_{self.i}({self.n}) reduces in {self.i} variables over {self.params}"
            )
        out = {}
        for e, c in p.terms.items():
            add_column(out, self._normal(e), c)
        return p._like(out)

    def spanning_set(self):
        """Pairs (exponents, permutation) of the spanning operators."""
        if self.is_zero_algebra:
            return []
        return [(a, w) for w in length_order(self.i) for a in self.module_basis()]


def cyclotomic_basis(n: int, i: int):
    """The spanning set x^a T_w (a_j <= n-j) of C_i(n), as elements of
    the nil affine Hecke algebra over Z[z_1..z_n].

    Empty when i > n (the zero algebra); {1} when i = 0.
    """
    ctx = CycloContext(n, i)
    out = []
    for a, w in ctx.spanning_set():
        poly = MPoly(i, ctx.params, {tuple(a) + (0,) * n: 1})
        out.append(NilHeckeElement(i, {w: poly}, ctx.params))
    return out


# -- rank certification by action on the module ---------------------------


def _action_rows(ctx: CycloContext):
    """The spanning operators x^a T_w, in spanning_set order, each
    flattened into one sparse row {key: value}; an iterator.  The column
    of x^a on x^b is the normal form of x^{a+b}, that of T_w on x^c the
    normal form of d_w(x^c) (`nilhecke._d_column`), both modulo PRIME.
    The rows are summed straight from those columns: composing x^a with
    T_w first and then flattening takes 1.5-2 times as long.

    The entry at (r, c), for basis monomials of total degrees deg r and
    deg c, gets the key ((top + deg c - deg r) d + r) d + c, where d is
    the module rank and top the largest degree: the entries that raise
    the degree most come first.  At z = 0 every operator is homogeneous;
    at other z each row's lead, its smallest key, lies in its top
    homogeneous part, so the elimination makes little fill-in.
    """
    if ctx.z_values is None:
        raise ValueError("action rows need integer z_values, not parameters")
    basis = ctx.module_basis()
    d = len(basis)
    index = {a: r for r, a in enumerate(basis)}

    def column(pairs):
        out = {}
        for e, c in pairs:
            add_column(out, ctx._normal(e), c)
        return {index[e]: c % PRIME for e, c in out.items() if c % PRIME}

    xcols = {a: [column(((tuple(map(add, a, b)), 1),)) for b in basis] for a in basis}
    degs = [sum(a) for a in basis]
    top = max(degs)
    row_key = [(top - deg) * d * d + r * d for r, deg in enumerate(degs)]
    col_key = [deg * d * d + c for c, deg in enumerate(degs)]
    for w in length_order(ctx.i):
        word = w.canonical_word()
        tcols = [column(_d_column(word, c)) for c in basis]
        for a in basis:
            left, row = xcols[a], {}
            for c, col in enumerate(tcols):
                ck = col_key[c]
                for k, t in col.items():
                    for r, x in left[k].items():
                        key = row_key[r] + ck
                        row[key] = row.get(key, 0) + x * t
            yield row


# the cost follows the module rank more than the operator count: C_5(5)
# takes 4.1-5.9 s CPU at a random z (2-vCPU x86_64, Python 3.11), and
# C_2(16) (480 operators, rank 240) took 16 s, 1.2 GB on an earlier engine
_MAX_MODULE_RANK = 120


def spanning_rank(n: int, i: int, z_values) -> int:
    """Rank of the spanning operators of C_i(n) at a z-specialization, by
    sparse elimination of their rows modulo PRIME.  Raises ValueError, before
    building anything, when the module rank is above _MAX_MODULE_RANK."""
    d = perm(n, i) if 0 <= i <= n else 0
    if d > _MAX_MODULE_RANK:
        raise ValueError(
            f"C_{i}({n}) acts on a module of rank {d}, "
            f"above the limit of {_MAX_MODULE_RANK}"
        )
    ctx = CycloContext(n, i, z_values=z_values)
    if ctx.is_zero_algebra:
        return 0
    return rank_mod_p(_action_rows(ctx))


def expected_rank(n: int, i: int) -> int:
    """i! * n!/(n-i)! for i <= n, else 0."""
    if i > n:
        return 0
    return factorial(i) * factorial(n) // factorial(n - i)


def verify_rank(n: int, i: int, ranks=None) -> int:
    """Certify that C_i(n) is free over Z[z] of rank i! * n!/(n-i)!.

    Checks the rank of the spanning operators at z = 0 (the reduced
    algebra).  The specialized rank is a lower bound for the generic rank
    and the spanning-set size is an upper bound, so the z = 0 rank alone
    is a proof.  No random specialization is drawn, so ``--seed`` does
    not change what ``verify cyclotomic`` computes.  ``ranks``, a dict
    the caller owns, memoizes spanning_rank by ``(n, i)`` across calls.
    Raises ArithmeticError on a mismatch, and ValueError past the size
    limit of spanning_rank.
    """
    expected = expected_rank(n, i)
    ranks = {} if ranks is None else ranks
    if (n, i) not in ranks:
        ranks[n, i] = spanning_rank(n, i, (0,) * n)
    if ranks[n, i] != expected:
        raise ArithmeticError(
            f"C_{i}({n}) at z = 0 has rank {ranks[n, i]}, expected {expected}"
        )
    return expected


# -- the classical-subalgebra isomorphism ---------------------------------


def graded_rank_polynomial(n: int, i: int) -> Laurent:
    """Graded rank of C_i(n) over Z[z]: v^{i(n-i)} [i]!^2 [n choose i],
    with deg X = 2.  Its value at 1 is i! * n!/(n-i)!."""
    return Laurent.gen(i * (n - i)) * q_factorial(i) ** 2 * q_binomial(n, i)


def sl2_iso_check(n: int, i: int, ranks=None) -> bool:
    """Check the identification of C_i(n) with the subalgebra of the nil
    affine Hecke algebra on n strands generated by T_1..T_{i-1},
    X_1..X_i and the symmetric polynomials (z_l -> (-1)^l e_l).

    Verifies that the cyclotomic relation maps to zero, that the tail
    elementary symmetrics e_l(x_{i+1}..x_n) lie in the image, and that
    the ranks over the two (identified) central polynomial rings match,
    both as numbers and as graded series.  ``ranks`` is passed on to
    verify_rank.
    """
    if not 0 <= i <= n:
        raise ValueError(f"the sl2 isomorphism needs 0 <= i <= n, got n = {n}, i = {i}")
    if n == 0:
        return verify_rank(0, 0, ranks=ranks) == 1
    # the defining relation maps to the vanishing alternating sum
    nx = n
    lhs = MPoly.zero(nx)
    for l in range(n + 1):
        e = [0] * nx
        e[0] = n - l
        mono = MPoly(nx, (), {tuple(e): 1})
        sign = 1 if l % 2 == 0 else -1
        lhs = lhs + mono * elementary_symmetric(l, nx) * sign
    if not lhs.is_zero():
        raise ArithmeticError(f"the cyclotomic relation of C_{i}({n}) does not vanish")
    # the image generates the tail symmetric polynomials: triangular
    # extraction of e_l(x_{i+1}..x_n) from e_l(x_1..x_n) and x_1..x_i
    head = list(range(1, i + 1))
    tail = list(range(i + 1, n + 1))
    extracted = {0: MPoly.one(nx)}
    for l in range(1, n - i + 1):
        val = elementary_symmetric(l, nx)
        for k in range(1, l + 1):
            val = val - elementary_symmetric(k, nx, variables=head) * extracted[l - k]
        extracted[l] = val
        if val != elementary_symmetric(l, nx, variables=tail):
            raise ArithmeticError(
                f"tail extraction of e_{l}(x_{i + 1}..x_{n}) failed for C_{i}({n})"
            )
    # ranks match: the certified cyclotomic rank equals the graded rank
    # of the subalgebra
    expected = verify_rank(n, i, ranks=ranks)
    rank_poly = graded_rank_polynomial(n, i)
    if rank_poly.substitute(1) != expected:
        raise ArithmeticError(
            f"graded rank of C_{i}({n}) at q = 1 is {rank_poly.substitute(1)}, "
            f"expected {expected}"
        )
    # the graded ranks agree as series: rank * prod_{k<=n} 1/(1 - v^{2k})
    # = poincare_i(v^-2) / (1 - v^2)^i * prod_{k<=n-i} 1/(1 - v^{2k}),
    # here with the units cleared, an identity in every degree
    left = rank_poly
    right = Laurent({-2 * k: c for k, c in poincare_polynomial(i).terms.items()})
    for k in range(n - i + 1, n + 1):
        left = left * Laurent({0: 1, 2: -1})
        right = right * Laurent({0: 1, 2 * k: -1})
    if left != right:
        raise ArithmeticError(f"the graded ranks of C_{i}({n}) disagree")
    return True


# -- dimension ledger for the minimal sl2 categorification ----------------


def minimal_sl2_dimension_ledger(n: int):
    """Per weight n-2i: the simple dimension i!, the induction and
    restriction multipliers, and the commutator defect per unit of
    dimension, which must equal the weight."""
    if n < 0:
        raise ValueError(f"the ledger needs n >= 0, got {n}")
    rows = []
    for i in range(n + 1):
        ef = (i + 1) * (n - i)
        fe = i * (n - i + 1)
        row = {
            "strands": i,
            "weight": n - 2 * i,
            "simple_dim": factorial(i),
            "rank": expected_rank(n, i),
            "ef": ef,
            "fe": fe,
            "defect": ef - fe,
        }
        assert row["defect"] == row["weight"]
        if i < n:
            assert expected_rank(n, i + 1) == ef * expected_rank(n, i)
        rows.append(row)
    return rows


def weight_space_dims_fock_check(p: int, n: int):
    """Partitions of n grouped by residue content modulo p.

    Returns rows {"content": [...], "partitions": [...], "dim": k}
    sorted by content; the contents are the weights of the layer and
    the dims compare with block decompositions.
    """
    if p < 1 or n < 0:
        raise ValueError(f"residues need p >= 1 and n >= 0, got p = {p}, n = {n}")
    groups = {}
    for parts in all_partitions(n):
        groups.setdefault(residue_content(parts, p), []).append(parts)
    rows = []
    for content in sorted(groups):
        members = sorted(groups[content], reverse=True)
        rows.append(
            {
                "content": list(content),
                "partitions": [list(x) for x in members],
                "dim": len(members),
            }
        )
    return rows


# -- ideal stability -------------------------------------------------------


def ideal_stability_check(n: int, i: int, rng, trials: int = 20) -> bool:
    """Left multiples of the cyclotomic generator reduce to zero.

    For random a in the nil affine Hecke algebra and random module
    monomials f, the action of a*g on f lands in the submodule, so its
    normal form vanishes.  This is the well-definedness of the quotient
    action.  Returns True, or raises ArithmeticError.
    """
    if i < 1:
        raise ValueError(f"ideal stability needs i >= 1 strands, got {i}")
    ctx = CycloContext(n, i)
    params = ctx.params
    g = NilHeckeElement.from_poly(cyclotomic_polynomial(n, i))
    perms = length_order(i)
    for _ in range(trials):
        w = perms[rng.randrange(len(perms))]
        exps = [rng.randrange(3) for _ in range(i)] + [
            rng.randrange(2) for _ in range(len(params))
        ]
        coeff = MPoly(i, params, {tuple(exps): rng.randint(-3, 3)})
        a = NilHeckeElement(i, {w: coeff}, params)
        h = a * g
        f_exps = tuple(rng.randrange(n + 1) for _ in range(i)) + (0,) * len(
            params
        )
        f = MPoly(i, params, {f_exps: 1})
        if not ctx.reduce(h.apply_to_polynomial(f)).is_zero():
            raise ArithmeticError(f"a * g does not reduce to zero on {f}")
    if len(ctx.reduce(MPoly.one(i, params)).terms) != (
        0 if ctx.is_zero_algebra else 1
    ):
        raise ArithmeticError("the unit does not reduce to one term")
    return True


# -- brute-force graded dimensions for general quivers --------------------


def reduced_cyclotomic_graded_dims(ctx, weights: dict, degree_cap: int):
    """Graded dimensions of the reduced cyclotomic quotient of a quiver
    Hecke algebra, by linear algebra in bounded degree.

    ``ctx`` is a KLR context, ``weights`` maps vertices to nonnegative
    integers n_v.  The quotient is by the two-sided ideal generated by
    x_1^{n_{v_1}} 1_v for all idempotents v.  Returns {degree: dim} for
    degrees up to ``degree_cap``.  Only small sizes are supported.
    """
    from .klr import KLRElement, _lmul_poly, _lmul_tau

    if ctx.params:
        raise ValueError(f"the KLR context has parameters {ctx.params}")
    n = ctx.n
    if n > 2 or degree_cap > 12:
        raise ValueError("unsupported-quiver: brute-force bound exceeded")
    if any(weights.get(s, 0) < 0 for s in ctx.quiver.vertices):
        raise ValueError(f"weights {weights} are not all nonnegative")

    # all PBW keys in degrees <= cap
    slice_keys = []
    for v in itertools.product(ctx.quiver.vertices, repeat=n):
        for w in length_order(n):
            wd = ctx.word_degree(w, v)
            max_total = (degree_cap - wd) // 2
            if max_total < 0:
                continue
            for a in exponent_tuples(n, max_total):
                slice_keys.append((v, w, a))
    index = {key: r for r, key in enumerate(slice_keys)}
    dim_by_degree = {}
    for v, w, a in slice_keys:
        d = ctx.degree(v, w, a)
        dim_by_degree[d] = dim_by_degree.get(d, 0) + 1

    # close the right multiples of the generators under left
    # multiplication by x_j and tau_l, keeping echelon bases per degree
    echelons = {}

    def add_if_new(el):
        """Insert el into the echelon of its degree; True if it was new."""
        if el.is_zero():
            return False
        d = ctx.degree(*next(iter(el.terms)))
        vec = {}
        for key, c in el.terms.items():
            if ctx.degree(*key) != d:
                raise ArithmeticError(f"key {key} sits outside degree {d}")
            vec[index[key]] = c
        return bool(echelons.setdefault(d, Echelon()).insert(vec))

    frontier = []
    for v in itertools.product(ctx.quiver.vertices, repeat=n):
        m = weights.get(v[0], 0)
        gen_exps = (m,) + (0,) * (n - 1)
        for vb, wb, ab in slice_keys:
            if tuple(wb.act_on_list(vb)) != v:
                continue
            if ctx.degree(vb, wb, ab) + 2 * m > degree_cap:
                continue
            el = KLRElement(ctx, {(vb, wb, ab): 1})
            el = _lmul_poly(ctx, MPoly(n, (), {gen_exps: 1}), el)
            el = _prune_above(ctx, el, degree_cap)
            if add_if_new(el):
                frontier.append(el)
    xs = [MPoly.x(j, n) for j in range(1, n + 1)]
    while frontier:
        new_frontier = []
        for el in frontier:
            for x in xs:
                nel = _prune_above(ctx, _lmul_poly(ctx, x, el), degree_cap)
                if add_if_new(nel):
                    new_frontier.append(nel)
            for l in range(1, n):
                nel = _prune_above(ctx, _lmul_tau(ctx, l, el), degree_cap)
                if add_if_new(nel):
                    new_frontier.append(nel)
        frontier = new_frontier

    out = {}
    for d in sorted(dim_by_degree):
        if d > degree_cap:
            continue
        out[d] = dim_by_degree[d] - len(echelons.get(d, ()))
    return {d: c for d, c in out.items() if c}


def _prune_above(ctx, el, degree_cap):
    from .klr import KLRElement

    return KLRElement(
        ctx, {key: c for key, c in el.terms.items() if ctx.degree(*key) <= degree_cap}
    )
