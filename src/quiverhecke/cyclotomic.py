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
monomials x^a with a_j <= n-j, a free Z[z]-module of rank n!/(n-i)!.
The algebra acts faithfully there, so exhibiting i! * n!/(n-i)! many
independent operators x^a T_w certifies the rank of C_i(n).

For i > n the chain reaches the constant r_{n+1} = 1, so the quotient
vanishes.

The classical shadow: C_i(n) is isomorphic to the subalgebra of the nil
affine Hecke algebra on n strands generated by T_1..T_{i-1}, X_1..X_i
and the symmetric polynomials, via z_l -> (-1)^l e_l(x_1..x_n).
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy

from .coxeter import Permutation, poincare_polynomial
from .fock import all_partitions, residue_content
from .laurent import Laurent
from .linalg import Echelon
from .nilhecke import NilHeckeElement
from .polyring import (
    MPoly,
    elementary_symmetric,
    exponent_tuples,
    grdim_polynomial_ring,
    grdim_symmetric_ring,
)

_PRIME = 999983


# -- the single-vertex (sl2) quotient -------------------------------------


def highest_weight_params(n: int) -> tuple:
    """Parameter names z_1..z_n of the coefficient ring."""
    return tuple(f"z{l}" for l in range(1, n + 1))


def cyclotomic_polynomial(n: int, i: int, params=None, z_values=None) -> MPoly:
    """g = x_1^n + z_1 x_1^{n-1} + ... + z_n in i variables.

    With ``z_values`` the parameters are specialized to integers and the
    result has no parameter tail.
    """
    assert n >= 0 and i >= 1
    if z_values is not None:
        assert len(z_values) == n
        terms = {}
        width = i
        for l in range(n + 1):
            c = 1 if l == 0 else z_values[l - 1]
            if c:
                e = [0] * width
                e[0] = n - l
                terms[tuple(e)] = terms.get(tuple(e), 0) + c
        return MPoly(i, (), terms)
    params = highest_weight_params(n) if params is None else params
    width = i + len(params)
    terms = {}
    for l in range(n + 1):
        e = [0] * width
        e[0] = n - l
        if l > 0:
            e[i + l - 1] = 1
        terms[tuple(e)] = 1
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
        self.params = (
            highest_weight_params(n) if z_values is None else ()
        )
        self.is_zero_algebra = i > n
        # reduction elements r_1..r_jmax; r_j pivots on x_j^{n-j+1}
        self.rules = []
        jmax = min(i, n + 1)
        if jmax >= 1:
            r = cyclotomic_polynomial(n, i, self.params, self.z_values)
            self.rules.append(r)
            for j in range(1, jmax):
                r = -r.demazure(j)
                self.rules.append(r)
        if i > n:
            if self.rules[n] != MPoly.one(i, self.params):
                raise ArithmeticError(
                    f"the reduction chain of C_{i}({n}) does not reach 1 at r_{n + 1}"
                )

    def module_basis(self):
        """In-bounds monomial exponents a with a_j <= n-j, sorted."""
        if self.is_zero_algebra:
            return []
        ranges = [range(self.n - j + 1) for j in range(1, self.i + 1)]
        return sorted(itertools.product(*ranges))

    def _find_violation(self, p: MPoly):
        best = None
        jmax = len(self.rules)
        for exps, c in p.terms.items():
            for j in range(jmax, 0, -1):
                if exps[j - 1] >= self.n - j + 1:
                    key = exps[self.i - 1 :: -1]
                    if best is None or key > best[0]:
                        best = (key, exps, c, j)
                    break
        if best is None:
            return None
        return best[1], best[2], best[3]

    def reduce(self, p: MPoly) -> MPoly:
        """Normal form of p modulo the left-ideal submodule."""
        assert p.nx == self.i and p.params == self.params
        while True:
            hit = self._find_violation(p)
            if hit is None:
                return p
            exps, c, j = hit
            cof = list(exps)
            cof[j - 1] -= self.n - j + 1
            mono = MPoly(self.i, self.params, {tuple(cof): c})
            p = p - mono * self.rules[j - 1]

    def spanning_set(self):
        """Pairs (exponents, permutation) of the spanning operators."""
        if self.is_zero_algebra:
            return []
        perms = sorted(
            Permutation.all(self.i), key=lambda w: (w.length(), w.images)
        )
        return [(a, w) for w in perms for a in self.module_basis()]


def cyclotomic_basis(n: int, i: int):
    """The spanning set x^a T_w (a_j <= n-j) of C_i(n), as elements of
    the nil affine Hecke algebra over Z[z_1..z_n].

    Empty when i > n (the zero algebra); {1} when i = 0.
    """
    ctx = CycloContext(n, i)
    params = highest_weight_params(n)
    out = []
    for a, w in ctx.spanning_set():
        poly = MPoly(i, params, {tuple(a) + (0,) * n: 1})
        out.append(NilHeckeElement(i, {w: poly}, params))
    return out


# -- rank certification by action on the module ---------------------------


def _operator_matrix(ctx: CycloContext, op, basis, index):
    """Matrix (mod _PRIME) of a module map given on basis monomials."""
    m = numpy.zeros((len(basis), len(basis)), dtype=numpy.int64)
    for col, a in enumerate(basis):
        mono = MPoly(ctx.i, ctx.params, {a: 1})
        img = ctx.reduce(op(mono))
        for exps, c in img.terms.items():
            m[index[exps], col] = c % _PRIME
    return m


def _action_matrices(ctx: CycloContext):
    """Matrices (mod _PRIME) of all spanning operators x^a T_w."""
    if ctx.z_values is None:
        raise ValueError("action matrices need integer z_values, not parameters")
    basis = [a for a in ctx.module_basis()]
    index = {a: r for r, a in enumerate(basis)}
    xmats = [
        _operator_matrix(
            ctx, (lambda q, j=j: MPoly.x(j, ctx.i) * q), basis, index
        )
        for j in range(1, ctx.i + 1)
    ]
    tmats = [
        _operator_matrix(ctx, (lambda q, j=j: q.demazure(j)), basis, index)
        for j in range(1, ctx.i)
    ]
    tcache = {(): numpy.eye(len(basis), dtype=numpy.int64)}

    def t_matrix(word):
        if word not in tcache:
            head = t_matrix(word[:-1])
            tcache[word] = (head @ tmats[word[-1] - 1]) % _PRIME
        return tcache[word]

    dcache = {}

    def d_matrix(a):
        if a not in dcache:
            if sum(a) == 0:
                dcache[a] = tcache[()]
            else:
                j = next(k for k, e in enumerate(a) if e > 0)
                prev = list(a)
                prev[j] -= 1
                dcache[a] = (xmats[j] @ d_matrix(tuple(prev))) % _PRIME
        return dcache[a]

    out = []
    for a, w in ctx.spanning_set():
        m = (d_matrix(a) @ t_matrix(w.canonical_word())) % _PRIME
        out.append(((a, w), m))
    return out


def _rank_mod_p(rows, p=_PRIME):
    """Rank modulo p of an integer matrix, given as a 2-D array or as a
    row-major list of lists.

    The working copy stays reduced into [0, p), so every nonzero test is
    exact and every product fits in int64.  Each pivot updates only the
    rows with a nonzero entry in its column, and only from that column
    on: the columns to its left are zero in every row not yet used as a
    pivot, so the cost follows the nonzeros rather than the whole block.
    """
    a = numpy.array(rows, dtype=numpy.int64) % p
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        nz = numpy.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        # after the swap row piv holds the old row r, zero in column c
        below = r + nz[1:]
        if below.size:
            a[below, c:] = (a[below, c:] - numpy.outer(a[below, c], a[r, c:])) % p
        r += 1
        if r == nrows:
            break
    return r


# 4M int64 entries are 32 MB.  The largest rank matrix below that, of
# C_3(5), is 360 x 3600 and takes 0.03-0.25 s; the next ones, C_4(5) at
# 2880 x 14400 (330 MB) and C_5(5) at 14400 x 14400 (1.7 GB), are refused.
_MAX_RANK_ENTRIES = 4_000_000


def spanning_rank(n: int, i: int, z_values) -> int:
    """Rank of the spanning operators of C_i(n) at a z-specialization.

    Raises ValueError, before building any matrix, when the flattened
    action matrices would exceed _MAX_RANK_ENTRIES entries.
    """
    ctx = CycloContext(n, i, z_values=z_values)
    if ctx.is_zero_algebra:
        return 0
    shape = (len(ctx.spanning_set()), len(ctx.module_basis()) ** 2)
    if shape[0] * shape[1] > _MAX_RANK_ENTRIES:
        raise ValueError(
            f"the rank matrix of C_{i}({n}) is {shape[0]} x {shape[1]}, "
            f"above the limit of {_MAX_RANK_ENTRIES} entries"
        )
    mats = _action_matrices(ctx)
    return _rank_mod_p(numpy.stack([m.reshape(-1) for _, m in mats]))


def expected_rank(n: int, i: int) -> int:
    """i! * n!/(n-i)! for i <= n, else 0."""
    if i > n:
        return 0
    return factorial(i) * factorial(n) // factorial(n - i)


def verify_rank(n: int, i: int, rng=None, points: int = 3, ranks=None) -> int:
    """Certify that C_i(n) is free over Z[z] of rank i! * n!/(n-i)!.

    Checks the rank of the spanning operators at ``points`` random
    integer z-specializations and at z = 0 (the reduced algebra).  The
    specialized rank is a lower bound for the generic rank and the
    spanning-set size is an upper bound, so agreement is a proof.
    ``ranks``, a dict the caller owns, memoizes spanning_rank by
    ``(n, i, z)`` across calls.  Raises ArithmeticError on a mismatch,
    and ValueError, through spanning_rank, when the rank matrix is above
    its size limit.
    """
    expected = expected_rank(n, i)
    specials = [(0,) * n]
    if rng is not None:
        for _ in range(points):
            specials.append(tuple(rng.randint(-5, 5) for _ in range(n)))
    ranks = {} if ranks is None else ranks
    for z in specials:
        if (n, i, z) not in ranks:
            ranks[n, i, z] = spanning_rank(n, i, z)
        got = ranks[n, i, z]
        if got != expected:
            raise ArithmeticError(
                f"C_{i}({n}) at z = {z} has rank {got}, expected {expected}"
            )
    return expected


# -- the classical-subalgebra isomorphism ---------------------------------


def _laurent_inverted_square(p: Laurent) -> Laurent:
    """Substitute q -> v^{-2} in a polynomial with integer powers."""
    return Laurent({-2 * k: c for k, c in p.terms.items()})


def _quantum_integer(k: int) -> Laurent:
    """1 + v^2 + ... + v^{2(k-1)}."""
    return Laurent({2 * t: 1 for t in range(k)})


def graded_rank_polynomial(n: int, i: int) -> Laurent:
    """Graded rank of C_i(n) over Z[z]: poincare_i(v^-2) * prod [k]_{v^2}
    for k = n-i+1 .. n.  Its value at 1 is i! * n!/(n-i)!."""
    out = _laurent_inverted_square(poincare_polynomial(i))
    for k in range(n - i + 1, n + 1):
        out = out * _quantum_integer(k)
    return out


def sl2_iso_check(n: int, i: int, rng=None, ranks=None) -> bool:
    """Check the identification of C_i(n) with the subalgebra of the nil
    affine Hecke algebra on n strands generated by T_1..T_{i-1},
    X_1..X_i and the symmetric polynomials (z_l -> (-1)^l e_l).

    Verifies that the cyclotomic relation maps to zero, that the tail
    elementary symmetrics e_l(x_{i+1}..x_n) lie in the image, and that
    the ranks over the two (identified) central polynomial rings match,
    both as numbers and as graded series.  ``ranks`` is passed on to
    verify_rank.
    """
    assert 0 <= i <= n
    if n == 0:
        return verify_rank(0, 0, rng=rng, ranks=ranks) == 1
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
    # of the subalgebra, read off from exact dimension series
    expected = verify_rank(n, i, rng=rng, ranks=ranks)
    rank_poly = graded_rank_polynomial(n, i)
    if rank_poly.substitute(1) != expected:
        raise ArithmeticError(
            f"graded rank of C_{i}({n}) at q = 1 is {rank_poly.substitute(1)}, "
            f"expected {expected}"
        )
    cutoff = 2 * n * (n + 1) + 4 * i * i + 8
    lhs_series = (
        _laurent_inverted_square(poincare_polynomial(i))
        * grdim_polynomial_ring(i, cutoff)
        * grdim_symmetric_ring(n - i, cutoff)
    )
    rhs_series = rank_poly * grdim_symmetric_ring(n, cutoff)
    check_to = cutoff - 2 * i * i - 2 * n
    if lhs_series.truncate(check_to) != rhs_series.truncate(check_to):
        raise ArithmeticError(
            f"dimension series of C_{i}({n}) disagree below degree {check_to}"
        )
    return True


# -- dimension ledger for the minimal sl2 categorification ----------------


def minimal_sl2_dimension_ledger(n: int):
    """Per weight n-2i: the simple dimension i!, the induction and
    restriction multipliers, and the commutator defect per unit of
    dimension, which must equal the weight."""
    assert n >= 0
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
    assert p >= 1 and n >= 0
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


def sl2_report(n: int, rng=None) -> dict:
    """JSON-ready summary table; ranks are certified when n <= 4."""
    verified = n <= 4
    if verified:
        for i in range(n + 2):
            verify_rank(n, i, rng=rng)
    return {
        "n": n,
        "rank_verified": verified,
        "rows": minimal_sl2_dimension_ledger(n),
    }


# -- ideal stability -------------------------------------------------------


def ideal_stability_check(n: int, i: int, rng, trials: int = 20) -> bool:
    """Left multiples of the cyclotomic generator reduce to zero.

    For random a in the nil affine Hecke algebra and random module
    monomials f, the action of a*g on f lands in the submodule, so its
    normal form vanishes.  This is the well-definedness of the quotient
    action.  Returns True, or raises ArithmeticError.
    """
    assert i >= 1
    ctx = CycloContext(n, i)
    params = ctx.params
    g = NilHeckeElement.from_poly(
        cyclotomic_polynomial(n, i, params), i, params
    )
    perms = sorted(Permutation.all(i), key=lambda w: (w.length(), w.images))
    width = i + len(params)
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
    from .klr import KLRElement, _lmul_monomial, _lmul_tau, _lmul_x

    assert not ctx.params
    n = ctx.n
    if n > 2 or degree_cap > 12:
        raise ValueError("unsupported-quiver: brute-force bound exceeded")
    for s in ctx.quiver.vertices:
        assert weights.get(s, 0) >= 0

    def key_degree(v, w, a):
        return 2 * sum(a) + ctx.word_degree(w, v)

    # all PBW keys in degrees <= cap
    perms = sorted(Permutation.all(n), key=lambda w: (w.length(), w.images))
    slice_keys = []
    for v in itertools.product(ctx.quiver.vertices, repeat=n):
        for w in perms:
            wd = ctx.word_degree(w, v)
            max_total = (degree_cap - wd) // 2
            if max_total < 0:
                continue
            for a in exponent_tuples(n, max_total):
                slice_keys.append((v, w, a))
    index = {key: r for r, key in enumerate(slice_keys)}
    dim_by_degree = {}
    for v, w, a in slice_keys:
        d = key_degree(v, w, a)
        dim_by_degree[d] = dim_by_degree.get(d, 0) + 1

    # close the right multiples of the generators under left
    # multiplication by x_j and tau_l, keeping echelon bases per degree
    echelons = {}

    def add_if_new(el):
        """Insert el into the echelon of its degree; True if it was new."""
        if el.is_zero():
            return False
        (v0, w0, a0) = next(iter(el.terms))
        d = key_degree(v0, w0, a0)
        vec = {}
        for key, c in el.terms.items():
            assert key_degree(*key) == d
            vec[index[key]] = c
        return bool(echelons.setdefault(d, Echelon()).insert(vec))

    frontier = []
    for v in itertools.product(ctx.quiver.vertices, repeat=n):
        m = weights.get(v[0], 0)
        gen_exps = (m,) + (0,) * (n - 1)
        for vb, wb, ab in slice_keys:
            if tuple(wb.act_on_list(vb)) != v:
                continue
            if key_degree(vb, wb, ab) + 2 * m > degree_cap:
                continue
            el = KLRElement(ctx, {(vb, wb, ab): 1})
            el = _lmul_monomial(ctx, gen_exps, el)
            el = _prune_above(ctx, el, degree_cap, key_degree)
            if add_if_new(el):
                frontier.append(el)
    while frontier:
        new_frontier = []
        for el in frontier:
            for j in range(1, n + 1):
                nel = _prune_above(ctx, _lmul_x(ctx, j, el), degree_cap, key_degree)
                if add_if_new(nel):
                    new_frontier.append(nel)
            for l in range(1, n):
                nel = _prune_above(
                    ctx, _lmul_tau(ctx, l, el), degree_cap, key_degree
                )
                if add_if_new(nel):
                    new_frontier.append(nel)
        frontier = new_frontier

    out = {}
    for d in sorted(dim_by_degree):
        if d > degree_cap:
            continue
        out[d] = dim_by_degree[d] - len(echelons.get(d, ()))
    return {d: c for d, c in out.items() if c}


def _prune_above(ctx, el, degree_cap, key_degree):
    from .klr import KLRElement

    kept = {
        key: c
        for key, c in el.terms.items()
        if key_degree(*key) <= degree_cap
    }
    return KLRElement(ctx, kept)
