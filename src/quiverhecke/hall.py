"""
Hall algebras of quiver representations over small finite fields.

A representation of a quiver (a ``klr.QuiverData``) with dimension
vector d assigns to each arrow a : i -> j, in the order of
``quiver.arrows``, a d_j x d_i matrix over F_q (column-vector
convention).
Isomorphism classes are G_d-orbits, G_d = prod_i GL_{d_i}(q), acting by
g . (f_a) = (g_j f_a g_i^{-1}); each class is identified by its
canonical label, the lexicographically smallest flattened matrix tuple
in the orbit.  |Aut M| = |G_d| / |orbit|.  The orbits are walked one
generator of some GL_{d_i}(q) per step (``elementary_ops``: a diagonal
or an adjacent transvection).  ``act`` defines a step: one elementary
row operation on the arrow matrices into vertex i and one elementary
column operation on those out of it, with no matrix product.  A step is
linear, so ``compile_step`` turns it, once per dimension vector, into a
sparse linear map on flat entry tuples, read off ``act`` on the unit
matrix tuples.  The walk runs on flat tuples, and each orbit element
becomes a matrix tuple once, as a key of the class table.

Hall numbers F^L_{M,N} count submodules of L isomorphic to N with
quotient isomorphic to M.  Submodules are read off one RREF basis per
vertex, with no linear solve: membership, coordinates and the quotient
all come from the pivots (``HallContext.subrep_data``).  The untwisted
product is [M] * [N] = sum_L F^L_{M,N} [L].  The Ringel twist multiplies
by v^{<M,N>} where v^2 = q and <M,N> is the Euler form, computed for a
loop-free quiver as sum_i d_i(M) d_i(N) - sum_{a:i->j} d_i(M) d_j(N).
The Serre relation of vertices i, j has exponent 1 - a_ij, read from the
quiver's Cartan matrix.

Riedtmann's identity F^L_{M,N} |Aut M| |Aut N| = P^L_{M,N} is checked
against an independent count of the exact sequences 0 -> N -> L -> M -> 0
(``HallContext.exact_sequence_count``): homomorphisms are the null space
of the linear equations b_a f_s = f_t a_a, and injections are matched to
surjections by image and kernel, each keyed by one RREF basis per vertex.

Supported field sizes: 2, 3, 4, 5 (other q raise ValueError).  Field
arithmetic is table lookup, with tables built once per q.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .klr import QuiverData, linear_quiver
from .laurent import Laurent, q_binomial
from .linalg import Combination, bump


# -- finite fields -------------------------------------------------------

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


class GF:
    """The field with q elements, q in {2, 3, 4, 5}; elements are 0..q-1.

    For prime q the representatives are integers mod q; GF(4) uses
    0, 1, x, x+1 encoded as 0, 1, 2, 3 with x^2 = x + 1.  Arithmetic is
    table lookup: ADD[a][b], MUL[a][b], NEG[a] and INV[a] are built once
    per field (INV[0] is None).
    """

    def __init__(self, q: int):
        if q not in (2, 3, 4, 5):
            raise ValueError(f"unsupported field size q = {q}; supported: 2, 3, 4, 5")
        self.q = q
        self.elements = els = tuple(range(q))
        if q == 4:
            self.ADD = tuple(tuple(a ^ b for b in els) for a in els)
            self.MUL = _GF4_MUL
        else:
            self.ADD = tuple(tuple((a + b) % q for b in els) for a in els)
            self.MUL = tuple(tuple(a * b % q for b in els) for a in els)
        self.NEG = tuple(row.index(0) for row in self.ADD)
        self.INV = (None,) + tuple(row.index(1) for row in self.MUL[1:])

    def multiplicative_generator(self):
        for g in self.elements[1:]:
            seen = set()
            x = 1
            for _ in range(self.q - 1):
                x = self.MUL[x][g]
                seen.add(x)
            if len(seen) == self.q - 1:
                return g
        raise AssertionError


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    return GF(q)


# -- matrices over GF ----------------------------------------------------


def mat_mul(F: GF, A, B, cols=None):
    """A @ B; pass `cols` explicitly when B has zero rows (empty inner
    dimension), since the column count cannot be inferred then."""
    inner = len(B)
    if inner and any(len(r) != inner for r in A):
        raise ValueError(
            f"rows of lengths {[len(r) for r in A]} cannot multiply {inner} rows"
        )
    ADD, MUL = F.ADD, F.MUL
    BT = tuple(zip(*B)) if B else ((),) * (cols or 0)
    out = []
    for row in A:
        out_row = []
        for col in BT:
            s = 0
            for a, b in zip(row, col):
                s = ADD[s][MUL[a][b]]
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


def mat_vec(F: GF, A, v):
    ADD, MUL = F.ADD, F.MUL
    out = []
    for row in A:
        s = 0
        for a, b in zip(row, v):
            s = ADD[s][MUL[a][b]]
        out.append(s)
    return tuple(out)


def rref(F: GF, rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    ADD, MUL, NEG, INV = F.ADD, F.MUL, F.NEG, F.INV
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((k for k in range(r, m) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = MUL[INV[rows[r][c]]]
        prow = rows[r] = [scale[a] for a in rows[r]]
        for k in range(m):
            if k != r and rows[k][c] != 0:
                neg_f = MUL[NEG[rows[k][c]]]
                rows[k] = [ADD[a][neg_f[b]] for a, b in zip(rows[k], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    rows = [tuple(row) for row in rows if any(row)]
    return tuple(rows), tuple(pivots)


def null_space(F: GF, reduced, pivots, n: int):
    """A basis of {x in F_q^n : R x = 0}, given R in reduced row echelon
    form with its pivot columns (as ``rref`` returns them): one vector per
    free column c, with 1 at c, -R[k][c] at the pivot of row k and 0 at
    every other free column."""
    NEG = F.NEG
    basis = []
    for c in range(n):
        if c not in pivots:
            x = [0] * n
            x[c] = 1
            for row, p in zip(reduced, pivots):
                x[p] = NEG[row[c]]
            basis.append(tuple(x))
    return basis


def mat_inverse(F: GF, A):
    n = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced, pivots = rref(F, aug)
    if pivots != tuple(range(n)):
        raise ArithmeticError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in reduced)


def residue(F: GF, basis, pivots, u):
    """u - sum_p u[p] basis_p for RREF rows ``basis`` with pivot columns
    ``pivots``: zero at every pivot, and zero everywhere exactly when u
    lies in the row space, with coordinates (u[p] for p in pivots)."""
    ADD, MUL, NEG = F.ADD, F.MUL, F.NEG
    out = list(u)
    for row, p in zip(basis, pivots):
        if u[p]:
            neg = MUL[NEG[u[p]]]
            out = [ADD[a][neg[b]] for a, b in zip(out, row)]
    return out


def subspaces(q: int, n: int, k: int):
    """All k-dimensional subspaces of F_q^n, as RREF basis-row tuples."""
    F = field(q)
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        free_positions = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(F.elements, repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            yield tuple(tuple(r) for r in rows)


def gl_order(q: int, n: int) -> int:
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def elementary_ops(q: int, n: int):
    """Generators of GL_n(q) as triples (i, j, c): g = I + (c - 1) E_ii
    when i == j and g = I + c E_ij otherwise.  One diagonal
    D = diag(g, 1, ..., 1), g a generator of F_q^*, unless it is the
    identity (q = 2, where F_2^* is trivial), then the adjacent
    transvections I + E_{i,i+1} and I + E_{i+1,i}: 2(n - 1) + 1 steps.

    They generate: the commutator of I + a E_ij and I + b E_jk (i != k)
    is I + ab E_ik, so the adjacent ones reach every I + E_ij.  Over a
    prime field the powers of I + E_ij are all I + c E_ij.  At q = 4,
    D conjugates I + E_01 and I + E_10 to I + g E_01 and I + g^{-1} E_10;
    with 1 they sum to every c of F_4^*, and the commutators carry every
    c to every (i, j).  The transvections generate SL_n(q), and D's
    determinant generates F_q^*.  The group is finite, so products of the
    generators alone (no inverses) reach every element."""
    g = field(q).multiplicative_generator()
    if n and g != 1:
        yield (0, 0, g)
    for i in range(n - 1):
        yield (i, i + 1, 1)
        yield (i + 1, i, 1)


def _nester(shapes):
    """The map from a flat entry tuple (the entries of matrices of the
    given (rows, cols) shapes, row by row and matrix by matrix) to its
    tuple of matrices.  Equal rows are one shared tuple object, which
    keeps the matrix tuples kept as class-table keys small."""
    slices, pos = [], 0
    for r, c in shapes:
        slices.append([slice(pos + k * c, pos + (k + 1) * c) for k in range(r)])
        pos += r * c
    rows = {}

    def nest(values):
        return tuple([tuple([rows.setdefault(r := values[s], r) for s in m]) for m in slices])

    return nest


def matrix_tuples(q: int, shapes):
    """Every tuple of matrices over F_q with the given (rows, cols)
    shapes: the entries, row by row and matrix by matrix, run through
    itertools.product of the field elements."""
    total = sum(r * c for r, c in shapes)
    return map(_nester(shapes), itertools.product(field(q).elements, repeat=total))


# -- quivers and representations ----------------------------------------


def a2_quiver() -> QuiverData:
    return linear_quiver(2)


def jordan_quiver() -> QuiverData:
    return QuiverData((1,), {(1, 1): 1})


class QuiverRep:
    """dims: dimension vector (by vertex order); mats: one per arrow."""

    __slots__ = ("quiver", "q", "dims", "mats")

    def __init__(self, quiver: QuiverData, q: int, dims, mats):
        self.quiver = quiver
        self.q = q
        self.dims = tuple(dims)
        self.mats = tuple(tuple(tuple(r) for r in m) for m in mats)
        if (len(self.dims), len(self.mats)) != (len(quiver.vertices), len(quiver.arrows)):
            raise ValueError(f"{quiver}: one dimension per vertex, one matrix per arrow")
        for (s, t), m in zip(quiver.arrow_index, self.mats):
            if len(m) != self.dims[t] or any(len(r) != self.dims[s] for r in m):
                raise ValueError(f"{m} is not a {self.dims[t]} x {self.dims[s]} matrix")

    def flat(self):
        return (self.dims, tuple(self.mats))

    def __eq__(self, other):
        return isinstance(other, QuiverRep) and self.flat() == other.flat()

    def __hash__(self):
        return hash(self.flat())

    def __repr__(self):
        return f"QuiverRep(dims={self.dims}, mats={self.mats})"


def zero_rep(quiver: QuiverData, q: int) -> QuiverRep:
    dims = (0,) * len(quiver.vertices)
    return QuiverRep(quiver, q, dims, tuple(() for _ in quiver.arrows))


def simple_rep(quiver: QuiverData, q: int, vertex) -> QuiverRep:
    if vertex not in quiver.vertices or (vertex, vertex) in quiver.arrows:
        raise ValueError(f"no simple at {vertex}: not a vertex, or it has a loop")
    dims = tuple(1 if v == vertex else 0 for v in quiver.vertices)
    mats = [((0,) * dims[s],) * dims[t] for s, t in quiver.arrow_index]
    return QuiverRep(quiver, q, dims, mats)


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    if a.quiver.arrows != b.quiver.arrows or a.q != b.q:
        raise ValueError("a direct sum needs one quiver and one field")
    qv = a.quiver
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = []
    for idx, (si, ti) in enumerate(qv.arrow_index):
        m1, m2 = a.mats[idx], b.mats[idx]
        rows = []
        for r in range(a.dims[ti]):
            rows.append(tuple(m1[r]) + (0,) * b.dims[si])
        for r in range(b.dims[ti]):
            rows.append((0,) * a.dims[si] + tuple(m2[r]))
        mats.append(tuple(rows))
    return QuiverRep(qv, a.q, dims, mats)


def group_order(quiver: QuiverData, q: int, dims) -> int:
    out = 1
    for d in dims:
        out *= gl_order(q, d)
    return out


def act(F: GF, arrow_index, vi: int, op, mats):
    """g . mats: the arrow matrices ``mats`` (one per arrow of
    ``arrow_index``) acted on by g in GL_d(q) at the vertex with index vi
    and by the identity at every other vertex, for g = ``op`` = (i, j, c)
    of ``elementary_ops``.

    g m, for an arrow matrix m into the vertex, is a row operation: row i
    times c when i == j, otherwise row i plus c times row j.  m g^{-1},
    for m out of the vertex, is a column operation: column i times
    c^{-1} when i == j, otherwise column j minus c times column i.  A
    loop gets both.
    """
    i, j, c = op
    ADD, MUL = F.ADD, F.MUL
    out = []
    for (s, t), m in zip(arrow_index, mats):
        if t == vi:
            mc = MUL[c]
            if i == j:
                row = tuple([mc[a] for a in m[i]])
            else:
                row = tuple([ADD[a][mc[b]] for a, b in zip(m[i], m[j])])
            m = m[:i] + (row,) + m[i + 1 :]
        if s == vi:
            if i == j:
                mc = MUL[F.INV[c]]
                m = tuple([r[:i] + (mc[r[i]],) + r[i + 1 :] for r in m])
            else:
                mc = MUL[F.NEG[c]]
                m = tuple([r[:j] + (ADD[r[j]][mc[r[i]]],) + r[j + 1 :] for r in m])
        out.append(m)
    return tuple(out)


def compile_step(F: GF, arrow_index, shapes, vi: int, op):
    """The step ``act(F, arrow_index, vi, op, .)`` as a sparse linear map
    on flat entry tuples x (the entries of matrices of the given (rows,
    cols) shapes, row by row and matrix by matrix, as ``matrix_tuples``
    runs through them).  It is a tuple of (p, k0, m0, rest), one for
    each entry p that the step changes, whose new value is m0[x[k0]]
    plus the sum of mc[x[k]] over (k, mc) in ``rest``; each m is the
    row MUL[c] of a nonzero coefficient c.  Column k of the map is
    ``act`` applied to the k-th unit matrix tuple, so ``act`` stays the
    one definition of a step."""
    nest = _nester(shapes)
    n = sum(r * c for r, c in shapes)
    rows = [[] for _ in range(n)]
    for k in range(n):
        image = act(F, arrow_index, vi, op, nest((0,) * k + (1,) + (0,) * (n - k - 1)))
        for p, c in enumerate(e for m in image for row in m for e in row):
            if c:
                rows[p].append((k, F.MUL[c]))
    return tuple(
        (p, *terms[0], tuple(terms[1:]))
        for p, terms in enumerate(rows)
        if terms != [(p, F.MUL[1])]
    )


class ClassTable:
    """Isomorphism classes of representations for one dimension vector."""

    def __init__(self, quiver: QuiverData, q: int, dims):
        self.quiver = quiver
        self.q = q
        self.dims = tuple(dims)
        self.label_of = {}  # arrow matrix tuple -> canonical label
        self.classes = {}  # label -> dict(rep, aut_order)
        self._classify()

    def _classify(self):
        """Walk the orbit of every matrix tuple not yet labelled, one
        compiled generator step at a time, on flat entry tuples.  The
        orbit's least flat tuple is its least matrix tuple (every tuple
        has the same shapes), the label; each orbit element becomes its
        matrix tuple once, as a key of ``label_of``, and a QuiverRep is
        built only for the label of each class."""
        quiver, q, dims = self.quiver, self.q, self.dims
        F = field(q)
        ADD = F.ADD
        arrows = quiver.arrow_index
        shapes = [(dims[t], dims[s]) for s, t in arrows]
        nest = _nester(shapes)
        steps = [
            compile_step(F, arrows, shapes, vi, op)
            for vi, d in enumerate(dims)
            for op in elementary_ops(q, d)
        ]
        g_order = group_order(quiver, q, dims)
        label_of = self.label_of
        for mats in matrix_tuples(q, shapes):
            if mats in label_of:
                continue
            start = tuple(e for m in mats for row in m for e in row)
            orbit = {start}
            todo = [start]
            while todo:
                x = todo.pop()
                for step in steps:
                    y = list(x)
                    for p, k0, m0, rest in step:
                        e = m0[x[k0]]
                        for k, mc in rest:
                            e = ADD[e][mc[x[k]]]
                        y[p] = e
                    y = tuple(y)
                    if y not in orbit:
                        orbit.add(y)
                        todo.append(y)
            if g_order % len(orbit):
                raise ArithmeticError(f"orbit size {len(orbit)} does not divide {g_order}")
            label = (dims, nest(min(orbit)))
            self.classes[label] = {
                "rep": QuiverRep(quiver, q, dims, label[1]),
                "aut_order": g_order // len(orbit),
            }
            for x in orbit:
                label_of[nest(x)] = label
        self._representatives = tuple(
            self.classes[label]["rep"] for label in sorted(self.classes)
        )

    def label(self, rep: QuiverRep):
        if rep.dims != self.dims:
            raise ValueError(f"dimension vector {rep.dims} is not {self.dims}")
        return self.label_of[rep.mats]

    def aut_order(self, rep: QuiverRep) -> int:
        return self.classes[self.label(rep)]["aut_order"]

    def representatives(self):
        """One representation per class, sorted by label."""
        return self._representatives


class HallContext:
    """Caches class tables and submodule counts for one quiver and field."""

    def __init__(self, quiver: QuiverData, q: int):
        field(q)  # rejects an unsupported q before any work
        self.quiver = quiver
        self.q = q
        self._tables = {}
        self._subrep_pairs = {}  # (label L, dims N) -> Counter of (label M, label N)
        self._image_counts = {}  # (rep N, rep L) -> Counter of injection images
        self._kernel_counts = {}  # (rep L, rep M) -> Counter of surjection kernels

    def table(self, dims) -> ClassTable:
        dims = tuple(dims)
        if dims not in self._tables:
            self._tables[dims] = ClassTable(self.quiver, self.q, dims)
        return self._tables[dims]

    def label(self, rep: QuiverRep):
        return self.table(rep.dims).label(rep)

    def aut_order(self, rep: QuiverRep) -> int:
        return self.table(rep.dims).aut_order(rep)

    # -- submodule machinery ------------------------------------------

    def subrep_data(self, rep: QuiverRep, sub_dims):
        """Yield the labels (sub, quotient) of every subrepresentation of
        the given dimension vector, read from ``table(dims).label_of``.

        Each vertex space runs through the RREF bases B of ``subspaces``;
        the pivot columns P of B are read as ``row.index(1)``.  The unit
        vectors e_c, c not in P, complete B to a basis, and the residue
        of a vector (see ``residue``) is supported off P.  So for an
        arrow matrix M from vertex s to vertex t:

        - B_s is invariant exactly when every M b, b in B_s, has zero
          residue against B_t; the sub matrix's columns are then the
          coordinates (M b)[P_t];
        - the quotient matrix's column for e_c, c not in P_s, is the
          residue of M e_c (column c of M) read off the columns outside
          P_t.

        The quotient's basis is the classes of those unit vectors; only
        the isomorphism classes, the canonical labels, are used downstream.
        """
        F = field(self.q)
        choices = []  # per vertex: (basis, pivot columns, other columns)
        for d, k in zip(rep.dims, sub_dims):
            vertex = []
            for B in subspaces(self.q, d, k):
                P = tuple(row.index(1) for row in B)
                vertex.append((B, P, tuple(c for c in range(d) if c not in P)))
            choices.append(vertex)
        sub_labels = self.table(sub_dims).label_of
        quot_labels = self.table(d - k for d, k in zip(rep.dims, sub_dims)).label_of
        for bases in itertools.product(*choices):
            sub_mats, quot_mats = [], []
            for (si, ti), m in zip(self.quiver.arrow_index, rep.mats):
                Bs, _, free_s = bases[si]
                Bt, Pt, free_t = bases[ti]
                images = [mat_vec(F, m, b) for b in Bs]
                if any(any(residue(F, Bt, Pt, y)) for y in images):
                    break
                sub_mats.append(tuple(tuple(y[p] for y in images) for p in Pt))
                quot_cols = [
                    residue(F, Bt, Pt, [row[c] for row in m]) for c in free_s
                ]
                quot_mats.append(
                    tuple(tuple(col[c] for col in quot_cols) for c in free_t)
                )
            else:
                yield sub_labels[tuple(sub_mats)], quot_labels[tuple(quot_mats)]

    def hall_number(self, m: QuiverRep, n: QuiverRep, l: QuiverRep) -> int:
        """F^L_{M,N}: submodules of L isomorphic to N with quotient M."""
        key = (self.label(m), self.label(n), self.label(l))
        if tuple(a + b for a, b in zip(m.dims, n.dims)) != l.dims:
            return 0
        return self._pairs(key[2], l, n.dims)[key[:2]]

    def _pairs(self, label, l: QuiverRep, sub_dims) -> Counter:
        """Counter of (label M, label N) over the subrepresentations N of
        L (of the given label) with dimension vector ``sub_dims``, M the
        quotient: one subrepresentation pass per (L, dim N) answers every
        (M, N)."""
        key = (label, sub_dims)
        if key not in self._subrep_pairs:
            self._subrep_pairs[key] = Counter(
                (quot, sub) for sub, quot in self.subrep_data(l, sub_dims)
            )
        return self._subrep_pairs[key]

    def exact_sequence_count(self, m: QuiverRep, n: QuiverRep, l: QuiverRep) -> int:
        """P^L_{M,N}: exact sequences 0 -> N -> L -> M -> 0, counted as
        pairs (injection f, surjection g) with im f = ker g.

        Each injection is keyed by its image and each surjection by its
        kernel (``_images``, ``_kernels``).  The count is
        sum_U #{f : im f = U} * #{g : ker g = U}.  A pair with g f = 0
        alone is not counted: that gives only im f inside ker g, so when
        dim L != dim M + dim N no key matches and the count is 0.
        Independent of hall_number: no class table, ``subspaces`` or
        ``residue``, and the memos are keyed by representations.
        """
        images = self._images(n, l)
        return sum(c * images[key] for key, c in self._kernels(l, m).items())

    def _images(self, n: QuiverRep, l: QuiverRep) -> Counter:
        """#{f : im f = U} over the injections f : N -> L, each image U
        keyed by one RREF basis per vertex, from ``rref`` of the columns
        of f_i; counted once per (N, L)."""
        key = (n, l)
        if key not in self._image_counts:
            F = field(self.q)
            images = Counter()
            for f in self._homs(n, l):
                basis = tuple(rref(F, tuple(zip(*fi)))[0] for fi in f)
                if all(len(b) == d for b, d in zip(basis, n.dims)):
                    images[basis] += 1
            self._image_counts[key] = images
        return self._image_counts[key]

    def _kernels(self, l: QuiverRep, m: QuiverRep) -> Counter:
        """#{g : ker g = U} over the surjections g : L -> M, each kernel U
        keyed by one RREF basis per vertex, from ``rref`` of the
        ``null_space`` basis of g_i; counted once per (L, M)."""
        key = (l, m)
        if key not in self._kernel_counts:
            F = field(self.q)
            kernels = Counter()
            for g in self._homs(l, m):
                basis = []
                for gi, dl, dm in zip(g, l.dims, m.dims):
                    reduced, pivots = rref(F, gi)
                    if len(reduced) != dm:
                        break
                    basis.append(rref(F, null_space(F, reduced, pivots, dl))[0])
                else:
                    kernels[tuple(basis)] += 1
            self._kernel_counts[key] = kernels
        return self._kernel_counts[key]

    def _homs(self, a: QuiverRep, b: QuiverRep):
        """All morphisms a -> b: tuples of d_i(b) x d_i(a) matrices f_i
        with b_x f_s = f_t a_x for every arrow x : s -> t.

        The equations are linear in the entries of the f_i, entry (r, c)
        of f_i being unknown offsets[i] + r d_i(a) + c; the morphisms are
        the q^{dim Hom} combinations of a basis of their null space."""
        F = field(self.q)
        ADD, MUL, NEG = F.ADD, F.MUL, F.NEG
        offsets, n = [], 0
        for da, db in zip(a.dims, b.dims):
            offsets.append(n)
            n += da * db
        rows = []
        for (s, t), ma, mb in zip(self.quiver.arrow_index, a.mats, b.mats):
            for r in range(b.dims[t]):
                for c in range(a.dims[s]):
                    # entry (r, c) of b_x f_s - f_t a_x
                    row = [0] * n
                    for k in range(b.dims[s]):
                        x = offsets[s] + k * a.dims[s] + c
                        row[x] = ADD[row[x]][mb[r][k]]
                    for k in range(a.dims[t]):
                        x = offsets[t] + r * a.dims[t] + k
                        row[x] = ADD[row[x]][NEG[ma[k][c]]]
                    rows.append(row)
        vectors = [(0,) * n]
        for v in null_space(F, *rref(F, rows), n):
            multiples = [tuple(MUL[c][e] for e in v) for c in F.elements]
            vectors = [
                tuple(ADD[x][y] for x, y in zip(u, w)) for u in vectors for w in multiples
            ]
        return [
            tuple(
                tuple(x[o + r * da : o + (r + 1) * da] for r in range(db))
                for o, da, db in zip(offsets, a.dims, b.dims)
            )
            for x in vectors
        ]

    # -- products ------------------------------------------------------

    def euler_form(self, dm, dn) -> int:
        if any(s == t for s, t in self.quiver.arrows):
            raise ValueError("the Euler form formula needs a quiver without loops")
        out = sum(a * b for a, b in zip(dm, dn))
        for si, ti in self.quiver.arrow_index:
            out -= dm[si] * dn[ti]
        return out

    def product(self, m: QuiverRep, n: QuiverRep, twisted=False) -> "HallElement":
        dims = tuple(a + b for a, b in zip(m.dims, n.dims))
        table = self.table(dims)
        key = (self.label(m), self.label(n))
        terms = {}
        for l in table.representatives():
            label = table.label_of[l.mats]
            c = self._pairs(label, l, n.dims)[key]
            if c:
                terms[(dims, label)] = Laurent.const(c)
        out = HallElement(self, terms)
        if twisted:
            out = out.scale(Laurent.gen(self.euler_form(m.dims, n.dims)))
        return out

    def element(self, rep: QuiverRep) -> "HallElement":
        return HallElement(self, {(rep.dims, self.label(rep)): Laurent.one()})

    def rep_of_key(self, key) -> QuiverRep:
        dims, label = key
        return self.table(dims).classes[label]["rep"]

    def filtration_count(self, factors, l: QuiverRep) -> int:
        """Number of chains L = L_0 > L_1 > ... > L_k = 0 with
        L_{i-1}/L_i isomorphic to factors[i-1] (top factor first)."""
        if not factors:
            return 1 if sum(l.dims) == 0 else 0
        top = factors[0]
        total = 0
        sub_dims = tuple(a - b for a, b in zip(l.dims, top.dims))
        if any(d < 0 for d in sub_dims):
            return 0
        lt = self.label(top)
        for sub, quot in self.subrep_data(l, sub_dims):
            if quot == lt:
                total += self.filtration_count(factors[1:], self.rep_of_key((sub_dims, sub)))
        return total


class HallElement(Combination):
    """Z[v, v^{-1}]-linear combination of classes, keyed (dims, label)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: HallContext, terms=None):
        self.ctx = ctx
        self.terms = {}
        for key, c in (terms or {}).items():
            if c:
                self.terms[key] = c if isinstance(c, Laurent) else Laurent.const(c)

    def mul(self, other: "HallElement", twisted=False) -> "HallElement":
        self._check(other)
        out = {}
        for (dm, lm), cm in self.terms.items():
            m = self.ctx.rep_of_key((dm, lm))
            for (dn, ln), cn in other.terms.items():
                n = self.ctx.rep_of_key((dn, ln))
                c = cm * cn
                for key, a in self.ctx.product(m, n, twisted=twisted).terms.items():
                    bump(out, key, c * a)
        return self._like(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            parts.append(f"({self.terms[key].str_in('v')}) [{key[0]}:{key[1][1]}]")
        return " + ".join(parts)


def reduce_v2_equals_q(el: Laurent, q: int) -> Laurent:
    """Reduce a Laurent polynomial in v modulo v^2 = q: the result has
    only powers 0 and 1 of v, with Fraction coefficients (v^{-1} = v/q)."""
    out = {0: Fraction(0), 1: Fraction(0)}
    for e, c in el.terms.items():
        out[e % 2] += Fraction(c) * Fraction(q) ** (e // 2)
    return Laurent(out)


def element_is_zero_at_v2q(el: HallElement, q: int) -> bool:
    return all(reduce_v2_equals_q(c, q).is_zero() for c in el.terms.values())


def serre_relation_check(ctx: HallContext, i, j) -> HallElement:
    """sum_r (-1)^r [1-a_ij choose r]_q f_i^r f_j f_i^{1-a_ij-r} with the
    twisted product; zero for a quiver of Dynkin type by Ringel's theorem.
    a_ij is the quiver's symmetric Cartan entry."""
    quiver = ctx.quiver
    top = 1 - quiver.cartan(i, j)
    fi = ctx.element(simple_rep(quiver, ctx.q, i))
    fj = ctx.element(simple_rep(quiver, ctx.q, j))

    total = HallElement(ctx)
    for r in range(top + 1):
        term = unit(ctx)
        for _ in range(top - r):
            term = fi.mul(term, twisted=True)
        term = fj.mul(term, twisted=True)
        for _ in range(r):
            term = fi.mul(term, twisted=True)
        coeff = q_binomial(top, r)
        if r % 2:
            coeff = -coeff
        total = total + term.scale(coeff)
    return total


def unit(ctx: HallContext) -> HallElement:
    return ctx.element(zero_rep(ctx.quiver, ctx.q))
