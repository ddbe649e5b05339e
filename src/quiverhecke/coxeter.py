"""
The symmetric group S_n as a Coxeter group.

Permutations are stored in one-line notation (1-indexed images).  The
composition convention throughout the package is (v*w)(i) = v(w(i)):
permutations act on positions, from the left.

Every permutation carries a canonical reduced word coming from the chain
of coset decompositions S_n = C_n * S_{n-1}: the canonical word of w is
word(c_n) + word(c_{n-1}) + ... + word(c_2), where c_k is the cycle
(j, j+1, ..., k) with j = the image of k after stripping the outer
cosets, and word(c_k) = (j, j+1, ..., k-1).  For the longest element of
S_3 this gives (1, 2, 1).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .laurent import Laurent, q_factorial


class Permutation:
    """A permutation of {1, ..., n} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{len(images)}")
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(v*w)(i) = v(w(i))."""
        if self.n != other.n:
            raise ValueError(f"cannot compose permutations of {self.n} and {other.n}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def length(self) -> int:
        """Number of inversions; equals the reduced-word length."""
        im = self.images
        return sum(
            1
            for a in range(self.n)
            for b in range(a + 1, self.n)
            if im[a] > im[b]
        )

    def length_key(self):
        """The sort key of the length order: length, then one-line images."""
        return (self.length(), self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def simple(i: int, n: int) -> "Permutation":
        """The adjacent transposition s_i swapping i and i+1."""
        if not 1 <= i < n:
            raise ValueError(f"simple index {i} outside 1..{n - 1}")
        im = list(range(1, n + 1))
        im[i - 1], im[i] = im[i], im[i - 1]
        return Permutation(im)

    @staticmethod
    def from_word(word, n: int) -> "Permutation":
        """Evaluate a word (i_1, ..., i_r) as s_{i_1} * s_{i_2} * ... * s_{i_r}."""
        w = Permutation.identity(n)
        for i in word:
            w = w * Permutation.simple(i, n)
        return w

    @staticmethod
    def longest(n: int) -> "Permutation":
        """The longest element, i -> n + 1 - i."""
        return Permutation(range(n, 0, -1))

    @staticmethod
    def all(n: int):
        """All of S_n, in lexicographic one-line order (deterministic)."""
        for im in itertools.permutations(range(1, n + 1)):
            yield Permutation(im)

    def canonical_word(self):
        """The canonical reduced word, as a tuple of letters."""
        return _canonical_word(self.images)

    def act_on_list(self, seq):
        """Position action on a sequence: result[w(k)] = seq[k] (1-indexed)."""
        if len(seq) != self.n:
            raise ValueError(f"{len(seq)} items for a permutation of {self.n}")
        out = [None] * self.n
        for k in range(1, self.n + 1):
            out[self.images[k - 1] - 1] = seq[k - 1]
        return tuple(out)


@lru_cache(maxsize=None)
def _canonical_word(images):
    n = len(images)
    if n <= 1:
        return ()
    j = images[n - 1]
    if j == n:
        # fixes n: recurse inside S_{n-1}
        return _canonical_word(images[: n - 1])
    # strip the coset representative c = (j, j+1, ..., n), word (j, ..., n-1)
    segment = tuple(range(j, n))
    c = Permutation.from_word(segment, n)
    rest = c.inverse() * Permutation(images)
    if rest.images[n - 1] != n:
        raise ArithmeticError(f"stripping {segment} from {images} does not fix {n}")
    return segment + _canonical_word(rest.images[: n - 1])


@lru_cache(maxsize=None)
def length_order(n: int) -> tuple:
    """S_n sorted by `Permutation.length_key`: the order of every
    permutation-indexed basis."""
    perms = list(Permutation.all(n))
    return tuple(sorted(perms, key=Permutation.length_key))


def segments_of_canonical_word(word):
    """Split a canonical word into its ascending consecutive runs."""
    segs = []
    cur = []
    for letter in word:
        if cur and letter != cur[-1] + 1:
            segs.append(tuple(cur))
            cur = []
        cur.append(letter)
    if cur:
        segs.append(tuple(cur))
    return segs


def poincare_polynomial(n: int) -> Laurent:
    """sum over w in S_n of q^{l(w)}, as a polynomial in q."""
    out = Laurent.zero()
    for w in Permutation.all(n):
        out = out + Laurent.gen(w.length())
    return out


def poincare_product_form(n: int) -> Laurent:
    """prod_{i=1}^{n} (1 + q + ... + q^{i-1}) = v^{n(n-1)/2} [n]! at v^2 = q,
    the closed form of the Poincare sum."""
    shift = n * (n - 1) // 2
    return Laurent({(k + shift) // 2: c for k, c in q_factorial(n).terms.items()})
