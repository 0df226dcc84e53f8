"""The two union-find classes the package once shared, kept for the oracles
that still run on them: ``close_walks_oracle``, ``fold_oracle`` and
``sweep_oracle``.  The kernels in ``trigroup`` keep flat forests of their
own.  Unchanged from the package version apart from this docstring."""

from __future__ import annotations


class UnionFind:
    """Disjoint sets of 0..n-1 with path halving; a merge keeps the smaller
    root, so the root of every class is its least member.  ``parent[x] == x``
    exactly when ``x`` is a root, which hot loops may test without a call."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def add(self) -> int:
        """A new singleton; returns its id."""
        x = len(self.parent)
        self.parent.append(x)
        return x

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Join the classes of a and b; returns the absorbed root, or -1 when
        they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return -1
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return rb


class SignedUnionFind:
    """Union-find whose elements carry orientations, with undo.

    ``union(a, b, -1)`` identifies ``a`` with the reverse of ``b``; a merge
    that would force an element equal to its own reverse fails.  ``find``
    returns ``(root, sign of x relative to root)``.  Union by size without
    path compression keeps every merge a single link, so ``undo`` can cut
    the latest one.
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.sign = [1] * n
        self.size = [1] * n
        self.absorbed: list[int] = []  # roots absorbed by successful merges

    def find(self, x: int) -> tuple[int, int]:
        parent, sign = self.parent, self.sign
        s = 1
        while parent[x] != x:
            s *= sign[x]
            x = parent[x]
        return x, s

    def union(self, a: int, b: int, rel: int) -> bool:
        """Identify a with rel*b; False when this forces a self-reversal."""
        parent, sign = self.parent, self.sign
        sa = sb = 1
        # find(a) and find(b), inlined: the inclusion-exclusion counter
        # calls this in its innermost loop
        while parent[a] != a:
            sa *= sign[a]
            a = parent[a]
        while parent[b] != b:
            sb *= sign[b]
            b = parent[b]
        if a == b:
            return sa * rel * sb == 1
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        # x = sa*a and y = sb*b for the original x, y, so x = rel*y links the
        # roots by sa*rel*sb, in either direction
        parent[b] = a
        sign[b] = sa * rel * sb
        size[a] += size[b]
        self.absorbed.append(b)
        return True

    def undo(self) -> None:
        """Reverse the latest successful merge not yet undone."""
        rb = self.absorbed.pop()
        self.size[self.parent[rb]] -= self.size[rb]
        self.parent[rb] = rb  # a root's sign is never read
