"""Reference answers computed without the library's own routes.

``Order`` rebuilds the order of a poset from its cover pairs alone, so the
closures, coranks and term values below share no code with ``posets`` or
``algebra`` beyond reading the covers.
"""

from __future__ import annotations

# OEIS A000112: unlabelled posets on 1..7 points
A000112 = (1, 2, 5, 16, 63, 318, 2045)


class Order:
    """Reflexive down/up masks and coranks recomputed from cover pairs."""

    def __init__(self, n: int, covers):
        self.n = n
        self.full = (1 << n) - 1
        below = [[] for _ in range(n)]
        above = [[] for _ in range(n)]
        for lo, hi in covers:
            below[hi].append(lo)
            above[lo].append(hi)
        self.down = [self._reach(p, below) for p in range(n)]
        self.up = [self._reach(p, above) for p in range(n)]
        self.corank = [self._longest(p, above) for p in range(n)]

    @staticmethod
    def _reach(start: int, edges) -> int:
        mask, todo = 1 << start, [start]
        while todo:
            for q in edges[todo.pop()]:
                if not mask >> q & 1:
                    mask |= 1 << q
                    todo.append(q)
        return mask

    def _longest(self, p: int, above) -> int:
        depth, todo = {p: 0}, [p]
        best = 0
        while todo:
            q = todo.pop()
            for r in above[q]:
                if depth.get(r, -1) < depth[q] + 1:
                    depth[r] = depth[q] + 1
                    best = max(best, depth[r])
                    todo.append(r)
        return best

    def down_closure(self, mask: int) -> int:
        out, p = 0, 0
        while mask:
            if mask & 1:
                out |= self.down[p]
            mask >>= 1
            p += 1
        return out

    def diff(self, a: int, b: int) -> int:
        return self.down_closure(a & ~b)

    def codim(self, mask: int) -> float:
        """Least corank of a point of mask; infinity for the empty set."""
        return min(
            (self.corank[p] for p in range(self.n) if mask >> p & 1),
            default=float("inf"),
        )

    def epsilon(self, d: int) -> int:
        return sum(1 << p for p in range(self.n) if self.corank[p] >= d)

    def eval(self, term, env: dict[str, int]) -> int:
        """Value of a difference-signature term over point masks."""
        if term.op == "zero":
            return 0
        if term.op == "one":
            return self.full
        if term.op == "var":
            return env[term.name]
        a = self.eval(term.args[0], env)
        b = self.eval(term.args[1], env)
        if term.op == "join":
            return a | b
        if term.op == "meet":
            return a & b
        if term.op == "diff":
            return self.diff(a, b)
        raise ValueError(f"unexpected operator {term.op!r}")

    def holds(self, formula, env: dict[str, int]) -> bool:
        return all((self.eval(t, env) == 0) == eq for t, eq in formula.atoms)


def distance(order: Order, a: int, b: int) -> float:
    """2 ** -codim of the symmetric difference, 0 at equality."""
    c = order.codim(order.diff(a, b) | order.diff(b, a))
    return 0.0 if c == float("inf") else 2.0 ** -c
