"""Independent checks of certified objects over F_p.

Everything here is written from scratch on plain integer lists so that a
fault in ``polycert.matfield`` or ``polycert.oracles`` cannot hide itself:
polynomials are read as their coefficient lists (low to high), matrices as
row lists, and all elimination is this file's own Gaussian elimination.

Each ``check_*`` function returns True when the object passes.  Checks at a
random point are necessary conditions; they catch a wrong object with
probability at least 1 - deg/p, which for p = 2^31 - 1 is certainty in
practice.
"""

from __future__ import annotations


def horner(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def eval_entries(rows, x: int, p: int) -> list:
    """Evaluate a matrix (rows of Poly) at x."""
    return [[horner(f.coeffs, x, p) for f in row] for row in rows]


def eval_row(row, x: int, p: int) -> list:
    return [horner(f.coeffs, x, p) for f in row]


def _eliminate(rows, p: int):
    """Row-reduce a copy; return (rank, determinant of the square case)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    det = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] % p), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        inv = pow(a[rank][col], p - 2, p)
        det = det * a[rank][col] % p
        for i in range(rank + 1, m):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    if m != n or rank < n:
        det = 0
    return rank, det % p


def rank_mod(rows, p: int) -> int:
    return _eliminate(rows, p)[0]


def det_mod(rows, p: int) -> int:
    if len(rows) != (len(rows[0]) if rows else 0):
        raise ValueError("determinant of a non-square matrix")
    return _eliminate(rows, p)[1] if rows else 1


def matmul_mod(a, b, p: int) -> list:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(r, c)) % p for c in cols] for r in a]


def points(rng, p: int, k: int) -> list:
    out = set()
    while len(out) < k:
        out.add(rng.randrange(p))
    return sorted(out)


def _deg(f) -> int:
    return len(f.coeffs) - 1


# -- certified objects ------------------------------------------------------------


def check_det(a, delta, p, rng) -> bool:
    """delta(x) = det A(x) at two random points."""
    return all(
        horner(delta.coeffs, x, p) == det_mod(eval_entries(a.rows, x, p), p)
        for x in points(rng, p, 2)
    )


def check_rank(a, rho, p, rng) -> bool:
    """rank A(x) = rho at two random points."""
    return all(rank_mod(eval_entries(a.rows, x, p), p) == rho for x in points(rng, p, 2))


def check_matmul(a, b, c, p, rng) -> bool:
    return all(
        matmul_mod(eval_entries(a.rows, x, p), eval_entries(b.rows, x, p), p)
        == eval_entries(c.rows, x, p)
        for x in points(rng, p, 2)
    )


def check_kernel(a, b, p, rng) -> bool:
    """B(x) A(x) = 0, and B(x) has full row rank m - rank A(x)."""
    for x in points(rng, p, 2):
        ax, bx = eval_entries(a.rows, x, p), eval_entries(b.rows, x, p)
        if b.m and any(any(r) for r in matmul_mod(bx, ax, p)):
            return False
        if b.m != a.m - rank_mod(ax, p) or (b.m and rank_mod(bx, p) != b.m):
            return False
    return True


def check_hermite(a, h, u, p, rng) -> bool:
    """U(x) A(x) = [H(x); 0], det U the same nonzero constant at two points,
    and H in Hermite shape."""
    dets = []
    for x in points(rng, p, 2):
        ux = eval_entries(u.rows, x, p)
        hx = eval_entries(h.rows, x, p)
        zero = [[0] * a.n for _ in range(a.m - h.m)]
        if matmul_mod(ux, eval_entries(a.rows, x, p), p) != hx + zero:
            return False
        dets.append(det_mod(ux, p))
    return dets[0] == dets[1] != 0 and hermite_shape(h)


def hermite_shape(h) -> bool:
    """Pivot = last nonzero entry of a row; pivots monic, strictly increasing
    column by row; entries below a pivot of smaller degree; no zero row."""
    pivots = []
    for row in h.rows:
        k = max((j for j, f in enumerate(row) if f.coeffs), default=None)
        if k is None or (pivots and k <= pivots[-1][0]) or row[k].coeffs[-1] != 1:
            return False
        pivots.append((k, _deg(row[k])))
    for i, (k, d) in enumerate(pivots):
        if any(h.rows[i2][k].coeffs and _deg(h.rows[i2][k]) >= d
               for i2 in range(i + 1, h.m)):
            return False
    return True


def popov_shape(pm, shift) -> bool:
    """Pivot = rightmost entry of largest shifted degree; pivots monic and
    strictly increasing; every other entry of a pivot column of smaller degree."""
    pivots = []
    for row in pm.rows:
        nz = [(_deg(f) + s, j) for j, (f, s) in enumerate(zip(row, shift)) if f.coeffs]
        if not nz:
            return False
        k = max(nz)[1]
        if (pivots and k <= pivots[-1][0]) or row[k].coeffs[-1] != 1:
            return False
        pivots.append((k, _deg(row[k])))
    for i, (k, d) in enumerate(pivots):
        if any(i2 != i and pm.rows[i2][k].coeffs and _deg(pm.rows[i2][k]) >= d
               for i2 in range(pm.m)):
            return False
    return True


def same_row_space_at(a, b, p, rng) -> bool:
    """rank A(x) = rank B(x) = rank [A(x); B(x)] at two random points."""
    for x in points(rng, p, 2):
        ax, bx = eval_entries(a.rows, x, p), eval_entries(b.rows, x, p)
        r = rank_mod(ax, p)
        if rank_mod(bx, p) != r or rank_mod(ax + bx, p) != r:
            return False
    return True


def rows_within_at(b, a, p, rng) -> bool:
    """The rows of A(x) lie in the row space of B(x) at two random points."""
    for x in points(rng, p, 2):
        bx = eval_entries(b.rows, x, p)
        if rank_mod(bx + eval_entries(a.rows, x, p), p) != rank_mod(bx, p):
            return False
    return True


def check_popov(a, shift, pm, p, rng) -> bool:
    return (popov_shape(pm, shift) and same_row_space_at(a, pm, p, rng)
            and check_rank(pm, pm.m, p, rng))


def check_basis_of_saturation(a, b, p, rng) -> bool:
    """B(x) has full row rank rank A(x), and A(x) lies in its row space."""
    return check_rank(b, b.m, p, rng) and same_row_space_at(a, b, p, rng)


def check_combination(a, v, q, p, rng) -> bool:
    """v(x) = q(x) A(x) at two random points."""
    return all(
        matmul_mod([eval_row(q, x, p)], eval_entries(a.rows, x, p), p)[0]
        == eval_row(v, x, p)
        for x in points(rng, p, 2)
    )


def check_solve(a, b, v, delta, p, rng) -> bool:
    """A(x) v(x) = delta(x) b(x)."""
    for x in points(rng, p, 2):
        av = [sum(e * w for e, w in zip(r, eval_row(v, x, p))) % p
              for r in eval_entries(a.rows, x, p)]
        dx = horner(delta.coeffs, x, p)
        if av != [dx * e % p for e in eval_row(b, x, p)]:
            return False
    return True


def poly_gcd_degree(fs, p: int) -> int:
    """Degree of gcd(f_1, ..., f_t) by Euclid on coefficient lists; -1 if all zero."""
    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    def rem(f, g):
        f = list(f)
        inv = pow(g[-1], p - 2, p)
        while len(f) >= len(g):
            q = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % p
            trim(f)
        return f

    g: list = []
    for f in fs:
        h = trim([c % p for c in f.coeffs])
        while h:
            g, h = h, rem(g, h) if g else []
    return len(g) - 1


def rank_below_everywhere(a, r, p, rng) -> bool:
    """rank A <= r - 1, shown by evaluation: every r x r minor has degree at
    most r deg A, so rank A(x) < r at r deg A + 1 distinct points forces each
    minor to vanish identically."""
    d = max((_deg(f) for row in a.rows for f in row if f.coeffs), default=0)
    return all(
        rank_mod(eval_entries(a.rows, x, p), p) < r
        for x in points(rng, p, r * max(d, 0) + 1)
    )
