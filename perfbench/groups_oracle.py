"""Independent constructions the benchmark derives expected outcomes from.

Nothing here imports cayleykit: group tables, Cayley graphs, presentations
and the names the catalog gives them all come from closed formulas, so a
wrong answer from the program cannot also be the expected answer.
"""

from __future__ import annotations

from math import gcd

CATALOG_MAX_ORDER = 64  # the catalog names non-abelian groups up to this order


# --- names -----------------------------------------------------------------


def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(factors) -> list[int]:
    """Invariant factors d1 >= d2 >= ... (d_{i+1} | d_i) of a product of cyclics."""
    exps: dict[int, list[int]] = {}
    for d in factors:
        for p, e in _prime_powers(d).items():
            exps.setdefault(p, []).append(e)
    for p in exps:
        exps[p].sort(reverse=True)
    width = max((len(v) for v in exps.values()), default=0)
    out = []
    for i in range(width):
        d = 1
        for p, es in exps.items():
            if i < len(es):
                d *= p ** es[i]
        out.append(d)
    return out


def abelian_name(factors) -> str:
    inv = invariant_factors(factors)
    return "x".join(f"C_{d}" for d in inv) if inv else "C_1"


def unrecognized(order: int) -> tuple:
    """Marker: a non-abelian group of this order outside the catalog."""
    return ("unrecognized", order)


def dihedral_name(m: int):
    """Name of the dihedral group of order 2m."""
    if m <= 2:
        return abelian_name([2] * m) if m == 2 else "C_2"
    return f"D_{m}" if 2 * m <= CATALOG_MAX_ORDER else unrecognized(2 * m)


def quaternion_name(order: int):
    return f"Q_{order}" if order <= CATALOG_MAX_ORDER else unrecognized(order)


def sdp_name(m: int, k: int):
    """Name of <r,s | r^m = s^2 = 1, s r s = r^k> for k^2 = 1 (mod m), or
    None where only the catalog's product search could name it."""
    k %= m
    if k == 1 % m:
        return abelian_name([m, 2])
    if k == m - 1:
        return dihedral_name(m)
    if 2 * m > CATALOG_MAX_ORDER:
        return unrecognized(2 * m)
    if m >= 8 and m & (m - 1) == 0:
        if k == m // 2 - 1:
            return f"SD_{m}"
        if k == m // 2 + 1:
            return f"SA_{m}"
    return None


def collapse_order_and_name(m: int, k: int):
    """<r,s | r^m = s^2 = 1, s r s = r^k> for any k: r = s r^k s forces
    r^(k^2 - 1) = 1, so the group is C_g : C_2 with g = gcd(m, k^2 - 1)."""
    g = gcd(m, k * k - 1)
    return 2 * g, (sdp_name(g, k) if g > 1 else "C_2")


def diquaternion_name(m: int):
    return f"DQ_{m}" if 2 * m <= CATALOG_MAX_ORDER else unrecognized(2 * m)


# --- multiplication tables (identity is element 0) --------------------------


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def abelian_table(factors) -> list[list[int]]:
    out = [[0]]
    for d in factors:
        out = direct_product_table(out, cyclic_table(d))
    return out


def dihedral_table(m: int) -> list[list[int]]:
    """Element r^i f^s is i + m*s; f r f = r^-1."""
    n = 2 * m
    t = [[0] * n for _ in range(n)]
    for a in range(n):
        i, s = a % m, a // m
        for b in range(n):
            j, u = b % m, b // m
            t[a][b] = (i + (j if s == 0 else -j)) % m + m * (s ^ u)
    return t


def quaternion_table(order: int) -> list[list[int]]:
    """Dicyclic group: a^i x^s is i + h*s with a^h = 1, x^2 = a^(h/2),
    x a x^-1 = a^-1, where h = order / 2."""
    h = order // 2
    t = [[0] * order for _ in range(order)]
    for a in range(order):
        i, s = a % h, a // h
        for b in range(order):
            j, u = b % h, b // h
            if s == 0:
                t[a][b] = (i + j) % h + h * u
            elif u == 0:
                t[a][b] = (i - j) % h + h
            else:
                t[a][b] = (i - j + h // 2) % h
    return t


def direct_product_table(g, h) -> list[list[int]]:
    ng, nh = len(g), len(h)
    return [
        [g[a1][a2] * nh + h[b1][b2] for a2 in range(ng) for b2 in range(nh)]
        for a1 in range(ng)
        for b1 in range(nh)
    ]


# --- Cayley graphs -----------------------------------------------------------


def cayley_graph(t, gens: list[tuple[str, int]]) -> dict:
    """Graph JSON with edges g -> g*s; involutions become undirected matchings."""
    n = len(t)
    colors = []
    for name, s in gens:
        if t[s][s] == 0:
            edges = [[g, t[g][s]] for g in range(n) if g < t[g][s]]
            colors.append({"name": name, "directed": False, "edges": edges})
        else:
            edges = [[g, t[g][s]] for g in range(n)]
            colors.append({"name": name, "directed": True, "edges": edges})
    return {"nodes": n, "colors": colors}


def perturb(graph: dict, rng) -> dict:
    """Swap the targets of u and v = c^a(u) in one directed color c, with
    2 <= a <= L-2 and a != L/2 on a cycle of length L.  The cycle splits into
    cycles of lengths a and L-a, so c is no longer semiregular and the colors
    cannot act regularly: the result is never a Cayley graph."""
    candidates = []
    for ci, c in enumerate(graph["colors"]):
        if not c["directed"]:
            continue
        succ = dict(map(tuple, c["edges"]))
        cycle = [0]
        while succ[cycle[-1]] != 0:
            cycle.append(succ[cycle[-1]])
        if len(cycle) >= 5:
            candidates.append((ci, succ))
    if not candidates:
        raise ValueError("no directed color with a cycle of length >= 5")
    while True:
        ci, succ = candidates[rng.randrange(len(candidates))]
        succ = dict(succ)
        u = rng.randrange(graph["nodes"])
        cycle = [u]
        while succ[cycle[-1]] != u:
            cycle.append(succ[cycle[-1]])
        length = len(cycle)
        choices = [a for a in range(2, length - 1) if 2 * a != length]
        v = cycle[choices[rng.randrange(len(choices))]]
        succ[u], succ[v] = succ[v], succ[u]
        colors = list(graph["colors"])
        colors[ci] = {**colors[ci], "edges": sorted([a, b] for a, b in succ.items())}
        out = {**graph, "colors": colors}
        if connected(out):
            return out


def connected(graph: dict) -> bool:
    adj: list[list[int]] = [[] for _ in range(graph["nodes"])]
    for c in graph["colors"]:
        for u, v in c["edges"]:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == graph["nodes"]


# --- tables that are not groups ---------------------------------------------


def central_involution(t) -> int | None:
    n = len(t)
    for z in range(1, n):
        if t[z][z] == 0 and all(t[z][g] == t[g][z] for g in range(n)):
            return z
    return None


def intercalate_swap(t, rng) -> tuple[list[list[int]], tuple[int, int, int]]:
    """Swap a 2x2 subsquare x1*y1 = x2*y2, x1*y2 = x2*y1 (x2 = x1 z,
    y2 = z y1 for a central involution z).  The result is still a Latin square
    with the same identity; returns it with an associativity witness found
    by direct search, so the table is certainly not a group."""
    n = len(t)
    z = central_involution(t)
    if z is None:
        raise ValueError("group has no central involution")
    for _ in range(100):
        x1, y1 = rng.randrange(1, n), rng.randrange(1, n)
        x2, y2 = t[x1][z], t[z][y1]
        if 0 in (x2, y2):
            continue
        s = [row[:] for row in t]
        s[x1][y1], s[x1][y2] = t[x1][y2], t[x1][y1]
        s[x2][y1], s[x2][y2] = t[x2][y2], t[x2][y1]
        for a in (x1, x2):
            for b in range(n):
                sab = s[s[a][b]]
                sa, sb = s[a], s[b]
                for c in range(n):
                    if sab[c] != sa[sb[c]]:
                        return s, (a, b, c)
    raise ValueError("no intercalate with a witness found")


def affine_quasigroup(p: int, a: int, b: int, c: int) -> list[list[int]]:
    """x*y = a x + b y + c (mod p), a, b units: Latin, and associative only for
    a = b = 1; it has an identity only for a = b = 1 as well."""
    return [[(a * x + b * y + c) % p for y in range(p)] for x in range(p)]
