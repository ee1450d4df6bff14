"""The benchmark's own verification of CLI output.

Every check works on plain Python data (adjacency bitmasks, hyperedge
masks) and parses the printed text itself; nothing here calls into
``sperner``, so a wrong answer from the program cannot vouch for itself.
Each check raises ``CheckError`` with a reason, or returns None; output
too malformed to parse may raise ``ValueError`` or ``IndexError`` instead.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckError(Exception):
    """Output of an op is wrong."""


def _fail(msg: str):
    raise CheckError(msg)


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise CheckError(f"not a boolean: {text!r}")


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _connected(adj: list[int], mask: int) -> bool:
    if mask == 0:
        return False
    seen = mask & -mask
    frontier = seen
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> tuple[int, frozenset]:
    """(n, edge set) from the graph text format ``n m`` + ``u v`` lines."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 2:
        _fail("graph output lacks an 'n m' header")
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = set()
    for row in rows[1:]:
        if len(row) != 2:
            _fail(f"bad edge line {row}")
        u, v = int(row[0]), int(row[1])
        if not 0 <= u < v < n:
            _fail(f"edge ({u},{v}) out of range")
        edges.add((u, v))
    if len(edges) != m or len(rows) - 1 != m:
        _fail(f"header says {m} edges, found {len(rows) - 1} lines")
    return n, frozenset(edges)


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def split_partition(n: int, adj: list[int]) -> int:
    """Mask of the clique side of a split graph, by Hammer and Simeone: the
    k vertices of highest degree for the largest k whose k-th degree is at
    least k - 1. The rest must be independent."""
    order = sorted(range(n), key=lambda v: -_popcount(adj[v]))
    k = max((i + 1 for i, v in enumerate(order) if _popcount(adj[v]) >= i), default=0)
    clique = _mask(order[:k])
    for v in range(n):
        if clique >> v & 1:
            bad = adj[v] & clique != clique & ~(1 << v)
        else:
            bad = adj[v] & ~clique
        if bad:
            _fail("input is not a split graph")
    return clique


def domination_optima(n: int, adj: list[int]) -> dict:
    """Minimum dominating, total dominating and connected dominating set
    sizes of a split graph; None where the variant is infeasible.

    With clique side K and independent side I, an independent vertex in a
    solution can be swapped for a clique neighbour without growing it.
    So a minimum dominating set is S plus the isolated vertices, for some
    S in K; a minimum total dominating set is S or S plus one vertex of I;
    a minimum connected dominating set is a nonempty S, or one vertex of I
    adjacent to everything. Enumerating the subsets S of K gives all three.
    """
    full = (1 << n) - 1
    clique = split_partition(n, adj)
    kverts = [v for v in range(n) if clique >> v & 1]
    indep = [v for v in range(n) if not clique >> v & 1]
    iso = _mask(v for v in range(n) if adj[v] == 0)
    best = {"dominating": None, "total": None, "connected": None}

    def better(variant, size):
        if best[variant] is None or size < best[variant]:
            best[variant] = size

    k = len(kverts)
    chosen, closed, opened = [0] * (1 << k), [0] * (1 << k), [0] * (1 << k)
    for sub in range(1 << k):
        if sub:
            low = sub & -sub
            v = kverts[low.bit_length() - 1]
            rest = sub ^ low
            chosen[sub] = chosen[rest] | 1 << v
            closed[sub] = closed[rest] | adj[v] | 1 << v
            opened[sub] = opened[rest] | adj[v]
        s, size = chosen[sub], _popcount(sub)
        if closed[sub] | iso == full:
            better("dominating", _popcount(s | iso))
        if opened[sub] == full:
            better("total", size)
        elif any(opened[sub] | adj[w] == full for w in indep):
            better("total", size + 1)
        if sub and closed[sub] == full:
            better("connected", size)
    if any(adj[w] | 1 << w == full for w in indep):
        better("connected", 1)
    return best


def check_dominate(n: int, edges, rc: int, out: str):
    """``sperner dominate FILE`` with all three variants, in order, on a
    split graph: every witness is valid and of minimum size."""
    if rc != 0:
        _fail(f"exit code {rc}")
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    lines = out.splitlines()
    variants = ["dominating", "total", "connected"]
    if [ln.split()[0] for ln in lines if ln.split()] != variants:
        _fail(f"expected one line per variant {variants}")
    isolated = any(a == 0 for a in adj)
    disconnected = not _connected(adj, full)
    optima = domination_optima(n, adj)
    for variant, line in zip(variants, lines):
        toks = line.split()
        if toks[1:] == ["infeasible"]:
            if variant == "total" and isolated:
                continue
            if variant == "connected" and disconnected:
                continue
            _fail(f"{variant} reported infeasible on a graph where it is feasible")
        size = int(toks[1])
        wit = [int(t) for t in toks[2:]]
        if size != len(wit) or len(set(wit)) != len(wit):
            _fail(f"{variant}: size {size} does not match witness {wit}")
        if any(not 0 <= v < n for v in wit):
            _fail(f"{variant}: witness vertex out of range")
        wm = _mask(wit)
        cover = 0
        for v in wit:
            cover |= adj[v] if variant == "total" else adj[v] | (1 << v)
        if cover != full:
            _fail(f"{variant}: witness {wit} does not dominate")
        if variant == "connected" and not _connected(adj, wm):
            _fail(f"connected: witness {wit} is not connected")
        if size != optima[variant]:
            _fail(f"{variant}: size {size}, but the minimum is {optima[variant]}")


def expression_labels_ok(expr: str, k: int = 5) -> bool:
    """Every label literal of a printed k-expression lies in 1..k."""
    toks = expr.replace("(", " ( ").replace(")", " ) ").split()
    for i, tok in enumerate(toks):
        if tok == "leaf":
            labels = toks[i + 1:i + 2]
        elif tok in ("rel", "adde"):
            labels = toks[i + 1:i + 3]
        else:
            continue
        if not all(t.isdigit() and 1 <= int(t) <= k for t in labels):
            return False
    return True


def check_cwd_roundtrip(n: int, edges, rc_cwd: int, expr: str,
                        rc_eval: int, out_eval: str):
    """``sperner cwd`` then ``sperner eval`` must give back the input graph."""
    if rc_cwd != 0 or rc_eval != 0:
        _fail(f"exit codes cwd={rc_cwd} eval={rc_eval}")
    if not expression_labels_ok(expr):
        _fail("expression uses a label outside 1..5")
    n2, edges2 = parse_graph(out_eval)
    if n2 != n or edges2 != frozenset(edges):
        _fail("cwd/eval round trip does not give back the input graph")


# ---------------------------------------------------------------------------
# Hypergraphs
# ---------------------------------------------------------------------------

def pair_predicates(masks) -> dict:
    """sperner, dually-sperner and 1-sperner from pairwise set differences."""
    ms = list(masks)
    sperner = dually = True
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            d = min(_popcount(a & ~b), _popcount(b & ~a))
            if d == 0:
                sperner = False
            if d > 1:
                dually = False
    return {"sperner": sperner, "dually-sperner": dually,
            "1-sperner": sperner and dually}


def is_conformal(n: int, masks) -> bool:
    """Every maximal clique of the co-occurrence graph lies in a hyperedge.

    Bron-Kerbosch with pivoting over bitmasks; the empty clique and single
    vertices count, so an edgeless family is never conformal.
    """
    adj = [0] * n
    for e in masks:
        for v in range(n):
            if e >> v & 1:
                adj[v] |= e & ~(1 << v)
    ms = list(masks)
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            if not any(e & r == r for e in ms):
                return False
            continue
        px = p | x
        pivot = (px & -px).bit_length() - 1
        cand = p & ~adj[pivot]
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            stack.append((r | b, p & adj[v], x & adj[v]))
            p &= ~b
            x |= b
    return True


def _dependent(masks, x: int) -> bool:
    return any(e & x == e for e in masks)


def parse_hyp_check(out: str) -> dict:
    """predicate -> (value, witness lines) from ``hyp-check`` text output."""
    preds: dict = {}
    current = None
    for line in out.splitlines():
        if line.startswith("  "):
            if current is None:
                _fail("witness line before any predicate")
            preds[current][1].append(line.strip())
            continue
        name, sep, val = line.partition(": ")
        if not sep:
            _fail(f"bad predicate line {line!r}")
        current = name
        preds[name] = (_parse_bool(val), [])
    return preds


def _check_threshold_witness(n: int, masks, lines: list[str]):
    """Printed ``w v p/q`` and ``t p/q`` lines separate exactly: w(X) >= t
    iff X contains a hyperedge, over all 2^n subsets."""
    weights = [None] * n
    t = None
    for line in lines:
        toks = line.split()
        if toks[0] == "w" and len(toks) == 3:
            weights[int(toks[1])] = Fraction(toks[2])
        elif toks[0] == "t" and len(toks) == 2:
            t = Fraction(toks[1])
        else:
            _fail(f"bad threshold witness line {line!r}")
    if t is None or any(w is None for w in weights):
        _fail("threshold witness is incomplete")
    if t < 0 or any(w < 0 for w in weights):
        _fail("threshold witness has a negative entry")
    scale = math.lcm(t.denominator, *(w.denominator for w in weights))
    wint = [int(w * scale) for w in weights]
    tint = int(t * scale)
    wsum = [0] * (1 << n)
    dep = bytearray(1 << n)
    for e in masks:
        dep[e] = 1
    for x in range(1 << n):
        if x:
            low = x & -x
            wsum[x] = wsum[x ^ low] + wint[low.bit_length() - 1]
            if not dep[x]:
                y = x
                while y:
                    b = y & -y
                    y ^= b
                    if dep[x ^ b]:
                        dep[x] = 1
                        break
        if (wsum[x] >= tint) != bool(dep[x]):
            _fail(f"threshold witness misclassifies the set with mask {x}")


def _parse_set(text: str) -> int:
    if not (text.startswith("{") and text.endswith("}")):
        _fail(f"bad set {text!r}")
    body = text[1:-1].strip()
    return _mask(int(t) for t in body.split(",")) if body else 0


def _check_asummability_witness(n: int, masks, lines: list[str]):
    """Two independent and two dependent sets with equal vector sums."""
    ind, dep = [], []
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag == "independent":
            ind.append(_parse_set(rest))
        elif tag == "dependent":
            dep.append(_parse_set(rest))
        else:
            _fail(f"bad asummability witness line {line!r}")
    if len(ind) != 2 or len(dep) != 2:
        _fail("2-asummability witness needs two sets of each kind")
    if any(_dependent(masks, a) for a in ind) or not all(_dependent(masks, b) for b in dep):
        _fail("asummability witness sets have the wrong dependence")
    sums = lambda sets: [sum(s >> v & 1 for s in sets) for v in range(n)]
    if sums(ind) != sums(dep):
        _fail("asummability witness sums differ")


PREDICATES = ("sperner", "dually-sperner", "1-sperner", "conformal",
              "threshold", "2-asummable")


def check_hyp_check(n: int, masks, one_sperner: bool, rc: int, out: str):
    """``sperner hyp-check FILE`` on a 1-Sperner input (threshold by the
    paper's theorem) or on a planted non-threshold Sperner family (it holds
    two hyperedges {a,b}, {c,d} while {a,c}, {b,d} are independent)."""
    preds = parse_hyp_check(out)
    if list(preds) != list(PREDICATES):
        _fail(f"expected predicates {PREDICATES}, got {list(preds)}")
    values = {k: v for k, (v, _) in preds.items()}
    if rc != (0 if all(values.values()) else 1):
        _fail(f"exit code {rc} does not match the predicates")
    for name, want in pair_predicates(masks).items():
        if values[name] != want:
            _fail(f"{name} printed {values[name]}, expected {want}")
    if values["conformal"] != is_conformal(n, masks):
        _fail("conformal is wrong")
    if values["threshold"]:
        _check_threshold_witness(n, masks, preds["threshold"][1])
    elif preds["threshold"][1]:
        _fail("threshold is false but a witness was printed")
    if not values["2-asummable"]:
        _check_asummability_witness(n, masks, preds["2-asummable"][1])
    elif preds["2-asummable"][1]:
        _fail("2-asummable is true but a witness was printed")
    if one_sperner:
        for name in ("sperner", "dually-sperner", "1-sperner", "threshold",
                     "2-asummable"):
            if not values[name]:
                _fail(f"{name} must hold on a 1-Sperner input")
    elif values["threshold"] or values["2-asummable"] or not values["sperner"]:
        _fail("planted non-threshold family reported threshold or 2-asummable")


# ---------------------------------------------------------------------------
# Gluing trees
# ---------------------------------------------------------------------------

def recompose_text(out: str) -> tuple[frozenset, frozenset]:
    """(vertices, hyperedges) of the gluing tree printed by ``decompose``.

    Lines are ``z=V`` for a gluing node and ``leaf edges={}`` or
    ``leaf edges={{}}`` for a leaf, indented two spaces per level; a node's
    first child is glued with {z} + e, its second with V(first) + e.
    """
    items = []
    for line in out.splitlines():
        if not line.strip():
            continue
        body = line.lstrip(" ")
        depth = (len(line) - len(body)) // 2
        if body.startswith("z="):
            items.append((depth, int(body[2:])))
        elif body == "leaf edges={}":
            items.append((depth, False))
        elif body == "leaf edges={{}}":
            items.append((depth, True))
        else:
            _fail(f"bad tree line {line!r}")
    if not items or items[0][0] != 0:
        _fail("tree has no root")
    # the listing is preorder; pending holds [depth, z, children] of the
    # nodes still waiting for a child, done the finished root
    done = []
    pending = []
    for depth, val in items:
        if pending and pending[-1][0] >= depth:
            _fail("node with fewer than two children")
        if isinstance(val, bool):
            node = (frozenset(), frozenset({frozenset()}) if val else frozenset())
            _attach(pending, done, depth, node)
        else:
            pending.append([depth, val, []])
    if pending or len(done) != 1:
        _fail("incomplete tree")
    return done[0]


def _attach(pending: list, done: list, depth: int, node):
    while True:
        if not pending:
            if depth != 0 or done:
                _fail("tree has more than one root")
            done.append(node)
            return
        parent = pending[-1]
        if depth != parent[0] + 1:
            _fail("child indentation does not match its parent")
        parent[2].append(node)
        if len(parent[2]) < 2:
            return
        pending.pop()
        (v1, e1), (v2, e2) = parent[2]
        z = parent[1]
        if z in v1 or z in v2 or v1 & v2:
            _fail(f"gluing at {z} is not vertex-disjoint")
        edges = {e | {z} for e in e1} | {v1 | e for e in e2}
        node = (v1 | v2 | {z}, frozenset(edges))
        depth = parent[0]


def check_decompose(n: int, masks, rc: int, out: str):
    """The printed gluing tree recomposes to the input hypergraph."""
    if rc != 0:
        _fail(f"exit code {rc}")
    vertices, got = recompose_text(out)
    if vertices != frozenset(range(n)) or {_mask(e) for e in got} != set(masks) \
            or len(got) != len(masks):
        _fail("gluing tree does not recompose to the input")
