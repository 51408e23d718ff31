"""Output checks and input writers that do not rely on nulldecomp.

A graph is a vertex count n plus a list of (u, v) edges with u < v, on
vertices 0..n-1.  The checks recompute what they compare against with
their own code: a leaf-rule maximum matching for forests, and for a
graph with one cycle the facts that some maximum matching misses a
cycle edge and some maximum independent set misses an endpoint of one.
Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

from collections import deque


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def forest_nu(adj, drop_vertex=None, drop_edge=None):
    """Matching number of a forest by the leaf rule: a leaf joins its neighbour."""
    n = len(adj)
    live = [set(s) for s in adj]
    if drop_vertex is not None:
        for w in live[drop_vertex]:
            live[w].discard(drop_vertex)
        live[drop_vertex] = set()
    if drop_edge is not None:
        a, b = drop_edge
        live[a].discard(b)
        live[b].discard(a)
    done = [False] * n
    if drop_vertex is not None:
        done[drop_vertex] = True
    stack = [v for v in range(n) if len(live[v]) == 1]
    size = 0
    while stack:
        v = stack.pop()
        if done[v] or len(live[v]) != 1:
            continue
        (w,) = live[v]
        done[v] = done[w] = True
        size += 1
        for x in live[w]:
            if x != v:
                live[x].discard(w)
                if len(live[x]) == 1:
                    stack.append(x)
        live[w] = set()
        live[v] = set()
    return size


def cycle_vertices(adj):
    """Vertices left after repeatedly stripping leaves: the cycle, if any."""
    deg = [len(s) for s in adj]
    queue = deque(v for v in range(len(adj)) if deg[v] <= 1)
    gone = [False] * len(adj)
    while queue:
        v = queue.popleft()
        if gone[v]:
            continue
        gone[v] = True
        for w in adj[v]:
            if not gone[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    return {v for v in range(len(adj)) if not gone[v]}


def unicyclic_alpha_nu(adj):
    """(alpha, nu) of a connected graph with exactly one cycle.

    Every matching misses some cycle edge, and every independent set
    misses one end of any edge, so both reduce to forests; a forest has
    alpha = n - nu.
    """
    cyc = cycle_vertices(adj)
    cycle_edges = [(u, v) for u in cyc for v in adj[u] if v in cyc and u < v]
    nu = max(forest_nu(adj, drop_edge=e) for e in cycle_edges)
    a, b = cycle_edges[0]
    alpha = max(len(adj) - 1 - forest_nu(adj, drop_vertex=x) for x in (a, b))
    return alpha, nu


def is_bipartite(adj):
    color = [-1] * len(adj)
    for s in range(len(adj)):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def _ids(names, n, what, problems):
    ids = []
    for name in names:
        try:
            v = int(name)
        except (TypeError, ValueError):
            problems.append(f"{what}: {name!r} is not a vertex name")
            continue
        if not 0 <= v < n:
            problems.append(f"{what}: vertex {v} outside 0..{n - 1}")
            continue
        ids.append(v)
    if len(set(ids)) != len(ids):
        problems.append(f"{what}: repeated vertex")
    return set(ids)


def _check_certificates(adj, report, problems):
    n = len(adj)
    indep = _ids(report["independent_set"], n, "independent_set", problems)
    if len(report["independent_set"]) != report["alpha"]:
        problems.append("independent set size differs from alpha")
    if any(w in indep for v in indep for w in adj[v]):
        problems.append("independent set contains an edge")
    used = set()
    for pair in report["matching"]:
        ends = sorted(_ids(pair, n, "matching", problems))
        if len(pair) != 2 or len(ends) != 2 or ends[1] not in adj[ends[0]]:
            problems.append(f"matching uses a non-edge {pair}")
        elif used.intersection(ends):
            problems.append(f"matching reuses a vertex of {pair}")
        used.update(ends)
    if len(report["matching"]) != report["nu"]:
        problems.append("matching size differs from nu")


def _check_partition(whole, pieces, what, problems):
    """pieces must be pairwise disjoint and cover whole exactly."""
    seen = set()
    for piece in pieces:
        if seen & piece:
            problems.append(f"{what}: pieces overlap")
        seen |= piece
    if seen != whole:
        problems.append(f"{what}: pieces do not cover the vertex set")


def _common(n, edges, report, problems):
    if report.get("vertex_count") != n or report.get("edge_count") != len(edges):
        problems.append("vertex or edge count differs from the input")


def check_forest_report(n, edges, report):
    problems = []
    adj = adjacency(n, edges)
    _common(n, edges, report, problems)
    if report.get("shape") not in ("tree", "forest"):
        problems.append(f"shape {report.get('shape')!r} for a forest")
        return problems
    _check_certificates(adj, report, problems)
    supp = _ids(report["supp"], n, "supp", problems)
    core = _ids(report["core"], n, "core", problems)
    rest = _ids(report["n_vertices"], n, "n_vertices", problems)
    _check_partition(set(range(n)), (supp, core, rest), "supp/core/n_vertices", problems)
    nu = forest_nu(adj)
    if report["nu"] != nu:
        problems.append(f"nu {report['nu']} but a leaf-rule matching has {nu}")
    if report["alpha"] + report["nu"] != n:
        problems.append("alpha + nu != n on a bipartite input")
    if report["nullity"] != n - 2 * nu:
        problems.append(f"nullity {report['nullity']} != n - 2 nu = {n - 2 * nu}")
    if report["nullity"] != len(supp) - len(core):
        problems.append("nullity != |supp| - |core|")
    if report["singular"] != (report["nullity"] > 0):
        problems.append("singular flag disagrees with nullity")
    return problems


def check_unicyclic_report(n, edges, report):
    problems = []
    adj = adjacency(n, edges)
    _common(n, edges, report, problems)
    if report.get("shape") not in ("unicyclic", "cycle"):
        problems.append(f"shape {report.get('shape')!r} for a unicyclic graph")
        return problems
    _check_certificates(adj, report, problems)
    cyc = cycle_vertices(adj)
    if _ids(report["cycle"], n, "cycle", problems) != cyc or len(report["cycle"]) != len(cyc):
        problems.append("reported cycle differs from the graph's cycle")
    part_sets = []
    for k, part in enumerate(report["parts"]):
        what = f"part {k}"
        verts = _ids(part["vertices"], n, what, problems)
        roles = [_ids(part[key], n, what, problems) for key in ("supp", "core", "n_vertices")]
        _check_partition(verts, roles, f"{what} supp/core/n_vertices", problems)
        part_sets.append(verts)
    if report["type"] not in ("I", "II"):
        problems.append(f"type {report['type']!r}")
    covered = set(range(n)) if report["type"] == "I" else set(range(n)) - cyc
    _check_partition(covered, part_sets, "parts", problems)
    alpha, nu = unicyclic_alpha_nu(adj)
    if (report["alpha"], report["nu"]) != (alpha, nu):
        problems.append(
            f"alpha, nu = {report['alpha']}, {report['nu']} but recomputed {alpha}, {nu}"
        )
    if is_bipartite(adj) and report["alpha"] + report["nu"] != n:
        problems.append("alpha + nu != n on a bipartite input")
    if report["singular"] != (report["nullity"] > 0):
        problems.append("singular flag disagrees with nullity")
    return problems


def check_invariants(result):
    if not result:
        return ["no invariants reported"]
    return [f"invariant failed: {name}" for name, ok in sorted(result.items()) if ok is not True]


def edge_list_text(n, edges):
    return f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def graph6_text(n, edges):
    """graph6 encoding: size header, then the upper triangle column by column."""
    if n < 63:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)
    ]
    return "".join(chr(x + 63) for x in head + body) + "\n"
