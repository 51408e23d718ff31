"""Test-side reference graphs: G(n, p) draws and relabelled subgraphs.

The package reads every piece of a graph in the graph's own ids and
builds no subgraph.  The tests that compare a piece with the same piece
decomposed or searched on its own build it here, by the plainest route:
keep every edge of g with both ends kept, and number the kept vertices
densely in increasing order.
"""

from nulldecomp import Graph


def random_simple_graph(n, p, rng):
    """Erdos-Renyi G(n, p), for codec round-trips."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def induced_by_edge_scan(g, vertices):
    """Reference induced subgraph: keep every edge of g with both ends kept.

    Returns (subgraph, label_map) with label_map[i] the id in g of
    subgraph vertex i; labels ride along.
    """
    keep = sorted(set(vertices))
    new_id = {old: i for i, old in enumerate(keep)}
    edges = [(new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id]
    labels = [g.labels[old] for old in keep] if g.labels is not None else None
    return Graph(len(keep), edges, labels=labels), tuple(keep)


def without_vertices(g, removed):
    """g with the vertices in removed deleted, as (subgraph, label_map)."""
    gone = set(removed)
    return induced_by_edge_scan(g, [v for v in range(g.n) if v not in gone])


def pendant_tree(g, cycle, root):
    """The tree hanging off the cycle vertex root, root included: the
    component of g without its cycle edges that holds root, as
    (tree, label_map).  root is tree vertex label_map.index(root)."""
    forest = g.without_edges(cycle.edges)
    reached, todo = {root}, [root]
    while todo:
        new = set(forest.neighbors(todo.pop())) - reached
        reached |= new
        todo.extend(new)
    return induced_by_edge_scan(forest, reached)
