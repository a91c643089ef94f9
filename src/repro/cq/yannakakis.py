"""The Yannakakis algorithm on join trees (alpha-acyclic queries).

Yannakakis' algorithm answers acyclic CQs in polynomial time: materialise one
relation per join-tree node, run an upward semijoin pass (bottom-up
filtering), a downward pass, and finally join along the tree.  Together with
join trees for width-1 GHDs it is the algorithmic core of Proposition 2.2's
upper bound; the GHD-guided evaluator in
:mod:`repro.cq.decomposition_eval` reduces bounded-ghw queries to exactly this
routine after materialising bag relations (:mod:`repro.cq.bags`).

The join sweep is output-aware (:func:`yannakakis_full`): it is rooted at a
node carrying output columns, and only the subtrees that add output columns
are joined and visited by the downward pass.

Within the unified engine (:mod:`repro.engine`) this module is the execution
half of both decomposition strategies: the planner's ``direct-yannakakis``
and ``ghd-guided`` plans only differ in which decomposition feeds the bag
materialisation that ends here.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Mapping, Sequence

from repro.cq.relational import NamedRelation
from repro.cq.statistics import (
    ORDERING_COST,
    estimate_semijoin_fraction,
    join_ordering,
    record_reducer_ordering,
)

Node = Hashable

#: A parent smaller than this is filtered in its children's given order —
#: estimating selectivities costs more than any misordering could save.
_REDUCER_MIN_ROWS = 64


class JoinTree:
    """A rooted join tree over arbitrary node identifiers.

    Parameters
    ----------
    relations:
        Mapping node -> :class:`NamedRelation`.
    parent:
        Mapping node -> parent node (``None`` for the root).  Exactly one root
        is required; forests should be connected beforehand (or evaluated per
        tree and combined by the caller).
    """

    def __init__(self, relations: Mapping[Node, NamedRelation], parent: Mapping[Node, Node | None]) -> None:
        self.relations: dict[Node, NamedRelation] = dict(relations)
        self.parent: dict[Node, Node | None] = dict(parent)
        roots = [n for n, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"a join tree needs exactly one root, found {len(roots)}")
        self.root = roots[0]
        self.children: dict[Node, list[Node]] = {n: [] for n in self.relations}
        for node, parent_node in self.parent.items():
            if parent_node is not None:
                self.children[parent_node].append(node)

    def topological_order(self) -> list[Node]:
        """Nodes ordered root-first (parents before children)."""
        order = [self.root]
        frontier = [self.root]
        while frontier:
            current = frontier.pop()
            for child in self.children[current]:
                order.append(child)
                frontier.append(child)
        return order

    def rerooted(self, node: Node) -> "JoinTree":
        """The same tree rooted at ``node``: the parent edges on the path
        from ``node`` up to the current root are reversed, every other edge
        keeps its direction.  Returns ``self`` when ``node`` is the root."""
        if node not in self.parent:
            raise KeyError(node)
        if node == self.root:
            return self
        parent = dict(self.parent)
        below, current = None, node
        while current is not None:
            above = self.parent[current]
            parent[current] = below
            below, current = current, above
        return JoinTree(self.relations, parent)


def _ordered_children(relations, parent_relation, children: list) -> list:
    """The order in which a parent consumes its children's semijoin filters.

    The filters commute — the reduced parent is the rows matching *every*
    child, whatever the order — so ordering is purely a cost decision: apply
    the estimated-most-selective child first and the later (more expensive)
    probes scan an already-shrunk parent.  Only consulted in cost-based mode
    for parents large enough that the sketch lookups pay for themselves;
    ties keep the given order (``sorted`` is stable), so uniform data keeps
    the historical sweep.
    """
    if (
        len(children) < 2
        or len(parent_relation) < _REDUCER_MIN_ROWS
        or join_ordering() != ORDERING_COST
    ):
        return children
    parent_stats = parent_relation.statistics()
    parent_columns = set(parent_relation.columns)

    def fraction(child: Node) -> float:
        child_relation = relations[child]
        shared = [c for c in child_relation.columns if c in parent_columns]
        return estimate_semijoin_fraction(
            parent_stats, child_relation.statistics(), shared
        )

    record_reducer_ordering()
    return sorted(children, key=fraction)


def semijoin_reduce(
    tree: JoinTree, descend: Collection[Node] | None = None
) -> dict[Node, NamedRelation]:
    """The two semijoin passes of Yannakakis; returns the reduced relations.

    After reduction every remaining row participates in at least one global
    solution (the *global consistency* property of acyclic instances).

    ``descend`` limits the downward pass to the given children (all of them
    by default).  The upward pass always runs in full, so the root — and
    every node the downward pass reaches — is still globally consistent;
    the other nodes are only filtered by their own subtrees.

    The upward pass visits parents leaves-first and consumes each parent's
    children in selectivity order (:func:`_ordered_children`) — equivalent
    to the classic per-node sweep, since a node's children all precede it in
    the reversed topological order and semijoin filters commute.
    """
    relations = dict(tree.relations)
    order = tree.topological_order()
    # Relations we created ourselves (not the caller's) may be filtered in
    # place; the caller's relations are only replaced, never mutated.  Either
    # way the semijoins reuse the key indexes cached on the probe side — the
    # downward pass hits each parent's index once per child.
    owned: set = set()

    def filter_node(node: Node, against: Node) -> None:
        current = relations[node]
        if node in owned:
            current.semijoin_inplace(relations[against])
            return
        filtered = current.semijoin(relations[against])
        if filtered is not current:
            relations[node] = filtered
            owned.add(node)

    # Upward pass (leaves to root): filter parents by children.
    for node in reversed(order):
        children = tree.children[node]
        if not children:
            continue
        for child in _ordered_children(relations, relations[node], children):
            filter_node(node, child)
    # Downward pass (root to leaves): filter children by parents.
    for node in order:
        for child in tree.children[node]:
            if descend is None or child in descend:
                filter_node(child, node)
    return relations


def yannakakis_boolean(tree: JoinTree) -> bool:
    """BCQ via Yannakakis: after the upward pass, the query is satisfiable iff
    the root relation (and every other) is non-empty."""
    relations = dict(tree.relations)
    if any(len(r) == 0 for r in relations.values()):
        return False
    order = tree.topological_order()
    for node in reversed(order):
        parent = tree.parent[node]
        if parent is None:
            continue
        relations[parent] = relations[parent].semijoin(relations[node])
        if not relations[parent]:
            return False
    return bool(relations[tree.root])


def _output_root(tree: JoinTree, output: set) -> Node:
    """A node whose relation carries the most output columns.  Ties go to
    the first node in root-first order, so the current root keeps its place
    on a tie."""
    return max(
        tree.topological_order(),
        key=lambda node: sum(c in output for c in tree.relations[node].columns),
    )


def _sweep_plan(tree: JoinTree, output: set) -> tuple[set, dict]:
    """The evaluated subtree of the output-aware sweep, in one bottom-up pass.

    Returns ``(descend, needed_above)``: the children the sweep joins into
    their parents, and for each non-root node the columns its result must
    keep for its parent — the output columns of its evaluated subtree plus
    the columns it shares with its parent.  By the running-intersection
    property those are the only columns of a subtree that occur outside
    it.

    A child is descended into only when its subtree carries an output column
    its parent lacks.  Otherwise the subtree is a pure filter: after the
    upward pass every parent row already extends into it, so joining it
    back is the identity.
    """
    descend: set = set()
    needed_above: dict = {}
    below: dict = {}
    for node in reversed(tree.topological_order()):
        columns = tree.relations[node].columns
        outputs = {c for c in columns if c in output}
        for child in tree.children[node]:
            if not below[child].issubset(columns):
                descend.add(child)
                outputs |= below[child]
        below[node] = outputs
        parent = tree.parent[node]
        if parent is not None:
            parent_columns = tree.relations[parent].columns
            needed_above[node] = outputs.union(
                c for c in columns if c in parent_columns
            )
    return descend, needed_above


def yannakakis_full(tree: JoinTree, output_columns: Sequence[Hashable] | None = None) -> NamedRelation:
    """Full enumeration via Yannakakis: semijoin-reduce, then join bottom-up,
    projecting intermediate results onto the columns still needed above.

    ``output_columns`` defaults to the union of all columns (the full CQ
    case); supplying a subset yields the projection of the answers.

    The sweep is output-aware.  It is rooted at a node carrying the most
    output columns (:meth:`JoinTree.rerooted`), and joins only the subtrees
    that carry an output column their parent lacks (:func:`_sweep_plan`);
    the downward semijoin pass runs along those edges only.  Every other
    subtree is a filter the upward pass has already applied, so the answers
    are exact.
    """
    all_columns = dict.fromkeys(
        column for relation in tree.relations.values() for column in relation.columns
    )
    if output_columns is None:
        output_columns = tuple(all_columns)
    else:
        output_columns = tuple(output_columns)
    missing = [c for c in output_columns if c not in all_columns]
    if missing:
        raise ValueError(f"output columns {missing!r} do not occur in the join tree")
    output = set(output_columns)
    tree = tree.rerooted(_output_root(tree, output))
    descend, needed_above = _sweep_plan(tree, output)
    reduced = semijoin_reduce(tree, descend=descend)

    results: dict[Node, NamedRelation] = {}
    for node in reversed(tree.topological_order()):
        if node != tree.root and node not in descend:
            continue
        result = reduced[node]
        for child in tree.children[node]:
            if child in descend:
                result = result.natural_join(results.pop(child))
        if node != tree.root:
            keep = needed_above[node]
            result = result.project([c for c in result.columns if c in keep])
        results[node] = result
    return results[tree.root].project(output_columns)
