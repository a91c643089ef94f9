"""Tests for the CQ solvers: backtracking baseline, Yannakakis, GHD-guided.

The key invariant exercised throughout: every evaluator agrees with the
generic backtracking solver on answers, Boolean answers, and counts.
"""

import pytest

from repro.cq import (
    Atom,
    ConjunctiveQuery,
    Database,
    boolean_answer,
    count_answers,
    decomposition_boolean_answer,
    decomposition_count_answers,
    decomposition_enumerate_answers,
    enumerate_answers,
)
from repro.cq import generators as cqgen
from repro.cq.counting import count_answers_via_join_tree, naive_count
from repro.cq.decomposition_eval import build_bag_join_tree, DecompositionMismatchError
from repro.cq.columnar import ColumnarRelation, build_columnar_bag_tree
from repro.cq.homomorphism import naive_enumerate_answers
from repro.cq.relational import NamedRelation, from_atom
from repro.cq.yannakakis import JoinTree, yannakakis_boolean, yannakakis_full
from repro.widths.ghw import ghw_upper_bound


def small_path_instance():
    query = cqgen.chain_query(3)
    database = Database()
    for a in range(3):
        for b in range(3):
            if a != b:
                database.add_fact("R0", (a, b))
                database.add_fact("R1", (a, b))
                database.add_fact("R2", (a, b))
    return query, database


class TestBacktrackingSolver:
    def test_empty_query_is_true(self):
        assert boolean_answer(ConjunctiveQuery([]), Database())

    def test_missing_relation_means_false(self):
        query = cqgen.chain_query(2)
        assert not boolean_answer(query, Database())

    def test_path_instance_counts(self):
        query, database = small_path_instance()
        # Walks of length 3 in the complete digraph without loops on 3 nodes.
        assert count_answers(query, database) == 3 * 2 * 2 * 2

    def test_enumerate_respects_free_variables(self):
        query, database = small_path_instance()
        projected = query.project(["x0", "x3"])
        answers = enumerate_answers(projected, database)
        assert all(len(row) == 2 for row in answers)
        assert answers == {
            (row[0], row[3]) for row in enumerate_answers(query, database)
        }

    def test_boolean_projection(self):
        query, database = small_path_instance()
        assert enumerate_answers(query.as_boolean(), database) == {()}

    def test_planted_database_is_satisfiable(self):
        query = cqgen.jigsaw_query(2, 2)
        database = cqgen.planted_database(query, 4, 6, seed=11)
        assert boolean_answer(query, database)

    def test_unsatisfiable_database(self):
        query = cqgen.cycle_query(4)
        database = cqgen.unsatisfiable_database(query, 4, 10, seed=2)
        assert not boolean_answer(query, database)

    def test_proper_colouring_counts_on_cycles(self):
        # Proper q-colourings of the cycle C_n: (q-1)^n + (-1)^n (q-1).
        for n, q in [(3, 3), (4, 3), (5, 2)]:
            query = cqgen.cycle_query(n)
            database = cqgen.grid_constraint_database(query, colours=q)
            expected = (q - 1) ** n + (-1) ** n * (q - 1)
            assert count_answers(query, database) == expected


class TestYannakakis:
    def _tree(self):
        relations = {
            "top": NamedRelation(("x", "y"), {(1, 2), (2, 3)}),
            "left": NamedRelation(("y", "z"), {(2, 5), (3, 6)}),
            "right": NamedRelation(("y", "w"), {(2, 7)}),
        }
        parent = {"top": None, "left": "top", "right": "top"}
        return JoinTree(relations, parent)

    def test_join_tree_requires_single_root(self):
        with pytest.raises(ValueError):
            JoinTree({"a": NamedRelation(("x",), set())}, {"a": "a"})

    def test_boolean_answer(self):
        assert yannakakis_boolean(self._tree())

    def test_boolean_false_when_branch_empty(self):
        tree = self._tree()
        tree.relations["right"] = NamedRelation(("y", "w"), set())
        assert not yannakakis_boolean(tree)

    def test_full_enumeration_matches_naive_join(self):
        tree = self._tree()
        full = yannakakis_full(tree)
        assert set(full.columns) == {"x", "y", "z", "w"}
        assert len(full) == 1
        assert naive_count(tree) == 1

    def test_projection_output(self):
        tree = self._tree()
        result = yannakakis_full(tree, output_columns=("x",))
        assert result.rows == {(1,)}

    def test_counting_dp_matches_naive(self):
        tree = self._tree()
        assert count_answers_via_join_tree(tree) == naive_count(tree)

    def test_rerooted_reverses_the_path_to_the_new_root(self):
        tree = self._tree().rerooted("left")
        assert tree.root == "left"
        assert tree.parent == {"left": None, "top": "left", "right": "top"}
        assert tree.children["top"] == ["right"]
        assert self._tree().rerooted("top").parent["top"] is None
        with pytest.raises(KeyError):
            tree.rerooted("nowhere")

    def test_projection_onto_a_leaf_matches_the_full_join(self):
        tree = self._tree()
        full = yannakakis_full(tree)
        for columns in [("z",), ("w", "z"), ("x", "w"), ()]:
            expected = full.project(columns).rows
            assert yannakakis_full(tree, output_columns=columns).rows == expected

    def test_unknown_output_column_rejected(self):
        with pytest.raises(ValueError):
            yannakakis_full(self._tree(), output_columns=("nope",))


def _decoded(relation):
    return relation.decode_rows() if isinstance(relation, ColumnarRelation) else relation.rows


# (bag tree builder, per-atom relation, relation class) for each kernel.
KERNELS = [
    pytest.param(build_bag_join_tree, from_atom, NamedRelation, id="tuple-set"),
    pytest.param(
        build_columnar_bag_tree,
        lambda atom, database: database.columnar_view(atom),
        ColumnarRelation,
        id="columnar",
    ),
]

# A spine R0(x0,x1) - R1(x1,x2) - R2(x2,x3) - R3(x3,x4) with a pendant
# filter S_i(x_i, y_i) on every spine node, rooted at the middle pendant so
# the sweep has to re-root towards an output bag.
_CATERPILLAR_PARENT = {
    "S2": None, "R2": "S2", "R1": "R2", "R0": "R1", "R3": "R2",
    "S0": "R0", "S1": "R1", "S3": "R3",
}


class TestOutputAwareSweep:
    """Structural guard for the output-aware Yannakakis sweep: subtrees
    without output columns are filters the upward pass already applied, so
    they are neither joined nor visited by the downward pass."""

    @staticmethod
    def _count_calls(monkeypatch, relation_class):
        calls = {"natural_join": [], "semijoin": 0}

        def wrap(name, record):
            original = getattr(relation_class, name)

            def counted(self, other):
                record(self, other)
                return original(self, other)

            monkeypatch.setattr(relation_class, name, counted)

        def count_semijoin(self, other):
            calls["semijoin"] += 1

        wrap("natural_join", lambda self, other: calls["natural_join"].append(
            set(self.columns) | set(other.columns)))
        wrap("semijoin", count_semijoin)
        wrap("semijoin_inplace", count_semijoin)
        return calls

    @staticmethod
    def _rotated_cycle6(rotation):
        # Rotating the cycle's variable names maps its edge set onto itself,
        # so the decomposition and its bag names stay put; the rotated
        # query's x0 is the original's x_rotation, and projecting onto it
        # moves the output between bags of different ``repr`` rank.
        return cqgen.cycle_query(6).project([f"x{rotation}"])

    def test_rotations_move_the_output_off_the_default_root(self):
        missed = []
        for rotation in range(6):
            query = self._rotated_cycle6(rotation)
            database = cqgen.random_database(query, 6, 24, seed=rotation)
            tree = build_bag_join_tree(
                query, database, ghw_upper_bound(query.hypergraph()).decomposition
            )
            (output,) = query.free_variables
            missed.append(output not in tree.relations[tree.root].columns)
        assert any(missed), "every rotation's output sits in the default root"

    @pytest.mark.parametrize("build,atom_relation,relation_class", KERNELS)
    @pytest.mark.parametrize("rotation", range(6))
    def test_cycle6_projected_to_one_variable_joins_nothing(
        self, monkeypatch, build, atom_relation, relation_class, rotation
    ):
        query = self._rotated_cycle6(rotation)
        database = cqgen.random_database(query, 6, 24, seed=rotation)
        tree = build(query, database, ghw_upper_bound(query.hypergraph()).decomposition)
        calls = self._count_calls(monkeypatch, relation_class)
        result = yannakakis_full(tree, output_columns=query.free_variables)
        assert _decoded(result) == naive_enumerate_answers(query, database)
        assert calls["natural_join"] == []
        # Only the upward pass semijoins: one per tree edge.
        assert calls["semijoin"] == len(tree.relations) - 1

    @pytest.mark.parametrize("build,atom_relation,relation_class", KERNELS)
    def test_distant_outputs_join_exactly_the_path(
        self, monkeypatch, build, atom_relation, relation_class
    ):
        spine = [Atom(f"R{i}", [f"x{i}", f"x{i + 1}"]) for i in range(4)]
        pendants = [Atom(f"S{i}", [f"x{i}", f"y{i}"]) for i in range(4)]
        query = ConjunctiveQuery(spine + pendants).project(["x0", "x4"])
        database = cqgen.random_database(query, 5, 14, seed=3)
        tree = JoinTree(
            {a.relation: atom_relation(a, database) for a in spine + pendants},
            _CATERPILLAR_PARENT,
        )
        calls = self._count_calls(monkeypatch, relation_class)
        result = yannakakis_full(tree, output_columns=query.free_variables)
        assert _decoded(result) == naive_enumerate_answers(query, database)
        # R0 - R1 - R2 - R3: three joins over spine columns only, and three
        # downward semijoins on top of the seven upward ones.
        assert len(calls["natural_join"]) == 3
        assert set().union(*calls["natural_join"]) == {f"x{i}" for i in range(5)}
        assert calls["semijoin"] == 7 + 3


class TestDecompositionGuidedEvaluation:
    @pytest.mark.parametrize(
        "query_factory,seed",
        [
            (lambda: cqgen.cycle_query(4), 0),
            (lambda: cqgen.cycle_query(5), 1),
            (lambda: cqgen.chain_query(4), 2),
            (lambda: cqgen.star_query(3), 3),
            (lambda: cqgen.jigsaw_query(2, 2), 4),
            (lambda: cqgen.clique_query(3), 5),
        ],
    )
    def test_agrees_with_baseline(self, query_factory, seed):
        query = query_factory()
        database = cqgen.planted_database(query, 3, 6, seed=seed)
        assert decomposition_boolean_answer(query, database) == boolean_answer(query, database)
        assert decomposition_enumerate_answers(query, database) == enumerate_answers(query, database)
        assert decomposition_count_answers(query, database) == count_answers(query, database)

    def test_unsatisfiable_instances_agree(self):
        query = cqgen.jigsaw_query(2, 2)
        database = cqgen.unsatisfiable_database(query, 3, 8, seed=9)
        assert not decomposition_boolean_answer(query, database)

    def test_counting_requires_full_query(self):
        query = cqgen.cycle_query(4).as_boolean()
        database = cqgen.planted_database(query, 3, 5, seed=1)
        with pytest.raises(ValueError):
            decomposition_count_answers(query, database)

    def test_boolean_query_enumeration(self):
        query = cqgen.cycle_query(4).as_boolean()
        database = cqgen.planted_database(query, 3, 5, seed=1)
        assert decomposition_enumerate_answers(query, database) == {()}

    def test_explicit_ghd_is_used(self):
        query = cqgen.cycle_query(4)
        database = cqgen.grid_constraint_database(query, colours=3)
        ghd = ghw_upper_bound(query.hypergraph()).decomposition
        assert decomposition_count_answers(query, database, ghd=ghd) == 18

    def test_mismatched_ghd_rejected(self):
        query = cqgen.cycle_query(4)
        other = cqgen.chain_query(6)
        database = cqgen.grid_constraint_database(query, colours=3)
        foreign_ghd = ghw_upper_bound(other.hypergraph()).decomposition
        with pytest.raises(DecompositionMismatchError):
            build_bag_join_tree(query, database, foreign_ghd)

    def test_bag_join_tree_structure(self):
        query = cqgen.cycle_query(5)
        database = cqgen.grid_constraint_database(query, colours=3)
        ghd = ghw_upper_bound(query.hypergraph()).decomposition
        tree = build_bag_join_tree(query, database, ghd)
        assert set(tree.relations) == set(ghd.bags)
