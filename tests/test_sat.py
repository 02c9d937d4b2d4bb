"""Unit tests for the CDCL SAT solver and CNF layer."""

import io

import pytest

from repro.sat import (
    Cnf,
    Solver,
    SolverStats,
    enumerate_models,
    luby,
    read_dimacs,
    solve_cnf,
    write_dimacs,
)


class TestCnf:
    def test_new_vars(self):
        cnf = Cnf()
        assert cnf.new_vars(3) == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_add_clause_checks_allocation(self):
        cnf = Cnf()
        with pytest.raises(ValueError):
            cnf.add_clause([1])

    def test_zero_literal_rejected(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_copy_is_independent(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        clone = cnf.copy()
        clone.add_clause([-a])
        clone.clauses[0].append(-b)
        assert cnf.clauses == [[a, b]]
        assert clone.num_vars == cnf.num_vars

    def test_true_false_lits(self):
        cnf = Cnf()
        t = cnf.true_lit()
        assert cnf.false_lit() == -t
        model = solve_cnf(cnf)
        assert model[abs(t)] is True

    def test_gate_and(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = cnf.gate_and([a, b])
        cnf.add_clause([out])
        model = solve_cnf(cnf)
        assert model[a] and model[b]

    def test_gate_and_empty_is_true(self):
        cnf = Cnf()
        out = cnf.gate_and([])
        cnf.add_clause([out])
        assert solve_cnf(cnf) is not None

    def test_gate_or_forced_false(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = cnf.gate_or([a, b])
        cnf.add_clause([-out])
        model = solve_cnf(cnf)
        assert not model[a] and not model[b]

    def test_gate_or_empty_is_false(self):
        cnf = Cnf()
        out = cnf.gate_or([])
        cnf.add_clause([out])
        assert solve_cnf(cnf) is None

    def test_gate_iff(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = cnf.gate_iff(a, b)
        cnf.add_clause([out])
        cnf.add_clause([a])
        model = solve_cnf(cnf)
        assert model[b] is True

    def test_gate_ite(self):
        cnf = Cnf()
        c, t, e = cnf.new_vars(3)
        out = cnf.gate_ite(c, t, e)
        cnf.add_clause([out])
        cnf.add_clause([c])
        cnf.add_clause([-t])
        assert solve_cnf(cnf) is None  # c true forces out == t == false

    def test_exactly_one(self):
        cnf = Cnf()
        lits = cnf.new_vars(4)
        cnf.exactly_one(lits)
        model = solve_cnf(cnf)
        assert sum(model[v] for v in lits) == 1

    def test_at_most_one(self):
        cnf = Cnf()
        lits = cnf.new_vars(3)
        cnf.at_most_one(lits)
        cnf.add_clause([lits[0]])
        cnf.add_clause([lits[1]])
        assert solve_cnf(cnf) is None


class TestGateFolding:
    """Gates simplify their inputs before allocating anything."""

    def test_and_drops_true_and_or_drops_false(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        t = cnf.true_lit()
        out = cnf.gate_and([a, t, b])
        assert cnf.gate_or([a, -t, b]) == cnf.gate_or([a, b])
        assert cnf.gate_and([a, b]) == out

    def test_false_absorbs_and_true_absorbs_or(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        t = cnf.true_lit()
        size = (cnf.num_vars, len(cnf.clauses))
        assert cnf.gate_and([a, -t, b]) == -t
        assert cnf.gate_or([a, t, b]) == t
        assert (cnf.num_vars, len(cnf.clauses)) == size

    def test_all_constant_inputs(self):
        cnf = Cnf()
        t = cnf.true_lit()
        assert cnf.gate_and([t, t]) == t
        assert cnf.gate_or([-t, -t]) == -t
        assert cnf.gate_and([t, -t]) == -t
        assert cnf.gate_or([t, -t]) == t

    def test_literal_with_its_negation(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        assert cnf.gate_and([a, b, -a]) == cnf.false_lit()
        assert cnf.gate_or([-b, a, b]) == cnf.true_lit()
        assert len(cnf.clauses) == 1  # only the true literal's unit clause

    def test_duplicates_collapse(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        out = cnf.gate_and([a, b, a, b])
        assert cnf.clauses == [[-out, a], [-out, b], [out, -a, -b]]

    def test_single_input_left_is_returned(self):
        cnf = Cnf()
        a = cnf.new_var()
        t = cnf.true_lit()
        size = (cnf.num_vars, len(cnf.clauses))
        assert cnf.gate_and([a, t, a]) == a
        assert cnf.gate_or([-a, -t]) == -a
        assert (cnf.num_vars, len(cnf.clauses)) == size

    def test_same_gate_twice_is_one_variable(self):
        cnf = Cnf()
        a, b, c = cnf.new_vars(3)
        out = cnf.gate_and([a, b, c])
        size = (cnf.num_vars, len(cnf.clauses))
        assert cnf.gate_and([c, a, b]) == out
        assert cnf.gate_and([b, a, c, a]) == out
        either = cnf.gate_or([a, -b])
        assert cnf.gate_or([-b, a]) == either
        assert (cnf.num_vars, len(cnf.clauses)) == (size[0] + 1, size[1] + 3)

    def test_or_and_and_share_by_de_morgan(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        assert cnf.gate_or([a, b]) == -cnf.gate_and([-a, -b])
        assert cnf.num_vars == 3

    def test_folded_gates_stay_equivalent(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        t = cnf.true_lit()
        both = cnf.gate_and([a, t, b])
        either = cnf.gate_or([-t, a, b])
        for va in (False, True):
            for vb in (False, True):
                probe = cnf.copy()
                probe.add_clause([a if va else -a])
                probe.add_clause([b if vb else -b])
                model = solve_cnf(probe)
                assert model[abs(both)] == ((va and vb) == (both > 0))
                assert model[abs(either)] == ((va or vb) == (either > 0))

    def test_copy_keeps_gate_table_independent(self):
        cnf = Cnf()
        a, b, c = cnf.new_vars(3)
        shared = cnf.gate_and([a, b])
        before = [list(clause) for clause in cnf.clauses]
        clone = cnf.copy()
        assert clone.gate_and([b, a]) == shared  # the table was copied
        clone.gate_and([a, c])
        clone.gate_or([b, c])
        assert cnf.clauses == before
        assert cnf.num_vars == 4  # a, b, c and the shared gate
        # the original's table never saw the copy's gates: building one
        # of them there allocates and emits it anew
        cnf.gate_and([a, c])
        assert cnf.num_vars == 5
        assert len(cnf.clauses) == len(before) + 3


class TestSolver:
    def test_trivially_sat(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        assert solve_cnf(cnf) == {a: True}

    def test_trivially_unsat(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        cnf.add_clause([-a])
        assert solve_cnf(cnf) is None

    def test_empty_clause_unsat(self):
        cnf = Cnf()
        cnf.new_var()
        cnf.clauses.append([])  # bypass validation deliberately
        assert not Solver(cnf).solve()

    def test_no_clauses_sat(self):
        cnf = Cnf()
        cnf.new_vars(3)
        assert solve_cnf(cnf) is not None

    def test_implication_chain(self):
        cnf = Cnf()
        xs = cnf.new_vars(20)
        for a, b in zip(xs, xs[1:]):
            cnf.add_clause([-a, b])
        cnf.add_clause([xs[0]])
        model = solve_cnf(cnf)
        assert all(model[v] for v in xs)

    def test_pigeonhole_unsat(self):
        # 5 pigeons in 4 holes — classic UNSAT requiring real search
        cnf = Cnf()
        holes = [[cnf.new_var() for _ in range(4)] for _ in range(5)]
        for row in holes:
            cnf.add_clause(row)
        for h in range(4):
            for i in range(5):
                for j in range(i + 1, 5):
                    cnf.add_clause([-holes[i][h], -holes[j][h]])
        assert solve_cnf(cnf) is None

    def test_xor_chain_sat(self):
        cnf = Cnf()
        a, b, c = cnf.new_vars(3)
        # a xor b, b xor c
        cnf.add_clauses([[a, b], [-a, -b], [b, c], [-b, -c]])
        model = solve_cnf(cnf)
        assert model[a] != model[b] and model[b] != model[c]

    def test_stats_populated(self):
        cnf = Cnf()
        xs = cnf.new_vars(8)
        for i in range(len(xs) - 2):
            cnf.add_clause([-xs[i], xs[i + 1], xs[i + 2]])
        solver = Solver(cnf)
        assert solver.solve()
        assert solver.stats["propagations"] >= 0

    def test_construction_leaves_cnf_pristine(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        before = [list(c) for c in cnf.clauses]
        solver = Solver(cnf)
        assert solver.solve()
        assert [list(c) for c in cnf.clauses] == before


def _pigeonhole(pigeons, holes):
    cnf = Cnf()
    grid = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in grid:
        cnf.add_clause(row)
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                cnf.add_clause([-grid[i][h], -grid[j][h]])
    return cnf


class TestIncremental:
    def test_add_clause_after_solve(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        solver = Solver(cnf)
        assert solver.solve()
        model = solver.model()
        assert solver.add_clause([-a])
        assert solver.solve()
        assert solver.model()[b] is True
        # -b is root-falsified (b was propagated at level 0): add_clause
        # detects unsatisfiability immediately
        assert not solver.add_clause([-b])
        assert not solver.solve()

    def test_add_clause_tightens_to_unsat(self):
        cnf = Cnf()
        a = cnf.new_var()
        solver = Solver(cnf)
        assert solver.solve()
        solver.add_clause([a])
        assert solver.solve()
        assert not solver.add_clause([-a])
        assert not solver.solve()

    def test_add_clause_validates_literals(self):
        cnf = Cnf()
        cnf.new_var()
        solver = Solver(cnf)
        with pytest.raises(ValueError):
            solver.add_clause([0])
        with pytest.raises(ValueError):
            solver.add_clause([7])

    def test_learned_state_survives_solves(self):
        cnf = _pigeonhole(5, 5)  # satisfiable: a permutation
        solver = Solver(cnf)
        assert solver.solve()
        learned_before = solver.stats.learned
        assert solver.solve()  # re-solve: keeps clauses, stays SAT
        assert solver.stats.learned >= learned_before
        assert solver.stats.solves == 2

    def test_stats_snapshot_arithmetic(self):
        cnf = _pigeonhole(5, 4)
        solver = Solver(cnf)
        before = solver.stats.copy()
        assert not solver.solve()
        delta = solver.stats - before
        assert delta.conflicts > 0 and delta.solves == 1
        assert (before + delta).conflicts == solver.stats.conflicts
        with pytest.raises(KeyError):
            solver.stats["no_such_counter"]

    def test_learned_clause_database_reduction(self):
        cnf = _pigeonhole(6, 5)
        solver = Solver(cnf)
        solver.max_learnts = 8.0  # force reductions during the search
        assert not solver.solve()  # still correctly UNSAT
        assert solver.stats.deleted > 0
        assert solver.max_learnts > 8.0  # budget grew geometrically

    def test_reduction_preserves_model_correctness(self):
        cnf = _pigeonhole(6, 6)
        solver = Solver(cnf)
        solver.max_learnts = 8.0
        assert solver.solve()
        model = solver.model()
        for clause in cnf.clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


class TestEnumerate:
    def test_enumerate_all(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        models = list(enumerate_models(cnf))
        assert len(models) == 3

    def test_enumerate_keeps_cnf_pristine(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        first = {frozenset(m.items()) for m in enumerate_models(cnf)}
        assert len(cnf.clauses) == 1  # no blocking clauses leaked
        second = {frozenset(m.items()) for m in enumerate_models(cnf)}
        assert first == second and len(first) == 3

    def test_enumerate_rebuild_matches_incremental(self):
        cnf = Cnf()
        xs = cnf.new_vars(4)
        cnf.add_clause(xs)
        cnf.add_clause([-xs[0], -xs[1]])
        incremental = {frozenset(m.items()) for m in enumerate_models(cnf)}
        rebuilt = {
            frozenset(m.items())
            for m in enumerate_models(cnf, incremental=False)
        }
        assert incremental == rebuilt
        assert len(cnf.clauses) == 2

    def test_enumerate_stats_out(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        stats = []
        models = list(enumerate_models(cnf, stats_out=stats))
        assert len(stats) == len(models) == 3
        assert all(isinstance(s, SolverStats) for s in stats)
        assert all(s.solves == 1 for s in stats)  # per-solve deltas

    def test_enumerate_projection(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        models = list(enumerate_models(cnf, projection=[a]))
        assert len(models) == 2  # a true / a false

    def test_enumerate_empty_projection_yields_one_model(self):
        cnf = Cnf()
        cnf.new_vars(3)
        # all models agree on an empty projection: exactly one is distinct
        assert len(list(enumerate_models(cnf, projection=[], limit=5))) == 1

    def test_enumerate_limit(self):
        cnf = Cnf()
        cnf.new_vars(4)
        assert len(list(enumerate_models(cnf, limit=5))) == 5


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
        ]


class TestDimacs:
    def test_roundtrip(self):
        cnf = Cnf()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, -b])
        cnf.add_clause([b, c])
        buffer = io.StringIO()
        write_dimacs(cnf, buffer, comment="test")
        buffer.seek(0)
        loaded = read_dimacs(buffer)
        assert loaded.num_vars == 3
        assert loaded.clauses == [[a, -b], [b, c]]

    def test_malformed_problem_line(self):
        with pytest.raises(ValueError):
            read_dimacs(io.StringIO("p qbf 3 1\n1 0\n"))

    def test_same_satisfiability(self):
        cnf = Cnf()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a])
        cnf.add_clause([-a, b])
        buffer = io.StringIO()
        write_dimacs(cnf, buffer)
        buffer.seek(0)
        loaded = read_dimacs(buffer)
        assert (solve_cnf(loaded) is None) == (solve_cnf(cnf) is None)

    def test_blank_lines_and_comments_anywhere(self):
        text = "c header\n\np cnf 2 2\n\n1 -2 0\nc mid\n2 0\n\n"
        loaded = read_dimacs(io.StringIO(text))
        assert loaded.clauses == [[1, -2], [2]]

    def test_clause_spanning_lines(self):
        text = "p cnf 3 1\n1 2\n3 0\n"
        loaded = read_dimacs(io.StringIO(text))
        assert loaded.clauses == [[1, 2, 3]]

    def test_multiple_clauses_per_line(self):
        text = "p cnf 2 2\n1 0 -2 0\n"
        loaded = read_dimacs(io.StringIO(text))
        assert loaded.clauses == [[1], [-2]]

    def test_unterminated_final_clause_rejected(self):
        with pytest.raises(ValueError, match="missing its terminating 0"):
            read_dimacs(io.StringIO("p cnf 2 1\n1 -2\n"))

    def test_non_integer_token_rejected(self):
        with pytest.raises(ValueError, match="non-integer token"):
            read_dimacs(io.StringIO("p cnf 2 1\n1 x 0\n"))

    def test_duplicate_problem_line_rejected(self):
        with pytest.raises(ValueError, match="duplicate problem line"):
            read_dimacs(io.StringIO("p cnf 1 1\np cnf 1 1\n1 0\n"))

    def test_problem_line_with_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="malformed problem line"):
            read_dimacs(io.StringIO("p cnf two 1\n1 0\n"))

    def test_write_dimacs_clauses_bare_pair(self):
        from repro.sat import write_dimacs_clauses

        buffer = io.StringIO()
        write_dimacs_clauses(3, [[1, -2], [3]], buffer, comment="companion")
        text = buffer.getvalue()
        assert "c companion\n" in text
        assert "p cnf 3 2\n" in text
        buffer.seek(0)
        assert read_dimacs(buffer).clauses == [[1, -2], [3]]
