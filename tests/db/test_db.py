"""Tests for binary tables and database reconciliation."""

import numpy as np
import pytest

from repro import reconcile
from repro.db import BinaryTable
from repro.errors import ParameterError
from repro.protocols.parties.applications import db_parties
from repro.protocols.session import run_session
from repro.workloads import flipped_table_pair, random_binary_table


class TestBinaryTable:
    def test_construction_and_counts(self):
        table = BinaryTable(["a", "b", "c"], [{0, 2}, {1}])
        assert table.num_columns == 3
        assert table.num_rows == 2
        assert table.column_index("b") == 1

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ParameterError):
            BinaryTable(["a", "a"])

    def test_unknown_column(self):
        with pytest.raises(ParameterError):
            BinaryTable(["a"]).column_index("z")

    def test_row_column_range_checked(self):
        with pytest.raises(ParameterError):
            BinaryTable(["a"], [{3}])

    def test_add_remove_rows(self):
        table = BinaryTable(["a", "b"])
        table.add_row({0})
        table.add_row({0, 1})
        table.remove_row({0})
        assert table.rows() == frozenset({frozenset({0, 1})})

    def test_duplicate_rows_collapse(self):
        table = BinaryTable(["a", "b"], [{0}, {0}])
        assert table.num_rows == 1

    def test_flip_bit(self):
        table = BinaryTable(["a", "b"], [{0}])
        new_row = table.flip_bit({0}, 1)
        assert new_row == {0, 1}
        assert table.rows() == frozenset({frozenset({0, 1})})

    def test_flip_bit_validation(self):
        table = BinaryTable(["a", "b"], [{0}])
        with pytest.raises(ParameterError):
            table.flip_bit({1}, 0)
        with pytest.raises(ParameterError):
            table.flip_bit({0}, 5)

    def test_matrix_round_trip(self):
        table = BinaryTable(["a", "b", "c"], [{0, 2}, {1}])
        rebuilt = BinaryTable.from_matrix(table.columns, table.to_matrix())
        assert rebuilt == table

    def test_from_matrix_shape_checked(self):
        with pytest.raises(ParameterError):
            BinaryTable.from_matrix(["a"], np.zeros((2, 2), dtype=np.uint8))

    def test_sets_of_sets_round_trip(self):
        table = BinaryTable(["a", "b", "c"], [{0, 2}, {1}])
        rebuilt = BinaryTable.from_sets_of_sets(table.columns, table.to_sets_of_sets())
        assert rebuilt == table

    def test_bit_difference(self):
        alice = BinaryTable(["a", "b", "c"], [{0, 1}, {2}])
        bob = BinaryTable(["a", "b", "c"], [{0}, {2}])
        assert alice.bit_difference(bob) == 1

    def test_bit_difference_requires_same_columns(self):
        with pytest.raises(ParameterError):
            BinaryTable(["a"]).bit_difference(BinaryTable(["b"]))


class TestWorkloads:
    def test_random_table_shape(self):
        table = random_binary_table(30, 40, 0.3, seed=1)
        assert table.num_rows == 30 and table.num_columns == 40

    def test_random_table_invalid_density(self):
        with pytest.raises(ParameterError):
            random_binary_table(5, 5, 0.0, seed=1)

    def test_flipped_pair_difference(self):
        alice, bob, applied = flipped_table_pair(40, 48, 0.4, 6, seed=2, max_rows_touched=3)
        assert applied == 6
        assert alice.columns == bob.columns
        assert 0 < alice.bit_difference(bob) <= 6


class TestReconciliation:
    def test_cascading_protocol(self):
        alice, bob, _ = flipped_table_pair(40, 64, 0.4, 6, seed=3, max_rows_touched=3)
        result = reconcile(alice, bob, protocol="db", difference_bound=8, seed=4)
        assert result.success and result.recovered == alice

    def test_naive_protocol(self):
        alice, bob, _ = flipped_table_pair(30, 48, 0.4, 4, seed=5, max_rows_touched=2)
        # The naive protocol under a table is a party-builder choice, not a
        # registered name.
        result = run_session(*db_parties(alice, bob, 6, 6, protocol="naive"))
        assert result.success and result.recovered == alice

    def test_identical_tables(self):
        alice = random_binary_table(20, 32, 0.4, seed=7)
        result = reconcile(alice, alice, protocol="db", difference_bound=2, seed=8)
        assert result.success and result.recovered == alice

    def test_unknown_protocol_name(self):
        alice = random_binary_table(5, 8, 0.4, seed=9)
        with pytest.raises(ParameterError):
            db_parties(alice, alice, 1, 1, protocol="bogus")

    def test_column_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            reconcile(
                BinaryTable(["a"]), BinaryTable(["b"]), protocol="db", difference_bound=1,
                seed=1,
            )
