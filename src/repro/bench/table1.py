"""Experiment E1: the empirical counterpart of the paper's Table 1.

Table 1 compares the four SSRK protocols in the dense binary-database regime
(``h = Theta(u)``, ``n = Theta(s u)``, ``d`` small relative to ``s`` and
``h``).  This module runs all four protocols on such instances and reports
measured communication (bits), rounds and wall-clock time, so the ordering
and round counts claimed by the table can be checked empirically.

Run standalone with ``python -m repro.bench.table1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.reporting import print_table
from repro.bench.runner import ProtocolMeasurement, measure_protocol, summarize
from repro.comm import ReconciliationResult
from repro.protocols.registry import reconcile
from repro.workloads.sets_of_sets import SetsOfSetsInstance, table1_instance


@dataclass(frozen=True)
class Table1Config:
    """Workload parameters for the Table 1 regime."""

    universe_size: int = 2048
    num_children: int = 64
    num_changes: int = 8
    children_touched: int = 4
    repeats: int = 3
    seed: int = 2018


def run_table1(config: Table1Config | None = None) -> list[ProtocolMeasurement]:
    """Run the four SSRK protocols on the Table 1 workload."""
    config = config or Table1Config()

    def make_instance(seed: int) -> SetsOfSetsInstance:
        return table1_instance(
            config.universe_size,
            config.num_children,
            config.num_changes,
            seed,
            max_children_touched=config.children_touched,
        )

    def session_for(protocol: str) -> Callable[[int], ReconciliationResult]:
        def run(seed: int) -> ReconciliationResult:
            instance = make_instance(seed)
            # The naive protocol is parameterised by differing children, the
            # other three by total element changes (Table 1's d_hat vs d).
            bound = (
                instance.differing_children
                if protocol == "naive"
                else instance.planted_difference
            )
            return reconcile(
                instance.alice,
                instance.bob,
                protocol=protocol,
                seed=seed,
                difference_bound=bound,
                differing_children_bound=instance.differing_children,
                universe_size=instance.universe_size,
                max_child_size=instance.max_child_size,
            )

        return run

    runners = [
        ("naive (Thm 3.3)", session_for("naive")),
        ("IBLT of IBLTs (Thm 3.5)", session_for("iblt_of_iblts")),
        ("cascading (Thm 3.7)", session_for("cascading")),
        ("multi-round (Thm 3.9)", session_for("multiround")),
    ]
    return [
        measure_protocol(name, runner, repeats=config.repeats, base_seed=config.seed)
        for name, runner in runners
    ]


def main() -> None:
    """Print the Table 1 comparison for the default configuration."""
    config = Table1Config()
    measurements = run_table1(config)
    title = (
        "Table 1 (empirical): SSRK protocols, "
        f"u={config.universe_size}, s={config.num_children}, "
        f"d={config.num_changes} over {config.children_touched} children"
    )
    print_table(summarize(measurements), title)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
