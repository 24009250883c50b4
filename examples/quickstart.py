#!/usr/bin/env python
"""Quickstart: reconcile two sets of sets with every protocol in the library.

Alice and Bob each hold a parent set of child sets that differ in a handful of
elements.  We run the four SSRK protocols of the paper (Theorems 3.3, 3.5,
3.7 and 3.9) plus the unknown-``d`` multi-round variant, and print what each
one costs.

Run with::

    python examples/quickstart.py
"""

from repro import minimum_matching_difference, reconcile
from repro.workloads import sets_of_sets_instance

SEED = 2018
UNIVERSE = 1024          # element universe size u
NUM_CHILDREN = 48        # s
CHILD_SIZE = 32          # ~h
NUM_CHANGES = 10         # d


def main() -> None:
    instance = sets_of_sets_instance(
        NUM_CHILDREN, CHILD_SIZE, UNIVERSE, NUM_CHANGES, SEED, max_children_touched=5
    )
    alice, bob = instance.alice, instance.bob
    true_d = minimum_matching_difference(alice, bob)
    print(f"Alice: s={alice.num_children} children, n={alice.total_elements} elements")
    print(f"Bob:   s={bob.num_children} children, n={bob.total_elements} elements")
    print(f"True matching difference d = {true_d}\n")

    protocols = [
        (
            "naive (Thm 3.3)",
            lambda: reconcile(
                alice, bob, protocol="naive", difference_bound=instance.differing_children,
                universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=SEED,
            ),
        ),
        (
            "IBLT of IBLTs (Thm 3.5)",
            lambda: reconcile(
                alice, bob, protocol="iblt_of_iblts",
                difference_bound=instance.planted_difference, universe_size=UNIVERSE,
                seed=SEED, differing_children_bound=instance.differing_children,
            ),
        ),
        (
            "cascading (Thm 3.7)",
            lambda: reconcile(
                alice, bob, protocol="cascading",
                difference_bound=instance.planted_difference, universe_size=UNIVERSE,
                max_child_size=instance.max_child_size, seed=SEED,
            ),
        ),
        (
            "multi-round (Thm 3.9)",
            lambda: reconcile(
                alice, bob, protocol="multiround",
                difference_bound=instance.planted_difference, universe_size=UNIVERSE,
                max_child_size=instance.max_child_size, seed=SEED,
            ),
        ),
        (
            "multi-round, unknown d (Thm 3.10)",
            lambda: reconcile(
                alice, bob, protocol="multiround", difference_bound=None,
                universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=SEED,
            ),
        ),
    ]

    print(f"{'protocol':36s} {'ok':>3s} {'bits':>10s} {'rounds':>6s}")
    for name, run in protocols:
        result = run()
        recovered_ok = result.success and result.recovered == alice
        print(f"{name:36s} {str(recovered_ok):>3s} {result.total_bits:>10d} {result.num_rounds:>6d}")

    # For scale: sending Alice's whole parent set explicitly would cost about
    # n * log2(u) bits.
    explicit = alice.total_elements * (UNIVERSE - 1).bit_length()
    print(f"\nExplicit transfer of Alice's data would cost ~{explicit} bits.")

    # The same protocols are registered by name behind the uniform entry
    # point; its default serializing transport round-trips every message
    # through its wire codec and verifies the measured bytes against the
    # charged bits (passed here to read its measurements).
    import repro

    transport = repro.SerializingTransport()
    result = repro.reconcile(
        alice, bob, protocol="cascading", seed=SEED, transport=transport,
        universe_size=UNIVERSE, difference_bound=instance.planted_difference,
        max_child_size=instance.max_child_size,
    )
    assert result.success and result.recovered == alice
    measured = sum(m.measured_bytes for m in transport.measurements)
    print(f"Registered protocols: {', '.join(repro.protocols.names())}")
    print(f"repro.reconcile(protocol='cascading') verified on the wire: "
          f"{measured} bytes measured against {result.total_bits} bits charged.")


if __name__ == "__main__":
    main()
