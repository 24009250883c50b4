"""E13 -- Section 1 application: document collection reconciliation.

The paper's shingling scenario: two collections sharing most documents
verbatim, a few near-duplicates and a few fresh documents.  The benchmark
measures the cost of reconciling the signature sets against shipping every
signature, and checks the near/fresh classification.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

import repro
from conftest import run_once
from repro.bench.cli import benchmark_config, benchmark_parser
from repro.bench.reporting import format_table, write_benchmark_record
from repro import reconcile
from repro.documents import DocumentCollection, classify_documents
from repro.hashing import derive_seed
from repro.workloads import edited_corpus_pair

NUM_DOCS = 120
SIGNATURE_SIZE = 32
TITLE = "E13: document collection reconciliation"


def _collections(seed=1):
    alice_texts, bob_texts = edited_corpus_pair(NUM_DOCS, 60, 3, 2, 2, seed)
    alice = DocumentCollection(alice_texts, 3, seed=seed, signature_size=SIGNATURE_SIZE)
    bob = DocumentCollection(bob_texts, 3, seed=seed, signature_size=SIGNATURE_SIZE)
    return alice, bob


def test_collection_reconciliation(benchmark):
    alice, bob = _collections()
    result = run_once(
        benchmark, reconcile, alice, bob, protocol="documents",
        difference_bound=2 * SIGNATURE_SIZE, seed=9, differing_children_bound=12,
    )
    assert result.success and result.recovered == alice.to_sets_of_sets()


def report_rows(seed=2):
    alice, bob = _collections(seed=seed)
    classification = classify_documents(alice, bob)

    # The multi-round protocol sizes each per-document payload from an
    # estimated difference, which is what makes reconciliation cheaper than
    # shipping every signature in this mostly-identical corpus.
    result = repro.reconcile(
        alice.to_sets_of_sets(),
        bob.to_sets_of_sets(),
        protocol="multiround",
        seed=derive_seed(seed + 7, "documents"),
        difference_bound=2 * SIGNATURE_SIZE,
        universe_size=alice.universe_size,
        max_child_size=SIGNATURE_SIZE,
        differing_children_bound=12,
    )
    explicit = sum(len(sig) for sig in alice.signatures) * alice.hash_bits
    return [
        {
            "documents": NUM_DOCS,
            "exact dup": len(classification.exact_duplicates),
            "near dup": len(classification.near_duplicates),
            "fresh": len(classification.fresh),
            "reconciliation bits": result.total_bits,
            "explicit signature bits": explicit,
            "ok": result.success,
        }
    ]


def test_document_report(benchmark):
    rows = run_once(benchmark, report_rows)
    print()
    print(format_table(rows, TITLE))
    assert rows[0]["ok"]
    assert rows[0]["near dup"] == 3 and rows[0]["fresh"] == 2
    assert rows[0]["reconciliation bits"] < rows[0]["explicit signature bits"]


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = report_rows(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_documents",
            description="Shingled document collections: reconciling the "
            "signature sets vs shipping every signature, plus the "
            "near-duplicate / fresh classification",
            config=benchmark_config(
                args.seed, num_docs=NUM_DOCS, signature_size=SIGNATURE_SIZE
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
