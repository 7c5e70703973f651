"""Quickstart: define an object type, run transactions, check serializability.

Demonstrates the core loop of the library:

1. define an encapsulated object type with a commutativity specification,
2. execute transactions against an :class:`ObjectDatabase` under the
   paper's open-nested scheduler,
3. pull the executed trace out as a transaction system and run the
   oo-serializability analysis (Definitions 10-16) on it.

Run:  python examples/quickstart.py
"""

from repro.core.commutativity import MatrixCommutativity
from repro.core.serializability import conventional_baseline
from repro.locking import OpenNestedLocking
from repro.oodb import DatabaseObject, ObjectDatabase, dbmethod
from repro.runtime import InterleavedExecutor, TransactionProgram


class Catalog(DatabaseObject):
    """A keyed catalog: operations on different keys commute."""

    commutativity = MatrixCommutativity(
        {
            ("lookup", "lookup"): True,
            ("store", "lookup"): lambda a, b: a.args[0] != b.args[0],
            ("store", "store"): lambda a, b: a.args[0] != b.args[0],
            ("discard", "store"): lambda a, b: a.args[0] != b.args[0],
            ("discard", "lookup"): lambda a, b: a.args[0] != b.args[0],
            ("discard", "discard"): lambda a, b: a.args[0] != b.args[0],
        }
    )

    def setup(self):
        pass

    @dbmethod
    def lookup(self, key):
        return self.data.get(key)

    @dbmethod(
        update=True,
        compensation=lambda args, result: (
            ("store", (args[0], result)) if result is not None else ("discard", (args[0],))
        ),
    )
    def store(self, key, value):
        old = self.data.get(key)
        self.data[key] = value
        return old

    @dbmethod(update=True)
    def discard(self, key):
        if key in self.data:
            del self.data[key]


def main() -> None:
    db = ObjectDatabase(scheduler=OpenNestedLocking(), page_capacity=64)
    catalog = db.create(Catalog, oid="Catalog")

    def writer(key, value):
        def body(api):
            api.send(catalog, "store", key, value)
            api.work(2)
            api.send(catalog, "lookup", key)

        return body

    programs = [
        TransactionProgram(f"T{i}", writer(f"item{i}", i)) for i in range(4)
    ]
    result = InterleavedExecutor(db, seed=42).run(programs)
    print(f"committed: {sorted(result.committed_labels)}")
    print(f"makespan:  {result.makespan} ticks")
    print(f"waits:     {db.scheduler.stats['waits']}, "
          f"deadlocks: {db.scheduler.stats['deadlocks']}")

    # The executed trace IS a transaction system — analyze it.
    verdict, schedules = db.analyze()
    print(f"\noo-serializable: {verdict.oo_serializable}")
    print(f"equivalent serial order: {verdict.serial_order}")
    print(f"oo top-level constraints:          {sorted(verdict.top_order_constraints)}")
    print(f"conventional top-level constraints: "
          f"{sorted(conventional_baseline(db.system).constraints)}")
    print("\nThe stores commute (different keys), so oo-serializability "
          "imposes no top-level order — the page-level criterion would.")


if __name__ == "__main__":
    main()
