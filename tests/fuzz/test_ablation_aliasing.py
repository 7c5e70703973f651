"""Regression: the oracle's ablation must never poison a live registry.

``Ablation.apply`` used to call ``registry.register(...)`` on whatever
``db.commutativity_registry()`` returned.  With the registry now cached on
the database, in-place mutation would leak the broken entry into the
scheduler's own commutativity decisions and into every later judgement
sharing the database — an ablated cell would contaminate the clean cell
after it.  ``apply`` must mutate a copy.
"""

from repro.catalog import generate
from repro.core.commutativity import CommutativityRegistry, ReadWriteCommutativity
from repro.core.judge import Ablation, BrokenSpec, check_history, strictness_for
from repro.fuzz.driver import execute_cell


def test_apply_returns_a_copy():
    registry = CommutativityRegistry()
    spec = ReadWriteCommutativity()
    registry.register("Leaf-1", spec)
    broken = Ablation(object_name="Leaf-1").apply(registry)
    assert broken is not registry
    assert isinstance(broken.for_object("Leaf-1"), BrokenSpec)
    # The input registry is untouched.
    assert registry.for_object("Leaf-1") is spec


def test_registry_copy_is_independent():
    registry = CommutativityRegistry()
    registry.register_prefix("Page", ReadWriteCommutativity())
    clone = registry.copy()
    clone.register("Page-7", BrokenSpec(clone.for_object("Page-7"), None))
    assert isinstance(clone.for_object("Page-7"), BrokenSpec)
    assert isinstance(registry.for_object("Page-7"), ReadWriteCommutativity)


def test_two_cells_sharing_a_db_are_not_cross_contaminated():
    """An ablated judgement followed by a clean one on the same database:
    the clean one must see the pristine (cached) registry."""
    spec = generate(3)
    protocol = "multilevel"
    result = execute_cell(spec, protocol)
    db = result.db
    target = spec.leaf_objects[0].name
    before = db.commutativity_registry().for_object(target)

    clean_first = check_history(
        result, None, strict_cross_object=strictness_for(protocol)
    )
    ablated = check_history(
        result,
        Ablation(object_name=target),
        strict_cross_object=strictness_for(protocol),
    )
    clean_second = check_history(
        result, None, strict_cross_object=strictness_for(protocol)
    )

    # The db's registry still hands out the original spec object...
    assert db.commutativity_registry().for_object(target) is before
    assert not isinstance(
        db.commutativity_registry().for_object(target), BrokenSpec
    )
    # ...and the clean judgement is bit-for-bit unaffected by the ablated
    # one that ran in between.
    assert clean_first == clean_second
    # Sanity: the ablation really did judge with a different registry.
    assert isinstance(
        Ablation(object_name=target)
        .apply(db.commutativity_registry())
        .for_object(target),
        BrokenSpec,
    )
    del ablated
