"""The paper's primary contribution: the formal model of oo-serializability.

This package implements Definitions 1-16 and Axiom 1 of Rakow, Gu and
Neuhold, *Serializability in Object-Oriented Database Systems* (ICDE 1990):

- :mod:`repro.core.actions` / :mod:`repro.core.transactions` -- messages,
  actions, object-oriented transaction trees and transaction systems
  (Definitions 1-4).
- :mod:`repro.core.extension` -- the virtual-object extension that breaks
  call cycles (Definition 5).
- :mod:`repro.core.commutativity` -- semantic commutativity specifications
  (Definition 9).
- :mod:`repro.core.schedule` -- object schedules, conformity and seriality
  (Definitions 6-8).
- :mod:`repro.core.dependency` -- dependency inheritance: action and
  transaction dependency relations (Axiom 1, Definitions 10-11).
- :mod:`repro.core.serializability` -- equivalence and oo-serializability of
  object and system schedules (Definitions 12-16), plus the conventional
  conflict-serializability baseline.
"""

from repro.core.actions import ActionNode, Invocation, format_action_id
from repro.core.commutativity import (
    CommutativityRegistry,
    CommutativitySpec,
    ConflictAll,
    EscrowCommutativity,
    MatrixCommutativity,
    PredicateCommutativity,
    ReadWriteCommutativity,
)
from repro.core.extension import ExtensionResult, extend_system
from repro.core.graph import DirectedGraph
from repro.core.identifiers import SYSTEM_OBJECT, is_virtual, virtual_object_id
from repro.core.schedule import ObjectSchedule
from repro.core.serializability import (
    ConventionalBaseline,
    ObjectVerdict,
    SystemVerdict,
    analyze_system,
    conventional_baseline,
)
from repro.core.transactions import OOTransaction, TransactionSystem

__all__ = [
    "ActionNode",
    "CommutativityRegistry",
    "CommutativitySpec",
    "ConflictAll",
    "ConventionalBaseline",
    "DirectedGraph",
    "EscrowCommutativity",
    "ExtensionResult",
    "Invocation",
    "MatrixCommutativity",
    "OOTransaction",
    "ObjectSchedule",
    "ObjectVerdict",
    "PredicateCommutativity",
    "ReadWriteCommutativity",
    "SYSTEM_OBJECT",
    "SystemVerdict",
    "TransactionSystem",
    "analyze_system",
    "conventional_baseline",
    "extend_system",
    "format_action_id",
    "is_virtual",
    "virtual_object_id",
]
