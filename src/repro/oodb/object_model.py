"""The object model: encapsulated, page-backed database objects.

A database object type is a Python class deriving from
:class:`DatabaseObject`.  Its public interface is the set of methods
decorated with :func:`~repro.oodb.method.dbmethod`; its semantics are given
by the class attribute ``commutativity`` (a
:class:`~repro.core.commutativity.CommutativitySpec`).

Encapsulation is enforced: an object's state (``self.data``, a slot proxy
over its page) is only accessible while one of the object's *own* methods is
executing.  Reaching into another object's slots — even from inside a method
of a different object — raises :class:`~repro.errors.EncapsulationError`;
the only way to interact with another object is to send it a message via
``self.call``.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.commutativity import CommutativitySpec, ConflictAll
from repro.errors import EncapsulationError
from repro.oodb.method import MethodSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.database import ObjectDatabase


class SlotProxy:
    """Mapping view of an object's page slots with full bookkeeping.

    Every access funnels through the database so that it (a) checks
    encapsulation, (b) records the primitive read/write action in the trace,
    (c) consults the concurrency-control scheduler, and (d) writes undo
    records for updates.
    """

    __slots__ = ("_db", "_owner")

    def __init__(self, db: "ObjectDatabase", owner: "DatabaseObject"):
        self._db = db
        self._owner = owner

    def __getitem__(self, slot: Any) -> Any:
        sentinel = object()
        value = self._db.page_read(self._owner, slot, sentinel)
        if value is sentinel:
            raise KeyError(slot)
        return value

    def get(self, slot: Any, default: Any = None) -> Any:
        return self._db.page_read(self._owner, slot, default)

    def __setitem__(self, slot: Any, value: Any) -> None:
        self._db.page_write(self._owner, slot, value)

    def __delitem__(self, slot: Any) -> None:
        self._db.page_delete(self._owner, slot)

    def __contains__(self, slot: Any) -> bool:
        return self._db.page_has(self._owner, slot)

    def keys(self) -> list[Any]:
        return self._db.page_keys(self._owner)

    def items(self) -> list[tuple[Any, Any]]:
        return [(key, self[key]) for key in self.keys()]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())


class DatabaseObject:
    """Base class of all database object types.

    Subclasses override :meth:`setup` for initialization, declare their
    semantics in ``commutativity`` and define ``@dbmethod``-decorated
    methods.  Instances are created through
    :meth:`~repro.oodb.database.ObjectDatabase.create` (bootstrap) or
    :meth:`db_create` (from inside a method), never directly.
    """

    #: Definition 9 semantics of this object type.  The safe default is
    #: "everything conflicts"; types declare what commutes.
    commutativity: ClassVar[CommutativitySpec] = ConflictAll()

    #: Override to give instances a non-default page capacity (e.g. B+ tree
    #: leaves sized by the keys-per-page experiment parameter).
    page_capacity: ClassVar[int | None] = None

    def __init__(self, db: "ObjectDatabase", oid: str, page_id: str):
        self._db = db
        self._oid = oid
        self._page_id = page_id

    # -- identity ------------------------------------------------------------

    @property
    def oid(self) -> str:
        return self._oid

    @property
    def page_id(self) -> str:
        """The page holding this object's state (1:1 by default)."""
        return self._page_id

    # -- state access -----------------------------------------------------------

    @property
    def data(self) -> SlotProxy:
        """The object's encapsulated slot storage.

        Raises :class:`EncapsulationError` when touched outside one of this
        object's own method executions.
        """
        self._db.check_encapsulation(self)
        return SlotProxy(self._db, self)

    def state_snapshot(self) -> Any:
        """Optional state snapshot passed to state-dependent commutativity
        specifications (the escrow method).  Default: no snapshot."""
        return None

    # -- messaging ----------------------------------------------------------------

    def call(self, oid: str, method: str, *args: Any) -> Any:
        """Send a message to another object (or this one) — the only legal
        inter-object interaction."""
        return self._db.nested_send(oid, method, args)

    def db_create(
        self,
        cls: type["DatabaseObject"],
        *args: Any,
        oid: str | None = None,
        page_capacity: int | None = None,
    ) -> str:
        """Create a new object from inside a method (traced, undoable)."""
        return self._db.create_nested(cls, args, oid=oid, page_capacity=page_capacity)

    # -- lifecycle -----------------------------------------------------------------

    def setup(self, *args: Any) -> None:
        """Initialize the object's slots; runs inside a creation frame."""

    # -- type introspection -----------------------------------------------------------

    @classmethod
    def method_specs(cls) -> dict[str, MethodSpec]:
        """All ``@dbmethod``-decorated methods of this type (MRO-aware)."""
        specs: dict[str, MethodSpec] = {}
        for klass in reversed(cls.__mro__):
            for name, attr in vars(klass).items():
                spec = getattr(attr, "__dbmethod__", None)
                if spec is not None:
                    specs[name] = spec
        return specs

    @classmethod
    def method_spec(cls, name: str) -> MethodSpec:
        # Every dispatch lands here, so the table is built once per class
        # and kept in the class's *own* namespace: a subclass looks in its
        # own ``__dict__``, never inherits its parent's table, and so sees
        # the ``@dbmethod``s it adds.  (Methods are fixed at class
        # definition; one attached later is not picked up.)
        specs = cls.__dict__.get("_method_spec_table")
        if specs is None:
            specs = cls.method_specs()
            cls._method_spec_table = specs
        if name not in specs:
            from repro.errors import UnknownMethodError

            raise UnknownMethodError(
                f"{cls.__name__} defines no database method {name!r}"
            )
        return specs[name]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._oid}>"


def ensure_database_object_type(cls: type) -> None:
    """Validate a type before registration (clear error beats a late one)."""
    if not (isinstance(cls, type) and issubclass(cls, DatabaseObject)):
        raise EncapsulationError(
            f"{cls!r} is not a DatabaseObject subclass"
        )
