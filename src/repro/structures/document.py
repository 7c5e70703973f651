"""Documents with sections — the cooperative-editing motivation (Section 1).

"Consider a publication system which allows the cooperative editing of
documents by several authors (like this paper).  Every author wants to
write down his ideas immediately."  A :class:`Document` delegates to
:class:`Section` objects; edits of *different* sections commute, so under
the open-nested protocol two authors work concurrently on one document,
while page-level 2PL serializes them for the whole (long) editing
transaction.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.actions import Invocation
from repro.core.commutativity import CommutativitySpec, MatrixCommutativity
from repro.errors import DatabaseError
from repro.oodb.database import ObjectDatabase
from repro.oodb.method import dbmethod
from repro.oodb.object_model import DatabaseObject


def _different_section(a: Invocation, b: Invocation) -> bool:
    return bool(a.args) and bool(b.args) and a.args[0] != b.args[0]


def document_commutativity() -> MatrixCommutativity:
    return MatrixCommutativity(
        {
            ("edit", "edit"): _different_section,
            ("edit", "read_section"): _different_section,
            ("read_section", "read_section"): True,
            ("edit", "read_all"): False,
            ("read_all", "read_all"): True,
            ("read_all", "read_section"): True,
            ("append_section", "append_section"): False,
            ("append_section", "edit"): False,
            ("append_section", "read_all"): False,
            ("append_section", "read_section"): False,
            ("read_section", "section_count"): True,
            ("read_all", "section_count"): True,
            ("edit", "section_count"): True,
            ("append_section", "section_count"): False,
            ("section_count", "section_count"): True,
            ("revision", "revision"): True,
            ("edit", "revision"): False,  # a revision read observes edits
            ("append_section", "revision"): True,
            ("read_all", "revision"): True,
            ("read_section", "revision"): True,
            ("revision", "section_count"): True,
        }
    )


def section_commutativity() -> MatrixCommutativity:
    """Whole-section semantics: reads commute, writes do not."""
    return MatrixCommutativity(
        {
            ("read", "read"): True,
            ("read", "write"): False,
            ("write", "write"): False,
        }
    )


class Section(DatabaseObject):
    """One section of a document; its text lives on its own page."""

    commutativity: ClassVar[CommutativitySpec] = section_commutativity()

    def setup(self, name: str = "", text: str = "") -> None:
        self.data["name"] = name
        self.data["text"] = text

    @dbmethod
    def read(self) -> str:
        return self.data["text"]

    @dbmethod(update=True, compensation=lambda args, result: ("write", (result,)))
    def write(self, text: str) -> str:
        old = self.data["text"]
        self.data["text"] = text
        return old


class Document(DatabaseObject):
    """A sectioned document (section name -> Section object)."""

    commutativity: ClassVar[CommutativitySpec] = document_commutativity()

    def setup(self, title: str = "") -> None:
        self.data["title"] = title
        self.data["__count"] = 0
        self.data["__rev"] = 0

    @dbmethod(update=True)
    def append_section(self, name: str, text: str = "") -> str:
        """Add a new section; returns its oid."""
        slot = ("s", name)
        if slot in self.data:
            raise DatabaseError(f"section {name!r} already exists")
        section = self.db_create(Section, name, text)
        self.data[slot] = section
        self.data["__count"] = self.data["__count"] + 1
        return section

    @dbmethod(
        update=True,
        compensation=lambda args, result: ("edit", (args[0], result)),
    )
    def edit(self, name: str, text: str) -> str:
        """Replace a section's text; returns the old text.

        Every edit also bumps the document's revision counter — document
        state the conventional page-level criterion must serialize, while
        semantically edits of different sections still commute (revision
        numbers are bookkeeping, not content)."""
        section = self._section(name)
        old = self.call(section, "write", text)
        self.data["__rev"] = self.data["__rev"] + 1
        return old

    @dbmethod
    def read_section(self, name: str) -> str:
        return self.call(self._section(name), "read")

    @dbmethod
    def read_all(self) -> list[tuple[str, str]]:
        names = sorted(k[1] for k in self.data.keys() if isinstance(k, tuple))
        return [(name, self.call(self.data[("s", name)], "read")) for name in names]

    @dbmethod
    def section_count(self) -> int:
        return self.data["__count"]

    @dbmethod
    def revision(self) -> int:
        return self.data["__rev"]

    def _section(self, name: str) -> str:
        slot = ("s", name)
        if slot not in self.data:
            raise DatabaseError(f"no section {name!r}")
        return self.data[slot]


def build_document(
    db: ObjectDatabase,
    title: str,
    sections: dict[str, str],
    *,
    oid: str | None = None,
) -> str:
    """Bootstrap a document with initial sections (outside transactions)."""
    doc_oid = db.create(Document, title, oid=oid)
    doc = db.get_object(doc_oid)
    store = db.store
    count = 0
    for name, text in sections.items():
        section_oid = db.create(Section, name, text)
        store.get(doc.page_id).write(("s", name), section_oid)
        count += 1
    store.get(doc.page_id).write("__count", count)
    store.get(doc.page_id).write("__rev", 0)
    return doc_oid
