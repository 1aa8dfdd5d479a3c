"""Atomic registers and shared memory for the simulator.

The paper's model is shared memory consisting of *atomic read/write
registers*.  A :class:`Register` is a lightweight handle — a name plus an
initial value — that algorithms embed in the :class:`~repro.sim.ops.Read`
and :class:`~repro.sim.ops.Write` operations they yield.  The actual
storage lives in a :class:`Memory` owned by whichever executor interprets
the operations.

``Memory`` is default-backed: a register that has never been written reads
as its handle's ``initial`` value.  This gives us the paper's *infinite*
register arrays (``x[1..∞, 0..1]``, ``y[1..∞]``) for free — an
:class:`Array` manufactures handles on demand and nothing is allocated
until a cell is first written.

``Memory`` also keeps an audit of every distinct register ever *touched*
(read or written) — the names whose initial value it has checked —
which experiment E9 uses to compare the space
consumption of the mutual-exclusion algorithms against the Burns–Lynch /
Lynch–Shavit lower bound of Theorem 3.1.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Dict, Hashable, Iterable, Iterator, Set, Tuple

from .ops import Read, Write

__all__ = ["Register", "Array", "Memory", "RegisterNamespace"]


class Register:
    """Handle for one atomic shared register.

    Handles are value objects: two handles with the same ``name`` refer to
    the same storage cell.  ``initial`` is the value read before any write;
    executors trust the handle for the default, so all handles for one name
    must agree on it (``Memory`` checks this on every read, write and
    read-modify-write, and raises ``ValueError`` when they do not).
    """

    __slots__ = ("name", "initial")

    def __init__(self, name: Hashable, initial: Any = 0) -> None:
        self.name = name
        self.initial = initial

    def read(self) -> Read:
        """Build a read operation: ``value = yield reg.read()``."""
        return Read(self)

    def write(self, value: Any) -> Write:
        """Build a write operation: ``yield reg.write(v)``."""
        return Write(self, value)

    def __repr__(self) -> str:
        return f"Register({self.name!r}, initial={self.initial!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Register) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Register", self.name))


class Array:
    """A (possibly unbounded) array of registers sharing a base name.

    Indexing with one or more indices yields a :class:`Register` whose name
    is ``(base, idx...)``.  Multi-dimensional access mirrors the paper's
    ``x[r, v]`` notation::

        x = Array("x", initial=0)
        op = x[r, v].read()
    """

    __slots__ = ("base", "initial")

    def __init__(self, base: Hashable, initial: Any = 0) -> None:
        self.base = base
        self.initial = initial

    def __getitem__(self, index: Any) -> Register:
        if isinstance(index, tuple):
            name: Tuple[Hashable, ...] = (self.base,) + index
        else:
            name = (self.base, index)
        return Register(name, self.initial)

    def __repr__(self) -> str:
        return f"Array({self.base!r}, initial={self.initial!r})"


class Memory:
    """Backing store for atomic registers.

    The simulator is single-threaded and applies each shared-memory
    operation at a single instant of virtual time, so plain dictionary
    reads and writes are trivially atomic/linearizable here.  (So does
    the wall-clock :class:`~repro.serve.driver.AsyncioDriver`: one event
    loop, each op applied in one uninterrupted slice of it.)
    """

    __slots__ = (
        "_store",
        "_write_count",
        "_read_count",
        "_rmw_count",
        "_initials",
        "_fingerprint_keys",
    )

    def __init__(self) -> None:
        self._store: Dict[Hashable, Any] = {}
        # name -> the initial value of the first handle that touched it: the
        # check that every handle agrees, and the audit of touched names.
        self._initials: Dict[Hashable, Any] = {}
        # name -> (sort key, frozen name), filled by fingerprint().
        self._fingerprint_keys: Dict[Hashable, Tuple[str, Hashable]] = {}
        self._write_count = 0
        self._read_count = 0
        self._rmw_count = 0

    # The three accessors check the handle's initial value inline (one
    # lookup that also records a first touch; the same object needs no
    # ``==``): they run once per shared step of every interpreter.

    def read(self, register: Register) -> Any:
        """Atomically read ``register`` (its initial value if unwritten)."""
        name, initial = register.name, register.initial
        known = self._initials.setdefault(name, initial)
        if known is not initial and known != initial:
            raise _conflicting_initials(name, known, initial)
        self._read_count += 1
        return self._store.get(name, initial)

    def write(self, register: Register, value: Any) -> None:
        """Atomically write ``value`` to ``register``."""
        name, initial = register.name, register.initial
        known = self._initials.setdefault(name, initial)
        if known is not initial and known != initial:
            raise _conflicting_initials(name, known, initial)
        self._write_count += 1
        self._store[name] = value

    def rmw(self, register: Register, transform: Any) -> Any:
        """Atomically apply ``transform(old) -> (new, result)``.

        Counts as one read and one write for the access statistics (the
        primitive both observes and updates the cell).
        """
        name, initial = register.name, register.initial
        known = self._initials.setdefault(name, initial)
        if known is not initial and known != initial:
            raise _conflicting_initials(name, known, initial)
        self._read_count += 1
        self._write_count += 1
        self._rmw_count += 1
        new, result = transform(self._store.get(name, initial))
        self._store[name] = new
        return result

    def peek(self, register: Register) -> Any:
        """Read without counting as a touch (for assertions and metrics)."""
        return self._store.get(register.name, register.initial)

    def poke(self, register: Register, value: Any) -> None:
        """Write without counting as a touch (for test setup)."""
        self._store[register.name] = value

    # -- auditing ---------------------------------------------------------

    @property
    def touched_registers(self) -> Set[Hashable]:
        """Names of every register ever read or written."""
        return set(self._initials)

    @property
    def register_count(self) -> int:
        """Number of distinct registers ever touched (experiment E9)."""
        return len(self._initials)

    @property
    def read_count(self) -> int:
        return self._read_count

    @property
    def write_count(self) -> int:
        return self._write_count

    @property
    def rmw_count(self) -> int:
        """Read-modify-writes applied (each also counts one read + one write)."""
        return self._rmw_count

    def snapshot(self) -> Dict[Hashable, Any]:
        """A copy of the written cells (unwritten cells are implicit)."""
        return dict(self._store)

    def fingerprint(self) -> Tuple[Tuple[Hashable, Any], ...]:
        """A hashable, order-independent digest of the written cells.

        Cells whose current value equals their initial value are omitted so
        that "written back to the default" and "never written" fingerprints
        coincide — both yield identical futures for deterministic
        processes, which keeps the model checker's memoization sound *and*
        effective.
        """
        keys = self._fingerprint_keys
        items = []
        for name, value in self._store.items():
            if name in self._initials and value == self._initials[name]:
                continue
            key = keys.get(name)
            if key is None:
                frozen = _freeze(name)
                # Names are distinct, so they alone fix the order; the
                # comma keeps it what sorting on the pair's repr gave when
                # one name's repr is a prefix of another's.
                key = keys[name] = (repr(frozen) + ",", frozen)
            items.append((key[0], (key[1], _freeze(value))))
        items.sort(key=_sort_key)
        return tuple([cell for _, cell in items])

    def __repr__(self) -> str:
        return f"Memory({len(self._store)} cells, {len(self._initials)} touched)"


_sort_key = itemgetter(0)


def _conflicting_initials(name: Hashable, known: Any, initial: Any) -> ValueError:
    return ValueError(
        f"register {name!r} used with conflicting initial values: "
        f"{known!r} vs {initial!r}"
    )


def _freeze(value: Any) -> Hashable:
    """Best-effort conversion of a value to something hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((_freeze(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return tuple(sorted((_freeze(v) for v in value), key=repr))
    return value


class RegisterNamespace:
    """Prefixes register names so independent algorithm instances coexist.

    Two algorithm objects built over different namespaces can share one
    :class:`Memory` without register collisions — this is how Algorithm 3
    guarantees "the registers of A do not include x".

    Algorithm classes that default their namespace use :meth:`unique`, so
    two default-constructed instances never collide silently; pass an
    explicit namespace when registers must be addressable from outside
    (targeted adversaries, test assertions).
    """

    __slots__ = ("prefix",)

    _counter = itertools.count()

    def __init__(self, prefix: Hashable) -> None:
        self.prefix = prefix

    @classmethod
    def unique(cls, base: Hashable) -> "RegisterNamespace":
        """A namespace guaranteed distinct from every other default one.

        The discriminator is an integer (not a string) so that
        :func:`repro.sim.adversary.register_leaf` — which identifies the
        human-level register name by the trailing string component — is
        never fooled by the suffix.
        """
        return cls((base, next(cls._counter)))

    def register(self, name: Hashable, initial: Any = 0) -> Register:
        return Register((self.prefix, name), initial)

    def array(self, base: Hashable, initial: Any = 0) -> Array:
        return Array((self.prefix, base), initial)

    def child(self, suffix: Hashable) -> "RegisterNamespace":
        return RegisterNamespace((self.prefix, suffix))

    def __repr__(self) -> str:
        return f"RegisterNamespace({self.prefix!r})"


def registers_in(names: Iterable[Hashable], prefix: Hashable) -> Iterator[Hashable]:
    """Yield the register names under ``prefix`` (audit helper)."""
    for name in names:
        if isinstance(name, tuple) and name and name[0] == prefix:
            yield name
