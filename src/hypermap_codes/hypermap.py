"""Hypermaps encoded as a pair of permutations acting on darts.

A hypermap is the embedding of a hypergraph's bipartite representation on a
closed surface, stored purely as ``(sigma, tau)`` acting on darts labeled
``1..n``.  Orbits of ``sigma`` are the vertices, orbits of ``tau`` the
hyperedges, and orbits of ``sigma * tau^-1`` the faces of the embedding.
Vertices, hyperedges and faces are identified by their 0-based position in
the orbit partition, which orders orbits by smallest contained dart; dart
labels themselves are always 1-based.

Construction validates everything: permutations must be bijections and the
group generated by ``sigma`` and ``tau`` must act transitively on the darts
(a connected hypermap; :func:`components` checks it on the vertices).  That
check is the one components pass of ``verify`` and ``build``, numpy hooking
and pointer jumping with no loop per edge: it is what makes both column
graphs of every canonical code connected
(:func:`~hypermap_codes.css.params`).  Invalid data cannot be represented.
A special-dart choice, one dart per hyperedge, is a plain tuple of labels
in hyperedge order; :func:`choose_special_darts` makes and checks every
choice, for the CLI, the JSON reader and the canonical build alike.

Both classes are frozen, so derived structure is computed at most once per
object, on first use: a :class:`Permutation` keeps its orbit partition and
its inverse, and a :class:`Hypermap` keeps ``sigma * tau^-1``, whose orbit
partition the face permutation in turn keeps.  The work is done on numpy
index arrays: each permutation keeps one read-only 0-based image array
(:attr:`Permutation.array`), its only stored form unless it was given as an
image tuple, and each :class:`OrbitPartition` one dart-to-orbit
label array, found by pointer doubling.  Cycle labels are read once, through
:func:`operator.index` into one ``intp`` array, and range- and repeat-checked
on it; a label that is not an integer or lies past int64 sends the reader to
a scan of the cycles that names the first bad entry, so a huge label is an
error, not an overflow.
The image tuples of derived permutations and the cycle-ordered orbit tuples
are built only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import index

import numpy as np

from ._jsonfmt import compact_json, read_json, write_text


class NotBijectiveError(ValueError):
    """The given images do not form a permutation."""


class NotConnectedError(ValueError):
    """The permutation pair does not act transitively on the darts."""


class NonIntegerGenusError(ValueError):
    """The orbit counts are inconsistent with a closed orientable surface."""


class DuplicateHyperedgeError(ValueError):
    """Two chosen special darts lie on the same hyperedge."""


def _cached(obj, name: str, compute):
    """Derived value ``name`` of a frozen object, computed on first use."""
    try:
        return obj.__dict__[name]
    except KeyError:
        value = compute()
        object.__setattr__(obj, name, value)
        return value


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# The largest n for which numpy can hold an intp array of n entries: its
# byte size must itself fit in an intp.
_MAX_SIZE = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize


def _checked_size(n) -> int:
    """``n`` through :func:`operator.index`, checked to lie in ``0.._MAX_SIZE`` before any array is built."""
    n = index(n)
    if not 0 <= n <= _MAX_SIZE:
        raise ValueError(f"permutation size n={n} out of range 0..{_MAX_SIZE}")
    return n


def _read_cycles(cycles: list) -> tuple[np.ndarray, list[int]]:
    """All labels of ``cycles`` in one ``intp`` array, each read once; and the cycle sizes.

    Every label goes through :func:`operator.index`: one that is not an
    integer raises ``TypeError``, one past int64 ``OverflowError``.
    """
    sizes = list(map(len, cycles))
    return np.fromiter(map(index, chain.from_iterable(cycles)), np.intp, sum(sizes)), sizes


def _raise_bad_cycle_entry(cycles, n: int) -> None:
    """Raise the error for the first bad entry of ``cycles``, in reading order; return if none is bad."""
    seen: set[int] = set()
    for cycle in cycles:
        for x in list(map(index, cycle)):
            if not 1 <= x <= n:
                raise ValueError(f"cycle entry {x} out of range 1..{n}")
            if x in seen:
                raise NotBijectiveError(f"label {x} appears in two cycles")
            seen.add(x)


def components(count: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on nodes ``0..count-1`` with edges ``(a[k], b[k])``.

    Returns their number and ``labels``, an ``intp`` array in which
    ``labels[x]`` is the smallest node of x's component.  The labels are
    found by hooking and pointer jumping (Shiloach and Vishkin, 1982).
    Every node starts as its own label.  A round hooks the labels of both
    ends of every edge whose labels differ to the smaller of the two, then
    replaces every label by the label of its label until nothing changes,
    so each label is again a node labelled by itself.  Rounds repeat until
    both ends of every edge carry the same label; a loop ``a[k] == b[k]``
    never differs.  A label only ever falls, to another node of the same
    component, and each round leaves at least one node that was its own
    label pointing lower for good, so there are fewer rounds than nodes.
    When they end, each component carries one label, its smallest node:
    the components are the nodes that are their own labels.
    """
    labels = np.arange(count)
    la, lb = labels[a], labels[b]
    while np.count_nonzero(la != lb):
        np.minimum.at(labels, la, lb)
        np.minimum.at(labels, lb, la)
        jumped = labels[labels]
        while np.count_nonzero(jumped != labels):
            labels = jumped
            jumped = labels[labels]
        la, lb = labels[a], labels[b]
    return np.count_nonzero(labels == np.arange(count)), labels


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1..n}``, given by its tuple of 1-based images.

    ``array`` is the read-only 0-based image array, ``array[d - 1] ==
    image[d - 1] - 1``.  ``Permutation(image)`` checks the tuple it is given
    and builds the array.  A permutation the package derives
    (:meth:`from_cycles`, :meth:`inverse`, ``*``) holds only the array and
    builds ``image`` the first time it is read (:meth:`__getattr__`), as
    equality, hashing and ``repr`` do.  The identity on ``n`` darts is
    ``from_cycles([], n)``.
    """

    image: tuple[int, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        image = tuple(map(index, self.image))
        object.__setattr__(self, "image", image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise NotBijectiveError(f"images {image} are not a bijection on 1..{len(image)}")
        object.__setattr__(self, "array", _readonly(np.array(image, dtype=np.intp) - 1))

    @classmethod
    def _of_array(cls, array: np.ndarray) -> "Permutation":
        """The permutation whose 0-based image array is ``array``, a known bijection."""
        p = cls.__new__(cls)
        object.__setattr__(p, "array", _readonly(array))
        return p

    def __getattr__(self, name: str):
        # Reached only when ``name`` is not set: ``image`` of a permutation
        # built from its array that has not been read yet.
        if name != "image":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        image = tuple((self.array + 1).tolist())
        object.__setattr__(self, "image", image)
        return image

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "Permutation":
        """Build from disjoint cycles of 1-based labels; fixed points may be omitted.

        Each cycle must be a collection: on bad input the cycles are read a
        second time to name the first bad entry.  ``n`` must lie in
        ``0.._MAX_SIZE``, the sizes of an ``intp`` array numpy can hold.
        """
        n = _checked_size(n)
        cycles = list(cycles)
        try:
            labels, sizes = _read_cycles(cycles)
        except (TypeError, OverflowError):
            _raise_bad_cycle_entry(cycles, n)
            raise  # no entry is bad: n and a label lie past int64
        return cls._from_labels(cycles, labels, sizes, n)

    @classmethod
    def _from_labels(cls, cycles: list, labels: np.ndarray, sizes: list[int], n: int) -> "Permutation":
        """:meth:`from_cycles` on the labels and sizes :func:`_read_cycles` read off ``cycles``."""
        n = index(n)
        if labels.size and (labels.min() < 1 or labels.max() > n or np.bincount(labels).max() > 1):
            _raise_bad_cycle_entry(cycles, n)
            raise AssertionError("no bad cycle entry")
        labels = labels - 1
        # Each entry maps to the next, except that the last entry of a cycle
        # maps to the first; ``first`` holds where each nonempty cycle starts.
        first = np.array(list(accumulate(filter(None, sizes), initial=0)), dtype=np.intp)
        image = np.arange(n)
        image[labels[:-1]] = labels[1:]
        image[labels[first[1:] - 1]] = labels[first[:-1]]
        return cls._of_array(image)

    @property
    def n(self) -> int:
        return self.array.size

    def inverse(self) -> "Permutation":
        """The inverse permutation, computed once per object."""
        return _cached(self, "_inverse", self._compute_inverse)

    def _compute_inverse(self) -> "Permutation":
        inv = np.empty_like(self.array)
        inv[self.array] = np.arange(self.n)
        return Permutation._of_array(inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: ``(p * q)(d) = p(q(d))``."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation._of_array(self.array[other.array])

    def orbits(self) -> "OrbitPartition":
        """The orbit partition, computed once per object."""
        return _cached(self, "_orbits", lambda: OrbitPartition(self.array))


@dataclass(frozen=True, eq=False)
class OrbitPartition:
    """Orbits of the permutation with 0-based image array ``image``.

    ``image`` must be a permutation's :attr:`Permutation.array`, as
    :meth:`Permutation.orbits` passes it.  Orbits are ordered by smallest
    contained dart, which fixes the vertex/hyperedge/face numbering used by
    every matrix in the package.
    ``array[d - 1]`` is the 0-based position of the orbit holding dart ``d``
    (read-only ``intp``), and ``smallest`` lists the smallest dart of each
    orbit, in orbit order.  ``orbits`` (each cycle starting at its smallest
    dart) is built on first read.

    The labels come from pointer doubling, not from :func:`components` on
    the edges ``(d, image[d])``: on a permutation, doubling finds the same
    smallest darts 2 to 3 times faster (toric 5x5, 100 darts: 4.4 against
    14.9 us; toric 512x512, a million darts: 24 against 50 ms).
    """

    image: np.ndarray = field(repr=False)
    array: np.ndarray = field(init=False, repr=False)
    smallest: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        # Pointer doubling: after round r >= 1, low[d] is the smallest dart
        # among the first 2^r darts of d's cycle from d, and jump is the
        # 2^r-th power of the permutation.  Once low is constant along the
        # cycles, it holds each cycle's smallest dart, the d with low[d] == d.
        image = self.image
        darts = np.arange(image.size)
        low, jump = np.minimum(darts, image), image[image]
        while np.count_nonzero(low[image] != low):
            low = np.minimum(low, low[jump])
            jump = jump[jump]
        first = (low == darts).nonzero()[0]
        object.__setattr__(self, "array", _readonly(first.searchsorted(low)))
        object.__setattr__(self, "smallest", tuple((first + 1).tolist()))

    @property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """The cycles, each starting at its smallest dart, in orbit order."""
        return _cached(self, "_orbits", self._walk_orbits)

    def _walk_orbits(self) -> tuple[tuple[int, ...], ...]:
        image = self.image.tolist()
        orbits = []
        for start in self.smallest:
            cycle = [start]
            d = image[start - 1] + 1
            while d != start:
                cycle.append(d)
                d = image[d - 1] + 1
            orbits.append(tuple(cycle))
        return tuple(orbits)

    def __len__(self) -> int:
        return len(self.smallest)

    def orbit_index(self, dart: int) -> int:
        """0-based position of the orbit containing ``dart``."""
        if not 1 <= dart <= self.array.size:
            raise ValueError(f"dart {dart} not in partition")
        return int(self.array[dart - 1])


@dataclass(frozen=True)
class Hypermap:
    sigma: Permutation
    tau: Permutation

    def __post_init__(self):
        if self.sigma.n != self.tau.n:
            raise ValueError(
                f"sigma acts on {self.sigma.n} darts but tau on {self.tau.n}"
            )
        n = self.sigma.n
        if n == 0:
            raise NotConnectedError("a hypermap needs at least one dart")
        # The darts are connected through sigma and tau exactly when the
        # vertices (sigma orbits) are connected by one edge per dart, from
        # the vertex of d to the vertex of tau(d).
        vertices = self.sigma.orbits()
        vertex = vertices.array
        trees, labels = components(len(vertices), vertex, vertex[self.tau.array])
        if trees > 1:
            # Dart 1 lies on vertex 0, the smallest node of its component.
            reached = np.count_nonzero(labels[vertex] == 0)
            raise NotConnectedError(
                f"only {reached} of {n} darts are reachable from dart 1 under sigma and tau"
            )

    @classmethod
    def from_cycles(cls, n: int, sigma_cycles, tau_cycles) -> "Hypermap":
        """Build from cycles of 1-based labels; fixed points may be omitted.

        Unless ``n == 1``, every dart must be named in a cycle: a dart fixed
        by both permutations is a component of its own.  So dart ``n`` must be
        named, and the cycles must list at least ``n`` labels.  Both are
        checked before anything of size ``n`` is allocated, so the cycles
        must be lists (or other collections), not one-shot iterators.
        """
        sigma_cycles, tau_cycles = list(sigma_cycles), list(tau_cycles)
        cycles = sigma_cycles + tau_cycles
        try:
            labels, sizes = _read_cycles(cycles)
        except (TypeError, OverflowError):
            # The guards read the labels through operator.index, so a
            # non-integer raises here as in Permutation.from_cycles; with a
            # label past int64, each permutation names its first bad entry.
            labels = None
            named = max(map(index, chain.from_iterable(cycles)), default=0)
        else:
            named = int(labels.max(initial=0))
        if n > max(1, named):
            raise NotConnectedError(
                f"dart {n} is fixed by sigma and tau, so it is a component of its own"
            )
        listed = sum(map(len, cycles))
        if n > max(1, listed):
            raise NotConnectedError(
                f"the cycles list {listed} labels for {n} darts, so some dart is"
                " fixed by sigma and tau and is a component of its own"
            )
        if labels is None:
            return cls(Permutation.from_cycles(sigma_cycles, n), Permutation.from_cycles(tau_cycles, n))
        k = len(sigma_cycles)
        m = sum(sizes[:k])
        return cls(
            Permutation._from_labels(sigma_cycles, labels[:m], sizes[:k], n),
            Permutation._from_labels(tau_cycles, labels[m:], sizes[k:], n),
        )

    @property
    def n_darts(self) -> int:
        return self.sigma.n

    def face_permutation(self) -> Permutation:
        """The permutation ``sigma * tau^-1`` whose orbits are the faces."""
        return _cached(self, "_face_permutation", lambda: self.sigma * self.tau.inverse())

    def vertices(self) -> OrbitPartition:
        return self.sigma.orbits()

    def hyperedges(self) -> OrbitPartition:
        return self.tau.orbits()

    def faces(self) -> OrbitPartition:
        return self.face_permutation().orbits()

    def counts(self) -> tuple[int, int, int, int]:
        """``(|V|, |E|, |F|, |W|)``: vertex, hyperedge, face, and dart counts."""
        return (
            len(self.vertices()),
            len(self.hyperedges()),
            len(self.faces()),
            self.n_darts,
        )

    def genus(self) -> int:
        v, e, f, w = self.counts()
        chi = v + e + f - w
        if (2 - chi) % 2 != 0:
            raise NonIntegerGenusError(f"Euler characteristic {chi} gives odd 2-2g")
        g = (2 - chi) // 2
        if g < 0:
            raise NonIntegerGenusError(f"Euler characteristic {chi} gives genus {g} < 0")
        return g


def _special_of_edge(H: Hypermap, S=None) -> np.ndarray:
    """The 0-based special dart of every hyperedge of ``H``, in hyperedge order.

    With ``S`` omitted each hyperedge's smallest dart is special.  Otherwise
    ``S`` is read once, as a tuple, and must name exactly one dart on every
    hyperedge.  Its labels go through :func:`operator.index`, so floats and
    strings raise ``TypeError``.  They are checked in the given order (an
    integer, in range, not a second dart on a hyperedge already claimed),
    and the count last, so the first bad label is the one named.
    """
    edges = H.hyperedges()
    if S is None:
        return np.array(edges.smallest, dtype=np.intp) - 1
    S = tuple(S)
    n, m = edges.array.size, len(edges)
    try:
        labels = np.fromiter(map(index, S), np.intp, len(S))
    except (TypeError, OverflowError):
        labels = None  # a non-integer or a label past int64, named below
    if labels is not None and labels.size == m and 1 <= labels.min() and labels.max() <= n:
        special = labels - 1
        claimed = edges.array[special]
        if np.bincount(claimed).max() == 1:
            special_of_edge = np.empty(m, dtype=np.intp)
            special_of_edge[claimed] = special
            return special_of_edge
    first: dict[int, int] = {}
    for d in map(index, S):
        if not 1 <= d <= n:
            raise ValueError(f"special dart {d} out of range 1..{n}")
        k = edges.orbit_index(d)
        if k in first:
            raise DuplicateHyperedgeError(f"darts {first[k]} and {d} lie on the same hyperedge")
        first[k] = d
    raise ValueError(f"{len(S)} special darts for {m} hyperedges")


def choose_special_darts(H: Hypermap, preferred=None) -> tuple[int, ...]:
    """One special dart per hyperedge of ``H``, listed in hyperedge order.

    The default is the smallest dart of each hyperedge.  A ``preferred``
    list (any iterable of integer labels, read once) must name exactly one
    dart on every hyperedge; it is checked label by label in the given
    order and counted last (:func:`_special_of_edge`), the same rule and
    error order for the CLI, the JSON reader and the canonical build.
    """
    if preferred is None:
        return H.hyperedges().smallest
    return tuple((_special_of_edge(H, preferred) + 1).tolist())


# --- JSON file format ----------------------------------------------------------


def hypermap_to_json(H: Hypermap, special: tuple[int, ...] | None = None) -> dict:
    """JSON object for a hypermap; singleton cycles are omitted."""
    data = {
        "darts": H.n_darts,
        "sigma": [list(orb) for orb in H.sigma.orbits().orbits if len(orb) > 1],
        "tau": [list(orb) for orb in H.tau.orbits().orbits if len(orb) > 1],
    }
    if special is not None:
        data["special"] = list(special)
    return data


# Each reader first checks the types of all labels in one pass and returns
# the input itself; only on a bad label does it scan one label at a time,
# to name the first one in the error.


def _json_label(value, key: str) -> int:
    # bool is a subclass of int, and int() would truncate 1.7 or parse "3".
    if type(value) is not int:
        raise ValueError(f"JSON {key!r} holds {value!r}, expected an integer")
    return value


def _json_labels(value, key: str) -> list[int]:
    if type(value) is list and set(map(type, value)) <= {int}:
        return value
    if not isinstance(value, list):
        raise ValueError(f"JSON {key!r} must be a list of integers")
    return [_json_label(x, key) for x in value]


def _json_cycles(value, key: str) -> list[list[int]]:
    if (
        type(value) is list
        and set(map(type, value)) <= {list}
        and set(map(type, chain.from_iterable(value))) <= {int}
    ):
        return value
    if not isinstance(value, list):
        raise ValueError(f"JSON {key!r} must be a list of integer lists")
    return [_json_labels(cycle, key) for cycle in value]


def _json_fields(data, kind: str, label_key: str, *list_keys: str) -> list:
    """``[label, *cycle lists]`` of the JSON object ``data`` of a ``kind``, read in key order."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} JSON must be an object")
    try:
        label = _json_label(data[label_key], label_key)
        return [label, *(_json_cycles(data[key], key) for key in list_keys)]
    except KeyError as missing:
        raise ValueError(f"{kind} JSON missing key {missing}") from None


def hypermap_from_json(data: dict) -> tuple[Hypermap, tuple[int, ...] | None]:
    """Parse the JSON object; every label must be an exact integer."""
    n, sigma_cycles, tau_cycles = _json_fields(data, "hypermap", "darts", "sigma", "tau")
    H = Hypermap.from_cycles(n, sigma_cycles, tau_cycles)
    special = None
    if data.get("special") is not None:
        special = choose_special_darts(H, _json_labels(data["special"], "special"))
    return H, special


def load_hypermap(path) -> tuple[Hypermap, tuple[int, ...] | None]:
    return hypermap_from_json(read_json(path))


def save_hypermap(path, H: Hypermap, special: tuple[int, ...] | None = None) -> None:
    write_text(path, compact_json(hypermap_to_json(H, special)))
