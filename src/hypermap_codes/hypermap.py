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
(a connected hypermap; one walk from dart 1 checks it).  Invalid data cannot
be represented.  A special-dart choice, one dart per hyperedge, is a plain
tuple of labels, checked by :func:`check_special_darts`.

Both classes are frozen, so derived structure is computed at most once per
object, on first use: a :class:`Permutation` keeps its orbit partition and
its inverse, and a :class:`Hypermap` keeps ``sigma * tau^-1``, whose orbit
partition the face permutation in turn keeps.  Each :class:`OrbitPartition`
carries a dart-to-orbit label table, so orbit lookups are constant time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from operator import index
from pathlib import Path

from ._jsonfmt import compact_json


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


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1..n}`` stored by its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(map(index, self.image))
        object.__setattr__(self, "image", image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise NotBijectiveError(f"images {image} are not a bijection on 1..{len(image)}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "Permutation":
        """Build from disjoint cycles of 1-based labels; fixed points may be omitted."""
        image = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(map(index, cycle))
            for x in cycle:
                if not 1 <= x <= n:
                    raise ValueError(f"cycle entry {x} out of range 1..{n}")
                if x in seen:
                    raise NotBijectiveError(f"label {x} appears in two cycles")
                seen.add(x)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a - 1] = b
        return cls(tuple(image))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, dart: int) -> int:
        if not 1 <= dart <= self.n:
            raise ValueError(f"dart {dart} out of range 1..{self.n}")
        return self.image[dart - 1]

    def inverse(self) -> "Permutation":
        """The inverse permutation, computed once per object."""
        return _cached(self, "_inverse", self._compute_inverse)

    def _compute_inverse(self) -> "Permutation":
        inv = [0] * self.n
        for d, img in enumerate(self.image, start=1):
            inv[img - 1] = d
        return Permutation(tuple(inv))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: ``(p * q)(d) = p(q(d))``."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.image[other.image[d] - 1] for d in range(self.n)))

    def orbits(self) -> "OrbitPartition":
        """The orbit partition, computed once per object."""
        return _cached(self, "_orbits", self._compute_orbits)

    def _compute_orbits(self) -> "OrbitPartition":
        image = self.image
        seen = [False] * self.n
        orbits: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            d = image[start - 1]
            while d != start:
                cycle.append(d)
                seen[d - 1] = True
                d = image[d - 1]
            orbits.append(tuple(cycle))
        return OrbitPartition(tuple(orbits))


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of a permutation, each cycle starting at its smallest dart.

    Orbits are ordered by smallest contained dart, which fixes the
    vertex/hyperedge/face numbering used by every matrix in the package.
    ``labels[d - 1]`` is the 0-based position of the orbit holding dart ``d``.
    """

    orbits: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = sum(map(len, self.orbits))
        labels = [-1] * n
        for k, orbit in enumerate(self.orbits):
            for d in orbit:
                if not 1 <= d <= n or labels[d - 1] >= 0:
                    raise ValueError(f"orbits do not partition the darts 1..{n}")
                labels[d - 1] = k
        object.__setattr__(self, "labels", tuple(labels))

    def __len__(self) -> int:
        return len(self.orbits)

    def orbit_index(self, dart: int) -> int:
        """0-based position of the orbit containing ``dart``."""
        if not 1 <= dart <= len(self.labels):
            raise ValueError(f"dart {dart} not in partition")
        return self.labels[dart - 1]


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
        # Every dart reachable from dart 1 by the forward images of sigma and
        # tau; for permutations of a finite set that is the whole orbit.
        sigma, tau = self.sigma.image, self.tau.image
        seen = [False] * (n + 1)
        seen[1] = True
        stack = [1]
        while stack:
            d = stack.pop() - 1
            for e in (sigma[d], tau[d]):
                if not seen[e]:
                    seen[e] = True
                    stack.append(e)
        reached = seen.count(True)
        if reached != n:
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
        cycles = list(chain(sigma_cycles, tau_cycles))
        named = max(chain.from_iterable(cycles), default=0)
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
        return cls(
            Permutation.from_cycles(sigma_cycles, n),
            Permutation.from_cycles(tau_cycles, n),
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


def _claim_hyperedges(edges: OrbitPartition, n: int, darts) -> dict[int, int]:
    """``{hyperedge: dart}`` for int ``darts`` in ``1..n``, rejecting two darts on one hyperedge."""
    claimed: dict[int, int] = {}
    for d in darts:
        if not 1 <= d <= n:
            raise ValueError(f"special dart {d} out of range 1..{n}")
        k = edges.orbit_index(d)
        if k in claimed:
            raise DuplicateHyperedgeError(
                f"darts {claimed[k]} and {d} lie on the same hyperedge"
            )
        claimed[k] = d
    return claimed


def check_special_darts(H: Hypermap, S) -> tuple[int, ...]:
    """Require exactly one dart of ``S`` on every hyperedge of ``H``.

    Returns ``S`` as a tuple of ``int`` in the given order; labels go
    through :func:`operator.index`, so floats and strings raise ``TypeError``.
    """
    S = tuple(map(index, S))
    edges = H.hyperedges()
    if len(S) != len(edges):
        raise ValueError(f"{len(S)} special darts for {len(edges)} hyperedges")
    _claim_hyperedges(edges, H.n_darts, S)
    return S


def choose_special_darts(H: Hypermap, preferred=None) -> tuple[int, ...]:
    """Pick one special dart per hyperedge, listed in hyperedge order.

    The default is the smallest dart of each hyperedge orbit; ``preferred``
    darts override the default in their own orbits.  Two preferred darts on
    the same hyperedge raise :class:`DuplicateHyperedgeError`.
    """
    edges = H.hyperedges()
    chosen = [orbit[0] for orbit in edges.orbits]
    if preferred is not None:
        for k, d in _claim_hyperedges(edges, H.n_darts, map(index, preferred)).items():
            chosen[k] = d
    return tuple(chosen)


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


def _json_label(value, key: str) -> int:
    # bool is a subclass of int, and int() would truncate 1.7 or parse "3".
    if type(value) is not int:
        raise ValueError(f"JSON {key!r} holds {value!r}, expected an integer")
    return value


def _json_labels(value, key: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"JSON {key!r} must be a list of integers")
    return [_json_label(x, key) for x in value]


def _json_cycles(value, key: str) -> list[list[int]]:
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
        special = choose_special_darts(H, preferred=_json_labels(data["special"], "special"))
    return H, special


def load_hypermap(path) -> tuple[Hypermap, tuple[int, ...] | None]:
    return hypermap_from_json(json.loads(Path(path).read_text()))


def save_hypermap(path, H: Hypermap, special: tuple[int, ...] | None = None) -> None:
    Path(path).write_text(compact_json(hypermap_to_json(H, special)))
