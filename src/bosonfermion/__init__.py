"""Exact-arithmetic Fock space combinatorics and coefficient verification.

The package hosts six layers: partition and charged-sequence combinatorics,
the fermionic Fock space with its Clifford generator action, the bosonic
Fock space with box and strip operators, symmetric group irreducibles in the
rescaled content eigenbasis, the interlacing path algebra with its
truncations and resolutions, and the exact linear algebra tying the two Fock
spaces together coefficient by coefficient.
"""

__version__ = "0.1.0"
