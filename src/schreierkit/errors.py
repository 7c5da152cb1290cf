"""Exception types shared across the package."""


class SchreierKitError(Exception):
    """Base class for all library errors."""


class InvalidAlphabet(SchreierKitError, ValueError):
    """Generator names are missing, repeated, or not single lowercase ASCII letters."""


class UnreducedWord(SchreierKitError, ValueError):
    """A word's letters contain an adjacent inverse pair."""


class InvalidPermutation(SchreierKitError, ValueError):
    """An image list is not a bijection on ``[0, n)``."""


class InvalidHom(SchreierKitError, ValueError):
    """Generator images do not match the alphabet size or share no degree."""


class InvalidLetter(SchreierKitError):
    """A letter references a generator outside its alphabet, or has a bad sign."""


class AlphabetMismatch(SchreierKitError):
    """Two values built over different alphabets were combined."""


class EmptyWord(SchreierKitError):
    """A nonempty word was required."""


class ParseError(SchreierKitError):
    """Input text does not follow the word / file syntax."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ImageTooLarge(SchreierKitError):
    """Closure of the generator images exceeded the configured ceiling."""

    def __init__(self, ceiling: int):
        super().__init__(f"image group exceeds the ceiling of {ceiling} elements")
        self.ceiling = ceiling


class BadCoset(SchreierKitError):
    """Coset identifier out of range for the table."""


class InvalidTable(SchreierKitError):
    """Coset table data is incomplete, non-bijective, or not transitive."""


class PrefixesNotSeparated(SchreierKitError):
    """The word's initial segments do not reach pairwise distinct cosets."""


class NotInSubgroup(SchreierKitError):
    """The word does not lie in the subgroup described by the table."""


class BadBound(SchreierKitError):
    """A numeric search bound is out of its configured range."""


class BadGenus(SchreierKitError):
    """Surface genus outside the supported range."""


class RelatorNotKilled(SchreierKitError):
    """A relator does not act trivially on every coset of the table."""

    def __init__(self, relator, coset: int):
        super().__init__(f"relator {relator} does not fix coset {coset}")
        self.relator = relator
        self.coset = coset


class CertificateFormatError(SchreierKitError):
    """Certificate document violates the lemma-certificate/1 schema."""
