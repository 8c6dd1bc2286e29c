"""Exception types and the frozen record base shared across the package."""


class _DataclassFields:
    """A record class's __dataclass_fields__, made on first access, so that
    dataclasses.fields, replace and asdict accept records while code that
    never asks never imports dataclasses (and inspect with it)."""

    def __get__(self, record, cls):
        import dataclasses

        fields = dataclasses.make_dataclass(cls.__name__, cls.__slots__).__dataclass_fields__
        if cls.__slots__:  # cached per record class; Record keeps this descriptor
            cls.__dataclass_fields__ = fields
        return fields


def _json(value):
    """value as JSON: its own to_json(), a list for a tuple or list, a dict of
    written values, None, a bool, an int or a str as itself, else its str (a
    Fraction prints as "p/q")."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


class Record:
    """Base of the package's frozen records, which behave as frozen dataclasses.

    A subclass names its fields in __slots__ and the defaults of some in
    _defaults; a subclass that normalises its fields defines __init__ and
    stores them with _set.  Assigning or deleting a field raises
    AttributeError; equality, hashing, repr, copying and pickling read the
    tuple of field values, and to_json writes every field by name.
    """

    __slots__ = ()
    _defaults = {}
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        bound = {**self._defaults, **dict(zip(names, args)), **kwargs}
        try:
            self._set(*[bound[name] for name in names])
        except KeyError as e:
            raise TypeError(f"{type(self).__name__}() missing field {e}") from None

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self):
        return {name: _json(getattr(self, name)) for name in self.__slots__}

    def __reduce__(self):  # the default would restore the slots by the refused setattr
        return object.__new__, (type(self),), self._values()

    def __setstate__(self, values):
        self._set(*values)


class PolycfError(Exception):
    """Base class for every error raised by this package."""


class _IndexedError(PolycfError):
    """Error tied to a specific term index; subclasses set ``message``."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"{self.message} (index {index})")


class PoleAtArgument(PolycfError):
    """A rational function was evaluated where its denominator vanishes."""

    def __init__(self, argument):
        self.argument = argument
        super().__init__(f"denominator vanishes at n = {argument}")


class ZeroFunction(PolycfError):
    """The zero function has no leading coefficient and no inverse."""


class NoSuchTerm(_IndexedError):
    """Requested a term past the prefix of a CF that has no tail."""

    message = "no such term: past prefix and no tail"


class ZeroPartialNumerator(_IndexedError):
    """A realized partial numerator a_n is zero."""

    message = "partial numerator is zero"


class ZeroScaleFactor(_IndexedError):
    """A similarity scale factor r_n is zero."""

    message = "scale factor is zero"


class RepeatedValue(_IndexedError):
    """Two consecutive sequence values coincide, so no CF term exists."""

    message = "consecutive sequence values are equal"


class ZeroTerm(_IndexedError):
    """A series term or product factor that must be nonzero is zero."""

    message = "term is zero"


class UnitTerm(_IndexedError):
    """A product factor equals 1, which the transform cannot represent."""

    message = "product factor equals 1"


class DegenerateTerm(_IndexedError):
    """A perturbed term combination vanishes, so no CF term exists."""

    message = "perturbed term combination vanishes"


class ZeroEvenDenominator(_IndexedError):
    """b_{2k} = 0, so the even contraction does not exist."""

    message = "even-indexed partial denominator is zero"


class ZeroOddDenominator(_IndexedError):
    """b_{2k+1} = 0, so the odd contraction does not exist."""

    message = "odd-indexed partial denominator is zero"


class TransformDoesNotExist(_IndexedError):
    """The Bauer-Muir existence quantity a_n - w_{n-1}(b_n + w_n) vanishes."""

    message = "Bauer-Muir existence condition fails"


class NonzeroW0(PolycfError):
    """The extension requires w_0 = 0."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"w_0 must be 0, got {value}")


class ZeroW(_IndexedError):
    """The extension requires w_n != 0 for n >= 1."""

    message = "w_n must be nonzero for n >= 1"


class HypothesisViolation(PolycfError):
    """A named precondition fails hard enough that construction is impossible."""

    def __init__(self, name, detail=""):
        self.name = name
        self.detail = detail
        message = f"hypothesis violated: {name}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class NonIntegerTerms(_IndexedError):
    """Irrationality certification needs integer terms."""

    message = "term is not an integer"


class EmptyRange(PolycfError):
    """A diagnostic was requested over an empty index range."""


class UnsupportedConstant(PolycfError):
    """No oracle is available for the requested constant."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"no oracle for constant {name!r}")
