"""Exception hierarchy shared by all modules."""


class MackeyboxError(Exception):
    """Base class for all library errors."""


class NotAnInteger(MackeyboxError, TypeError):
    """A value that is not an exact integer; ``row`` and ``column`` locate a
    matrix entry and are None for any other value, such as a scale factor
    or a degree's multiplicity."""

    def __init__(self, value, row=None, column=None):
        self.value, self.row, self.column = value, row, column
        where = "value" if row is None else f"entry at row {row}, column {column}"
        super().__init__(f"{where} is not an integer: {value!r}")


class NotPrime(MackeyboxError):
    pass


class IllFormedHom(MackeyboxError):
    """Matrix does not send source relations into the target relation span."""


class NotAnAction(MackeyboxError):
    """Supplied endomorphism is not an order-p action."""


class InfiniteGroup(MackeyboxError):
    """Operation requires finite groups but a level has positive free rank."""


class NotAComplex(MackeyboxError):
    """Differentials do not square to zero."""


class PrimeMismatch(MackeyboxError):
    pass


class LevelMismatch(MackeyboxError, ValueError):
    """A structure map or level map that does not run between its levels."""


class IncompatiblePairing(MackeyboxError):
    def __init__(self, condition, message=""):
        self.condition = condition
        super().__init__(f"pairing condition {condition} violated" + (f": {message}" if message else ""))


class NotAModule(MackeyboxError):
    pass


class NotCommutative(MackeyboxError):
    pass


class ZeroFunctor(MackeyboxError):
    pass


class UnclassifiableShape(MackeyboxError):
    """A Mackey field matched neither classification shape; bug or counterexample."""


class UnclassifiedField(MackeyboxError):
    pass


class SizeLimit(MackeyboxError):
    """Intermediate presentation exceeded the configured generator bound."""


class WindowOverflow(MackeyboxError):
    """A graded box product (``grading.graded_box``) whose output support
    would hold more than ``grading.MAX_GRADED_PIECES`` degrees."""


class EmptyWindow(MackeyboxError, ValueError):
    """A window holds no nonzero piece of the tower it was asked about."""


class InsufficientTruncation(MackeyboxError):
    pass


class NotFreeAction(MackeyboxError):
    """A circle model that is not free with k + 1 orbits at level k."""


class NotSimplicial(MackeyboxError, ValueError):
    """Faces, degeneracies or level maps that break a simplicial identity."""


class FactorMismatch(MackeyboxError, ValueError):
    """A map out of a box product given products whose factors or slots do
    not fit its data, or a graded tower's pairing that does not fit its pieces."""


class NotEquivariant(MackeyboxError):
    pass


class NotInjective(MackeyboxError):
    pass


class NotAMackeyFunctor(MackeyboxError, ValueError):
    """Levels and structure maps that break a Mackey axiom; ``failures``
    holds the failed ``ValidationCheck``s, each with its witness generator."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        witnessed = "; ".join(f"{c.name} ({c.witness})" for c in self.failures)
        super().__init__(f"not a Mackey functor: {witnessed}")


class NotAnIsomorphism(MackeyboxError, ValueError):
    """A map of Mackey functors that is not an isomorphism where one is
    required; ``level`` names the first level map that is not one and
    ``reason`` says whether its invariants differ or its cokernel is nonzero."""

    def __init__(self, level, reason):
        self.level, self.reason = level, reason
        super().__init__(f"not an isomorphism at the {level} level: {reason}")


class NotAMackeyMap(MackeyboxError, ValueError):
    """Level maps that do not commute with transfer, restriction or the action;
    ``failures`` holds the failed squares, each with its witness generator."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        witnessed = "; ".join(f"{c.name} ({c.witness})" for c in self.failures)
        super().__init__(f"not a map of Mackey functors: {witnessed}")


class ShapeMismatch(MackeyboxError, ValueError):
    """A vector whose length is not the one its matrix needs; ``expected`` and
    ``actual`` are the two lengths."""

    def __init__(self, what, expected, actual):
        self.expected, self.actual = expected, actual
        super().__init__(f"{what} has length {actual}, expected {expected}")
