"""Exceptions shared by the modules of the package."""


class InvariantError(AssertionError):
    """A mathematical invariant failed to hold.

    The message names the input that broke it.  Unlike an ``assert`` the
    check also runs under ``python -O``; subclassing AssertionError keeps
    ``except AssertionError`` handlers working.
    """
