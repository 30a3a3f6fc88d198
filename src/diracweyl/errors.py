"""Exception hierarchy shared across the library, and the one residual gate.

The command line tool maps these onto exit codes: bad or malformed input
data exits with 2, numerical-consistency failures (loss of ellipticity,
route disagreement, Hermiticity violations) exit with 3.  The module
imports no numpy, so the command line refuses bad input without it;
gate loads numpy when it is first called.
"""


class DiracweylError(Exception):
    """Base class for all library errors."""


class InputError(DiracweylError):
    """Malformed or out-of-contract input (bad shapes, unknown names, ...)."""


class EllipticityError(DiracweylError):
    """A symbol or metric degenerates somewhere on the grid."""


class ConsistencyError(DiracweylError):
    """Independent computation routes disagree beyond tolerance."""


def expect_type(value, cls, name: str) -> None:
    """Refuse, with InputError naming the expected and the received type, a value that is no cls.

    cls is a class or, as for isinstance, a tuple of classes, named "A or B" in the message.
    """
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise InputError(f"{name} must be a {names}, got {type(value).__name__}")


def gate(what: str, residual, bound: float, error=ConsistencyError) -> float:
    """max|residual| if it is at most bound; otherwise raise error saying how far off and where.

    The message names the check, the measured value, the bound and their
    ratio, and for a grid field (three equal leading axes) the worst grid
    point.  A NaN fails; an empty residual passes with 0.  A real
    residual is read through max() and -min(), without an abs copy.
    """
    import numpy as np

    r = np.asarray(residual)
    if r.size == 0:
        return 0.0
    # a NaN makes both max() and min() NaN; abs() only drops the sign of a zero
    worst = float(np.abs(r).max() if np.iscomplexobj(r) else abs(max(r.max(), -r.min())))
    if worst <= bound:
        return worst
    ratio = worst / bound if bound > 0.0 else np.inf
    point = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(r)), r.shape)[:3])  # NaN first
    grid = r.ndim >= 3 and r.shape[0] == r.shape[1] == r.shape[2]
    where = f" at grid point {point}" if grid else ""
    raise error(f"{what}: measured {worst:.3e} against bound {bound:.3g}, ratio {ratio:.3g}{where}")
