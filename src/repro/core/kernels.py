"""Extrapolation function kernels (paper Table 1).

ESTIMA approximates every stalled-cycle category, the time-extrapolation
baseline and the stalls-to-time scaling factor with a small, fixed set of
analytic function families ("kernels").  The original implementation used the
``pythonequation`` / zunzun.com fitting library; here each kernel is expressed
as a plain numpy-vectorised callable plus the metadata the regression layer
needs (parameter count, initial guesses, and a realism predicate used to
discard degenerate fits, as described in Section 3.1.2 of the paper).

The six families of Table 1:

========  =====================================================
Name      Function
========  =====================================================
Rat22     (a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2)
Rat23     (a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2 + b3 n^3)
Rat33     (a0 + a1 n + a2 n^2 + a3 n^3) / (1 + b1 n + b2 n^2 + b3 n^3)
CubicLn   a + b ln(n) + c ln(n)^2 + d ln(n)^3
ExpRat    exp((a + b n) / (c + d n))
Poly25    a + b n + c n^2 + d n^2.5
========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Kernel",
    "KERNELS",
    "Rational",
    "power_table",
    "DEFAULT_KERNEL_NAMES",
    "get_kernel",
    "kernel_names",
]

# Guard for rational kernels: denominators closer to zero than this are treated
# as poles and the fit is rejected by the realism check.
_DENOM_EPS = 1e-9

# Values larger than this (relative to the data scale handled in regression)
# are considered numerically exploded.
_HUGE = 1e30


def power_table(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The powers ``(n, n^2, n^3)`` the rational kernels are written over.

    A solver evaluates one kernel on the same core counts hundreds of times,
    so it builds this table once per solve and passes it to
    :meth:`Rational.over`; every other caller goes through
    :meth:`Rational.__call__`, which builds it per call.  Either way the
    kernel expression sees the same arrays, so the values are identical.
    """
    return n, n**2, n**3


def _rat22_terms(pw, a0, a1, a2, b1, b2):
    n, n2, _ = pw
    return a0 + a1 * n + a2 * n2, 1.0 + b1 * n + b2 * n2


def _rat23_terms(pw, a0, a1, a2, b1, b2, b3):
    n, n2, n3 = pw
    return a0 + a1 * n + a2 * n2, 1.0 + b1 * n + b2 * n2 + b3 * n3


def _rat33_terms(pw, a0, a1, a2, a3, b1, b2, b3):
    n, n2, n3 = pw
    return a0 + a1 * n + a2 * n2 + a3 * n3, 1.0 + b1 * n + b2 * n2 + b3 * n3


def _exp_rat_terms(pw, a, b, c, d):
    n = pw[0]
    return a + b * n, c + d * n


@dataclass(frozen=True)
class Rational:
    """A kernel of the form ``num(n) / den(n)`` (or ``exp`` of that ratio).

    ``terms(powers, *params)`` returns ``(numerator, denominator)`` over a
    :func:`power_table`; it is the one place each rational formula of Table 1
    is written.  Parameters may be scalars or broadcast columns, so the same
    expression evaluates one parameter vector or a stack of them with
    elementwise-identical results.
    """

    terms: Callable[..., tuple[np.ndarray, np.ndarray]]
    exponential: bool = False

    def __call__(self, n: np.ndarray, *params: float) -> np.ndarray:
        return self.over(power_table(np.asarray(n, dtype=float)), *params)

    def over(self, powers: tuple[np.ndarray, ...], *params: float) -> np.ndarray:
        """Kernel values over a precomputed :func:`power_table`."""
        num, den = self.terms(powers, *params)
        if not self.exponential:
            return num / den
        # Clip the exponent to keep overflow warnings out of the optimizer;
        # the realism predicate rejects exploded fits afterwards.
        safe = np.where(np.abs(den) < _DENOM_EPS, _DENOM_EPS, den)
        return np.exp(np.clip(num / safe, -60.0, 60.0))

    def denominator(self, powers: tuple[np.ndarray, ...], *params: float) -> np.ndarray:
        """Denominator values over a :func:`power_table` (for pole checks)."""
        return self.terms(powers, *params)[1]


def _cubic_ln(n: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    ln = np.log(np.maximum(n, _DENOM_EPS))
    return a + b * ln + c * ln**2 + d * ln**3


def _poly25(n: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return a + b * n + c * n**2 + d * n**2.5


@dataclass(frozen=True)
class Kernel:
    """One extrapolation function family from Table 1.

    Attributes
    ----------
    name:
        Short identifier used in configuration and reports (e.g. ``"Rat22"``).
    func:
        Vectorised callable ``func(n, *params) -> values``; a
        :class:`Rational` for the rational kernels.
    n_params:
        Number of free parameters.
    initial_guesses:
        A list of starting points for the non-linear least-squares solver.
        Several are tried; the best converged fit wins.
    rational:
        Whether the kernel has a data-dependent denominator (pole hazard).
    """

    name: str
    func: Callable[..., np.ndarray]
    n_params: int
    initial_guesses: tuple[tuple[float, ...], ...]
    rational: bool = False
    description: str = ""

    def __call__(self, n: np.ndarray | float, params: Sequence[float]) -> np.ndarray:
        """Evaluate the kernel at core counts ``n`` with fitted ``params``."""
        return self.func(np.asarray(n, dtype=float), *params)

    def has_pole(self, params: Sequence[float], n: np.ndarray) -> bool:
        """True if a rational kernel's denominator vanishes anywhere on ``n``.

        A sign change or a near-zero denominator inside the evaluation range
        means the fitted function has a pole there, which can never be a
        realistic stalled-cycle curve.
        """
        if not self.rational:
            return False
        den = self.func.denominator(power_table(np.asarray(n, dtype=float)), *params)
        if np.any(np.abs(den) < _DENOM_EPS):
            return True
        return bool(np.any(den[:-1] * den[1:] < 0.0))

    def is_realistic(
        self,
        params: Sequence[float],
        n_eval: np.ndarray,
        *,
        allow_negative: bool = False,
        max_magnitude: float = _HUGE,
    ) -> bool:
        """Realism predicate from Section 3.1.2.

        A fit is kept only if, over the whole evaluation range (measured cores
        through the extrapolation target), it is finite, has no pole, does not
        explode, and — for stalled-cycle series — stays non-negative.
        """
        n_eval = np.asarray(n_eval, dtype=float)
        if self.has_pole(params, n_eval):
            return False
        values = self(n_eval, params)
        if not np.all(np.isfinite(values)):
            return False
        if np.any(np.abs(values) > max_magnitude):
            return False
        if not allow_negative and np.any(values < 0.0):
            return False
        return True


def _guesses(n_params: int) -> tuple[tuple[float, ...], ...]:
    """Generic multi-start guesses for an ``n_params``-parameter kernel."""
    base = [
        tuple(0.1 for _ in range(n_params)),
        tuple(1.0 for _ in range(n_params)),
        tuple((-1.0) ** i for i in range(n_params)),
        tuple(0.01 * (i + 1) for i in range(n_params)),
    ]
    return tuple(base)


KERNELS: dict[str, Kernel] = {
    "Rat22": Kernel(
        name="Rat22",
        func=Rational(_rat22_terms),
        n_params=5,
        initial_guesses=_guesses(5),
        rational=True,
        description="(a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2)",
    ),
    "Rat23": Kernel(
        name="Rat23",
        func=Rational(_rat23_terms),
        n_params=6,
        initial_guesses=_guesses(6),
        rational=True,
        description="(a0 + a1 n + a2 n^2) / (1 + b1 n + b2 n^2 + b3 n^3)",
    ),
    "Rat33": Kernel(
        name="Rat33",
        func=Rational(_rat33_terms),
        n_params=7,
        initial_guesses=_guesses(7),
        rational=True,
        description="(a0 + a1 n + a2 n^2 + a3 n^3) / (1 + b1 n + b2 n^2 + b3 n^3)",
    ),
    "CubicLn": Kernel(
        name="CubicLn",
        func=_cubic_ln,
        n_params=4,
        initial_guesses=_guesses(4),
        rational=False,
        description="a + b ln(n) + c ln(n)^2 + d ln(n)^3",
    ),
    "ExpRat": Kernel(
        name="ExpRat",
        func=Rational(_exp_rat_terms, exponential=True),
        n_params=4,
        initial_guesses=(
            (0.0, 0.1, 1.0, 0.1),
            (1.0, 0.5, 1.0, 0.01),
            (0.5, -0.1, 1.0, 0.5),
            (0.0, 1.0, 10.0, 1.0),
        ),
        rational=True,
        description="exp((a + b n) / (c + d n))",
    ),
    "Poly25": Kernel(
        name="Poly25",
        func=_poly25,
        n_params=4,
        initial_guesses=_guesses(4),
        rational=False,
        description="a + b n + c n^2 + d n^2.5",
    ),
}

#: Kernel names in the order the paper lists them (Table 1).
DEFAULT_KERNEL_NAMES: tuple[str, ...] = tuple(KERNELS)


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by its Table-1 name (case-sensitive)."""
    try:
        return KERNELS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(KERNELS)}"
        ) from exc


def kernel_names() -> tuple[str, ...]:
    """All registered kernel names."""
    return tuple(KERNELS)
