"""Lifted twist maps of the annulus.

A map of the annulus T x R is represented by a lift F: R^2 -> R^2 with
F(x+1, y) = F(x, y) + (1, 0).  Every family in the catalogue is analytic,
area preserving, and has a closed-form inverse and an exact Jacobian, so
angle cocycles downstream are never polluted by finite-difference noise.

Families
--------
shear                F(x, y) = (x + y, y)
drift (DriftShear)   F(x, y) = (x + y, y + c); non-exact, flux c
standard             F(x, y) = (x + y', y') with y' = y - (k/2pi) sin(2pi x)
genfun               same kicked form with V(x) = sum_i a_i cos(2pi i x),
                     i.e. y' = y + V'(x); std:k coincides with a1 = k/(4pi^2)

Spec heads and parameter names live in one table, _SPECS, the one home of
the spec grammar: LiftedMap's checks, to_spec and parse_map_spec read it.

All coordinates live on the lifted plane; reduction mod 1 happens only at
output time.

Kicks
-----
Every kick term is a multiple of sin or cos of 2pi s with s = i x.  Both
come from one exact range reduction of s, s - floor(s), whose cost does
not grow with |s| (see _kick).  The sin and cos of a harmonic share that
reduction, so step_scalar/step_array return the image and the Jacobian of
one step from it; apply_* leave the cos out, and jacobian_* read the
Jacobian off the step.

One builder, _kernels, makes each map's kernels once at construction, for
floats and for arrays.  It picks a kick (V', V'') and a slope (V' alone)
for the input, _kick_arr on arrays and _kick on floats, and writes each
direction's step and image once over them.  A single first harmonic on
floats (every standard map) gets _single_harmonic's kernels instead:
_kick's loop body is written into each direction's step and image, so a
map application makes no further Python call.  Shear and drift are one
line each.  Floats and arrays agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationCapError, NonFiniteOrbitError

TWO_PI = 2.0 * math.pi

SHEAR = "shear"
DRIFT = "drift"
STANDARD = "standard"
GENFUN = "genfun"

# The spec grammar, one entry per family: its spec head and the names of
# its parameters, None for genfun's a1, a2, ... (at least one).
_SPECS = {SHEAR: ("shear", ()), DRIFT: ("drift", ("c",)), STANDARD: ("std", ("k",)),
          GENFUN: ("genfun", None)}

# Default orbit-length guard for iterate().
ITERATE_CAP = 10_000_000

# Rows per block when scalar walks fill an array (iterate, torsion_trace).
BLOCK = 1024

# The most cosine coefficients of a genfun map; every kick loops over all.
GENFUN_MAX_INDEX = 64


def _kick(x: float, harmonics, sin: bool, cos: bool) -> tuple[float, float]:
    """(V'(x), V''(x)) of a kick V(x) given as harmonics (i, p, q).

    V'(x) = -sum p sin(2 pi i x) and V''(x) = -sum q cos(2 pi i x); a part
    not asked for is 0.0.  Each harmonic's sin and cos come from one exact
    range reduction of s = i x: s mod 1 as s - floor(s), which costs the
    same for any |s|.  In half-turn units t = 2s that is t - 2 floor(t/2),
    equal bit for bit to fmod(t, 2) wrapped into [0, 2) (except that a zero
    remainder is +0 where fmod keeps the sign of t).  Splitting off the
    half turn leaves u in [0, 1/2]; its sign goes into the angle, as sin is
    odd: sin(2 pi s) = sin(+-2 pi u), cos(2 pi s) = +-cos(2 pi u).

    Plain sin(2*pi*x) returns ~1.2e-16 at x = 0.5, which is enough to push
    an orbit off a symmetric fixed point and onto its unstable manifold.
    Folding u into [0, 1/4] for sin, and taking cos(2 pi u) as
    sin(2 pi (1/4 - u)), makes both exactly 0 or +-1 at every quarter
    turn, however large |s|.
    """
    vp = w = 0.0
    for i, p, q in harmonics:
        s = x if i == 1 else i * x
        u = s - math.floor(s)
        turn = TWO_PI
        if u >= 0.5:
            u -= 0.5
            turn = -TWO_PI
        if sin:
            vp -= p * math.sin(turn * (0.5 - u if u > 0.25 else u))
        if cos:
            w -= q * math.sin(turn * (0.25 - u))
    return vp, w


def _fold_arr(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_kick's range reduction, elementwise: u in [0, 1/2] and the signed
    full turn (-2 pi where the half turn was split off, else 2 pi)."""
    u = s - np.floor(s)
    hi = u >= 0.5
    u -= 0.5 * hi
    return u, TWO_PI - (2.0 * TWO_PI) * hi


def _kick_arr(x: np.ndarray, harmonics, sin: bool, cos: bool):
    """Elementwise _kick: the same arithmetic, with no branches."""
    vp = w = 0.0
    for i, p, q in harmonics:
        u, turn = _fold_arr(x if i == 1 else i * x)
        if sin:
            v = np.minimum(u, 0.5 - u)
            v *= turn
            np.sin(v, out=v)
            v *= p
            vp = vp - v
        if cos:
            v = 0.25 - u
            v *= turn
            np.sin(v, out=v)
            v *= q
            w = w - v
    return vp, w


def _kernels(family: str, params, harmonics, forward: bool, arrays: bool):
    """(step, image) kernels of one map going forward or back.

    step returns (x1, y1, a, b, c, d), image (x1, y1); both take floats, or
    arrays when arrays is set.  Jacobian entries that do not depend on the
    point are floats.
    """
    if not harmonics:
        jac = (1.0, 1.0, 0.0, 1.0) if forward else (1.0, -1.0, -0.0, 1.0)
        if family == DRIFT:
            c = params[0]
            if forward:
                return (lambda x, y: (x + y, y + c, *jac)), (lambda x, y: (x + y, y + c))
            return (lambda x, y: (x - y + c, y - c, *jac)), (lambda x, y: (x - y + c, y - c))
        if arrays:  # +y copies y, so no output array is an input array
            image = (lambda x, y: (x + y, +y)) if forward else (lambda x, y: (x - y, +y))
            return (lambda x, y: (*image(x, y), *jac)), image
        if forward:
            return (lambda x, y: (x + y, y, *jac)), (lambda x, y: (x + y, y))
        return (lambda x, y: (x - y, y, *jac)), (lambda x, y: (x - y, y))

    if not arrays and len(harmonics) == 1:
        return _single_harmonic(*harmonics[0][1:], forward)
    # kick(x) is (V'(x), V''(x)), slope(x) is V'(x) alone.
    if arrays:
        kick = lambda x: _kick_arr(x, harmonics, True, True)
        slope = lambda x: _kick_arr(x, harmonics, True, False)[0]
    else:
        kick = lambda x: _kick(x, harmonics, True, True)
        slope = lambda x: _kick(x, harmonics, True, False)[0]

    # The kick acts at the base map's x: x itself going forward, the
    # preimage x - y going back, where the Jacobian is the inverse of the
    # base Jacobian at the preimage (det = 1).
    if forward:
        def step(x, y):
            vp, w = kick(x)
            y1 = y + vp
            return x + y1, y1, 1.0 + w, 1.0, w, 1.0

        def image(x, y):
            y1 = y + slope(x)
            return x + y1, y1
    else:
        def step(x, y):
            kx = x - y
            vp, w = kick(kx)
            return kx, y - vp, 1.0, -1.0, -w, 1.0 + w

        def image(x, y):
            kx = x - y
            return kx, y - slope(kx)
    return step, image


def _single_harmonic(p: float, q: float, forward: bool):
    """Float (step, image) of one first harmonic going forward or back, with
    _kick's loop body written into each, so that a step makes no other call."""
    floor, sin = math.floor, math.sin
    if forward:
        def step(x, y):
            u, turn = x - floor(x), TWO_PI
            if u >= 0.5:
                u, turn = u - 0.5, -TWO_PI
            w = 0.0 - q * sin(turn * (0.25 - u))
            y1 = y + (0.0 - p * sin(turn * (0.5 - u if u > 0.25 else u)))
            return x + y1, y1, 1.0 + w, 1.0, w, 1.0

        def image(x, y):
            u, turn = x - floor(x), TWO_PI
            if u >= 0.5:
                u, turn = u - 0.5, -TWO_PI
            y1 = y + (0.0 - p * sin(turn * (0.5 - u if u > 0.25 else u)))
            return x + y1, y1
    else:
        def step(x, y):
            kx = x - y
            u, turn = kx - floor(kx), TWO_PI
            if u >= 0.5:
                u, turn = u - 0.5, -TWO_PI
            w = 0.0 - q * sin(turn * (0.25 - u))
            vp = 0.0 - p * sin(turn * (0.5 - u if u > 0.25 else u))
            return kx, y - vp, 1.0, -1.0, -w, 1.0 + w

        def image(x, y):
            kx = x - y
            u, turn = kx - floor(kx), TWO_PI
            if u >= 0.5:
                u, turn = u - 0.5, -TWO_PI
            return kx, y - (0.0 - p * sin(turn * (0.5 - u if u > 0.25 else u)))
    return step, image


_KERNEL_ATTRS = ("_step_k", "_apply_k", "_apply_inverse_k", "_step_array_k", "_apply_array_k")


def _as_point(p) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got {(x, y)}")
    return x, y


@dataclass(frozen=True)
class LiftedMap:
    """A catalogued lift with exact derivative and closed-form inverse.

    Parameters
    ----------
    family : str
        A family of _SPECS, the one home of the spec grammar.
    params : tuple of float
        The family's parameters, in the order of its names in _SPECS.
    twist_sign : int
        +1 for the catalogue maps.  -1 swaps the map with its inverse; it
        exists only as an explicitly inverted test fixture and violates the
        positive-twist requirement of the cocycle engine.
    """

    family: str
    params: tuple[float, ...] = ()
    twist_sign: int = 1

    def __post_init__(self) -> None:
        if self.family not in _SPECS:
            raise ValueError(f"unknown map family {self.family!r}")
        if self.twist_sign not in (1, -1):
            raise ValueError("twist_sign must be +1 or -1")
        params = tuple(float(v) for v in self.params)
        if not all(math.isfinite(v) for v in params):
            raise ValueError("map parameters must be finite")
        names = _SPECS[self.family][1]
        if names is None and not 1 <= len(params) <= GENFUN_MAX_INDEX:
            raise ValueError(f"{self.family} takes 1 to {GENFUN_MAX_INDEX} cosine coefficients")
        if names is not None and len(params) != len(names):
            raise ValueError(f"{self.family} takes the parameters ({', '.join(names)})")
        if self.family == STANDARD and params[0] < 0.0:
            raise ValueError("standard-map kick strength k must be >= 0")
        object.__setattr__(self, "params", params)
        # Kick harmonics (i, p_i, q_i): V'(x) = -sum p_i sin(2 pi i x) and
        # V''(x) = -sum q_i cos(2 pi i x).
        if self.family == STANDARD:
            k = params[0]
            harmonics = ((1, k / TWO_PI, k),)
        elif self.family == GENFUN:
            harmonics = tuple(
                (i, TWO_PI * i * a, (TWO_PI * i) ** 2 * a)
                for i, a in enumerate(params, start=1)
            )
        else:
            harmonics = ()
        object.__setattr__(self, "_harmonics", harmonics)
        self._bind_kernels()

    def _bind_kernels(self) -> None:
        """Bind step, apply, apply-inverse on floats, step, apply on arrays."""
        args = (self.family, self.params, self._harmonics)
        forward = self.twist_sign == 1
        kernels = (
            *_kernels(*args, forward, False),
            _kernels(*args, not forward, False)[1],
            *_kernels(*args, forward, True),
        )
        for name, kernel in zip(_KERNEL_ATTRS, kernels):
            object.__setattr__(self, name, kernel)

    # Closures do not pickle: state leaves the kernels out and loading
    # rebuilds them.
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _KERNEL_ATTRS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_kernels()

    def inverted(self) -> "LiftedMap":
        """Swap the map with its inverse (negative-twist test fixture)."""
        return LiftedMap(self.family, self.params, -self.twist_sign)

    def _kick_bound(self) -> float:
        """An upper bound on |V''|; every Jacobian entry is at most 1 + this."""
        return math.fsum(abs(q) for _, _, q in self._harmonics)

    # -- scalar path ---------------------------------------------------------

    def step_scalar(self, x: float, y: float) -> tuple[float, float, float, float, float, float]:
        """(x1, y1, a, b, c, d): apply_scalar and jacobian_scalar at (x, y) at once.

        Bit-equal to calling both, with one range reduction per harmonic.
        """
        return self._step_k(x, y)

    def apply_scalar(self, x: float, y: float) -> tuple[float, float]:
        """One application of the lift, plain floats (hot-loop path)."""
        return self._apply_k(x, y)

    def apply_inverse_scalar(self, x: float, y: float) -> tuple[float, float]:
        return self._apply_inverse_k(x, y)

    def jacobian_scalar(self, x: float, y: float) -> tuple[float, float, float, float]:
        """Row-major entries (a, b, c, d) of the derivative at (x, y).

        Columns are the images of the horizontal and vertical directions.
        None of the catalogue Jacobians depend on y.
        """
        return self._step_k(x, y)[2:]

    # -- array path ----------------------------------------------------------

    def step_array(self, x: np.ndarray, y: np.ndarray):
        """Elementwise step_scalar: (x1, y1, a, b, c, d) in one pass.

        Entries that are the same at every point (b and d going forward,
        a and b for an inverted map, all four for shear/drift) come back
        as floats, which numpy broadcasts.
        """
        return self._step_array_k(x, y)

    def apply_array(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise application of the lift to coordinate arrays."""
        return self._apply_array_k(x, y)

    def jacobian_array(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Elementwise Jacobian entries (a, b, c, d) over coordinate arrays."""
        entries = self.step_array(x, y)[2:]
        return tuple(np.full(np.shape(x), e) if isinstance(e, float) else e for e in entries)

    # -- public point API ---------------------------------------------------

    def eval(self, p) -> np.ndarray:
        """F(p) as a length-2 array."""
        x, y = _as_point(p)
        return np.array(self.apply_scalar(x, y))

    def eval_inverse(self, p) -> np.ndarray:
        """F^{-1}(p); eval(eval_inverse(p)) round-trips to machine noise."""
        x, y = _as_point(p)
        return np.array(self.apply_inverse_scalar(x, y))

    def derivative(self, p) -> np.ndarray:
        """The 2x2 derivative of the lift at p (exact, det = 1)."""
        x, y = _as_point(p)
        a, b, c, d = self.jacobian_scalar(x, y)
        return np.array([[a, b], [c, d]])

    def to_spec(self) -> str:
        """The CLI spec string for this map (see parse_map_spec)."""
        head, names = _SPECS[self.family]
        names = names or [f"a{i}" for i in range(1, len(self.params) + 1)]
        pairs = ",".join(f"{name}={v!r}" for name, v in zip(names, self.params))
        spec = f"{head}:{pairs}" if pairs else head
        return f"inverted({spec})" if self.twist_sign == -1 else spec


def shear() -> LiftedMap:
    return LiftedMap(SHEAR)


def drift_shear(c: float) -> LiftedMap:
    return LiftedMap(DRIFT, (c,))


def standard(k: float) -> LiftedMap:
    return LiftedMap(STANDARD, (k,))


def generating_function(*coeffs: float) -> LiftedMap:
    return LiftedMap(GENFUN, coeffs)


def iterate(map: LiftedMap, p, n: int, cap: int = ITERATE_CAP) -> np.ndarray:
    """Orbit segment [p, F(p), ..., F^n(p)] as an (|n|+1, 2) array.

    Negative n walks the inverse map.  Raises IterationCapError when |n|
    exceeds cap, and NonFiniteOrbitError when the orbit leaves the float
    range.
    """
    n = int(n)
    if abs(n) > cap:
        raise IterationCapError(f"|n| = {abs(n)} exceeds the cap {cap}")
    start = x, y = _as_point(p)
    length = abs(n)
    out = np.empty((length + 1, 2))
    out[0] = start
    step = map.apply_scalar if n >= 0 else map.apply_inverse_scalar
    for i in range(1, length + 1, BLOCK):
        rows, x0, y0 = [], x, y
        try:
            for _ in range(min(BLOCK, length + 1 - i)):
                x, y = step(x, y)
                rows.append((x, y))
        except (ArithmeticError, ValueError) as exc:
            raise NonFiniteOrbitError.at(start, i + len(rows)) from exc
        out[i : i + len(rows)] = rows
        if not (math.isfinite(x) and math.isfinite(y)):  # shear and drift carry inf on
            raise NonFiniteOrbitError.at(start, i - 1 + _first_non_finite(step, x0, y0, len(rows)))
    return out


def _first_non_finite(step, x: float, y: float, n: int) -> int:
    """The first of n steps from (x, y) to a non-finite point, or n.  Shear
    and drift carry inf on without raising: a walk checks its last point,
    then walks again with step (which may return more) to name the step."""
    for i in range(1, n):
        x, y = step(x, y)[:2]
        if not (math.isfinite(x) and math.isfinite(y)):
            return i
    return n


@dataclass(frozen=True)
class TwistReport:
    """Sampled verification of the positive-twist property."""

    min_twist: float
    argmin: tuple[float, float]
    violations: tuple[tuple[float, float, float], ...]
    samples: int

    @property
    def ok(self) -> bool:
        return self.min_twist > 0.0 and not self.violations


def _halton(samples: int, base: int) -> np.ndarray:
    """Radical inverses of 1..samples in the given base (van der Corput)."""
    n = np.arange(1, samples + 1)
    out = np.zeros(samples)
    scale = 1.0
    while n.any():
        scale /= base
        n, digit = np.divmod(n, base)
        out += digit * scale
    return out


def twist_check(map: LiftedMap, samples: int = 1000, seed: int = 0) -> TwistReport:
    """Sample the (1,2) Jacobian entry over [0,1] x [-3, 3].

    Uses a Halton set in bases 2 and 3, shifted mod 1 by a seeded uniform
    offset, so low-probability sign regions are hit with far fewer samples
    than uniform draws would need.  Violations are reported, not raised:
    the fixture maps are supposed to fail this.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    shift = np.random.default_rng(seed).random(2)
    xs = (_halton(samples, 2) + shift[0]) % 1.0
    ys = (2.0 * ((_halton(samples, 3) + shift[1]) % 1.0) - 1.0) * 3.0
    _, b, _, _ = map.jacobian_array(xs, ys)
    i_min = int(np.argmin(b))
    bad = np.flatnonzero(b <= 0.0)
    violations = tuple((float(xs[i]), float(ys[i]), float(b[i])) for i in bad)
    return TwistReport(
        min_twist=float(b[i_min]),
        argmin=(float(xs[i_min]), float(ys[i_min])),
        violations=violations,
        samples=samples,
    )


def parse_map_spec(spec: str) -> LiftedMap:
    """Build a LiftedMap from its CLI string (the inverse of to_spec).

    Grammar: ``<head>`` for a family without parameters, else
    ``<head>:<name>=<real>,...`` with each of its names once, heads and
    names as in _SPECS (genfun's a1, a2, ... up to a<GENFUN_MAX_INDEX> in
    any order, a missing one 0), or ``inverted(<spec>)``.
    """
    spec = spec.strip()
    if spec.startswith("inverted(") and spec.endswith(")"):
        return parse_map_spec(spec[len("inverted(") : -1]).inverted()
    head, sep, tail = spec.partition(":")
    family = next((f for f, (h, _) in _SPECS.items() if h == head), None)
    if family is None:
        raise ValueError(f"unknown map family {head!r} in map spec {spec!r}")
    names = _SPECS[family][1]
    params: dict[int, float] = {}
    for item in tail.split(",") if sep else ():
        key, _, val = item.partition("=")
        try:
            value = float(val)
        except ValueError:
            raise ValueError(f"malformed parameter {item!r} in map spec {spec!r}") from None
        key = key.strip()
        if names is None:  # a<i> is the i-th coefficient
            i = int(key[1:]) - 1 if key[:1] == "a" and key[1:].isdigit() else -1
        else:
            i = names.index(key) if key in names else -1
        if i < 0 or i in params:
            raise ValueError(f"unknown or repeated parameter {key!r} in map spec {spec!r}")
        if names is None and i >= GENFUN_MAX_INDEX:
            raise ValueError(f"{key!r} is past a{GENFUN_MAX_INDEX} in map spec {spec!r}")
        params[i] = value
    # genfun fills gaps with 0; elsewhere a missing name leaves too few values
    top = max(params, default=-1) + 1 if names is None else len(params)
    return LiftedMap(family, tuple(params.get(i, 0.0) for i in range(top)))
