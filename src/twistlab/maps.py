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
reduction, so one step kernel returns the image and the Jacobian of a
step from it (step_array on arrays); apply_* leave the cos out, and
jacobian_* read the Jacobian off the step.

A map binds its kernels once at construction, and all of them, on floats
and on arrays, come from one source template, compiled once per family,
harmonic count and direction (_kernel_factory).  Each family's step is
written once (_step_source): a kick on floats as _kick's loop body
unrolled one harmonic at a time, on arrays as one _kick_arr call, and the
move and the Jacobian in the same lines for both.  It goes into the step
and the image on floats and arrays, and into the three block kernels of
the scalar loops, a tangent walk, a forward orbit and the vertical's
Jacobi field, which take up to a block of steps a call.  An inverted
map's step is the image at the preimage with the Jacobian's adjugate
there (det = 1), its kick taken once; the inverse image is the inverted
map's image, and a backward orbit its forward orbit.  Floats and arrays
agree bit for bit.  The blocks record floats in one list per column,
which _column moves into numpy in one packed copy.  Each kernel is bound
as _observe(name, kernel), the one way to watch it.  Every orbit loop
names the step at which it left the float range by one rule,
_check_block, whatever BLOCK is, and every request that sizes memory or
a solver sweep is held to ITERATE_CAP by one rule, _check_cap.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass
from numbers import Integral, Real
from struct import pack

import numpy as np

from .errors import IterationCapError, NonFiniteOrbitError, TwistViolationError

TWO_PI = 2.0 * math.pi

SHEAR = "shear"
DRIFT = "drift"
STANDARD = "standard"
GENFUN = "genfun"

# The spec grammar, one entry per family: its spec head and the names of
# its parameters, None for genfun's a1, a2, ... (at least one).
_SPECS = {SHEAR: ("shear", ()), DRIFT: ("drift", ("c",)), STANDARD: ("std", ("k",)),
          GENFUN: ("genfun", None)}

# The size rule's bound (_check_cap): rows kept, lanes or map steps per sweep.
ITERATE_CAP = 10_000_000

# twist_check's Halton sample count and the seed of its shift.
TWIST_SAMPLES, TWIST_SEED = 1000, 0

# Steps per call of a block kernel in the scalar loops; each block of a
# walk pays about twenty small numpy calls.  No result depends on it.
BLOCK = 4096

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

    The float kernels unroll this loop's body (_step_source); _kick stays
    as the float reference that the tests hold them to, bit for bit.
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
    full turn (-2 pi where the half turn was split off, else 2 pi), in
    arrays it owns.  The split u >= 1/2 is cast to float once, as h in
    {0, 1/2}: u - h and h (-8 pi) + 2 pi are exact, -0.0 + 2 pi being 2 pi."""
    u = np.floor(s)
    np.subtract(s, u, out=u)
    h = (u >= 0.5).astype(float)
    h *= 0.5
    u -= h
    h *= -4.0 * TWO_PI
    h += TWO_PI
    return u, h


def _kick_arr(x: np.ndarray, harmonics, cos: bool):
    """Elementwise _kick with sin set: the same arithmetic, with no
    branches, written into temporaries it owns (never into x)."""
    vp = w = 0.0
    for i, p, q in harmonics:
        u, turn = _fold_arr(x if i == 1 else i * x)
        v = 0.5 - u
        np.minimum(u, v, out=v)
        v *= turn
        np.sin(v, out=v)
        v *= p
        vp = np.subtract(vp, v, out=v)
        if cos:  # u's last use
            np.subtract(0.25, u, out=u)
            u *= turn
            np.sin(u, out=u)
            u *= q
            w = np.subtract(w, u, out=u)
    return vp, w


# The kernels of one map shape, compiled by _kernel_factory from the lines
# of _step_source: {kick} takes a step's kick, and holds every line that
# can raise; {move} then takes (x, y) to the step's image.  The array step
# and image differ from the float ones only in their kick, one _kick_arr
# call.  The walk transports (wx, wy) by the step's Jacobian, and an
# inverted map's walk raises TwistViolationError after its kick.  The
# Jacobi block steps the vertical's Jacobi field xi by the recursion
# xi_next = (2 + c) xi - xi_prev, c the Jacobian's V'' entry, rescaling the
# pair past 1e100; it returns after the step at which xi changed sign or
# reached 0, with xi = 0.0 then: a field it carries on is never 0.
_TEMPLATE = '''\
def kernels(c{params}):
    floor, sin, hypot = math.floor, math.sin, math.hypot
    harmonics = ({harmonics})

    def step(x, y):
{step}
        return x, y, {jacobian}

    def image(x, y):
{image}
        return x, y

    def walk(x, y, wx, wy, r, ix, iy, trace, stop, tol):
        side = -1.0 if wx < 0.0 else 1.0
        xs, ys, norms = trace or (None, None, None)
        try:
            for i in range(r):
{kick}
                iwx = ix[i] = {iwx}
                iwy = iy[i] = {iwy}
                norm = hypot(iwx, iwy)
                wx, wy = iwx / norm, iwy / norm
{move}
                if xs is not None:
                    xs[i], ys[i], norms[i] = x, y, norm
                if side * wx < tol or stop is not None and stop(x, y, wx):
                    return x, y, wx, wy, i + 1, None
        except (ArithmeticError, ValueError) as exc:
            return x, y, wx, wy, i, exc
        return x, y, wx, wy, r, None

    def orbit(x, y, r, xs, ys):
        try:
            for i in range(r):
{orbit}
                xs[i] = x
                ys[i] = y
        except (ArithmeticError, ValueError) as exc:
            return x, y, i, exc
        return x, y, r, None

    def jacobi(x, y, xi_prev, xi, r):
        try:
            for i in range(r):
{jacobi}
                xi_next = (2.0 + {vsecond}) * xi - xi_prev
                if xi_next == 0.0 or (xi_next < 0.0) != (xi < 0.0):
                    return x, y, xi, 0.0, i + 1, None
                scale = abs(xi_next)
                if scale > 1e100:
                    if scale == math.inf:
                        raise OverflowError("the Jacobi field overflowed")
                    xi_next /= scale
                    xi = xi / scale
                xi_prev, xi = xi, xi_next
        except (ArithmeticError, ValueError) as exc:
            return x, y, xi_prev, xi, i, exc
        return x, y, xi_prev, xi, r, None

    def step_array(x, y):
{step_array}
        return x, y, {jacobian}

    def image_array(x, y):
{image_array}
        return x, y
    return step, image, walk, orbit, jacobi, step_array, image_array
'''


def _step_source(family: str, count: int, inverted: bool, cos: bool, array: bool):
    """(kick, move, jacobian): the source lines of one step of a family with
    count harmonics, going forward or (inverted) back, and its Jacobian
    (a, b, c, d) as expressions; the kick takes V'' too if cos is set, and
    on arrays it is one call of _kick_arr."""
    if not count:
        if not inverted:  # shear is drift with c = -0.0: y + (-0.0) is y, -0.0 included
            return [], ["x, y = x + y, y + c"], ("1.0", "1.0", "0.0", "1.0")
        # y - (-0.0) would turn -0.0 into +0.0; +y is y on floats and copies an array
        move = "x, y = x - y + c, y - c" if family == DRIFT else "x, y = x - y, +y"
        return [], [move], ("1.0", "-1.0", "-0.0", "1.0")
    at = "kx" if inverted else "x"  # an inverted map kicks at its preimage's x
    kick = ["kx = x - y"] if inverted else []
    if array:
        kick.append(f"vp, w = _kick_arr({at}, harmonics, {cos})")
    else:
        for i in range(1, count + 1):  # _kick's loop body, harmonic i
            s, vp, w = (at, "0.0", "0.0") if i == 1 else ("s", "vp", "w")
            if i > 1:
                kick.append(f"s = {i} * {at}")
            kick += [f"u = {s} - floor({s})", "turn = TWO_PI", "if u >= 0.5:", "    u -= 0.5",
                     "    turn = -TWO_PI",
                     f"vp = {vp} - p{i} * sin(turn * (0.5 - u if u > 0.25 else u))"]
            if cos:
                kick.append(f"w = {w} - q{i} * sin(turn * (0.25 - u))")
    if inverted:  # det = 1: the inverse Jacobian is the adjugate
        return kick, ["y = y - vp", "x = kx"], ("1.0", "-1.0", "-w", "1.0 + w")
    return kick, ["y = y + vp", "x = x + y"], ("1.0 + w", "1.0", "w", "1.0")


def _times(entry: str, v: str) -> str:
    """The source of entry * v, where a literal 1.0 entry is left out (1.0 * v is v)."""
    return v if entry == "1.0" else f"({entry}) * {v}" if " " in entry else f"{entry} * {v}"


@functools.cache
def _kernel_factory(family: str, count: int, inverted: bool):
    """The factory kernels(c, p1, q1, ..., pn, qn) -> the kernels in
    _KERNEL_ATTRS order for every map of one family, count harmonics and
    direction, compiled once from _TEMPLATE: step (x1, y1, a, b, c, d) and
    image (x1, y1) on floats, the walk, orbit and Jacobi blocks, and step
    and image on arrays, where Jacobian entries that do not depend on the
    point are floats.  The parameters are its arguments, never literals.  The code's
    filename names the shape, and linecache holds its source for tracebacks."""
    kick, move, jacobian = _step_source(family, count, inverted, True, False)
    a, b, c, d = jacobian
    # b is a constant: only an inverted map's -1.0 fails the twist test
    twist = [] if b == "1.0" else [f'raise TwistViolationError(f"twist entry {b} <= 0 at '
                                   '{(x, y)}: not a positive twist map here")']
    lines = lambda cos, array: sum(_step_source(family, count, inverted, cos, array)[:2], [])
    block = lambda lines, depth: "\n".join(" " * depth + line for line in lines)
    source = _TEMPLATE.format(
        params="".join(f", p{i}, q{i}" for i in range(1, count + 1)),
        harmonics=" ".join(f"({i}, p{i}, q{i})," for i in range(1, count + 1)),
        step=block(kick + move, 8), jacobian=", ".join(jacobian),
        image=block(lines(False, False), 8), orbit=block(lines(False, False), 16),
        jacobi=block(kick + move, 16), vsecond=c,
        step_array=block(lines(True, True), 8), image_array=block(lines(False, True), 8),
        kick=block(kick + twist, 16), move=block(move, 16),
        iwx=f"{_times(a, 'wx')} + {_times(b, 'wy')}", iwy=f"{_times(c, 'wx')} + {_times(d, 'wy')}")
    direction = "inverted" if inverted else "forward"
    filename = f"<twistlab kernels: {family}, {count} harmonics, {direction}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = {"__name__": __name__, "math": math, "TWO_PI": TWO_PI, "_kick_arr": _kick_arr,
             "TwistViolationError": TwistViolationError}
    exec(compile(source, filename, "exec"), scope)
    return scope["kernels"]


_KERNEL_ATTRS = ("_step_k", "_apply_k", "_walk_k", "_orbit_k", "_jacobi_k", "_step_array_k",
                 "_apply_array_k")


def _observe(name: str, kernel):
    """Returns kernel; a test replaces this to count or patch the kernels of later maps."""
    return kernel


def _as_point(p, name: str = "p") -> tuple[float, float]:
    x, y = _check_items(name, p)
    return _check_real(name, x), _check_real(name, y)


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
        sign = self.twist_sign
        if isinstance(sign, bool) or not isinstance(sign, Integral) or sign not in (1, -1):
            raise ValueError("twist_sign must be +1 or -1")
        object.__setattr__(self, "twist_sign", int(sign))
        names = _SPECS[self.family][1]
        if names is None and not 1 <= len(self.params) <= GENFUN_MAX_INDEX:
            raise ValueError(f"{self.family} takes 1 to {GENFUN_MAX_INDEX} cosine coefficients")
        if names is not None and len(self.params) != len(names):
            raise ValueError(f"{self.family} takes the parameters ({', '.join(names)})")
        names = names or [f"a{i}" for i in range(1, len(self.params) + 1)]
        least = 0 if self.family == STANDARD else -math.inf  # the kick strength k is >= 0
        params = tuple(_check_real(name, v, least) for name, v in zip(names, self.params))
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
        """Bind the kernels of the map's shape (_kernel_factory) to its
        parameters, each as _observe(name, kernel)."""
        c = self.params[0] if self.family == DRIFT else -0.0
        kernels = _kernel_factory(self.family, len(self._harmonics), self.twist_sign == -1)(
            c, *(v for _, p, q in self._harmonics for v in (p, q)))
        for name, kernel in zip(_KERNEL_ATTRS, kernels):
            object.__setattr__(self, name, _observe(name, kernel))

    # State leaves out the kernels (closures do not pickle) and the cached inverse.
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in (*_KERNEL_ATTRS, "_inverse")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_kernels()

    def inverted(self) -> "LiftedMap":
        """Swap the map with its inverse (negative-twist test fixture); built once."""
        if "_inverse" not in self.__dict__:
            inverse = LiftedMap(self.family, self.params, -self.twist_sign)
            object.__setattr__(self, "_inverse", inverse)
        return self._inverse

    def _kick_bound(self) -> float:
        """An upper bound on |V''|; every Jacobian entry is at most 1 + this."""
        return math.fsum(abs(q) for _, _, q in self._harmonics)

    # -- scalar path ---------------------------------------------------------

    def apply_scalar(self, x: float, y: float) -> tuple[float, float]:
        """One application of the lift, plain floats (hot-loop path)."""
        return self._apply_k(x, y)

    def apply_inverse_scalar(self, x: float, y: float) -> tuple[float, float]:
        """One application of the inverse lift: the inverted map's image."""
        return self.inverted()._apply_k(x, y)

    def jacobian_scalar(self, x: float, y: float) -> tuple[float, float, float, float]:
        """Row-major entries (a, b, c, d) of the derivative at (x, y).

        Columns are the images of the horizontal and vertical directions.
        None of the catalogue Jacobians depend on y.  With apply_scalar,
        these are the bits of one fused step, _step_k.
        """
        return self._step_k(x, y)[2:]

    # -- array path ----------------------------------------------------------

    def step_array(self, x: np.ndarray, y: np.ndarray):
        """The image and the Jacobian entries (x1, y1, a, b, c, d) in one pass.

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


def _shown(value) -> str:
    """repr(value), or the digit count of an int past sys.get_int_max_str_digits()."""
    try:
        return repr(value)
    except ValueError:
        v = abs(int(value))
        d = int(v.bit_length() * math.log10(2))  # v has d or d + 1 digits
        return f"a number of {d + (v >= 10**d)} digits"


def _check_count(name: str, value, least=1) -> int:
    """value as an int; ValueError unless it is an int or numpy int (no bool) >= least."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    return int(value)


def _check_items(name: str, value, count: int = 2) -> tuple:
    """value's items; ValueError unless it is a sequence of exactly count."""
    try:
        if len(value) == count:
            return tuple(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must hold {count} numbers, got {_shown(value)}")


def _check_real(name: str, value, least=-math.inf, strict=False) -> float:
    """value as a float; ValueError unless it is a real number, numpy's
    included (no bool), that is finite and >= least (> least if strict)."""
    try:
        x = float(value) if isinstance(value, Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        x = math.nan
    if not (math.isfinite(x) and (x > least if strict else x >= least)):
        rule = ("" if least == -math.inf else " and positive" if strict and least == 0
                else f" and {'>' if strict else '>='} {least}")
        raise ValueError(f"{name} must be finite{rule}, got {_shown(value)}")
    return x


def _check_cap(name: str, size: int) -> int:
    """size, or IterationCapError naming it when it exceeds ITERATE_CAP; each
    request checks this before it allocates anything or steps the map."""
    if size > ITERATE_CAP:
        raise IterationCapError(f"|{name}| = {_shown(size)} exceeds the cap {ITERATE_CAP}")
    return size


def iterate(map: LiftedMap, p, n: int) -> np.ndarray:
    """Orbit segment [p, F(p), ..., F^n(p)] as an (|n|+1, 2) array.

    Negative n walks the inverted map.  Raises IterationCapError when |n|
    exceeds ITERATE_CAP, before any allocation, and NonFiniteOrbitError
    when the orbit leaves the float range.
    """
    n = _check_count("n", n, -math.inf)
    _check_cap("n", abs(n))
    start = _as_point(p)
    out = np.empty((abs(n) + 1, 2))
    out[0] = start
    _orbit(map if n >= 0 else map.inverted(), start, abs(n), out)
    return out


def _orbit(map: LiftedMap, start: tuple[float, float], n: int, out=None) -> tuple[float, float]:
    """The point n steps along the orbit of start, stepped by map's orbit
    block a block at a time; with out, step i's point goes to out[i].  An
    orbit that leaves the float range raises NonFiniteOrbitError."""
    x, y = start
    xs, ys = [0.0] * min(n, BLOCK), [0.0] * min(n, BLOCK)
    for n0 in range(0, n, BLOCK):
        first = x, y
        x, y, r, exc = map._orbit_k(x, y, min(BLOCK, n - n0), xs, ys)
        _check_block(map._apply_k, start, n0, first, r, exc, (x, y), more=n0 + r < n)
        if out is not None:
            rows = out[n0 + 1 : n0 + 1 + r]
            rows[:, 0], rows[:, 1] = _column(xs, r), _column(ys, r)
    return x, y


def _column(values: list, r: int) -> np.ndarray:
    """The first r floats of a list as a read-only float64 array, in one packed copy."""
    return np.frombuffer(pack(f"{r}d", *(values if r == len(values) else values[:r])), float)


def _check_block(step, start, n0: int, first, taken: int, exc, last, rows=(), more=False,
                 pending=None):
    """Raise NonFiniteOrbitError if the orbit of start left the float range
    in a block that took taken steps, n0+1 to n0+taken, from the point first
    to the point last (the points of both orbits for linking), with rows,
    two packed columns of a float per step.  The block's error comes first:
    at step n0 + taken + 1, chained from exc, the error that stopped it.
    Then the first step whose row is not finite; then, as shear and drift
    carry an inf on past the rows, the first non-finite point, found by
    walking the block again with step.

    The name is the one a single block of the loop's steps gives, whatever
    BLOCK is.  A loop that goes on past a block that BLOCK alone ended
    passes more: if a last point is not finite, its next step is taken
    with step, and its error, if it raises (a kick does the step after a
    non-finite point), is the block's; if none does, the map carries inf
    on and raises nothing later.  A non-finite row at finite points is
    returned, pending, for the loop to pass on and raise at its end,
    unless an error comes first.  Returns pending, None if none."""
    finite_last = all(map(math.isfinite, last))
    if exc is None and more and not finite_last:
        try:
            for i in range(0, len(last), 2):
                step(*last[i : i + 2])
            more = False
        except (ArithmeticError, ValueError) as error:
            exc = error
    if exc is not None:
        raise NonFiniteOrbitError.at(start, n0 + taken + 1) from exc
    if rows and pending is None:
        finite = np.isfinite(rows[0]) & np.isfinite(rows[1])
        if not finite.all():
            pending = n0 + 1 + int(np.argmin(finite))
    if pending is not None:
        if more:
            return pending
        raise NonFiniteOrbitError.at(start, pending)
    if finite_last:
        return None
    x, y = first
    for i in range(1, taken):
        x, y = step(x, y)[:2]
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteOrbitError.at(start, n0 + i)
    raise NonFiniteOrbitError.at(start, n0 + taken)


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


def twist_check(map: LiftedMap) -> TwistReport:
    """Sample the (1,2) Jacobian entry over [0,1] x [-3, 3].

    Uses TWIST_SAMPLES points of a Halton set in bases 2 and 3, shifted
    mod 1 by a uniform offset seeded with TWIST_SEED, so low-probability
    sign regions are hit with far fewer samples than uniform draws would
    need.  Violations are reported, not raised: the fixture maps are
    supposed to fail this.
    """
    shift = np.random.default_rng(TWIST_SEED).random(2)
    xs = (_halton(TWIST_SAMPLES, 2) + shift[0]) % 1.0
    ys = (2.0 * ((_halton(TWIST_SAMPLES, 3) + shift[1]) % 1.0) - 1.0) * 3.0
    _, b, _, _ = map.jacobian_array(xs, ys)
    i_min = int(np.argmin(b))
    bad = np.flatnonzero(b <= 0.0)
    violations = tuple((float(xs[i]), float(ys[i]), float(b[i])) for i in bad)
    return TwistReport(
        min_twist=float(b[i_min]),
        argmin=(float(xs[i_min]), float(ys[i_min])),
        violations=violations,
        samples=TWIST_SAMPLES,
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
        if names is None:  # a<i> is the i-th coefficient; any 3 digits are past a64
            digits = key[1:].lstrip("0") if key[:1] == "a" and key[1:].isdecimal() else ""
            i = int(digits[:3] or 0) - 1
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
