"""Structured problem documents for the batch front end.

A problem file is a JSON document with up to six sections — ``plant``,
``partition``, ``weights``, ``youla``, ``descent``, ``grid``.  Each input
has one home: ``plant.slh`` decodes to :class:`~.physreal.SlhModel`'s
keyword arguments, :meth:`Problem.build_grid` builds the grid and
:meth:`YoulaSection.parameter` the parameter.  Complex scalars are
encoded as two-element ``[re, im]`` arrays and matrices as rectangular
arrays-of-arrays, so every value (a negative zero's ``-0`` included)
round-trips through decimal text exactly.  Unknown keys are rejected at
every level: a typo fails loudly instead of silently falling back to a
default.

Matrices stay NumPy arrays up to the emitter: :func:`encode_matrix`
returns a 2-D complex array and :func:`dumps_17g` formats each distinct
matrix once per document, so the state matrices that the coprime
factors share are written from one text.  Decoding takes a block of
finite ``[re, im]`` number pairs in one array conversion; only a block
it refuses is walked entry by entry, to name the bad entry.

Decoding is purely structural (shapes, types, key sets).  Semantic
validation that depends on what a command is about to do — scattering
unitarity, stabilizability, feasibility — happens in the command layer,
so a physically invalid but well-formed document is a *domain* failure,
not a parse failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ProblemFileError
from .h2_synthesis import DescentConfig
from .stabilization import PartitionSpec
from .statespace import StateSpace, log_grid, validate_grid
from .youla_constraint import YoulaParameter

__all__ = [
    "GridSection",
    "Problem",
    "YoulaSection",
    "encode_matrix",
    "encode_statespace",
    "fit_parameter",
    "load_problem_file",
    "loads_problem",
    "dumps_17g",
]


# -- scalar and matrix coding ------------------------------------------------


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, path):
    """A JSON number as a float, rejecting NaN, infinities and overflow."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ProblemFileError(path, "numbers must be finite in double precision")
    return number


def _decode_number(value, path):
    if not _is_number(value):
        raise ProblemFileError(path, f"expected a number, got {value!r}")
    return _finite(value, path)


def _decode_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProblemFileError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ProblemFileError(path, f"must be >= {minimum}, got {value}")
    return value


def _decode_complex(value, path):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        raise ProblemFileError(
            path, f"complex entries must be [re, im] number pairs, got {value!r}"
        )
    return complex(_finite(value[0], path), _finite(value[1], path))


def _matrix_block(value):
    """A well-formed block of finite number pairs in one conversion, else None.

    The type scan runs first, so booleans and strings never reach the
    float conversion.  The complex matrix is a view of the ``(..., 2)``
    floats, which keeps the sign of every zero bit for bit.
    """
    try:
        numbers = chain.from_iterable(chain.from_iterable(value))
        if not set(map(type, numbers)) <= {int, float}:
            return None
        pairs = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if pairs.ndim != 3 or pairs.shape[2] != 2 or not np.isfinite(pairs).all():
        return None
    return pairs.view(np.complex128)[..., 0]


def _decode_matrix(value, path, allow_empty=False):
    if not isinstance(value, list):
        raise ProblemFileError(path, f"expected an array of rows, got {value!r}")
    if not value:
        if allow_empty:
            return np.zeros((0, 0), dtype=np.complex128)
        raise ProblemFileError(path, "matrix must have at least one row")
    block = _matrix_block(value)
    if block is not None:
        return block
    # the entry walk below only names the entry a block was refused for
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ProblemFileError(f"{path}[{i}]", f"expected an array, got {row!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProblemFileError(
                f"{path}[{i}]",
                f"ragged matrix: row has {len(row)} entries, expected {width}",
            )
        rows.append(
            [_decode_complex(entry, f"{path}[{i}][{j}]") for j, entry in enumerate(row)]
        )
    return np.array(rows, dtype=np.complex128)


def encode_matrix(arr):
    """2-D array -> 2-D complex array, a leaf of :func:`dumps_17g`.

    :func:`dumps_17g` writes each entry as an ``[re, im]`` pair.
    """
    return np.atleast_2d(np.asarray(arr, dtype=np.complex128))


def encode_statespace(sys):
    """Realization -> ``{"a", "b", "c", "d"}`` document section."""
    return {
        "a": encode_matrix(sys.a),
        "b": encode_matrix(sys.b),
        "c": encode_matrix(sys.c),
        "d": encode_matrix(sys.d),
    }


def _decode_statespace(value, path):
    _require_mapping(value, path, allowed=("a", "b", "c", "d"), required=("a", "b", "c", "d"))
    a = _decode_matrix(value["a"], f"{path}.a", allow_empty=True)
    d = _decode_matrix(value["d"], f"{path}.d")
    n = a.shape[0]
    p, m = d.shape
    b = _decode_matrix(value["b"], f"{path}.b", allow_empty=True)
    c = _decode_matrix(value["c"], f"{path}.c", allow_empty=True)
    # zero-state systems may write their empty b/c blocks as []
    if b.size == 0 and n == 0:
        b = np.zeros((0, m), dtype=np.complex128)
    if c.size == 0 and n == 0:
        c = np.zeros((p, 0), dtype=np.complex128)
    try:
        return StateSpace(a, b, c, d)
    except Exception as exc:
        raise ProblemFileError(path, f"inconsistent realization: {exc}") from exc


def _require_mapping(value, path, allowed, required=()):
    if not isinstance(value, dict):
        raise ProblemFileError(path, f"expected an object, got {value!r}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ProblemFileError(
            path,
            f"unknown keys {unknown}; allowed keys are {sorted(allowed)}",
        )
    missing = sorted(set(required) - set(value))
    if missing:
        raise ProblemFileError(path, f"missing required keys {missing}")
    return value


# -- sections -----------------------------------------------------------------


@dataclass(frozen=True)
class YoulaSection:
    """Parameter initialization: explicit coefficients or a controller."""

    basis_pole: float
    order: int
    q_init: np.ndarray | None = None
    from_controller: StateSpace | None = None

    def parameter(self, shape):
        """``q_init``, else the zero parameter of ``shape`` in this basis.

        A ``from_controller`` parameter is recovered by the caller instead.
        """
        if self.q_init is not None:
            return YoulaParameter(self.basis_pole, self.q_init)
        return YoulaParameter.zero(shape, basis_pole=self.basis_pole, order=self.order)


@dataclass(frozen=True)
class GridSection:
    """Logarithmic frequency grid description."""

    omega_min: float
    omega_max: float
    points: int


@dataclass
class Problem:
    """Decoded problem document.

    Exactly one of ``slh``/``abcd`` is set when a plant section is
    present.  ``slh`` holds the decoded coefficient matrices as the
    keyword arguments of :class:`~.physreal.SlhModel`, so the command
    layer builds the model and chooses how strictly to validate it (the
    realizability checker must see invalid scattering data, not have it
    rejected at parse time).
    """

    slh: dict | None = None
    abcd: StateSpace | None = None
    partition: PartitionSpec | None = None
    w_in: StateSpace | None = None
    w_out: StateSpace | None = None
    youla: YoulaSection | None = None
    descent: DescentConfig = field(default_factory=DescentConfig)
    grid: GridSection | None = None

    @property
    def has_plant(self):
        return self.slh is not None or self.abcd is not None

    def build_grid(self, points_override=None):
        """The file's grid as an array, or None when absent."""
        if self.grid is None:
            return None
        g = self.grid
        points = g.points if points_override is None else points_override
        return log_grid(g.omega_min, g.omega_max, points)


def _decode_plant(section):
    path = "plant"
    _require_mapping(section, path, allowed=("slh", "abcd"))
    if ("slh" in section) == ("abcd" in section):
        raise ProblemFileError(path, "exactly one of 'slh' or 'abcd' is required")
    if "abcd" in section:
        return None, _decode_statespace(section["abcd"], f"{path}.abcd")

    sub = section["slh"]
    spath = f"{path}.slh"
    _require_mapping(
        sub,
        spath,
        allowed=("n", "m", "S", "H1", "H2", "L1", "L2", "F1", "F2"),
        required=("n", "m", "S", "H1", "H2", "L1", "L2"),
    )
    n = _decode_int(sub["n"], f"{spath}.n", minimum=0)
    m = _decode_int(sub["m"], f"{spath}.m", minimum=1)
    fields = {}
    expected = {
        "S": ("s", (m, m)),
        "L1": ("l1", (m, n)),
        "L2": ("l2", (m, n)),
        "H1": ("h1", (n, n)),
        "H2": ("h2", (n, n)),
        "F1": ("f1", (n, n)),
        "F2": ("f2", (n, n)),
    }
    for key, (name, shape) in expected.items():
        if key not in sub:
            continue
        mat = _decode_matrix(sub[key], f"{spath}.{key}", allow_empty=(0 in shape))
        if 0 in shape and mat.size == 0:
            mat = mat.reshape(shape)
        if mat.shape != shape:
            raise ProblemFileError(
                f"{spath}.{key}",
                f"expected shape {shape} from n={n}, m={m}, got {mat.shape}",
            )
        fields[name] = mat
    return fields, None


def _decode_weight(value, path):
    if value == "identity":
        return None
    if isinstance(value, str):
        raise ProblemFileError(
            path, f"weights are 'identity' or an abcd object, got {value!r}"
        )
    return _decode_statespace(value, path)


def _decode_weights(section):
    _require_mapping(section, "weights", allowed=("w_in", "w_out"))
    w_in = _decode_weight(section["w_in"], "weights.w_in") if "w_in" in section else None
    w_out = (
        _decode_weight(section["w_out"], "weights.w_out") if "w_out" in section else None
    )
    return w_in, w_out


def _decode_youla(section):
    path = "youla"
    _require_mapping(
        section,
        path,
        allowed=("beta", "order", "q_init", "from_controller"),
        required=("beta", "order"),
    )
    beta = _decode_number(section["beta"], f"{path}.beta")
    if not beta > 0.0:
        raise ProblemFileError(f"{path}.beta", f"basis pole must be positive, got {beta}")
    order = _decode_int(section["order"], f"{path}.order", minimum=0)
    if "q_init" in section and "from_controller" in section:
        raise ProblemFileError(path, "give q_init or from_controller, not both")

    q_init = None
    if "q_init" in section:
        stack = section["q_init"]
        if not isinstance(stack, list) or len(stack) != order + 1:
            raise ProblemFileError(
                f"{path}.q_init",
                f"expected order+1 = {order + 1} coefficient matrices",
            )
        mats = [
            _decode_matrix(entry, f"{path}.q_init[{k}]") for k, entry in enumerate(stack)
        ]
        shape = mats[0].shape
        for k, mat in enumerate(mats):
            if mat.shape != shape:
                raise ProblemFileError(
                    f"{path}.q_init[{k}]",
                    f"coefficient shape {mat.shape} differs from first {shape}",
                )
        q_init = np.stack(mats)

    from_controller = None
    if "from_controller" in section:
        from_controller = _decode_statespace(
            section["from_controller"], f"{path}.from_controller"
        )
    return YoulaSection(
        basis_pole=beta, order=order, q_init=q_init, from_controller=from_controller
    )


def _decode_descent(section):
    path = "descent"
    allowed = (
        "alpha0",
        "backtrack_ratio",
        "max_iters",
        "grad_tol",
        "constraint_tol",
        "correction_period",
    )
    _require_mapping(section, path, allowed=allowed)
    kwargs = {}
    for key in allowed:
        if key not in section:
            continue
        if key in ("max_iters", "correction_period"):
            kwargs[key] = _decode_int(section[key], f"{path}.{key}")
        else:
            kwargs[key] = _decode_number(section[key], f"{path}.{key}")
    try:
        return DescentConfig(**kwargs)
    except ValueError as exc:
        raise ProblemFileError(path, str(exc)) from exc


def _decode_grid(section):
    path = "grid"
    _require_mapping(
        section,
        path,
        allowed=("kind", "omega_min", "omega_max", "points"),
        required=("kind", "omega_min", "omega_max", "points"),
    )
    if section["kind"] != "log":
        raise ProblemFileError(f"{path}.kind", f"only 'log' grids exist, got {section['kind']!r}")
    lo = _decode_number(section["omega_min"], f"{path}.omega_min")
    hi = _decode_number(section["omega_max"], f"{path}.omega_max")
    points = _decode_int(section["points"], f"{path}.points", minimum=1)
    # a one-point grid still needs lo < hi: a points override may widen it
    if not 0.0 < lo < hi:
        raise ProblemFileError(path, f"need 0 < omega_min < omega_max, got [{lo}, {hi}]")
    return GridSection(omega_min=lo, omega_max=hi, points=points)


def _parse_int(literal):
    """A JSON integer literal; ``-0`` is the negative zero it was written from."""
    return -0.0 if literal == "-0" else int(literal)


def loads_problem(text):
    """Decode a problem document from its JSON text."""
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            "", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ProblemFileError("", f"invalid JSON: {exc}") from exc
    _require_mapping(
        doc, "", allowed=("plant", "partition", "weights", "youla", "descent", "grid")
    )
    prob = Problem()
    if "plant" in doc:
        prob.slh, prob.abcd = _decode_plant(doc["plant"])
    if "partition" in doc:
        _require_mapping(
            doc["partition"],
            "partition",
            allowed=("n_r", "n_u", "n_z", "n_y"),
            required=("n_r", "n_u", "n_z", "n_y"),
        )
        counts = {
            key: _decode_int(doc["partition"][key], f"partition.{key}", minimum=0)
            for key in ("n_r", "n_u", "n_z", "n_y")
        }
        try:
            prob.partition = PartitionSpec(**counts)
        except ValueError as exc:
            raise ProblemFileError("partition", str(exc)) from exc
    if "weights" in doc:
        prob.w_in, prob.w_out = _decode_weights(doc["weights"])
    if "youla" in doc:
        prob.youla = _decode_youla(doc["youla"])
    if "descent" in doc:
        prob.descent = _decode_descent(doc["descent"])
    if "grid" in doc:
        prob.grid = _decode_grid(doc["grid"])
    return prob


def load_problem_file(path):
    """Read and decode the problem document at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemFileError("", f"cannot read {path}: {exc}") from exc
    return loads_problem(text)


# -- parameter recovery -------------------------------------------------------


def fit_parameter(sys, omegas, basis_pole, order):
    """Least-squares fit of a realization onto the rational basis.

    Entrywise fit of the frequency response onto span{1, (s+b)^-1, ...,
    (s+b)^-order} over the given grid.  Returns the fitted parameter and
    the peak absolute deviation between the fit and the true response on
    that grid; a response outside the basis span shows up there rather
    than raising.
    """
    omegas = validate_grid(omegas)
    resp = sys.response(omegas)
    q = YoulaParameter.fit(resp, omegas, basis_pole=basis_pole, order=order)
    fitted = q.basis(omegas) @ q.coeffs.reshape(order + 1, -1)
    residual = float(np.abs(fitted - resp.reshape(omegas.size, -1)).max(initial=0.0))
    return q, residual


# -- deterministic JSON emission ---------------------------------------------


def _emit(value, indent, out, memo):
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        out.append(_matrix_text(value, indent, memo))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, sub) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(sub, indent + 1, out, memo)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        # scalar rows stay inline; nested structures and complex
        # entries (each a [re, im] pair) get one line each
        if all(not isinstance(v, (dict, list, tuple, complex, np.ndarray)) for v in seq):
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, sub in enumerate(seq):
            out.append(pad + "  ")
            _emit(sub, indent + 1, out, memo)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(value))


def _matrix_text(arr, indent, memo):
    """A 2-D array as rows of ``[re, im]`` lines, formatted once per ``memo``.

    The key is the complex bytes, not the object, so equal matrices held
    by different objects share one text while ``-0.0`` and ``0.0`` do not.
    """
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    key = (indent, arr.shape, arr.tobytes())
    text = memo.get(key)
    if text is None:
        rows, cols = arr.shape
        if arr.size and np.isfinite(arr).all():
            pad = "  " * indent
            entries = ",\n".join([pad + "    [%.17g, %.17g]"] * cols)
            row = pad + "  [\n" + entries + "\n" + pad + "  ]"
            template = "[\n" + ",\n".join([row] * rows) + "\n" + pad + "]"
            text = template % tuple(arr.view(np.float64).ravel().tolist())
        else:
            # empty and non-finite matrices take the per-entry path
            parts = []
            _emit(arr.tolist(), indent, parts, memo)
            text = "".join(parts)
        memo[key] = text
    return text


def _scalar(value):
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            # JSON has no non-finite literals; encode as strings
            return json.dumps(str(value))
        return "%.17g" % value
    if isinstance(value, complex):
        return f"[{_scalar(value.real)}, {_scalar(value.imag)}]"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot encode {type(value).__name__} in a problem document")


def dumps_17g(value):
    """Serialize to JSON text with floats at 17 significant digits.

    17 significant decimal digits uniquely identify every binary64
    value, so documents emitted here re-parse to bit-identical numbers
    through :func:`loads_problem`, which reads a negative zero's ``-0``
    back as -0.0 (other JSON readers take it as the integer 0).  Emission
    order follows dict insertion order, making equal inputs produce
    byte-identical text.  Arrays are written as matrices of
    ``[re, im]`` pairs; the memo of formatted matrices lives for this
    one call.
    """
    out = []
    _emit(value, 0, out, {})
    out.append("\n")
    return "".join(out)
