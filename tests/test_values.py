"""The contract of the package's immutable value classes: repr text,
equality within one class, hash of the field tuple, frozen attributes,
pickling, keyword construction with defaults, and validation."""

import pickle
from fractions import Fraction

import pytest

from altrank.counting import LatticeBasis, RankHistogram
from altrank.groups import AbelianPGroup, MeasureValue, SymplecticPGroup
from altrank.linalg import (
    AlternatingMatrix,
    CokernelStructure,
    IntegerMatrix,
    SmithDecomposition,
)
from altrank.model import CurveParams, EmpiricalDistribution, ModelConfig, ModelDraw

I1 = IntegerMatrix(1, 1, (1,))

# (class, field values in order, repr text, bad keyword sets with the
# error and message each raises)
CASES = [
    (
        AbelianPGroup,
        {"p": 2, "exponents": (2, 1)},
        "AbelianPGroup(p=2, exponents=(2, 1))",
        [
            ({"p": 4, "exponents": ()}, ValueError, "p must be prime, got 4"),
            ({"p": 2, "exponents": (1, 2)}, ValueError, "weakly decreasing"),
            ({"p": 2, "exponents": (0,)}, ValueError, "positive integers"),
        ],
    ),
    (
        SymplecticPGroup,
        {"base": AbelianPGroup(3, (1,))},
        "SymplecticPGroup(base=AbelianPGroup(p=3, exponents=(1,)))",
        [],
    ),
    (
        MeasureValue,
        {"value": 0.5, "tail_bound": 0.0},
        "MeasureValue(value=0.5, tail_bound=0.0)",
        [({"value": 0.5, "tail_bound": -1.0}, ValueError, "tail bound must be nonnegative")],
    ),
    (
        IntegerMatrix,
        {"n_rows": 1, "n_cols": 2, "entries": (3, -4)},
        "IntegerMatrix(n_rows=1, n_cols=2, entries=(3, -4))",
        [
            ({"n_rows": 1, "n_cols": 2, "entries": (3,)}, ValueError, "entry storage length"),
            ({"n_rows": -1, "n_cols": 0, "entries": ()}, ValueError, "nonnegative"),
        ],
    ),
    (
        AlternatingMatrix,
        {"n": 3, "upper": (1, 2, 3)},
        "AlternatingMatrix(n=3, upper=(1, 2, 3))",
        [({"n": 3, "upper": (1,)}, ValueError, "upper-triangle storage length")],
    ),
    (
        SmithDecomposition,
        {"U": I1, "V": I1, "divisors": (5,)},
        "SmithDecomposition(U=IntegerMatrix(n_rows=1, n_cols=1, entries=(1,)), "
        "V=IntegerMatrix(n_rows=1, n_cols=1, entries=(1,)), divisors=(5,))",
        [],
    ),
    (
        CokernelStructure,
        {"free_rank": 1, "torsion": (2, 2)},
        "CokernelStructure(free_rank=1, torsion=(2, 2))",
        [],
    ),
    (
        RankHistogram,
        {"n": 2, "bound": 1, "norm": "box", "counts": {0: 1, 2: 8}},
        "RankHistogram(n=2, bound=1, norm='box', counts={0: 1, 2: 8})",
        [],
    ),
    (
        LatticeBasis,
        {"vectors": ((1, 0), (0, 2))},
        "LatticeBasis(vectors=((1, 0), (0, 2)))",
        [
            ({"vectors": ()}, ValueError, "basis must be nonempty"),
            ({"vectors": ((1, 2), (2, 4))}, ValueError, "linearly dependent"),
        ],
    ),
    (
        CurveParams,
        {"a4": -1, "a6": 1},
        "CurveParams(a4=-1, a6=1)",
        [({"a4": 0, "a6": 0}, ValueError, r"\(0, 0\) is singular or non-minimal")],
    ),
    (
        ModelConfig,
        {
            "eta_schedule": "constant",
            "eta_floor": 3,
            "calibration_exponent": Fraction(1, 6),
            "seed": 7,
        },
        "ModelConfig(eta_schedule='constant', eta_floor=3, "
        "calibration_exponent=Fraction(1, 6), seed=7)",
        [
            ({"calibration_exponent": 0.5}, TypeError, "must be exact"),
            ({"eta_schedule": "log2"}, ValueError, "unknown eta schedule 'log2'"),
            ({"eta_floor": 0}, ValueError, "eta_floor must be at least 1"),
        ],
    ),
    (
        ModelDraw,
        {"height": 100, "n": 2, "x": 3, "rk_prime": 0, "sha_label": "[]", "sha_order": 1},
        "ModelDraw(height=100, n=2, x=3, rk_prime=0, sha_label='[]', sha_order=1)",
        [],
    ),
    (
        EmpiricalDistribution,
        {"counts": {"2:[]": 3}, "total": 3, "meta": {"n": 2}},
        "EmpiricalDistribution(counts={'2:[]': 3}, total=3, meta={'n': 2})",
        [
            ({"counts": {"a": 1}, "total": 2, "meta": {}}, ValueError, "counts do not sum to total"),
            ({"counts": {"a": -1}, "total": -1, "meta": {}}, ValueError, "negative count"),
        ],
    ),
]


@pytest.mark.parametrize(
    "cls, fields, text, bad", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_class_contract(cls, fields, text, bad):
    values = tuple(fields.values())
    obj = cls(**fields)
    assert repr(obj) == text
    assert tuple(getattr(obj, name) for name in fields) == values

    # equal within the class only
    twin = cls(*values)
    assert obj == twin and not obj != twin
    other = type("Other", (cls,), {})(*values)
    assert obj != other and other != obj
    assert obj != values

    # hashed as the tuple of its fields (unhashable when a field is)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected

    # frozen
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(obj, first, values[0])
    with pytest.raises(AttributeError):
        setattr(obj, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(obj, first)
    assert getattr(obj, first) == values[0]

    clone = pickle.loads(pickle.dumps(obj))
    assert type(clone) is cls and clone == obj and repr(clone) == text

    for kwargs, error, message in bad:
        with pytest.raises(error, match=message):
            cls(**kwargs)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)


def test_value_class_defaults_and_coercions():
    cfg = ModelConfig()
    assert repr(cfg) == (
        "ModelConfig(eta_schedule='log3', eta_floor=2, "
        "calibration_exponent=Fraction(1, 12), seed=12345)"
    )
    # the class attributes are the defaults, as the CLI reads them
    assert (ModelConfig.eta_floor, ModelConfig.seed) == (2, 12345)
    assert ModelConfig(seed=3) == ModelConfig(seed=3) != cfg
    assert ModelConfig(calibration_exponent="1/6").calibration_exponent == Fraction(1, 6)

    assert AbelianPGroup(2, [2, 1]).exponents == (2, 1)
    assert IntegerMatrix(1, 1, [5]).entries == (5,)
    assert AlternatingMatrix(2, [7]).upper == (7,)
    assert LatticeBasis([[1, 0]]).vectors == ((1, 0),)

    with pytest.raises(TypeError):
        CurveParams(-1)
    with pytest.raises(TypeError):
        CurveParams(-1, 1, 2)
