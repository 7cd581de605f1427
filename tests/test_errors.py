"""The one finite-number refusal: every caller's exact message."""

import math
import re

import pytest

from topmonodromy.discriminant import delta_c_section, g2_branch
from topmonodromy.errors import ValidationError
from topmonodromy.periods import action_I1, action_I1_cubic, big_loop, pair_loop
from topmonodromy.spectral import SpectralCoeffs
from topmonodromy.topsys import LevelVector, TopState

NAN, INF = math.nan, math.inf

REFUSALS = {
    "omega": (
        lambda: TopState.of(0.5, (NAN, 0.0, 0.0)),
        "omega must be finite, got (nan, 0.0, 0.0)",
    ),
    "gamma row": (
        lambda: TopState.of(0.5, (0.0, 0.0, 1.0), [(0.0, 0.0, 1.0), (0, INF, 0)]),
        "gamma[1] must be finite, got (0.0, inf, 0.0)",
    ),
    "levels": (
        lambda: LevelVector.of(0.5, (1.0, -INF)),
        "level values must be finite, got (1.0, -inf)",
    ),
    "spectral": (
        lambda: SpectralCoeffs.of(1, (1.0, 2, NAN, 0.5)),
        "coefficients must be finite, got (1.0, 2.0, nan, 0.5)",
    ),
    "action": (
        lambda: action_I1((NAN, 1, 0.0)),
        "action point must be finite, got (nan, 1, 0.0)",
    ),
    "cubic action": (
        lambda: action_I1_cubic([0.1, 1.2, -INF]),
        "action point must be finite, got (0.1, 1.2, -inf)",
    ),
    "big loop roots": (
        lambda: big_loop([0, 1, NAN]),
        "big loop roots must be finite, got (0j, (1+0j), (nan+0j))",
    ),
    "pair loop avoid points": (
        lambda: pair_loop([0, 1, 3], (0, 1), avoid=(0.0, complex(0.5, -INF))),
        "pair loop avoid points must be finite, got (0j, (0.5-infj))",
    ),
    "section input": (
        lambda: delta_c_section(NAN, 1),
        "c and u must be finite, got (nan, 1.0)",
    ),
    "section point": (
        lambda: delta_c_section(0.0, 1e-120),
        "the section point at u=1e-120 must be finite, got (inf, -3.0000000000000002e+240)",
    ),
    "branch input": (lambda: g2_branch(NAN), "c2 must be finite, got (nan,)"),
    "branch point": (
        lambda: g2_branch(1e55),
        "the branch point at c2=1e+55 must be finite, got (1.1547005383792515e+110, inf, "
        "7.69800358919501e+164, 5.7735026918962575e+109, -1.1547005383792513e-55, "
        "1e-110, 3.333333333333334e+219, -2.6666666666666664e-110)",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_finite_refusal_keeps_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
