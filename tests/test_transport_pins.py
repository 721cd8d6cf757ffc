"""Golden pins of every transport config form: the bits of what each form builds.

Each form is loaded from its config text, on one fixed 2D and one fixed 3D
grid (rotation is 2D only), and reduced to one record: sha256 prefixes of the
bytes of U, G (``spatial`` on the grid's open mesh) and of the velocity at
stacked nodes, the Jacobian with its signed zeros, m(t) at three times,
``time_dependent``, ``sup_speed``, ``sup_dt_g``, every ``TransportReport``
field and the rate the sphere oracle is given (``none`` without a law).
Floats are pinned by ``repr``, so a moved last bit or a flipped zero fails.
The forms include the signed-zero cases (omega = +-0, c = +-0, -0.0
components) where a dense sum over A's entries would flip a -0.0.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from actx import cli, scenario
from actx.grid import GridSpec
from actx.scenario import ScenarioConfig, parse_sexpr, transport_from_sexpr, transport_report
from actx.shapes import Ball

GRIDS = {
    2: GridSpec(2, (-0.25, 0.125), (1.35, 1.325), (16, 12)),
    3: GridSpec(3, (-0.25, 0.125, 0.0), (0.95, 1.025, 0.9), (8, 6, 6)),
}
CENTRES = {2: (0.55, 0.7), 3: (0.55, 0.7, 0.45)}
# centres whose squared offsets to the far box corners differ between x ** 2
# and x * x in the last bit, in the sum and its root too: the pulsed bounds
# square by ** 2
SQUARE_BITS = {2: (0.56475, 0.76215), 3: (0.56475, 0.70456, 0.45998)}
EPSILON = {2: 0.45, 3: 0.65}
TIMES = (0.0, 0.0123, 0.31)
T_END = 0.05

FORMS = [
    "(zero)",
    "(constant 0.4 -0.1 0.2)",
    "(constant -0.0 -0.5 -0.0)",
    "(rotation 0.0 {c})",
    "(rotation -0.0 {c})",
    "(rotation -2 {c})",
    "(radial 16 {c})",
    "(radial -16 {c})",
    "(radial -0.0 {c})",
    "(radial-pulsed 1.2 0.0 5.0 {c})",
    "(radial-pulsed 1.2 0.3125 0.0 {c})",
    "(radial-pulsed 1.2 0.3125 5.0 {c})",
    "(radial-pulsed -0.2 1.5 80.0 {c})",
    "(radial-pulsed 1.2 0.3125 5.0 {s})",
]


def _form(template: str, dim: int) -> str:
    if template.startswith("(constant"):
        head, *vals = template[1:-1].split()
        return f"({head} {' '.join(vals[:dim])})"
    return template.format(c=" ".join(map(repr, CENTRES[dim])), s=" ".join(map(repr, SQUARE_BITS[dim])))


def _digest(a) -> str:
    if a is None:
        return "none"
    return f"{a.shape}:{hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]}"


class _Law(Exception):
    pass


def _law(cfg) -> str:
    """The rate ``_radius_error_vs_oracle`` hands to the sphere oracle, or 'none'."""

    def oracle(r0, c, n, t_end, n_samples=257):
        raise _Law(repr(c))

    mp = pytest.MonkeyPatch()
    mp.setattr(cli, "mcf_oracle", oracle)
    try:
        return "none" if cli._radius_error_vs_oracle(cfg, []) is None else "no-raise"
    except _Law as law:
        return str(law)
    finally:
        mp.undo()


def _record(template: str, dim: int) -> list[str]:
    spec = GRIDS[dim]
    scenario._transport_field_cached.cache_clear()  # +0 and -0 forms compare equal
    tr = transport_from_sexpr(parse_sexpr(_form(template, dim)), dim)
    u, g = tr.spatial(spec.coords())
    pts = np.stack(spec.meshgrid(), axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps below 6h on these small grids
        cfg = ScenarioConfig(grid=spec, shape=Ball(CENTRES[dim], 0.3), transport=tr,
                             epsilon=EPSILON[dim], t_end=T_END, tau=0.01)
    rep = transport_report(cfg)
    return [
        _digest(u),
        _digest(g),
        _digest(tr.velocity(pts, TIMES[2])),
        repr(tr.spatial_jacobian(dim).tolist()),
        repr([tr.m(t) for t in TIMES]),
        repr(tr.time_dependent),
        repr(tr.sup_speed(spec, 0.0, T_END)),
        repr(tr.sup_dt_g(spec, 0.0, T_END)),
        repr(dataclasses.astuple(rep)),
        _law(cfg),
    ]


CASES = [(dim, t) for dim in (2, 3) for t in FORMS if dim == 2 or not t.startswith("(rotation")]

# recorded with one class per catalog entry (zero, constant, rotation, radial)
PINS = {
    (2, '(zero)'): [
        'none',
        'none',
        '(17, 13, 2):4bcd1d733a353b8d',
        '[[0.0, 0.0], [0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.0',
        '0.0',
        '(0.0, 0.0, 0.0, 1.2209471671615688, 2.713215927025708, None)',
        '0.0',
    ],
    (2, '(constant 0.4 -0.1 0.2)'): [
        '(17, 13, 2):da2b14f42a4b2697',
        '(17, 13):e3bdd168a5f2bd2b',
        '(17, 13, 2):da2b14f42a4b2697',
        '[[0.0, 0.0], [0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.4123105625617661',
        '0.0',
        '(0.2701578405036456, 0.4123105625617661, 0.0, 1.2209471671615688, 2.713215927025708, None)',
        'none',
    ],
    (2, '(constant -0.0 -0.5 -0.0)'): [
        '(17, 13, 2):1cc2bce0c458a11d',
        '(17, 13):b61c74deb594b37e',
        '(17, 13, 2):1cc2bce0c458a11d',
        '[[0.0, 0.0], [0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.5',
        '0.0',
        '(0.3276145035250881, 0.5, 0.0, 1.2209471671615688, 2.713215927025708, None)',
        'none',
    ],
    (2, '(rotation 0.0 {c})'): [
        '(17, 13, 2):aa43f6be97b4e3ba',
        'none',
        '(17, 13, 2):aa43f6be97b4e3ba',
        '[[0.0, 0.0], [-0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.0',
        '0.0',
        '(0.0, 0.0, 0.0, 1.2209471671615688, 2.713215927025708, None)',
        'none',
    ],
    (2, '(rotation -0.0 {c})'): [
        '(17, 13, 2):cab534fa14664ceb',
        'none',
        '(17, 13, 2):cab534fa14664ceb',
        '[[0.0, -0.0], [0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.0',
        '0.0',
        '(0.0, 0.0, 0.0, 1.2209471671615688, 2.713215927025708, None)',
        'none',
    ],
    (2, '(rotation -2 {c})'): [
        '(17, 13, 2):d6e988436312c59d',
        'none',
        '(17, 13, 2):d6e988436312c59d',
        '[[0.0, -2.0], [2.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '2.0303940504246953',
        '0.0',
        '(2.0034548815312077, 2.0303940504246953, 2.8284271247461903, 1.2209471671615688, 2.713215927025708, 0.0)',
        'none',
    ],
    (2, '(radial 16 {c})'): [
        '(17, 13, 2):1a086b74fea1e591',
        '(17, 13):757f3b57949c6850',
        '(17, 13, 2):c45b4766030895c7',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[16.0, 16.0, 16.0]',
        'False',
        '16.243152403397563',
        '0.0',
        '(16.02763905224966, 16.243152403397563, 22.627416997969522, 1.2209471671615688, 2.713215927025708, 0.0)',
        '16.0',
    ],
    (2, '(radial -16 {c})'): [
        '(17, 13, 2):1a086b74fea1e591',
        '(17, 13):757f3b57949c6850',
        '(17, 13, 2):e2b54ee63d06690d',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[-16.0, -16.0, -16.0]',
        'False',
        '16.243152403397563',
        '0.0',
        '(16.02763905224966, 16.243152403397563, 22.627416997969522, 1.2209471671615688, 2.713215927025708, 0.0)',
        '-16.0',
    ],
    (2, '(radial -0.0 {c})'): [
        '(17, 13, 2):1a086b74fea1e591',
        '(17, 13):757f3b57949c6850',
        '(17, 13, 2):70253797de4bfe1c',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[0.0, 0.0, 0.0]',
        'False',
        '0.0',
        '0.0',
        '(0.0, 0.0, 0.0, 1.2209471671615688, 2.713215927025708, None)',
        '-0.0',
    ],
    (2, '(radial-pulsed 1.2 0.0 5.0 {c})'): [
        '(17, 13, 2):1a086b74fea1e591',
        '(17, 13):757f3b57949c6850',
        '(17, 13, 2):fd75b76859b0dd0c',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[1.2, 1.2, 1.2]',
        'False',
        '1.2182364302548172',
        '0.0',
        '(1.2020729289187244, 1.2182364302548172, 1.697056274847714, 1.2209471671615688, 2.713215927025708, None)',
        '1.2',
    ],
    (2, '(radial-pulsed 1.2 0.3125 0.0 {c})'): [
        '(17, 13, 2):1a086b74fea1e591',
        '(17, 13):757f3b57949c6850',
        '(17, 13, 2):fd75b76859b0dd0c',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[1.2, 1.2, 1.2]',
        'False',
        '1.2182364302548172',
        '0.0',
        '(1.2020729289187244, 1.2182364302548172, 1.697056274847714, 1.2209471671615688, 2.713215927025708, None)',
        '1.2',
    ],
    (2, '(radial-pulsed 1.2 0.3125 5.0 {c})'): [
        '(17, 13, 2):1a086b74fea1e591',
        '(17, 13):757f3b57949c6850',
        '(17, 13, 2):e64a24ed8e020369',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[1.2, 1.219206637271364, 1.512432426309174]',
        'True',
        '1.5354855006336758',
        '0.8051757812500001',
        '(1.2416047399802583, 1.2967251063363636, 1.8063944106485101, 1.2209471671615688, 2.713215927025708, 0.0023437500000000003)',
        'none',
    ],
    (2, '(radial-pulsed -0.2 1.5 80.0 {c})'): [
        '(17, 13, 2):1a086b74fea1e591',
        '(17, 13):757f3b57949c6850',
        '(17, 13, 2):06509ef086184d68',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[-0.2, 1.0490782161510415, -0.6899526891570833]',
        'True',
        '1.725834942860991',
        '61.837500000000006',
        '(0.9927849257208732, 1.3554948679073051, 1.8882632418280278, 1.2209471671615688, 2.713215927025708, 0.015625)',
        'none',
    ],
    (3, '(zero)'): [
        'none',
        'none',
        '(9, 7, 7, 3):5653245968f2b72c',
        '[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.0',
        '0.0',
        '(0.0, 0.0, 0.0, 1.1137088245551818, 1.7133981916233565, None)',
        '0.0',
    ],
    (3, '(constant 0.4 -0.1 0.2)'): [
        '(9, 7, 7, 3):0305284048cbac89',
        '(9, 7, 7):75234d35838b4958',
        '(9, 7, 7, 3):0305284048cbac89',
        '[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.45825756949558405',
        '0.0',
        '(0.21465494780037778, 0.45825756949558405, 0.0, 1.1137088245551818, 1.7133981916233565, None)',
        'none',
    ],
    (3, '(constant -0.0 -0.5 -0.0)'): [
        '(9, 7, 7, 3):e72f7b1514c46d2a',
        '(9, 7, 7):82d0463acf2075ff',
        '(9, 7, 7, 3):e72f7b1514c46d2a',
        '[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]',
        '[1.0, 1.0, 1.0]',
        'False',
        '0.5',
        '0.0',
        '(0.23420774918857756, 0.5, 0.0, 1.1137088245551818, 1.7133981916233565, None)',
        'none',
    ],
    (3, '(radial 16 {c})'): [
        '(9, 7, 7, 3):866cceabe0e70344',
        '(9, 7, 7):fa797f54a6037db6',
        '(9, 7, 7, 3):ee9aef13a2f3f83a',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[16.0, 16.0, 16.0]',
        'False',
        '17.329743217947577',
        '0.0',
        '(13.15575844673618, 17.329743217947577, 27.712812921102035, 1.1137088245551818, 1.7133981916233565, 0.0)',
        '16.0',
    ],
    (3, '(radial -16 {c})'): [
        '(9, 7, 7, 3):866cceabe0e70344',
        '(9, 7, 7):fa797f54a6037db6',
        '(9, 7, 7, 3):66c70c1e9d66d1b5',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[-16.0, -16.0, -16.0]',
        'False',
        '17.329743217947577',
        '0.0',
        '(13.15575844673618, 17.329743217947577, 27.712812921102035, 1.1137088245551818, 1.7133981916233565, 0.0)',
        '-16.0',
    ],
    (3, '(radial -0.0 {c})'): [
        '(9, 7, 7, 3):866cceabe0e70344',
        '(9, 7, 7):fa797f54a6037db6',
        '(9, 7, 7, 3):e8e91bddc35b0050',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[0.0, 0.0, 0.0]',
        'False',
        '0.0',
        '0.0',
        '(0.0, 0.0, 0.0, 1.1137088245551818, 1.7133981916233565, None)',
        '-0.0',
    ],
    (3, '(radial-pulsed 1.2 0.0 5.0 {c})'): [
        '(9, 7, 7, 3):866cceabe0e70344',
        '(9, 7, 7):fa797f54a6037db6',
        '(9, 7, 7, 3):a697509a6d5f7480',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[1.2, 1.2, 1.2]',
        'False',
        '1.2997307413460681',
        '0.0',
        '(0.9866818835052135, 1.2997307413460681, 2.0784609690826525, 1.1137088245551818, 1.7133981916233565, 0.0)',
        '1.2',
    ],
    (3, '(radial-pulsed 1.2 0.3125 0.0 {c})'): [
        '(9, 7, 7, 3):866cceabe0e70344',
        '(9, 7, 7):fa797f54a6037db6',
        '(9, 7, 7, 3):a697509a6d5f7480',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[1.2, 1.2, 1.2]',
        'False',
        '1.2997307413460681',
        '0.0',
        '(0.9866818835052135, 1.2997307413460681, 2.0784609690826525, 1.1137088245551818, 1.7133981916233565, 0.0)',
        '1.2',
    ],
    (3, '(radial-pulsed 1.2 0.3125 5.0 {c})'): [
        '(9, 7, 7, 3):866cceabe0e70344',
        '(9, 7, 7):fa797f54a6037db6',
        '(9, 7, 7, 3):5278d7d8263c08f1',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[1.2, 1.219206637271364, 1.512432426309174]',
        'True',
        '1.6382022885716068',
        '0.9165039062500001',
        '(1.019130265677543, 1.3834699422246708, 2.2123722901521945, 1.1137088245551818, 1.7133981916233565, 0.0)',
        'none',
    ],
    (3, '(radial-pulsed -0.2 1.5 80.0 {c})'): [
        '(9, 7, 7, 3):866cceabe0e70344',
        '(9, 7, 7):fa797f54a6037db6',
        '(9, 7, 7, 3):890da7c2884ba1fb',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[-0.2, 1.0490782161510415, -0.6899526891570833]',
        'True',
        '1.84128521690693',
        '70.38750000000002',
        '(0.8148947346372571, 1.4461711255732543, 2.3126407212661326, 1.1137088245551818, 1.7133981916233565, 0.01171875)',
        'none',
    ],
    (2, '(radial-pulsed 1.2 0.3125 5.0 {s})'): [
        '(17, 13, 2):9844f2efd0769ba8',
        '(17, 13):7ebd0d13a26aa4b1',
        '(17, 13, 2):a27c5228aa2e74b5',
        '[[1.0, 0.0], [0.0, 1.0]]',
        '[1.2, 1.219206637271364, 1.512432426309174]',
        'True',
        '1.5643796237489098',
        '0.8357638164062499',
        '(1.2418630656103165, 1.3211263363405779, 1.8063944106485101, 1.2209471671615688, 2.713215927025708, 0.0)',
        'none',
    ],
    (3, '(radial-pulsed 1.2 0.3125 5.0 {s})'): [
        '(9, 7, 7, 3):1fe5f20bd558e104',
        '(9, 7, 7):f705805539b27ec2',
        '(9, 7, 7, 3):2cb5e350bf2ca8de',
        '[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]',
        '[1.2, 1.219206637271364, 1.512432426309174]',
        'True',
        '1.664635921723787',
        '0.9463194972656248',
        '(1.0196383245565874, 1.405793276275023, 2.2123722901521945, 1.1137088245551818, 1.7133981916233565, 0.0)',
        'none',
    ],
}


@pytest.mark.parametrize("dim, template", CASES, ids=[f"{d}d-{t}" for d, t in CASES])
def test_form_keeps_its_bits(dim, template):
    assert _record(template, dim) == PINS[dim, template]
