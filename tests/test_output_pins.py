"""SHA-256 pins of the JSON of every public map, on seeded exact inputs.

Each digest hashes the compact JSON of one map's output on seeded small
rationals (numerators -6..6 over 1..4) or seeded 40-digit rationals, so
any change to an output bit fails the pin that names the map, the order
and the seed.  The lattice oracles run at their size limits; the Moebius
recursion takes no input, so it has one pin per lattice.  The reports of
`verify_theorem` are pinned the same way, at every n it accepts, so a
change to either side that breaks a theorem check fails its pin.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from cumulants.lattice import (
    MultiplicativeFunction,
    convolve_lattice,
    mobius_by_recursion,
    verify_theorem,
)
from cumulants.parking import orbit_moment_eval, volume_shape_eval
from cumulants.partitions import Lattice
from cumulants.series import LIMITS, TruncatedSeries
from cumulants.transforms import (
    MomentSequence,
    abel_oracle,
    boolean_convolve,
    boolean_free_transport,
    boolean_from_moments,
    boolean_from_moments_series,
    classical_convolve,
    classical_from_moments,
    classical_from_moments_series,
    cumulant_matrix,
    dot_operation,
    factorial_moments,
    free_convolve,
    free_from_moments,
    gamma_convolve,
    generalized_cumulants,
    moments_from_boolean,
    moments_from_classical,
    moments_from_free,
    moments_from_free_series,
    moments_from_generalized,
    umbral_composition,
)

# input kind -> largest numerator and denominator drawn
BOUNDS = {"small": (6, 4), "wide": (10**40, 10**40)}


@functools.lru_cache(maxsize=None)
def _inputs(kind: str, seed: int, order: int):
    """Three seeded sequences a, b, g of the given order."""
    rng = random.Random(seed)
    top, den = BOUNDS[kind]
    return tuple(
        MomentSequence(
            tuple(Fraction(rng.randint(-top, top), rng.randint(1, den)) for _ in range(order))
        )
        for _ in range(3)
    )


def _series(a: MomentSequence, constant) -> TruncatedSeries:
    return TruncatedSeries(a.order, (constant,) + a.values)


def _delta(b: MomentSequence) -> TruncatedSeries:
    """b as a delta series with a nonzero linear coefficient."""
    return TruncatedSeries(b.order, (0, b.values[0] or 1) + b.values[1:])


MAPS = {
    "classical_from_moments": lambda a, b, g: classical_from_moments(a),
    "moments_from_classical": lambda a, b, g: moments_from_classical(a),
    "boolean_from_moments": lambda a, b, g: boolean_from_moments(a),
    "moments_from_boolean": lambda a, b, g: moments_from_boolean(a),
    "free_from_moments": lambda a, b, g: free_from_moments(a),
    "moments_from_free": lambda a, b, g: moments_from_free(a),
    "generalized_cumulants": lambda a, b, g: generalized_cumulants(a, g),
    "moments_from_generalized": lambda a, b, g: moments_from_generalized(a, g),
    "classical_from_moments_series": lambda a, b, g: classical_from_moments_series(a),
    "boolean_from_moments_series": lambda a, b, g: boolean_from_moments_series(a),
    "moments_from_free_series": lambda a, b, g: moments_from_free_series(a),
    "abel_oracle": lambda a, b, g: [abel_oracle(a, g, n) for n in range(1, a.order + 1)],
    "classical_convolve": lambda a, b, g: classical_convolve(a, b),
    "boolean_convolve": lambda a, b, g: boolean_convolve(a, b),
    "free_convolve": lambda a, b, g: free_convolve(a, b),
    "gamma_convolve": lambda a, b, g: gamma_convolve(a, b, g),
    "boolean_free_transport": lambda a, b, g: boolean_free_transport(a),
    "cumulant_matrix": lambda a, b, g: cumulant_matrix(a, a.order, 4),
    "umbral_composition-egf": lambda a, b, g: umbral_composition(g, a, "egf"),
    "umbral_composition-ogf": lambda a, b, g: umbral_composition(g, a, "ogf"),
    "dot_operation": lambda a, b, g: dot_operation(g, a),
    "factorial_moments": lambda a, b, g: factorial_moments(a),
    "TruncatedSeries.__add__": lambda a, b, g: _series(a, 1) + _series(b, g.values[0]),
    "TruncatedSeries.__sub__": lambda a, b, g: _series(a, 1) - _series(b, g.values[0]),
    "TruncatedSeries.__neg__": lambda a, b, g: -_series(a, g.values[0]),
    "TruncatedSeries.__mul__": lambda a, b, g: _series(a, 1) * _series(b, g.values[0]),
    "TruncatedSeries.reciprocal": lambda a, b, g: _series(a, 1).reciprocal(),
    "TruncatedSeries.compose": lambda a, b, g: _series(a, 1).compose(_delta(b)),
    "TruncatedSeries.revert": lambda a, b, g: _delta(b).revert(),
    "TruncatedSeries.log": lambda a, b, g: _series(a, 1).log(),
    "TruncatedSeries.exp": lambda a, b, g: _delta(b).exp(),
    "TruncatedSeries.power-int": lambda a, b, g: _series(a, 1).power(-3),
    "TruncatedSeries.power-fraction": lambda a, b, g: _series(a, 1).power(Fraction(-5, 3)),
    "TruncatedSeries.power-positive": lambda a, b, g: _series(a, 1).power(5),
    "TruncatedSeries.power-delta": lambda a, b, g: _delta(b).power(3),
    "volume_shape_eval": lambda a, b, g: [volume_shape_eval(a, n) for n in range(1, a.order + 1)],
    "orbit_moment_eval": lambda a, b, g: [orbit_moment_eval(a, n) for n in range(1, a.order + 1)],
}
for _lattice in Lattice:
    MAPS[f"convolve_lattice-{_lattice.value}"] = lambda a, b, g, lattice=_lattice: (
        convolve_lattice(
            MultiplicativeFunction.from_sequence(a), MultiplicativeFunction.from_sequence(b),
            a.order, lattice,
        )
    )
    MAPS[f"mobius_by_recursion-{_lattice.value}"] = lambda a, b, g, lattice=_lattice: (
        mobius_by_recursion(a.order, lattice)
    )

# map, input kind, seed, order, and the SHA-256 of the output's JSON
_TABLE = """
classical_from_moments small 1 16 d72ff503579aa1f6b4bc0a2f762f9c4fa4925d547fb196204ddbdcb30a9d201b
classical_from_moments wide 2 10 d66cce1f3412d12e8b8f8e091d68f87b3180064cb6daee6d5ae6b417c6a5ee68
moments_from_classical small 1 16 d3583e2d4d3a63c52401ae467e8f11bf6f0b05828740cbdb905ec4378cee8706
moments_from_classical wide 2 10 36b27b6ac573bda19fae6d67139cbaf1762a36503332045ec465daad76a3f486
boolean_from_moments small 1 16 ec9bade38ac50839e4e7efb0e592f7bff884fc62455d1232d933021d6973fc80
boolean_from_moments wide 2 10 4f2f9934f65426cc0b1bae619ae79d188f346207ead78f47540ca689bc530b79
moments_from_boolean small 1 16 78e09bf0885f71f709ebf1cfd3d396fe86eed803b1fa32f3130053349ded01b3
moments_from_boolean wide 2 10 d8a51d9a72ccae1b820f420e1a7f75553a9248b2657c6456f7f6d2ab4c7d2d5a
free_from_moments small 1 16 2d10e2d2e71da6fb6c0ee8b727807f64b56c8383c6c7453304380a33dead7b2f
free_from_moments wide 2 10 4ed8cdcd7e1f4a052b35feebb16794a066021c8c538f590ee4be13a0326e3ce3
moments_from_free small 1 16 40b81d8bf973fa49390c5f506e5a9303212ffd627e3b31dcf4b4a85f7ca015cf
moments_from_free wide 2 10 ed17ede6f2f39d0e69ca9faa519550a4abc7b6ba3791b1976b65942c29041c48
generalized_cumulants small 1 16 b9a85222258c361f8ec1f8f1930ad5382114c7b6b4abd51d19f4f8d9790a24c4
generalized_cumulants wide 2 10 916cbf7bd23c541a2e60bca271e905fb37ffef0726f4d6ae6abb2e4c0a020462
moments_from_generalized small 1 16 66f0336f026ef38a9ccb49507d8fb9aad6ae3d166a940ee80455053f18c50d49
moments_from_generalized wide 2 10 f70d6b34ba5700fcc9727404a7e8d2d2e7cbfbef9d9c9275ddb2560e41e4a926
classical_from_moments_series small 1 16 d72ff503579aa1f6b4bc0a2f762f9c4fa4925d547fb196204ddbdcb30a9d201b
classical_from_moments_series wide 2 10 d66cce1f3412d12e8b8f8e091d68f87b3180064cb6daee6d5ae6b417c6a5ee68
boolean_from_moments_series small 1 16 ec9bade38ac50839e4e7efb0e592f7bff884fc62455d1232d933021d6973fc80
boolean_from_moments_series wide 2 10 4f2f9934f65426cc0b1bae619ae79d188f346207ead78f47540ca689bc530b79
moments_from_free_series small 1 16 40b81d8bf973fa49390c5f506e5a9303212ffd627e3b31dcf4b4a85f7ca015cf
moments_from_free_series wide 2 10 ed17ede6f2f39d0e69ca9faa519550a4abc7b6ba3791b1976b65942c29041c48
abel_oracle small 1 16 5d8fb2ba601916408f244b74f36f0bb2ad45041dfcd2483dbf3088f3845d2bf7
abel_oracle wide 2 10 8dd1bf8750684f1cb28cf263b25c7185e2de2ccdfc32088e9392bc1a7bc6b5a0
classical_convolve small 1 16 97726ba9902a582137e217b0a61ae9b5ec3a79de8121d38f3bb7556b832e0858
classical_convolve wide 2 10 15c1a73c62e509d9f5769d40fe07edd3c255c895f840c4eb5168030a28ad9d3b
boolean_convolve small 1 16 7366d9e93971c4b94b420ad4f02027e1efe7f23e507a4a6ce8256cb5d97ecbae
boolean_convolve wide 2 10 b1136fb81f5816c7ef81e3df5ce218e9b2944afba1fb92474e921052bf8948ac
free_convolve small 1 16 571e0c2dc45d9a008b58aa1f9a7a3fa9a6ddfc1ec0b75e7326171baf475c705d
free_convolve wide 2 10 fc44c5b15dcaec1b39f5037947e25c7dbcee18d4b0579b953492996615af88bd
gamma_convolve small 1 16 e21fb9e36de2cdab74794e37524876750aeef29401a7e8779da591b991945010
gamma_convolve wide 2 10 ca406b074c242a3d13755443b91dc5aaf495d808b9a31079d90b6350a5cce709
boolean_free_transport small 1 16 5095a6e214a67429f3e40ff57666b4b0af89e6253cbcfaead8e22307a86cd134
boolean_free_transport wide 2 10 f1ed946f5385e834b251d42fa73580de01f926beb31bbcf76cba563eb85d9acf
cumulant_matrix small 1 16 100fa6a56aa29c95e7bb5c8a29cd695ee0db3abb6ec0449a1ca95965b94604e2
cumulant_matrix wide 2 10 254204ae4e36a37f8b8d07a147eab7c5fee4648ea69a9b26cb544bf91ad4c1cc
umbral_composition-egf small 1 16 c39eafb9cdeb2d5a71fbb01f0a02d25457469bae6c9b0bae6139792691f8770e
umbral_composition-egf wide 2 10 13cbb0efdd958a186f37bba5ef9f27f6309f817e4de9d678bebcdb4691b8b012
umbral_composition-ogf small 1 16 02868976836e26179cc5fe8596165ff3e9f8ca78cdd6057107ed0dfe5fb7b1cd
umbral_composition-ogf wide 2 10 986fe85456ff80a07dd0864e39dda1adf0bb84fe1779e687ef00149ba700ccb0
dot_operation small 1 16 1c8f410b4ff3c23f3df37a8577ee4ecc602c0b62296c8ad74b5815699eea39f2
dot_operation wide 2 10 34b5f7ba8350f3884c44584ac9b8f9376d8d3648d2fc8bfd3937cbb5199829fb
factorial_moments small 1 16 dc8638b7668a00bb246f36ace0edc4b9b2632a91edac14eb5d26c01a77180c96
factorial_moments wide 2 10 de87bc989b49c23fb3b898db2d4d3fceae281271f4a7685005534f68528e274d
TruncatedSeries.__add__ small 1 16 892d8bfff13e827daaad8d5b688695b0be4bb0cb317e22efe5993f5047c17d22
TruncatedSeries.__add__ wide 2 10 d5ee8258548a6244da9e0a223f1379c3bb261a0252c756409d6015cb6fa816ab
TruncatedSeries.__sub__ small 1 16 98761245abbbdc58d1752294d7be3fe0882ded0d2a9990e2e377786a644a4ec0
TruncatedSeries.__sub__ wide 2 10 8a32bbd95b0a6d1a0dd61055834d4db0e83edb9b21d6c3b6318cd3214b62f39e
TruncatedSeries.__neg__ small 1 16 0c45d6a6fe1d8dcb552feaf692380ecbcb7eb3567a7e36188373433565a3ba13
TruncatedSeries.__neg__ wide 2 10 c5823b2fe3cfd367b73201668f2a23a22b27d4d8cb9c57e7624a06bf6a74bd09
TruncatedSeries.__mul__ small 1 16 0a405cede2760e39f881a0962b2a3667253e7da3736223e155d2578b8333c1fa
TruncatedSeries.__mul__ wide 2 10 eeee4bf6a94c5c94c32263afc74b9cf1285389e312db9149b2a817655e29e8c6
TruncatedSeries.reciprocal small 1 16 da0a65dfd4dce2eccb50b2ad4db2972e0a48831b181ac45d0ba94099268bf771
TruncatedSeries.reciprocal wide 2 10 451a838c710ee34790b57f92dc68e7cbc385ccee2a4ab7e0de203aacb8d261b4
TruncatedSeries.compose small 1 16 c94120d13399b08c5403ef2ec52d2041efcf8011b8d285c1945c5b9a5a80e039
TruncatedSeries.compose wide 2 10 5f485cec52cf0f5e606029024de6bd9b8e06d95c8f84fb860c67b296c5254967
TruncatedSeries.revert small 1 16 7aaf18e8912edc38b25372a9d14a61f35ddab704bb8c227623c2defa5f165d2a
TruncatedSeries.revert wide 2 10 3149bc35a34968385627f0e2d522efcd15a7c7caf8cf41cfd43725822ee1242f
TruncatedSeries.log small 1 16 1c1fb02b93381f701501f5841580972b39cbfc82eaaafe98bea73c9166ce5b1a
TruncatedSeries.log wide 2 10 4ffcad46264929bfddd2d5214a311428ea9058b8d5c47811ac0f55f4252dfa04
TruncatedSeries.exp small 1 16 76d7d264ec24434d619df05bb3d9129c9e66cf4f13d820cc7051ccad95767796
TruncatedSeries.exp wide 2 10 a1b9bedc034caa59a4a45c227b98d7842cb0600526c7ce05eca65026e1b5d16e
TruncatedSeries.power-int small 1 16 0868c01a36152a5a77acdd6f86e6baf9ef006551d15ab3819c9c7dd815c6a953
TruncatedSeries.power-int wide 2 10 a4476c58812c2f7cbbbd2a0101338add4f61536887b2cfa765b69f55acd0f06c
TruncatedSeries.power-fraction small 1 16 2266d0cf374761de6f490f44aec3e6fc62bf434a07d6611aa28bbbcebdaa5cfe
TruncatedSeries.power-fraction wide 2 10 8df7757dfa873ddfde770675f05cff1bc3c497e9d7a0d4958ae6dbcdf9e12f30
TruncatedSeries.power-positive small 1 16 1a7ee26a2e6d54d6337eff8bc90f5ef95af75b57193f09cd02d5cddc14a90f8a
TruncatedSeries.power-positive wide 2 10 f6189b93b2ac1cff78b2d6d35aac8bd9ba23095d75440723263af6d752399d44
TruncatedSeries.power-delta small 1 16 b82c7b398abee062219a934432a106981ddf35ce195d68575a2600df40108136
TruncatedSeries.power-delta wide 2 10 6762ea002a79c7f57b6e6abd2d6d3a452da0f502a3c6c2bccd5d0b06abbc543d
volume_shape_eval small 1 16 4d1535940d3c95b9be5faafd6f1eebab059aa08d68b8d95ea43d121321bee331
volume_shape_eval wide 2 10 949dcbf37747a5713827839f1042ff866512c16c37b4d0f8e9b73704fd1dde30
orbit_moment_eval small 1 16 fbff2ffbf8a0cd2346b4d68578fb793355ed62c28802a5ac631b265b1c361495
orbit_moment_eval wide 2 10 d9e7604a524579b3429756ba96fd9e2dfa5aad0492e0a6656e44eb3db59bc25e
convolve_lattice-all small 1 7 4673418c19898c6b2692dacbf8a1840c066c523ac814b4e9d8e84f0619fcee34
convolve_lattice-all wide 2 7 a57952bcc0ec3d8efa6f40443033b247c8e5e77699682597163e7d752432356c
mobius_by_recursion-all small 1 7 595b499231f92b2bd7abf0211ed7607b1cb6831530fe4c1cd344aa174990ab88
convolve_lattice-nc small 1 7 92a85fae516f34754ea95d6f4444d5da681159668c93cb856cfe7cc6cd7bab15
convolve_lattice-nc wide 2 7 7732e696e601431224950ed9ac500a0eeb49834c488a94b58e6f8b16051819c8
mobius_by_recursion-nc small 1 7 e3a534c81abf0641d823da24a2ab681479dfd964d1a423be59a550ec62593fbb
convolve_lattice-interval small 1 12 d1186cb13eaf796bd753289eb8ecb7060b0e08c3bd51364d951bc993a26fad3b
convolve_lattice-interval wide 2 12 5e4bcd4df6b97f25ab1c0fe0c77e969faee1b0b383e7f8d83aa7b1a6206a182c
mobius_by_recursion-interval small 1 12 6b54ef0f2b5a5ef8e655f3ee42f1630f4f098d1007decc5ca13855879dd63657
"""
PINS = {
    (name, kind, int(seed), int(order)): digest
    for name, kind, seed, order, digest in map(str.split, _TABLE.strip().splitlines())
}


def _digest(output) -> str:
    if isinstance(output, list):
        data = [str(x) for x in output]
    elif isinstance(output, Fraction):
        data = str(output)
    else:
        data = output.to_json()
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def test_every_map_is_pinned_and_every_lattice_pin_runs_at_its_limit():
    assert {name for name, *_ in PINS} == set(MAPS)
    for (name, _, _, order) in PINS:
        if name.startswith(("convolve_lattice", "mobius_by_recursion")):
            assert order == LIMITS[name.rsplit("-", 1)[1]], name


@pytest.mark.parametrize(
    "name, kind, seed, order", sorted(PINS), ids=lambda v: str(v)
)
def test_output_matches_its_pin(name, kind, seed, order):
    output = MAPS[name](*_inputs(kind, seed, order))
    assert _digest(output) == PINS[name, kind, seed, order], (
        f"{name} changed its output at order {order}, seed {seed} ({kind} rationals)"
    )


# theorem, n, seed, and the SHA-256 of json.dumps of the report
_THEOREM_TABLE = """
T1 1 0 008ab195900c4da8fab83992d75c5c7a77139f5c6a50f8897eea191a78748bb7
T1 1 5 008ab195900c4da8fab83992d75c5c7a77139f5c6a50f8897eea191a78748bb7
T1 2 0 9a61ee8e5e1e7f228f3ab8eabdcf7e3dad72c1796e261e0484bc7e4ac1b924fe
T1 2 5 9a61ee8e5e1e7f228f3ab8eabdcf7e3dad72c1796e261e0484bc7e4ac1b924fe
T1 3 0 a1439b7fd1610a60f280a25914d88e6231ad75e5b5e41d23599a61267c0181ec
T1 3 5 a1439b7fd1610a60f280a25914d88e6231ad75e5b5e41d23599a61267c0181ec
T1 4 0 073437ccd45636117029962f10a197cbd12a53a4639f2d08ea6d6ff82eeac5a8
T1 4 5 073437ccd45636117029962f10a197cbd12a53a4639f2d08ea6d6ff82eeac5a8
T1 5 0 746ebdd9f9a4bab41283e7a09b907661819cdddbd526c77d65278700b4d0c157
T1 5 5 746ebdd9f9a4bab41283e7a09b907661819cdddbd526c77d65278700b4d0c157
T1 6 0 753fe149b2ff7cc36300baf7afb88bbe74de0c3bed0b8c8c41f103de9affa479
T1 6 5 753fe149b2ff7cc36300baf7afb88bbe74de0c3bed0b8c8c41f103de9affa479
T2 1 0 e519876d141de26cd95e3dae6a2595d9c62330ac863f4fa7e4bb06e279158449
T2 1 5 e519876d141de26cd95e3dae6a2595d9c62330ac863f4fa7e4bb06e279158449
T2 2 0 e63ef2fa6130e0026137301313012bd4ed979b94441f97908d643f60cecbd23a
T2 2 5 e63ef2fa6130e0026137301313012bd4ed979b94441f97908d643f60cecbd23a
T2 3 0 cf0430017fbc1a91998ac82e3f871b5be5321158008504cc85c047c5351d16cb
T2 3 5 cf0430017fbc1a91998ac82e3f871b5be5321158008504cc85c047c5351d16cb
T2 4 0 2a1176f3c46957f419b9b93f5314b720e42b0973b542051b3ef217d8c96dec48
T2 4 5 2a1176f3c46957f419b9b93f5314b720e42b0973b542051b3ef217d8c96dec48
T2 5 0 980124c1fff074348e3516ed5a19653ebeeba93c43500b6e25c969ecf423bd93
T2 5 5 980124c1fff074348e3516ed5a19653ebeeba93c43500b6e25c969ecf423bd93
T2 6 0 56014a8aeb2bebca6c6ee2c0a08b626cf6aca3192b24e6b6e069e5e00df4ac65
T2 6 5 56014a8aeb2bebca6c6ee2c0a08b626cf6aca3192b24e6b6e069e5e00df4ac65
T3 1 0 b1734afd5165cdb9c03233b4852c97eb1bbae31d2c697ba36174761e2dbde96f
T3 1 5 b1734afd5165cdb9c03233b4852c97eb1bbae31d2c697ba36174761e2dbde96f
T3 2 0 27902f626e0a943140a2bc21aeee07eec618bca1564525b6db7d32eeb0a341c8
T3 2 5 27902f626e0a943140a2bc21aeee07eec618bca1564525b6db7d32eeb0a341c8
T3 3 0 b06fe2b03916a3486b3ee76a97542cdab23a3a9b5d2d2f16af0f1f1fcbc603d0
T3 3 5 b06fe2b03916a3486b3ee76a97542cdab23a3a9b5d2d2f16af0f1f1fcbc603d0
T3 4 0 bcfa67192ff32c378829b78b0799cbfcc0793dbe321f59fbbe302e0a5a50f5b4
T3 4 5 bcfa67192ff32c378829b78b0799cbfcc0793dbe321f59fbbe302e0a5a50f5b4
T3 5 0 b694f248f2e53e3d7d8b92afa3f40c5f83471e59b500d47a84a55c5b32dad0b7
T3 5 5 b694f248f2e53e3d7d8b92afa3f40c5f83471e59b500d47a84a55c5b32dad0b7
T3 6 0 9668e1f4a47ecd4b4c01ebae81ea82fc657a88bbf149810deedf7f6bb83ba9c7
T3 6 5 9668e1f4a47ecd4b4c01ebae81ea82fc657a88bbf149810deedf7f6bb83ba9c7
COMMUTATIVITY 1 0 82fca7629b18b3a880cba6563b86fa61800fa1fc0dacb915fbf9e3b2a92ce31c
COMMUTATIVITY 1 5 82fca7629b18b3a880cba6563b86fa61800fa1fc0dacb915fbf9e3b2a92ce31c
COMMUTATIVITY 2 0 182d81fd134bde222407b15776612b586f9e02a46c87aafdb9a2a3d2e31a0fe5
COMMUTATIVITY 2 5 182d81fd134bde222407b15776612b586f9e02a46c87aafdb9a2a3d2e31a0fe5
COMMUTATIVITY 3 0 2c94f71eb0fc8e7a3e3cd7597a8dbf2076612c54ffeb1b35407249e66f0ac0ee
COMMUTATIVITY 3 5 2c94f71eb0fc8e7a3e3cd7597a8dbf2076612c54ffeb1b35407249e66f0ac0ee
COMMUTATIVITY 4 0 dfcc0c735a1f341bb93b6785cdbba80156f4d5b7866cbf8147726da199668c69
COMMUTATIVITY 4 5 dfcc0c735a1f341bb93b6785cdbba80156f4d5b7866cbf8147726da199668c69
COMMUTATIVITY 5 0 cb30d46bb5b22778d69e3e54eaddb2f2ceb81d594f7602d5e9f588a7dcdb2e10
COMMUTATIVITY 5 5 cb30d46bb5b22778d69e3e54eaddb2f2ceb81d594f7602d5e9f588a7dcdb2e10
COMMUTATIVITY 6 0 9ced5099e1e161aa33840c2a3645988b0aabef5309e80e152bde9057580e52f2
COMMUTATIVITY 6 5 9ced5099e1e161aa33840c2a3645988b0aabef5309e80e152bde9057580e52f2
"""
THEOREM_PINS = {
    (which, int(n), int(seed)): digest
    for which, n, seed, digest in map(str.split, _THEOREM_TABLE.strip().splitlines())
}


def test_every_theorem_is_pinned_at_every_n():
    assert set(THEOREM_PINS) == {
        (which, n, seed)
        for which in ("T1", "T2", "T3", "COMMUTATIVITY")
        for n in range(1, LIMITS["theorem checks"] + 1)
        for seed in (0, 5)
    }


@pytest.mark.parametrize("which, n, seed", sorted(THEOREM_PINS), ids=lambda v: str(v))
def test_theorem_report_matches_its_pin(which, n, seed):
    report = verify_theorem(n, which, seed)
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == THEOREM_PINS[which, n, seed], (
        f"verify_theorem({n}, {which!r}, {seed}) changed its report: {report}"
    )
