import datetime
import hashlib

import pytest

from chaincast.synthetic import make_fixture, random_frame

# sha256 of the CSVs that make_fixture wrote before it carried its moving
# average and RSI from day to day (it used to recompute both over the whole
# price prefix every simulated day); the one-pass loop must write the same
# bytes.  Bundled length (2015-2018) for seeds 11, 3 and 84, twelve years
# (2007-2018) for seeds 11 and 160.
FIXTURE_SHA256 = {
    (11, 2015): {
        "gold": "0d939e4995b9271b317fdade237ab85acf9bee1e1efa4826a322f05c2d4d24dd",
        "oil": "983478d91e35bb918c60484eb177350194b29296c4c492341ceb25da8b78f914",
        "eurusd": "aafb7add93f8a34494990c20162d012e65e6ad9f21c2275dde6943c375655560",
    },
    (3, 2015): {
        "gold": "cad2a765b66b2553f1c695048a7bbed23aea2de3344830febcdd100a193efc69",
        "oil": "3380a7ae977e12884792a6b70705c7345f620ca9e134122ea114260161d73777",
        "eurusd": "0d28e7c529bf0a7caae21fbfc8f295e55fa0ef4c77e7000b64df4a70997e3786",
    },
    (84, 2015): {
        "gold": "1437c629dfe2ecb46e5fb690828b953a88378c71a878250705f3e96079d6f907",
        "oil": "58a145e5e0fb1cd7cf0ac2bd7a709f0c7cd10735df0f03ec3e0cf6ec80ac4efa",
        "eurusd": "c38e7154c3347606120fc4194c3dc27668653950d9486cbd89432c9aa644aa61",
    },
    (11, 2007): {
        "gold": "04cc1d8446d35897fa8987e25d49b3dba7b5bd87cde915f74c417f9675eab099",
        "oil": "8fb12eab418afbbf19398e6954c9ecceccc9c12a58ab2022964bf728a550da5a",
        "eurusd": "e91f7667192e3b850c074e7635da9ac70bb268e2920b3379d4bc7ec3eebb47ab",
    },
    (160, 2007): {
        "gold": "744c07a4469519fc210606c79b832e023fe9e968eee775224f594f5fa7403b82",
        "oil": "060a79aefc8214b7c2b21fb2d3fbb36c8065d541d138f2f66611c8db8570a067",
        "eurusd": "a5f285e7c1ae5c68e6d2ea9d79699b8df908401b1f56ac592cdb714b16ed5b70",
    },
}


@pytest.mark.parametrize("seed,start_year", sorted(FIXTURE_SHA256))
def test_make_fixture_bytes_are_pinned(seed, start_year, tmp_path):
    paths = make_fixture(tmp_path, seed=seed, start=datetime.date(start_year, 1, 1))
    digests = {asset: hashlib.sha256(path.read_bytes()).hexdigest()
               for asset, path in paths.items()}
    assert digests == FIXTURE_SHA256[(seed, start_year)]


# sha256 of random_frame's asset, dates and price columns from when it built
# one bar object per row; building the frame from columns must not move a bit.
RANDOM_FRAME_SHA256 = {
    (1, 0): "20cafe9e23acabc227156a71ab954abb8fa80d0c14acc9583fa0bad35e7bea35",
    (60, 7): "1ef47d97b01f42226c26f50a85a2dbc47beac9db18c9bf2a060d92ef5c8ae6c1",
    (400, 123): "6c04b93c6c3dad4f47fecea988ec8ca80989f39317e7cc10e5476f0e0e6008cf",
}


@pytest.mark.parametrize("n,seed", sorted(RANDOM_FRAME_SHA256))
def test_random_frame_is_pinned(n, seed):
    frame = random_frame(n, seed=seed)
    digest = hashlib.sha256(frame.asset.encode())
    digest.update(",".join(d.isoformat() for d in frame.dates).encode())
    for column in (frame.opens, frame.highs, frame.lows, frame.closes):
        digest.update(column.tobytes())
    assert digest.hexdigest() == RANDOM_FRAME_SHA256[(n, seed)]
