"""The package's public names."""

import cpsync
from cpsync import channel, harness, spectral, sync, txgen


def test_package_exports_exactly_the_modules_public_names():
    modules = (spectral, txgen, channel, sync, harness)
    union = {name for module in modules for name in module.__all__}
    assert len(cpsync.__all__) == len(set(cpsync.__all__))
    assert set(cpsync.__all__) == union
