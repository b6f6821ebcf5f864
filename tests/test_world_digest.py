"""World-digest golden: the generated world, byte for byte.

One sha256 over, in world order, every planned sample's sha256, the
chaff hashes (sorted: the ground truth keeps them in a set), the C2
deployment table (address, port, family, domain, online window) and the
generator RNG's final state.  The values were recorded before the
generator's draw loops were inlined (DESIGN.md §5, "RNG stream
contract"); any change to what the generator draws, or in which order,
moves them.
"""

import hashlib

import pytest

from repro.world import FULL_SCALE, SMOKE_SCALE, generate_world

SEED = 20220322

GOLDEN_WORLD = {
    "smoke": "cf3749fa6dfa73b83eb5fd2a0da1df6667e91539045c1c61bb1cd788a59d08a0",
    "full": "0306772b3282eed2a93d808c6fd9d6109329071f6845c3df652ef850145e73b6",
}

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}


def world_digest(world) -> str:
    truth = world.truth
    digest = hashlib.sha256()
    for planned in truth.all_samples:
        digest.update(f"sample {planned.sample.sha256}\n".encode())
    for sha256 in sorted(truth.chaff_hashes):
        digest.update(f"chaff {sha256}\n".encode())
    for d in truth.deployments:
        digest.update(
            f"c2 {d.address} {d.port} {d.family} {d.domain} "
            f"{d.online_from!r} {d.online_until!r}\n".encode())
    digest.update(repr(world.rng.getstate()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_world_digest_golden(scale):
    world = generate_world(seed=SEED, scale=SCALES[scale])
    assert world_digest(world) == GOLDEN_WORLD[scale]
