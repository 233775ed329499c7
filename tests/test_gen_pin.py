"""Byte-level pin of the seeded program generator.

The hashes were measured before the brace-language emitters shared their
statement layer; a refactor of `gen.py` must leave every one of them
unchanged, which also means every RNG call stays in the same order.  Per
language and configuration the test hashes the programs of seeds 0-49.
The three `large-*` configurations are the ones the transform-large
benchmark workload draws from.
"""

import hashlib

import pytest

from srctrans.gen import GenConfig, gen_program

CONFIGS = {
    "default": {},
    "shadowing": {"shadowing": True},
    "no-loops": {"loops": False},
    "no-short-circuit": {"short_circuit": False},
    "no-parallel-assign": {"parallel_assign": False},
    "large-7-6": {"max_depth": 7, "max_stmts": 6},
    "large-7-7": {"max_depth": 7, "max_stmts": 7},
    "large-8-7": {"max_depth": 8, "max_stmts": 7},
}

PINNED = {
    "minic": {
        "default": "a0965b5b3e9f6cbc9d327e86fce019575b6aee6b818be8a530e5fe3c16e4003a",
        "shadowing": "6b4607374841c660ae970438f32113adf9060a95c56343fbde996bf3ade6f14b",
        "no-loops": "6fb4fea2e9b35beb1f355aa655508d0c8031a134e2d84e6c3139634c9084a4a8",
        "no-short-circuit": "6278b690d7b4c7e459abcf45363687bbcb391c92a9277bc15647227dbd946cc5",
        "no-parallel-assign": "a0965b5b3e9f6cbc9d327e86fce019575b6aee6b818be8a530e5fe3c16e4003a",
        "large-7-6": "4d4ac9619e0435daff37972b2eae5c412d50a1d20bd0f28958ee00bfb1be7ecc",
        "large-7-7": "9049a3b6535bcf4a3de01a4d421df521c44c83a977424f251666b64021a0fa3e",
        "large-8-7": "7184d53e48e8b2f820c73a9053000d69c0213d93cd66bf66261c28d7c195dbfc",
    },
    "minijs": {
        "default": "de85cb5efb324f9f40391ed53b1ee1ef4374e6e737e63ef3cb092d510ce4845c",
        "shadowing": "9bb379b4530586dcdf05dc6b7ad3c411f60c8eba411641a09bf9ad59d5ebb46c",
        "no-loops": "ab769bfce0d33144063a2d28fbb4d40f4c588c76906d34b19d72b79bf5657bba",
        "no-short-circuit": "cebf22fa38503c8522fb3e53cd822e3307e0604405eaf275bbaf1ae2b905ede7",
        "no-parallel-assign": "de85cb5efb324f9f40391ed53b1ee1ef4374e6e737e63ef3cb092d510ce4845c",
        "large-7-6": "eac42274994f42cc7eea3c18660dec00662f4e293f6c631ea1cd32d16b264b6f",
        "large-7-7": "9e7a4966b093ef80768cb54f62f41d3605822f58beb288b703a0074d8f114b62",
        "large-8-7": "189bb27e0b6b4fc8db5dbbfae2686f128225bfa1eda60239274a883c892d8682",
    },
    "minilua": {
        "default": "6609ba33326f5e4edc8c9220ce1fea688ef87a96facb11034cdc0bd78a89ab3f",
        "shadowing": "11d901bdc358199c132c79d3f0e4e9ef2f5429390b16743d27e295923a495066",
        "no-loops": "9202d5f57a40bfbe93f66826fa7ca467778787a38de149d1f87b212384f7e7e5",
        "no-short-circuit": "74fa7b5e193e777301f5cb20de1c83d6d5946234b7b5e85b19309bfb488f5ea8",
        "no-parallel-assign": "a4e0dd7052377d74dea8f6e2b01515128e1abe16120d409163f8962af10fb59b",
        "large-7-6": "32c9bafa284dd259775baddf319f9acd61f1cfacd3b8c83da68cb88ea5d5713e",
        "large-7-7": "74935d44e1e9d86b971498e878aab06fbc960ea8c477d952cab2326510b50a25",
        "large-8-7": "363041d7fe674d095b7d9ba01802f99372e6e7a10c06529fb0527aa01577d58f",
    },
}


@pytest.mark.parametrize("lname", sorted(PINNED))
@pytest.mark.parametrize("cname", list(CONFIGS))
def test_generated_programs_are_pinned(lname, cname):
    text = "\n".join(
        gen_program(lname, GenConfig(seed=s, **CONFIGS[cname])) for s in range(50)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[lname][cname]
