"""Byte-identical CLI output: one sha256 of stdout per command.

The hashes pin every subcommand: the analytic ones (``analyze``,
``prime-sweep``, ``compare``) and, at desk-scale sizes, the simulator ones
(``simulate`` under each policy and cache mode, ``store-ratio``,
``halo-copy``, and ``replay`` of an am00 trace that ``simulate
--dump-trace`` writes), and default ``simulate`` at its paper-scale grid
(1024x1024), where the level fills, under ``always``, ``claim`` and ``nt``
and with ``--cache-mode levels``. A refactor can so show that it prints exactly what
it printed before. A change that means to alter an output re-records the
table with ``PYTHONPATH=src python tests/test_golden_cli.py`` and says why.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from stencilmem.cli import main
from stencilmem.kernels import data_path

SUITE = str(data_path("cloverleaf_tiny.json"))
MACHINES = {"icx": str(data_path("icx_8360y.json")),
            "spr": str(data_path("spr_8480p.json"))}
REFERENCE_CSVS = ("clv_tiny_rank1", "clv_tiny_rank72", "clv_tiny_rank72_nt")
SCENARIOS = ("min", "lcf-wa", "lcb", "max", "speci2m", "nt-speci2m")
NO_EVASION = ("--no-evasion", "ac01,ac02,ac05,ac06")
POLICIES = ("always", "nt", "claim", "claim-inactive")
CACHE_MODES = ("effective", "levels")
SIM_VOLUME = "262144"


def commands() -> dict[str, list[str]]:
    """Command line -> argv; the key is what a failure prints."""
    argvs = []
    for machine in MACHINES.values():
        argvs += [["analyze", SUITE, machine], ["analyze", SUITE, machine, "--csv"]]
        argvs += [["prime-sweep", SUITE, machine, "--ranks", "1..400", "--wa", wa]
                  for wa in ("full", "none", "speci2m", "nt-speci2m")]
    for name in REFERENCE_CSVS:
        csv_path = str(data_path(f"reference/{name}.csv"))
        for scenario in SCENARIOS:
            argv = ["compare", SUITE, MACHINES["icx"], csv_path, "--scenario", scenario]
            argvs.append(argv)
            if scenario in ("speci2m", "nt-speci2m"):
                argvs.append(argv + list(NO_EVASION))
    for policy in POLICIES:
        argvs += [["simulate", SUITE, MACHINES["icx"], "--grid", "64",
                   "--policy", policy, "--cache-mode", mode] for mode in CACHE_MODES]
        argvs += [["store-ratio", "--streams", str(streams), "--volume", SIM_VOLUME,
                   "--policy", policy] for streams in (1, 2, 3)]
    argvs.append(["halo-copy", "--volume", SIM_VOLUME])
    argvs += [["simulate", SUITE, MACHINES["icx"], "--policy", policy]
              for policy in ("always", "claim", "nt")]
    argvs.append(["simulate", SUITE, MACHINES["icx"], "--cache-mode", "levels"])
    return {" ".join(a.replace(str(data_path("")), "data") for a in argv): argv
            for argv in argvs}


def replay_commands(trace: Path) -> dict[str, list[str]]:
    """The dump of an am00 trace at grid 64, then its replays, in run order."""
    icx = MACHINES["icx"]
    argvs = [["simulate", SUITE, icx, "--grid", "64", "--kernel", "am00",
              "--dump-trace", str(trace)]]
    argvs += [["replay", str(trace), icx, "--policy", policy, "--cache-mode", mode]
              for policy in POLICIES for mode in CACHE_MODES]
    return {" ".join(a.replace(str(trace), trace.name).replace(str(data_path("")), "data")
                     for a in argv): argv
            for argv in argvs}


def stdout_sha256(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"exit {rc}"
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


GOLDEN = {
    'analyze data/cloverleaf_tiny.json data/icx_8360y.json':
        'ae4612dfe3eb5675f7d1738619ce44649ee0760af3b65a6b54d43d7705815955',
    'analyze data/cloverleaf_tiny.json data/icx_8360y.json --csv':
        'a288981990d798179936cd6b2ee1792363002bc5ea314acb0cb13a485ad2d84a',
    'prime-sweep data/cloverleaf_tiny.json data/icx_8360y.json --ranks 1..400 --wa full':
        '7ac85301d4d8e32ba3f6c5735a2bb877588e9b73d1e42b525cfce5b1e1865b6e',
    'prime-sweep data/cloverleaf_tiny.json data/icx_8360y.json --ranks 1..400 --wa none':
        '8104bf0858b6f716a3d9b99737b480526f07956d99a4b64020f4be3fa65b0e89',
    'prime-sweep data/cloverleaf_tiny.json data/icx_8360y.json --ranks 1..400 --wa speci2m':
        '1b26b72f73ea28decee20477649c4e891c431ba81631f1918e5e7eae56cb6dfa',
    'prime-sweep data/cloverleaf_tiny.json data/icx_8360y.json --ranks 1..400 --wa nt-speci2m':
        '23740c1fad7492ffe04ebb12fd9d03ff38178911670de82bec007f3e2e7659fa',
    'analyze data/cloverleaf_tiny.json data/spr_8480p.json':
        'ae4612dfe3eb5675f7d1738619ce44649ee0760af3b65a6b54d43d7705815955',
    'analyze data/cloverleaf_tiny.json data/spr_8480p.json --csv':
        'a288981990d798179936cd6b2ee1792363002bc5ea314acb0cb13a485ad2d84a',
    'prime-sweep data/cloverleaf_tiny.json data/spr_8480p.json --ranks 1..400 --wa full':
        '7ac85301d4d8e32ba3f6c5735a2bb877588e9b73d1e42b525cfce5b1e1865b6e',
    'prime-sweep data/cloverleaf_tiny.json data/spr_8480p.json --ranks 1..400 --wa none':
        '8104bf0858b6f716a3d9b99737b480526f07956d99a4b64020f4be3fa65b0e89',
    'prime-sweep data/cloverleaf_tiny.json data/spr_8480p.json --ranks 1..400 --wa speci2m':
        '0ea0c2b4f21cf7cc4b8afc446781c141e596b00c13c42491c3ca7801c09d3eef',
    'prime-sweep data/cloverleaf_tiny.json data/spr_8480p.json --ranks 1..400 --wa nt-speci2m':
        'a8640f6224aaa673ca86a449522610d0d79697bf4fe4c8332b67a7c0392b158f',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario min':
        'e003b5bbad9e6299e51fb4fd136120eb17097f0e96c4d7f8259eb0d91be08870',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario lcf-wa':
        '040a5edfc8755ec633220381d50bd8d9a40ecaead75415a5711b3d6c76c3a35d',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario lcb':
        '77bbb66ad4a04dc4bc1aa0c9df70499d17bee7272a2b48033b22925a8c7b41f4',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario max':
        'c07248b7f50126432a3f8d6b5f9414613f486d348832c570464afcf9a1b7d3c7',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario speci2m':
        'fad092fae787e58b3c3e6e17319cedffafc112349fac5254122ec6b3faf04b4a',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario speci2m --no-evasion ac01,ac02,ac05,ac06':
        'b7182f4dca05b6c986089f465a03bfe554deb35cf2e65aeddac692f1bc430b9f',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario nt-speci2m':
        'd8970166c609548a3bddb300151ca0e3b51e0a06fc3b79fd74fb4880a7e74e9d',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank1.csv --scenario nt-speci2m --no-evasion ac01,ac02,ac05,ac06':
        '4bb2edd0d78143f90ad48a768963ffbfa3b561d1addd391f39cac2847babddb6',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario min':
        'f28be2bc3e0cf7178e0f541c93843043c7400646e59c6a585a206b4610debd6b',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario lcf-wa':
        'fa1fe44f3959fafdc792eaa02f8417c0ea96c0092b399e9ca721d833444ae8f1',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario lcb':
        'd6040c3e2cf28efcecc1e24dd80facd8eed1d74f6ed958514ef205d07493f17c',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario max':
        '2626761b594dce61821ef0338534dc383631cef17151eadac2e2fce44fe0ec15',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario speci2m':
        '4f5534988af96e1aeb5b37ac177fcb77f956b9621da307843020290e9c37726c',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario speci2m --no-evasion ac01,ac02,ac05,ac06':
        '62be2e4efb9c17c1e6a98557b0fa587bfaf334bebeb8db91fab2db29d042f661',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario nt-speci2m':
        '29d37c76c25e98985fccffbed3899fc83586059643f6f3be3fe2047c0f1e64a4',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72.csv --scenario nt-speci2m --no-evasion ac01,ac02,ac05,ac06':
        'a72d63742cbaa075d288252a64956d2fcea4c668ed3725d72e031bd943675b14',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario min':
        '295908cfa8549409e93a52aed935f98da94edd75171e9965ff458a6c81a45bf2',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario lcf-wa':
        '1d09eeb24c8d187279453ae70c6145d17f401f2ba8dbf23f6dbcbdf11ada179c',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario lcb':
        'c5fb3386814f51e8043ed152a18e724a4aab5a0710f2e207b9de356ac41dde37',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario max':
        'e004485eb68c32b9ba275f2c7fdc4e48192139103481edd4c596ab151f083afe',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario speci2m':
        '4676958e3c2762743b5cb1acd0d7286a77c07c4aa0f31f7a296826e20a354689',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario speci2m --no-evasion ac01,ac02,ac05,ac06':
        'f3d62eba96131b20c8dbcbb113f02d898632605a0de6cfd3928803aa3e9ef5c6',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario nt-speci2m':
        '81fd851ae9fb33bd50272d75793c1e0f2dea25f3a3f5eea34b12b7af76e400a9',
    'compare data/cloverleaf_tiny.json data/icx_8360y.json data/reference/clv_tiny_rank72_nt.csv --scenario nt-speci2m --no-evasion ac01,ac02,ac05,ac06':
        'f212e86fb31dc4e99797da42f12b55f7d34074e4739739529e89d49df49008dd',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy always --cache-mode effective':
        '4358021e548ddef98eb3f57dab72afccfd449bd58d8b591946beb80e2eedef3e',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy always --cache-mode levels':
        '4358021e548ddef98eb3f57dab72afccfd449bd58d8b591946beb80e2eedef3e',
    'store-ratio --streams 1 --volume 262144 --policy always':
        '184796c69470aeab17a895160c1abe5a19eff3ccd1b21b689d94e6281caa98e6',
    'store-ratio --streams 2 --volume 262144 --policy always':
        '184796c69470aeab17a895160c1abe5a19eff3ccd1b21b689d94e6281caa98e6',
    'store-ratio --streams 3 --volume 262144 --policy always':
        '184796c69470aeab17a895160c1abe5a19eff3ccd1b21b689d94e6281caa98e6',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy nt --cache-mode effective':
        '02a61a49ed37db268e562baf2b812554e2cc4a589e946f2a5893078c19b04599',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy nt --cache-mode levels':
        '02a61a49ed37db268e562baf2b812554e2cc4a589e946f2a5893078c19b04599',
    'store-ratio --streams 1 --volume 262144 --policy nt':
        'b4e088f864db15584d519f8675237536319ae00e0d40e1dba206514474d1a179',
    'store-ratio --streams 2 --volume 262144 --policy nt':
        'b4e088f864db15584d519f8675237536319ae00e0d40e1dba206514474d1a179',
    'store-ratio --streams 3 --volume 262144 --policy nt':
        'b4e088f864db15584d519f8675237536319ae00e0d40e1dba206514474d1a179',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy claim --cache-mode effective':
        '02a61a49ed37db268e562baf2b812554e2cc4a589e946f2a5893078c19b04599',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy claim --cache-mode levels':
        '02a61a49ed37db268e562baf2b812554e2cc4a589e946f2a5893078c19b04599',
    'store-ratio --streams 1 --volume 262144 --policy claim':
        'b4e088f864db15584d519f8675237536319ae00e0d40e1dba206514474d1a179',
    'store-ratio --streams 2 --volume 262144 --policy claim':
        'b4e088f864db15584d519f8675237536319ae00e0d40e1dba206514474d1a179',
    'store-ratio --streams 3 --volume 262144 --policy claim':
        'b4e088f864db15584d519f8675237536319ae00e0d40e1dba206514474d1a179',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy claim-inactive --cache-mode effective':
        '4358021e548ddef98eb3f57dab72afccfd449bd58d8b591946beb80e2eedef3e',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --policy claim-inactive --cache-mode levels':
        '4358021e548ddef98eb3f57dab72afccfd449bd58d8b591946beb80e2eedef3e',
    'store-ratio --streams 1 --volume 262144 --policy claim-inactive':
        '184796c69470aeab17a895160c1abe5a19eff3ccd1b21b689d94e6281caa98e6',
    'store-ratio --streams 2 --volume 262144 --policy claim-inactive':
        '184796c69470aeab17a895160c1abe5a19eff3ccd1b21b689d94e6281caa98e6',
    'store-ratio --streams 3 --volume 262144 --policy claim-inactive':
        '184796c69470aeab17a895160c1abe5a19eff3ccd1b21b689d94e6281caa98e6',
    'halo-copy --volume 262144':
        '892f25ec3a472b515fb5cc93bc80afd3eb5ce93fa3f1471effc614d3f9e7cadc',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --policy always':
        '55c5bdd1855b06d79d6fb16d85c9790ba1f24eb31e6f4985b73afafec0cc974f',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --policy claim':
        '5113f7dc23d4f09db288a7fdb3f6b44d7c43c0ca3049af3f2761452a64a351be',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --policy nt':
        '5113f7dc23d4f09db288a7fdb3f6b44d7c43c0ca3049af3f2761452a64a351be',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --cache-mode levels':
        '55c5bdd1855b06d79d6fb16d85c9790ba1f24eb31e6f4985b73afafec0cc974f',
    'simulate data/cloverleaf_tiny.json data/icx_8360y.json --grid 64 --kernel am00 --dump-trace am00.trace':
        'f6dabf774a5a0a5a0b2c8d5362af0cfa8a61d78aa02a78e938f387e54dfefac1',
    'replay am00.trace data/icx_8360y.json --policy always --cache-mode effective':
        '0241e01e00dfce6774f005eaae3a462811a92b410458dfae25d1d4259a52eb33',
    'replay am00.trace data/icx_8360y.json --policy always --cache-mode levels':
        '0241e01e00dfce6774f005eaae3a462811a92b410458dfae25d1d4259a52eb33',
    'replay am00.trace data/icx_8360y.json --policy nt --cache-mode effective':
        'f4d7a1b57098e99cda6974508c2e02b61173e0d964d786133bb7c9542cf89ace',
    'replay am00.trace data/icx_8360y.json --policy nt --cache-mode levels':
        'f4d7a1b57098e99cda6974508c2e02b61173e0d964d786133bb7c9542cf89ace',
    'replay am00.trace data/icx_8360y.json --policy claim --cache-mode effective':
        '39b772f85d80e28585330135d0fe81ef1b97b73a9d904aab08115b6c58266150',
    'replay am00.trace data/icx_8360y.json --policy claim --cache-mode levels':
        '39b772f85d80e28585330135d0fe81ef1b97b73a9d904aab08115b6c58266150',
    'replay am00.trace data/icx_8360y.json --policy claim-inactive --cache-mode effective':
        '0241e01e00dfce6774f005eaae3a462811a92b410458dfae25d1d4259a52eb33',
    'replay am00.trace data/icx_8360y.json --policy claim-inactive --cache-mode levels':
        '0241e01e00dfce6774f005eaae3a462811a92b410458dfae25d1d4259a52eb33',
}


COMMANDS = commands()
TRACE_NAME = "am00.trace"


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_output_unchanged(command):
    assert stdout_sha256(COMMANDS[command]) == GOLDEN[command], command


def test_replay_output_unchanged(tmp_path):
    for command, argv in replay_commands(tmp_path / TRACE_NAME).items():
        assert stdout_sha256(argv) == GOLDEN[command], command


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {**COMMANDS, **replay_commands(Path(tmp) / TRACE_NAME)}
        for command, argv in pinned.items():
            print(f"    {command!r}:\n        {stdout_sha256(argv)!r},")
