"""Golden contracts of single-design layout generation.

``Session.layout`` and the macro keys of the physical pipeline are pinned
by digests recorded before the single-design front doors were folded
into one :meth:`PhysicalPipeline.run` call and the routing pitch became
a class constant: every written view, the report, the stage counts of
one request, and the content addresses of the solved macros (which is
what lets result stores written by earlier releases keep hitting).
"""

import hashlib
from pathlib import Path

import pytest

from repro.api import LayoutRequest, Session, SessionConfig
from repro.arch.spec import ACIMDesignSpec
from repro.physical.pipeline import PhysicalPipeline

SPEC = ACIMDesignSpec(16, 4, 4, 2)

#: files key -> (file name, SHA-256 prefix of its bytes).
GOLDEN_FILES = {
    "spice": ("easyacim_64b_H16_L4_B2.sp", "2e5fda9eea8a3a30"),
    "testbench": ("easyacim_64b_H16_L4_B2_tb.sp", "1c163ed61c05d889"),
    "gds": ("easyacim_64b_H16_L4_B2.gds", "ba75a6e4326ffd4f"),
    "def": ("easyacim_64b_H16_L4_B2.def", "5ba7c6941651ec1d"),
    "tech_lef": ("generic28_tech.lef", "1785518871970d2c"),
    "macro_lef": ("easyacim_64b_H16_L4_B2.lef", "a81bcefa7ca738cf"),
}

#: ``payload["report"]`` without its ``runtime_s`` entry.
GOLDEN_REPORT = {
    "H": 16, "W": 4, "L": 4, "B_ADC": 2,
    "width_um": 10.0, "height_um": 36.7, "area_um2": 367.0,
    "area_f2_per_bit": 7313.9, "routed_nets": 3, "failed_nets": 0,
}

GOLDEN_STAGE_RUNS = {
    "netlist": 1, "placement": 2, "routing": 2, "layout": 1, "export": 1,
}

#: Content addresses of the macros an unrouted ``SPEC`` solves.
GOLDEN_MACROS = {
    "local_array":
        "26bdb9a42b39991c8500c9e585bef90db65a1e5588ca3d8f77ea325ceb40b075",
    "column":
        "b039521b6c5e182dc0ff613240b65dc2997dfbb4ee683d1b5cc9f8513c34dd15",
    "acim_macro":
        "f9034b74c46676e8560ad63c1864dffdd849108aca43eb47b8f2272fcd470c54",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def layout_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("layout")
    with Session.from_config(SessionConfig()) as session:
        result = session.layout(LayoutRequest(
            height=SPEC.height, width=SPEC.width,
            local_array_size=SPEC.local_array_size, adc_bits=SPEC.adc_bits,
            output_dir=str(out), spice=True, testbench=True, lef=True,
        ))
    return out, result


class TestSessionLayoutGolden:
    def test_written_views_are_byte_identical(self, layout_result):
        out, result = layout_result
        files = result.payload["files"]
        assert list(files) == list(GOLDEN_FILES)
        for key, (name, digest) in GOLDEN_FILES.items():
            path = Path(files[key])
            assert path == out / name, key
            assert _digest(path.read_bytes()) == digest, key

    def test_report_is_unchanged(self, layout_result):
        _, result = layout_result
        report = dict(result.payload["report"])
        report.pop("runtime_s")
        assert report == GOLDEN_REPORT

    def test_stage_runs_and_single_netlist_build(self, layout_result):
        _, result = layout_result
        stages = result.payload["physical_stats"]["stages"]
        assert {name: stage["runs"] for name, stage in stages.items()} \
            == GOLDEN_STAGE_RUNS
        assert stages["netlist"]["runs"] == 1

    def test_artifacts_carry_the_netlist_and_report(self, layout_result):
        _, result = layout_result
        assert result.artifacts["netlist"].name == "easyacim_64b_H16_L4_B2"
        assert result.artifacts["report"].layout.name == "easyacim_64b_H16_L4_B2"


class TestMacroKeyCompatibility:
    def test_top_macro_digest_is_pinned(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        key = {
            "H": 16, "W": 4, "L": 4, "B": 2, "route": False,
            "pitch": 200, "layers": ["M2", "M3", "M4"],
        }
        assert pipeline.macro_library.macro_digest("acim_macro", key) \
            == GOLDEN_MACROS["acim_macro"]

    def test_solved_macros_keep_their_content_addresses(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        pipeline.run(SPEC, route_columns=False)
        solved = {
            record.kind: record.digest
            for record in pipeline.macro_library.macros()
        }
        assert solved == GOLDEN_MACROS


#: The H16/W1024 macro of the distilled benchmark flow (``perfbench``'s
#: ``flow`` workload), routed and exported by a fresh pipeline: full
#: SHA-256 of the written files, recorded while the writers still encoded
#: every record of every placed instance on its own.
FLOW_MACRO_SPEC = ACIMDesignSpec(16, 1024, 2, 3)
FLOW_MACRO_FILES = {
    "gds": "cf769a48f6bc68fa48ab5802c5c43f82b671ac7603fa80045b35f976f59b8197",
    "def": "acc40f8057100cfd55027e10734b6e70ee67d3b7f3f75260486a4f5350aad2bc",
}


class TestFlowMacroGolden:
    def test_exported_files_are_byte_identical(self, cell_library, tmp_path):
        result = PhysicalPipeline(cell_library).run(
            FLOW_MACRO_SPEC, route_columns=True, output_dir=str(tmp_path),
        )
        report = result.report
        assert report.layout.instance_count() == 16 + 2 * 1024
        written = {
            "gds": Path(report.gds_path).read_bytes(),
            "def": Path(report.def_path).read_bytes(),
        }
        assert {
            key: hashlib.sha256(data).hexdigest() for key, data in written.items()
        } == FLOW_MACRO_FILES
