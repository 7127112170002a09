"""Cross-cutting invariants for every mapping at small workload sizes.

These are the integration tests: all fifteen kernel x machine cells run
the full pipeline (pattern generation, machine models, functional
computation) on small workloads, and every KernelRun must satisfy the
same structural invariants.

A :class:`KernelRun` carries only a digest of its functional output, so
the array checks below take the array from each mapping's own structure
pass, the code its run executes, and tie the run's ``output_digest``
to that array.
"""

from functools import partial

import numpy as np
import pytest

from repro.arch.base import KernelRun
from repro.calibration import DEFAULT_CALIBRATION
from repro.mappings import (
    imagine_beam_steering,
    imagine_corner_turn,
    imagine_cslc,
    ppc_beam_steering,
    ppc_corner_turn,
    ppc_cslc,
    raw_beam_steering,
    raw_corner_turn,
    raw_cslc,
    viram_beam_steering,
    viram_corner_turn,
    viram_cslc,
)
from repro.mappings.registry import KERNELS, MACHINES, run
from repro.perf.cache import content_digest

CELLS = [(k, m) for k in KERNELS for m in MACHINES]

#: Each cell's structure pass, called as ``fn(workload, calibration,
#: seed)`` with the mapping's default options.
STRUCTURES = {
    ("corner_turn", "ppc"): ppc_corner_turn._structure_scalar,
    ("corner_turn", "altivec"): ppc_corner_turn._structure_altivec,
    ("corner_turn", "viram"): viram_corner_turn._structure,
    ("corner_turn", "imagine"): partial(
        imagine_corner_turn._structure, via_network_port=False
    ),
    ("corner_turn", "raw"): raw_corner_turn._structure,
    ("cslc", "ppc"): ppc_cslc._structure_scalar,
    ("cslc", "altivec"): ppc_cslc._structure_altivec,
    ("cslc", "viram"): viram_cslc._structure,
    ("cslc", "imagine"): partial(
        imagine_cslc._structure, independent_ffts=False
    ),
    ("cslc", "raw"): partial(
        raw_cslc._structure, balanced=True, streamed_fft=False
    ),
    ("beam_steering", "ppc"): ppc_beam_steering._scalar_structure,
    ("beam_steering", "altivec"): ppc_beam_steering._altivec_structure,
    ("beam_steering", "viram"): viram_beam_steering._structure,
    ("beam_steering", "imagine"): partial(
        imagine_beam_steering._structure, tables_in_srf=False
    ),
    ("beam_steering", "raw"): raw_beam_steering._structure,
}


@pytest.fixture(scope="module")
def module_workloads():
    from repro.kernels.workloads import (
        small_beam_steering,
        small_corner_turn,
        small_cslc,
    )

    return {
        "corner_turn": small_corner_turn(),
        "cslc": small_cslc(),
        "beam_steering": small_beam_steering(),
    }


@pytest.fixture(scope="module")
def small_runs(module_workloads):
    return {
        (kernel, machine): run(
            kernel, machine, workload=module_workloads[kernel]
        )
        for kernel, machine in CELLS
    }


@pytest.fixture(scope="module")
def small_outputs(module_workloads):
    """The functional output array of each cell's structure pass."""
    return {
        (kernel, machine): STRUCTURES[(kernel, machine)](
            module_workloads[kernel], DEFAULT_CALIBRATION, 0
        )["output"]
        for kernel, machine in CELLS
    }


@pytest.mark.parametrize("kernel,machine", CELLS)
class TestInvariants:
    def test_returns_kernel_run(self, small_runs, kernel, machine):
        assert isinstance(small_runs[(kernel, machine)], KernelRun)

    def test_positive_cycles(self, small_runs, kernel, machine):
        assert small_runs[(kernel, machine)].cycles > 0

    def test_breakdown_sums_to_total(self, small_runs, kernel, machine):
        r = small_runs[(kernel, machine)]
        assert r.cycles == pytest.approx(
            sum(v for _, v in r.breakdown.items())
        )

    def test_no_negative_categories(self, small_runs, kernel, machine):
        r = small_runs[(kernel, machine)]
        assert all(v >= 0 for _, v in r.breakdown.items())

    def test_functional_ok(self, small_runs, kernel, machine):
        assert small_runs[(kernel, machine)].functional_ok

    def test_output_present_and_finite(self, small_outputs, kernel, machine):
        output = small_outputs[(kernel, machine)]
        assert output is not None
        assert np.all(np.isfinite(np.asarray(output, dtype=np.complex128)))

    def test_output_digest_names_the_structure_output(
        self, small_runs, small_outputs, kernel, machine
    ):
        digest = small_runs[(kernel, machine)].output_digest
        assert digest is not None
        assert digest == content_digest(small_outputs[(kernel, machine)])

    def test_ops_census_positive(self, small_runs, kernel, machine):
        assert small_runs[(kernel, machine)].ops.total > 0

    def test_within_physical_peak(self, small_runs, kernel, machine):
        """No mapping may exceed its machine's arithmetic peak."""
        r = small_runs[(kernel, machine)]
        assert r.percent_of_peak <= 1.0 + 1e-9

    def test_spec_name_consistent(self, small_runs, kernel, machine):
        r = small_runs[(kernel, machine)]
        assert r.machine == machine
        assert r.spec.name == machine


class TestCrossMachineFunctionalAgreement:
    """All machines must compute the same answer for the same kernel."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_outputs_agree(self, small_outputs, kernel):
        outputs = [small_outputs[(kernel, m)] for m in MACHINES]
        reference = outputs[0]
        for machine, output in zip(MACHINES[1:], outputs[1:]):
            assert output.shape == reference.shape, machine
            assert np.allclose(
                np.asarray(output, dtype=np.complex128),
                np.asarray(reference, dtype=np.complex128),
                rtol=1e-4,
                atol=1e-6,
            ), f"{kernel} output differs on {machine}"


class TestDeterminism:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_same_seed_same_cycles(self, machine, small_cs):
        a = run("cslc", machine, workload=small_cs, seed=7)
        b = run("cslc", machine, workload=small_cs, seed=7, cache=False)
        assert a.cycles == b.cycles
        assert a.output_digest == b.output_digest
