"""The reference kernels do fixed work, and every workload has one."""

import calibrate
import workloads


def test_kernels_do_fixed_work():
    assert calibrate.loop_kernel() == 277303
    assert calibrate.sort_kernel() == 1999999


def test_every_workload_and_setup_has_a_reference():
    assert set(workloads.REFERENCE) == set(workloads.WORKLOADS)
    for kernels in [*workloads.REFERENCE.values(), workloads.SETUP_REFERENCE]:
        assert kernels and set(kernels) <= set(calibrate.KERNELS)
        assert calibrate.nominal_time(kernels) > 0
        assert calibrate.reference_time(kernels) > 0
