"""The package namespace exports exactly what it names."""

import tfnet


def test_all_names_resolve_and_pruned_names_are_gone():
    assert [name for name in tfnet.__all__ if not hasattr(tfnet, name)] == []
    assert len(set(tfnet.__all__)) == len(tfnet.__all__)
    pruned = {"reference_tft", "window_signal", "export_representations",
              "write_representations_csv", "separability_ratio",
              "overall_frequency_response", "_layer_kernels", "KernelGrid", "tfconv",
              "build_backbone", "BandReport", "BandPeak"}
    assert not pruned & (set(tfnet.__all__) | set(dir(tfnet)) | set(dir(tfnet.interpret)))
