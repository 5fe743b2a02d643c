"""Qualitative feature comparison of GPU CKKS libraries (Table VIII).

The table is qualitative: which libraries are open source, published,
feature-complete (bootstrapping), interoperable with OpenFHE, and how much
testing/benchmarking infrastructure they ship.  The entries below follow
the paper's Table VIII and the accompanying §V discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

YES = "✓"
NO = ""
WIP = "WIP"
LR = "LR"


@dataclass(frozen=True)
class LibraryFeatures:
    """Feature flags of one GPU CKKS library."""

    name: str
    reference: str
    open_source: str = NO
    published: str = NO
    bootstrapping: str = NO
    openfhe_interoperability: str = NO
    benchmarks: str = NO
    microbenchmarks: str = NO
    unit_tests: str = NO
    integration_tests: str = NO
    multi_gpu: str = NO

    def as_row(self) -> dict[str, str]:
        """Return the Table VIII row for this library."""
        return {
            "Library": self.name,
            "Open Source": self.open_source,
            "Published": self.published,
            "Bootstrapping": self.bootstrapping,
            "OpenFHE Inter.": self.openfhe_interoperability,
            "Benchmarks": self.benchmarks,
            "Microbench.": self.microbenchmarks,
            "Unit Tests": self.unit_tests,
            "Integration Tests": self.integration_tests,
            "Multi-GPU": self.multi_gpu,
        }


#: Table VIII of the paper (§V Related Work).
FEATURE_MATRIX: tuple[LibraryFeatures, ...] = (
    LibraryFeatures(
        name="HEaaN", reference="[17]",
        published=YES, bootstrapping=YES, benchmarks=YES, microbenchmarks=YES,
    ),
    LibraryFeatures(
        name="HEonGPU", reference="[18]",
        open_source=YES, microbenchmarks=YES, unit_tests=YES,
    ),
    LibraryFeatures(
        name="Over100x", reference="[19]",
        open_source=YES, published=YES, bootstrapping=YES, benchmarks=YES,
        microbenchmarks=YES,
    ),
    LibraryFeatures(
        name="Troy-Nova", reference="[20]",
        open_source=YES, microbenchmarks=YES, unit_tests=YES, multi_gpu=YES,
    ),
    LibraryFeatures(
        name="Phantom", reference="[15]",
        open_source=YES, published=YES, benchmarks=YES, microbenchmarks=YES,
    ),
    LibraryFeatures(
        name="Cheddar", reference="[16]",
        published=YES, bootstrapping=YES, microbenchmarks=YES,
    ),
    LibraryFeatures(
        name="Liberate-FHE", reference="[23]",
        open_source=YES, multi_gpu=YES,
    ),
    LibraryFeatures(
        name="TensorFHE", reference="[22]",
        published=YES, bootstrapping=YES, benchmarks=YES, microbenchmarks=YES,
    ),
    LibraryFeatures(
        name="FIDESlib", reference="(this work)",
        open_source=YES, published=YES, bootstrapping=YES,
        openfhe_interoperability=YES, benchmarks=LR, microbenchmarks=YES,
        unit_tests=YES, integration_tests=YES, multi_gpu=WIP,
    ),
)


def feature_table() -> list[dict[str, str]]:
    """Return Table VIII as a list of row dictionaries."""
    return [library.as_row() for library in FEATURE_MATRIX]


__all__ = ["LibraryFeatures", "FEATURE_MATRIX", "feature_table", "YES", "NO", "WIP", "LR"]
