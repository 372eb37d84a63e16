// Golden-vector corpus: exact reference outputs of the PHY chip/bit
// pipelines, the identification chain (acquisition, calibration), the
// fleet contention tallies and the tag link layer's session reports,
// recomputed from the live code and compared line-for-line against the
// fixtures committed under tests/golden/.  A mismatch means the on-air waveform drifted; if the
// change is intentional, regenerate with scripts/regen_golden.sh and
// review the fixture diff.
#pragma once

#include <string>
#include <vector>

namespace ms::golden {

/// One golden fixture: a filename under tests/golden/ and its exact
/// line-by-line contents.  Floats are serialized as C hexfloats ("%a")
/// so the comparison is bit-exact, not tolerance-based.
struct Vector {
  std::string filename;
  std::vector<std::string> lines;
};

/// Recompute every golden vector from the live code.
std::vector<Vector> build_all();

}  // namespace ms::golden
