// Properties of the counter-based fork(point, trial) stream derivation
// that the parallel trial engine's determinism rests on.
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ms {
namespace {

constexpr std::size_t kWindow = 4096;  ///< draws inspected per stream

std::vector<std::uint64_t> draw(Rng rng, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng();
  return out;
}

TEST(RngFork, AdjacentStreamsShareNoOutputsInWindow) {
  // Neighbouring grid cells are the streams most at risk from a weak
  // derivation: (p, t), (p, t+1), (p+1, t), and the seed's own stream.
  const Rng master(1234);
  std::vector<std::vector<std::uint64_t>> streams;
  for (const auto& [p, t] : {std::pair<std::uint64_t, std::uint64_t>{0, 0},
                             {0, 1},
                             {1, 0},
                             {1, 1},
                             {2, 1},
                             {1, 2}})
    streams.push_back(draw(master.fork(p, t), kWindow));
  streams.push_back(draw(master, kWindow));

  std::unordered_set<std::uint64_t> seen;
  std::size_t total = 0;
  for (const auto& s : streams) {
    seen.insert(s.begin(), s.end());
    total += s.size();
  }
  // Any cross-stream (or in-stream) repeat of a 64-bit value within the
  // window would show up as a smaller set.  A single birthday-style
  // collision among ~28k uniform 64-bit draws has probability ~2^-35.
  EXPECT_EQ(seen.size(), total)
      << "fork(point, trial) streams overlap within " << kWindow << " draws";
}

TEST(RngFork, SwappedCoordinatesAreDistinctStreams) {
  // (point, trial) must not be interchangeable: fork(a, b) != fork(b, a).
  const Rng master(42);
  EXPECT_NE(draw(master.fork(3, 7), 64), draw(master.fork(7, 3), 64));
  EXPECT_NE(draw(master.fork(0, 1), 64), draw(master.fork(1, 0), 64));
}

TEST(RngFork, StreamUnaffectedBySiblingDraws) {
  // The defining counter-based property: a cell's stream depends only on
  // (seed, point, trial) — not on what any sibling stream did, nor on
  // fork order, nor on draws from the master itself.
  const Rng master(555);
  const auto reference = draw(master.fork(2, 3), kWindow);

  Rng noisy(555);
  (void)draw(noisy.fork(2, 2), 1000);  // sibling trial does work first
  (void)draw(noisy.fork(9, 9), 1000);  // unrelated cell too
  for (int i = 0; i < 100; ++i) (void)noisy();  // master itself draws
  EXPECT_EQ(draw(noisy.fork(2, 3), kWindow), reference);
}

TEST(RngFork, KeyedOnMasterSeed) {
  EXPECT_NE(draw(Rng(1).fork(0, 0), 64), draw(Rng(2).fork(0, 0), 64));
}

TEST(RngFork, DoesNotAdvanceParentState) {
  Rng a(777);
  Rng b(777);
  (void)a.fork(5, 6);
  (void)a.fork(7, 8);
  EXPECT_EQ(draw(a, 16), draw(b, 16));
}

}  // namespace
}  // namespace ms
