// A tour of the brick data layout (paper §3.1, §3.3.4, Fig. 6): Brick,
// BrickMap and BrickInfo on the paper's own example — a 16×16 array in
// 4×4 bricks — including a shuffled physical placement to show that all
// access goes through the BrickMap indirection.
//
//   $ ./brick_layout_tour
#include <cstdio>

#include "brick/bricked_tensor.hpp"

using namespace brickdl;

int main() {
  // The paper's Fig. 6: a 16x16 2D array decomposed into 4x4 bricks.
  // (One batch sample, one channel, so the brick structure is purely 2D.)
  Tensor array(Shape{1, 1, 16, 16});
  for (i64 i = 0; i < 16; ++i) {
    for (i64 j = 0; j < 16; ++j) {
      array.at(Dims{0, 0, i, j}) = static_cast<float>(i * 16 + j);
    }
  }

  // Physical placement is a permutation of the logical grid — the BrickMap
  // is the layer of indirection of Fig. 6(b).
  Rng rng(42);
  const BrickGrid grid(Dims{1, 16, 16}, Dims{1, 4, 4});
  BrickedTensor bricked = BrickedTensor::from_canonical(
      array, Dims{1, 4, 4}, BrickMap::shuffled(grid.grid, rng));

  std::printf("16x16 array in 4x4 bricks -> grid %s, %lld bricks\n",
              bricked.grid().grid.str().c_str(),
              static_cast<long long>(bricked.num_bricks()));

  std::printf("\nBrickMap (logical grid position -> physical slot):\n");
  for (i64 gi = 0; gi < 4; ++gi) {
    std::printf("  ");
    for (i64 gj = 0; gj < 4; ++gj) {
      std::printf("%3lld",
                  static_cast<long long>(
                      bricked.map().physical_at(Dims{0, gi, gj})));
    }
    std::printf("\n");
  }

  // Brick at logical (1,1) — the paper's example brick.
  const i64 physical = bricked.map().physical_at(Dims{0, 1, 1});
  Brick brick = bricked.brick(physical);
  std::printf("\nBrick at logical (1,1) lives in physical slot %lld:\n",
              static_cast<long long>(physical));
  for (i64 i = 0; i < 4; ++i) {
    std::printf("  ");
    for (i64 j = 0; j < 4; ++j) {
      std::printf("%5.0f", brick(0, Dims{0, i, j}));
    }
    std::printf("\n");
  }

  // BrickInfo: the adjacency list of Fig. 6(c) — physical indices of the
  // logical neighbors, one lookup per direction.
  const BrickInfo info = bricked.info();
  std::printf("\nBrickInfo adjacency of that brick (di, dj -> physical):\n");
  for (i64 di = -1; di <= 1; ++di) {
    for (i64 dj = -1; dj <= 1; ++dj) {
      if (di == 0 && dj == 0) continue;
      const i64 n = info.neighbor(physical, Dims{0, di, dj});
      std::printf("  (%+lld,%+lld) -> %3lld\n", static_cast<long long>(di),
                  static_cast<long long>(dj), static_cast<long long>(n));
    }
  }

  // Halo gather: a 6x6 window centered on the brick pulls data from the
  // brick and its neighbors through the adjacency indirection.
  std::vector<float> window(36);
  bricked.read_window(Dims{0, 3, 3}, Dims{1, 6, 6}, window);
  std::printf("\n6x6 halo window at (3,3) (spans 4 bricks):\n");
  for (i64 i = 0; i < 6; ++i) {
    std::printf("  ");
    for (i64 j = 0; j < 6; ++j) std::printf("%5.0f", window[i * 6 + j]);
    std::printf("\n");
  }

  // Round-trip sanity.
  const Tensor back = bricked.to_canonical();
  std::printf("\nRound-trip max error: %.1f\n", max_abs_diff(array, back));
  return 0;
}
