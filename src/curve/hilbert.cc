#include "curve/hilbert.h"

#include <array>
#include <cassert>

namespace fielddb {

namespace {

// The 2-D curve as a four-state machine, read several bits at a time.
// A state is the transform the quadrant rotations above a level have
// applied to the coordinates: bit 0 swaps x and y, bit 1 complements
// both. One level reads one bit of each coordinate, emits the quadrant
// digit (3 * rx) ^ ry of the transformed bits and, in the lower
// quadrants (ry == 0), swaps — complementing too in quadrant 3 — as the
// classic quadrant-rotation loop does (curve_test keeps that loop as
// the oracle).
struct Level {
  uint32_t digit;
  uint32_t state;
};

constexpr Level EncodeLevel(uint32_t state, uint32_t bx, uint32_t by) {
  const uint32_t flip = state >> 1;
  const uint32_t rx = ((state & 1) != 0 ? by : bx) ^ flip;
  const uint32_t ry = ((state & 1) != 0 ? bx : by) ^ flip;
  return {(3 * rx) ^ ry, ry == 0 ? state ^ 1 ^ (rx << 1) : state};
}

// Levels per table step: 4 bits of each coordinate in, 8 key bits out.
constexpr int kStepBits = 4;
constexpr uint32_t kStepMask = (uint32_t{1} << kStepBits) - 1;

// kEncode[state << 8 | x bits << 4 | y bits] = key bits | next state << 8.
// kDecode[state << 8 | key bits] = x bits << 4 | y bits | next state << 8.
struct Tables {
  std::array<uint16_t, 4 << (2 * kStepBits)> encode{};
  std::array<uint16_t, 4 << (2 * kStepBits)> decode{};
};

constexpr Tables MakeTables() {
  Tables t;
  for (uint32_t state = 0; state < 4; ++state) {
    for (uint32_t xy = 0; xy < (1u << (2 * kStepBits)); ++xy) {
      uint32_t s = state;
      uint32_t key = 0;
      for (int b = kStepBits - 1; b >= 0; --b) {
        const Level level = EncodeLevel(s, (xy >> (kStepBits + b)) & 1,
                                        (xy >> b) & 1);
        key = key << 2 | level.digit;
        s = level.state;
      }
      t.encode[state << 8 | xy] = static_cast<uint16_t>(key | s << 8);
      t.decode[state << 8 | key] = static_cast<uint16_t>(xy | s << 8);
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// An order that is not a multiple of kStepBits is read as the next
// multiple, with zero bits on top. A zero level from a state that does
// not complement emits digit 0 and toggles the swap, so starting in the
// swap state for an odd pad reaches the order's top level unswapped.
int PaddedOrder(int order) { return (order + kStepBits - 1) & -kStepBits; }
uint32_t StartState(int order) {
  return static_cast<uint32_t>(PaddedOrder(order) - order) & 1;
}

}  // namespace

uint64_t HilbertEncode2D(int order, uint32_t x, uint32_t y) {
  assert(order >= 1 && order <= 31);
  // Bits at and above `order` are not part of the input.
  const uint32_t mask = (uint32_t{1} << order) - 1;
  x &= mask;
  y &= mask;
  uint32_t state = StartState(order);
  uint64_t d = 0;
  for (int shift = PaddedOrder(order) - kStepBits; shift >= 0;
       shift -= kStepBits) {
    const uint32_t e = kTables.encode[state << 8 |
                                      ((x >> shift) & kStepMask) << 4 |
                                      ((y >> shift) & kStepMask)];
    d = d << (2 * kStepBits) | (e & 0xff);
    state = e >> 8;
  }
  return d;
}

void HilbertDecode2D(int order, uint64_t index, uint32_t* x, uint32_t* y) {
  assert(order >= 1 && order <= 31);
  // Key bits at and above 2 * order are not part of the index.
  index &= (uint64_t{1} << (2 * order)) - 1;
  uint32_t state = StartState(order);
  uint32_t ox = 0;
  uint32_t oy = 0;
  for (int shift = PaddedOrder(order) - kStepBits; shift >= 0;
       shift -= kStepBits) {
    const uint32_t key =
        static_cast<uint32_t>(index >> (2 * shift)) & 0xff;
    const uint32_t e = kTables.decode[state << 8 | key];
    ox = ox << kStepBits | ((e >> kStepBits) & kStepMask);
    oy = oy << kStepBits | (e & kStepMask);
    state = e >> 8;
  }
  *x = ox;
  *y = oy;
}

uint64_t HilbertEncodeND(int order, const std::vector<uint32_t>& coords) {
  const int dims = static_cast<int>(coords.size());
  assert(dims >= 1 && order >= 1 && order * dims <= 63);
  // Skilling's algorithm: convert axes into the "transpose" Gray-code
  // representation in place, then collect bits.
  std::vector<uint32_t> x = coords;
  const uint32_t m = uint32_t{1} << (order - 1);

  // Inverse undo excess work.
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    for (int i = 0; i < dims; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert
      } else {
        const uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (int i = 1; i < dims; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[dims - 1] & q) t ^= q - 1;
  }
  for (int i = 0; i < dims; ++i) x[i] ^= t;

  // Interleave: bit b of axis i contributes to output bit
  // (b * dims + (dims - 1 - i)).
  uint64_t index = 0;
  for (int b = 0; b < order; ++b) {
    for (int i = 0; i < dims; ++i) {
      const uint64_t bit = (x[i] >> b) & 1;
      index |= bit << (b * dims + (dims - 1 - i));
    }
  }
  return index;
}

void HilbertDecodeND(int order, uint64_t index,
                     std::vector<uint32_t>* coords) {
  const int dims = static_cast<int>(coords->size());
  assert(dims >= 1 && order >= 1 && order * dims <= 63);
  std::vector<uint32_t>& x = *coords;
  for (int i = 0; i < dims; ++i) x[i] = 0;
  for (int b = 0; b < order; ++b) {
    for (int i = 0; i < dims; ++i) {
      const uint32_t bit =
          static_cast<uint32_t>(index >> (b * dims + (dims - 1 - i))) & 1;
      x[i] |= bit << b;
    }
  }

  const uint32_t n = uint32_t{2} << (order - 1);
  // Gray decode by halving.
  uint32_t t = x[dims - 1] >> 1;
  for (int i = dims - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != n; q <<= 1) {
    const uint32_t p = q - 1;
    for (int i = dims - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const uint32_t s = (x[0] ^ x[i]) & p;
        x[0] ^= s;
        x[i] ^= s;
      }
    }
  }
}

}  // namespace fielddb
