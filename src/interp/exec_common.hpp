// Value helpers shared by the bytecode code paths — fused_loop (fused.cpp),
// the native tier's thunks (native.cpp) and the decoder. They must agree
// bit-for-bit on value semantics and byte-for-byte on error messages with the
// tree-walker (the equivalence tests diff them), so the definitions live in
// one place.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "interp/bytecode.hpp"
#include "support/rng.hpp"

namespace privagic::interp::bc {

// Same exception shape as the tree-walker's local InterpError: Machine::call
// and run_chunk catch std::exception, so only the message must match.
class InterpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline std::int64_t sign_extend(std::uint64_t raw, unsigned bits) {
  if (bits >= 64) return static_cast<std::int64_t>(raw);
  const std::uint64_t mask = (1ull << bits) - 1;
  raw &= mask;
  const std::uint64_t sign = 1ull << (bits - 1);
  if ((raw & sign) != 0) raw |= ~mask;
  return static_cast<std::int64_t>(raw);
}

inline double as_double(std::int64_t v) {
  double d;
  std::memcpy(&d, &v, sizeof(d));
  return d;
}

inline std::int64_t from_double(double d) {
  std::int64_t v;
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

inline std::uint64_t pointer_mac(std::uint64_t addr, std::uint64_t secret) {
  return (fmix64(addr ^ secret) >> 48) << 48;
}

/// Sign-wrap an integer result to `bits` (0 = the type needs no wrapping).
inline std::int64_t wrap(std::int64_t v, unsigned bits) {
  return bits != 0 ? sign_extend(static_cast<std::uint64_t>(v), bits) : v;
}

/// Parallel phi-move: all sources read before any destination is written
/// (phi cycles across an edge would otherwise observe half-applied moves).
inline void apply_phi_copies(const DecodedFunction* f, std::uint32_t first,
                             std::uint16_t count, std::int64_t* frame) {
  if (count == 0) return;
  const PhiCopy* copies = f->phi_pool.data() + first;
  std::int64_t tmp_buf[16];
  std::vector<std::int64_t> heap;
  std::int64_t* tmp = tmp_buf;
  if (count > 16) {
    heap.resize(count);
    tmp = heap.data();
  }
  for (std::uint16_t i = 0; i < count; ++i) tmp[i] = frame[copies[i].src];
  for (std::uint16_t i = 0; i < count; ++i) frame[copies[i].dst] = tmp[i];
}

/// One non-faulting integer binop / unary kind by opcode, exactly as the
/// base-op handlers compute it. `bits` is the op's own sub field: wrap width
/// for add/sub/mul/shl, source mask for lshr, source/dest bits for
/// zext/trunc, ignored by the pure bitwise ops and kCopy.
inline std::int64_t eval_bin(Op kind, std::int64_t x, std::int64_t y, unsigned bits) {
  switch (kind) {
    case Op::kAdd: return wrap(x + y, bits);
    case Op::kSub: return wrap(x - y, bits);
    case Op::kMul: return wrap(x * y, bits);
    case Op::kAnd: return x & y;
    case Op::kOr: return x | y;
    case Op::kXor: return x ^ y;
    case Op::kShl:
      return wrap(static_cast<std::int64_t>(static_cast<std::uint64_t>(x) << (y & 63)),
                  bits);
    case Op::kLShr: {
      std::uint64_t ux = static_cast<std::uint64_t>(x);
      if (bits != 0) ux &= (1ull << bits) - 1;
      return static_cast<std::int64_t>(ux >> (y & 63));
    }
    case Op::kCopy: return x;
    case Op::kZext:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) &
                                       ((1ull << bits) - 1));
    case Op::kTrunc: return sign_extend(static_cast<std::uint64_t>(x), bits);
    default: return x;  // fusion.cpp only emits the kinds above
  }
}

/// One comparison by predicate opcode (kEq..kSge).
inline bool eval_cmp(Op pred, std::int64_t x, std::int64_t y) {
  switch (pred) {
    case Op::kEq: return x == y;
    case Op::kNe: return x != y;
    case Op::kSlt: return x < y;
    case Op::kSle: return x <= y;
    case Op::kSgt: return x > y;
    case Op::kSge: return x >= y;
    default: return false;  // fusion.cpp only emits real predicates
  }
}

}  // namespace privagic::interp::bc
