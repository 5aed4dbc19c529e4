#ifndef SKALLA_COMMON_WRAPPING_INT_H_
#define SKALLA_COMMON_WRAPPING_INT_H_

#include <cstdint>

namespace skalla {

// int64 arithmetic that wraps modulo 2^64 where plain signed arithmetic
// would overflow (undefined behaviour): routing it through uint64_t gives
// the two's-complement result with defined semantics. Every int64 SUM/VAR
// fold and every int64 add/sub/mul/neg/mod of the expression evaluator —
// scalar and batch alike — goes through these, so both paths agree bit for
// bit.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(uint64_t(a) + uint64_t(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(uint64_t(a) - uint64_t(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(uint64_t(a) * uint64_t(b));
}
inline int64_t WrapNeg(int64_t a) { return WrapSub(0, a); }
/// a % b for b != 0; INT64_MIN % -1 overflows (and traps on x86), but its
/// value is 0, as for every other dividend.
inline int64_t WrapMod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }

}  // namespace skalla

#endif  // SKALLA_COMMON_WRAPPING_INT_H_
