// Seeded call-tree programs with colored internal functions, plus a host
// evaluator of the value each one must return.
//
// f<i>(x) calls f<2i+1> and f<2i+2> (the children that exist). Every
// function with i % 5 != 0 is colored blue, red or green (the seed picks),
// leaves and internal functions alike, so enclave functions call functions
// in other enclaves and a worker waiting for a reply serves nested spawns.
// Per function:
//   acc = x;  [loop]   for j < k: { [g_C += acc] acc = acc * a + j }
//   [no loop, colored]  g_C += x
//   y = [branch] ? (acc <s b ? acc + d : acc ^ e) : acc ^ e
//   r = f<2i+1>(y); r = f<2i+2>(r)
//   return leaf ? y : (add ? y + r : y ^ r)
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace privagic::testing {

inline constexpr const char* kCallTreeColors[4] = {"U", "blue", "red", "green"};

struct CallTreeFn {
  int color = 0;  // index into kCallTreeColors
  bool loop = false, branch = false, add = false;
  std::int64_t k = 1, b = 0;
  std::uint64_t a = 3, d = 1, e = 1;
};

struct CallTree {
  std::string source;     // PIR module; the entry is f0(i64)
  std::int64_t arg = 0;
  std::int64_t expected = 0;
};

inline std::uint64_t call_tree_eval(const std::vector<CallTreeFn>& fns, std::size_t i,
                                    std::uint64_t x) {
  const CallTreeFn& f = fns[i];
  std::uint64_t acc = x;
  for (std::int64_t j = 0; f.loop && j < f.k; ++j) acc = acc * f.a + static_cast<std::uint64_t>(j);
  const std::uint64_t y =
      f.branch && static_cast<std::int64_t>(acc) < f.b ? acc + f.d : acc ^ f.e;
  std::uint64_t r = y;
  for (const std::size_t c : {2 * i + 1, 2 * i + 2}) {
    if (c < fns.size()) r = call_tree_eval(fns, c, r);
  }
  if (2 * i + 1 >= fns.size()) return y;
  return f.add ? y + r : y ^ r;
}

inline void emit_call_tree_fn(std::ostringstream& src, const std::vector<CallTreeFn>& fns,
                              std::size_t i) {
  const CallTreeFn& f = fns[i];
  const std::string c = kCallTreeColors[f.color];
  const auto update = [&](const char* v) {
    src << "  %cv = load ptr<i64 color(" << c << ")> @g_" << c << "\n  %cw = add i64 %cv, "
        << v << "\n  store i64 %cw, ptr<i64 color(" << c << ")> @g_" << c << '\n';
  };
  src << "define i64 @f" << i << "(i64 %x)" << (i == 0 ? " entry" : "") << " {\nentry:\n";
  const char* acc = "%x";
  if (f.loop) {
    src << "  br %head\nhead:\n  %j = phi i64 [ i64 0, %entry ], [ %j2, %body ]\n"
        << "  %acc = phi i64 [ %x, %entry ], [ %acc2, %body ]\n"
        << "  %more = icmp slt i64 %j, i64 " << f.k << "\n  cond_br i1 %more, %body, %exit\nbody:\n";
    if (f.color != 0) update("%acc");
    src << "  %t = mul i64 %acc, i64 " << f.a << "\n  %acc2 = add i64 %t, %j\n"
        << "  %j2 = add i64 %j, i64 1\n  br %head\nexit:\n";
    acc = "%acc";
  } else if (f.color != 0) {
    update("%x");
  }
  if (f.branch) {
    src << "  %c = icmp slt i64 " << acc << ", i64 " << f.b << "\n  cond_br i1 %c, %then, %else\n"
        << "then:\n  %y1 = add i64 " << acc << ", i64 " << f.d << "\n  br %join\n"
        << "else:\n  %y2 = xor i64 " << acc << ", i64 " << f.e << "\n  br %join\n"
        << "join:\n  %y = phi i64 [ %y1, %then ], [ %y2, %else ]\n";
  } else {
    src << "  %y = xor i64 " << acc << ", i64 " << f.e << '\n';
  }
  std::string r = "%y";
  for (const std::size_t child : {2 * i + 1, 2 * i + 2}) {
    if (child >= fns.size()) continue;
    const std::string next = "%r" + std::to_string(child);
    src << "  " << next << " = call i64 @f" << child << "(i64 " << r << ")\n";
    r = next;
  }
  if (r == "%y") {
    src << "  ret i64 %y\n}\n";
  } else {
    src << "  %z = " << (f.add ? "add" : "xor") << " i64 %y, " << r << "\n  ret i64 %z\n}\n";
  }
}

inline CallTree generate_call_tree(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull ^ n);
  std::vector<CallTreeFn> fns(n);
  for (std::size_t i = 0; i < n; ++i) {
    CallTreeFn& f = fns[i];
    f.color = i % 5 != 0 ? 1 + static_cast<int>(rng.next_below(3)) : 0;
    f.loop = i % 4 < 2;
    f.branch = i % 4 == 1 || i % 4 == 2;
    f.add = rng.next_below(2) == 1;
    f.k = 1 + static_cast<std::int64_t>(rng.next_below(4));
    f.a = 3 + 2 * rng.next_below(1u << 16);
    f.b = static_cast<std::int64_t>(rng.next() >> 1) - (std::int64_t{1} << 62);
    f.d = 1 + rng.next_below(1u << 20);
    f.e = 1 + rng.next_below(1u << 20);
  }
  CallTree t;
  t.arg = static_cast<std::int64_t>(rng.next_below(1u << 30));
  t.expected = static_cast<std::int64_t>(call_tree_eval(fns, 0, static_cast<std::uint64_t>(t.arg)));
  std::ostringstream src;
  src << "module \"call_tree_" << n << "_" << seed << "\"\n";
  for (int c = 1; c < 4; ++c) {
    src << "global i64 @g_" << kCallTreeColors[c] << " = 0 color(" << kCallTreeColors[c] << ")\n";
  }
  for (std::size_t i = n; i-- > 0;) emit_call_tree_fn(src, fns, i);
  t.source = src.str();
  return t;
}

}  // namespace privagic::testing
