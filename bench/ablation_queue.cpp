// Ablation: communication channel (§9.3.2).
//
// "The worse throughput of Intel-sdk-1 comes from a higher cost of crossing
// the enclave boundary: Privagic relies on a lock-free queue ... while
// Intel-sdk-1 implements a switchless call with a lock."
//
// Part 1 — real microbenchmark (google-benchmark, wall-clock time): the
// runtime's lock-free Mailbox (the multi-producer ring the interpreter's
// workers talk through, with its (kind, tag) matching) vs the lock-based
// channel, same traffic.
// Part 2 — model-level ablation: re-run the Figure 9 hashmap point with
// Privagic's crossing cost swapped to the lock-based channel, showing how
// much of Privagic's edge comes from the queue alone.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <thread>

#include "ds/harness.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/switchless.hpp"

namespace {

using namespace privagic;  // NOLINT(google-build-using-namespace)

void BM_LockChannelSingleThread(benchmark::State& state) {
  runtime::LockChannel<std::uint64_t> q;
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.push(v);
    benchmark::DoNotOptimize(*q.pop());
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockChannelSingleThread);

void BM_MailboxSingleThread(benchmark::State& state) {
  runtime::Mailbox box;
  std::int64_t v = 0;
  for (auto _ : state) {
    box.push(runtime::Message::cont(0, v));
    benchmark::DoNotOptimize(box.next(runtime::MsgKind::kCont, 0).payload);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxSingleThread);

void BM_LockChannelPingPong(benchmark::State& state) {
  runtime::LockChannel<std::uint64_t> request;
  runtime::LockChannel<std::uint64_t> response;
  std::thread echo([&] {
    // Sticky stop instead of a magic-value sentinel: if the measuring thread
    // dies (or simply finishes), stop() unblocks this pop — the old
    // wait-for-nonempty pop() hung forever here.
    while (auto v = request.pop()) response.push(*v + 1);
  });
  std::uint64_t v = 0;
  for (auto _ : state) {
    request.push(v);
    benchmark::DoNotOptimize(*response.pop());
    ++v;
  }
  request.stop();
  echo.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockChannelPingPong);

void BM_MailboxPingPong(benchmark::State& state) {
  runtime::Mailbox request;
  runtime::Mailbox response;
  std::thread echo([&] {
    while (true) {
      const runtime::Message m = request.next(runtime::MsgKind::kCont, 0);
      if (m.kind == runtime::MsgKind::kStop) return;
      response.push(runtime::Message::cont(0, m.payload + 1));
    }
  });
  std::int64_t v = 0;
  for (auto _ : state) {
    request.push(runtime::Message::cont(0, v));
    benchmark::DoNotOptimize(response.next(runtime::MsgKind::kCont, 0).payload);
    ++v;
  }
  request.push(runtime::Message::stop());  // sticky: unblocks the echo thread
  echo.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxPingPong);

void model_level_ablation() {
  using namespace privagic::ds;  // NOLINT(google-build-using-namespace)
  std::printf("\n== model-level ablation: Privagic-1 hashmap with each channel ==\n");
  for (const char* which : {"lock-free queue", "lock-based switchless"}) {
    sgx::CostParams params = sgx::CostParams::machine_a();
    if (std::string_view(which) == "lock-based switchless") {
      params.lockfree_msg_ns = params.switchless_msg_ns;  // swap the channel
    }
    ycsb::WorkloadConfig cfg = ycsb::WorkloadConfig::a();
    cfg.record_count = 100'000;
    MapHarness harness(MapKind::kHash, Protection::kPrivagic1, sgx::CostModel(params), cfg);
    harness.preload(cfg.record_count);
    harness.run(20'000);
    std::printf("  %-22s: %.2f us/op\n", which, harness.mean_latency_us());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  model_level_ablation();
  return 0;
}
