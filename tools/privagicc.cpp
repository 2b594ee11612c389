// privagicc — the Privagic compiler driver.
//
//   privagicc [options] file.pir
//
//   --mode=hardened|relaxed   compilation mode (default hardened, §5)
//   --split-structs           run multi-color structure splitting first (§7.2)
//   --emit-input              print the parsed module and stop
//   --emit-partitioned        print the partitioned module
//   --chunks                  print the chunk inventory (name → color)
//   --colors                  print per-specialization color sets (§7.3.1)
//   --tcb                     print per-color instruction counts (Table 4)
//   --lint[=json]             run the static-analysis lint passes and print
//                             the merged report (text or JSON), then stop.
//                             Informational: exits 0 even when lints fire,
//                             and even when the type checker rejects the
//                             program (the report contains its E-codes).
//                             Output is sorted by (code, function,
//                             instruction) so CI can diff reports run-to-run.
//   --placement               print the computed color→enclave placement plan
//                             (DESIGN.md §15) for machines A and B: groups,
//                             predicted cross-enclave cost, and the slot
//                             table to feed Machine::set_placement.
//   --profile=FILE            blend observed per-color message counters (a
//                             BENCH_*.json with an embedded metrics object,
//                             or a bare metrics JSON) into the interaction
//                             graph used by --placement and the L310/L311
//                             lints.
//   --dump-bytecode[=fused|native]
//                             print the decoded register bytecode of every
//                             partitioned function and stop; =fused runs the
//                             superinstruction pass first and annotates each
//                             fused op with its pre-fusion origin indices;
//                             =native additionally template-JIT compiles each
//                             function and appends a disasm-lite provenance
//                             listing (emitted code offset + lowering kind —
//                             inline/helper/deopt — per fused op). On builds
//                             without the native tier (PRIVAGIC_JIT=0),
//                             =native prints the fused listing plus a note.
//   --run ENTRY [ARGS...]     execute an interface on the simulated machine
//   --engine=tree|fused|native
//                             the execution engine for --run (default fused):
//                             the tree-walking reference oracle, the fused
//                             bytecode loop, or fused plus JIT promotion.
//   --trace-out=FILE          capture a Chrome trace_event JSON of the --run
//                             execution (load in chrome://tracing / perfetto)
//
// Exit status: 0 on success, 1 on any diagnostic (the paper's compile-time
// rejection), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pass_manager.hpp"
#include "analysis/placement.hpp"
#include "interp/bytecode.hpp"
#include "interp/disasm.hpp"
#include "interp/jit.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_writer.hpp"
#include "ir/printer.hpp"
#include "partition/partitioner.hpp"
#include "partition/gather_shared.hpp"
#include "partition/split_structs.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: privagicc [--mode=hardened|relaxed] [--split-structs] [--gather-shared]\n"
               "                 [--emit-input] [--emit-partitioned] [--chunks]\n"
               "                 [--colors] [--tcb] [--lint[=json]] [--placement]\n"
               "                 [--profile=FILE] [--dump-bytecode[=fused|native]]\n"
               "                 [--run ENTRY [ARGS...]] [--engine=tree|fused|native]\n"
               "                 [--trace-out=FILE] file.pir\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace privagic;  // NOLINT(google-build-using-namespace)

  sectype::Mode mode = sectype::Mode::kHardened;
  bool split_structs = false;
  bool gather_shared = false;
  bool emit_input = false;
  bool emit_partitioned = false;
  bool show_chunks = false;
  bool show_colors = false;
  bool show_tcb = false;
  bool lint = false;
  bool lint_json = false;
  bool show_placement = false;
  std::string profile_file;
  bool dump_bytecode = false;
  bool dump_fused = false;
  bool dump_native = false;
  std::string run_entry;
  std::vector<std::int64_t> run_args;
  interp::ExecMode engine = interp::ExecMode::kFused;
  std::string trace_out;
  std::string file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode=hardened") {
      mode = sectype::Mode::kHardened;
    } else if (arg == "--mode=relaxed") {
      mode = sectype::Mode::kRelaxed;
    } else if (arg == "--split-structs") {
      split_structs = true;
    } else if (arg == "--gather-shared") {
      gather_shared = true;
    } else if (arg == "--emit-input") {
      emit_input = true;
    } else if (arg == "--emit-partitioned") {
      emit_partitioned = true;
    } else if (arg == "--chunks") {
      show_chunks = true;
    } else if (arg == "--colors") {
      show_colors = true;
    } else if (arg == "--tcb") {
      show_tcb = true;
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--lint=json") {
      lint = true;
      lint_json = true;
    } else if (arg == "--placement") {
      show_placement = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_file = arg.substr(std::strlen("--profile="));
      if (profile_file.empty()) return usage();
    } else if (arg == "--dump-bytecode") {
      dump_bytecode = true;
    } else if (arg == "--dump-bytecode=fused") {
      dump_bytecode = true;
      dump_fused = true;
    } else if (arg == "--dump-bytecode=native") {
      dump_bytecode = true;
      dump_fused = true;
      dump_native = true;
    } else if (arg == "--engine=tree") {
      engine = interp::ExecMode::kTreeWalk;
    } else if (arg == "--engine=fused") {
      engine = interp::ExecMode::kFused;
    } else if (arg == "--engine=native") {
      engine = interp::ExecMode::kNative;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
      if (trace_out.empty()) return usage();
    } else if (arg == "--run") {
      if (++i >= argc) return usage();
      run_entry = argv[i];
      // Numeric arguments only; the trailing non-numeric token is the file.
      while (i + 1 < argc &&
             (std::isdigit(static_cast<unsigned char>(argv[i + 1][0])) != 0 ||
              (argv[i + 1][0] == '-' &&
               std::isdigit(static_cast<unsigned char>(argv[i + 1][1])) != 0))) {
        run_args.push_back(std::strtoll(argv[++i], nullptr, 0));
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "privagicc: unknown option '%s'\n", arg.c_str());
      return usage();
    } else if (file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }
  if (file.empty()) return usage();

  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "privagicc: cannot open '%s'\n", file.c_str());
    return 2;
  }
  std::ostringstream source;
  source << in.rdbuf();

  std::string profile_json;
  if (!profile_file.empty()) {
    std::ifstream pf(profile_file);
    if (!pf) {
      std::fprintf(stderr, "privagicc: cannot open profile '%s'\n", profile_file.c_str());
      return 2;
    }
    std::ostringstream ps;
    ps << pf.rdbuf();
    profile_json = ps.str();
  }

  auto parsed = ir::parse_module(source.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", file.c_str(), parsed.message().c_str());
    return 1;
  }
  auto module = std::move(parsed).value();

  if (split_structs) {
    const std::size_t n = partition::split_multicolor_structs(*module);
    std::fprintf(stderr, "privagicc: split %zu colored fields\n", n);
  }
  if (gather_shared) {
    const std::size_t n = partition::gather_shared_globals(*module);
    std::fprintf(stderr, "privagicc: gathered %zu shared globals\n", n);
  }
  if (emit_input) {
    std::fputs(ir::print_module(*module).c_str(), stdout);
    return 0;
  }

  if (lint) {
    // The pass manager runs the type checker itself (and mem2reg with it),
    // so the lint path owns the module from here. Advisory by design: the
    // exit status stays 0 so CI can diff findings without gating on them.
    auto pm = analysis::PassManager::with_default_passes(mode, profile_json);
    // Re-sort the merged report so CI diffs are stable against pass
    // registration and traversal order (see sort_for_output).
    sectype::DiagnosticEngine diags;
    diags.merge(pm.run(*module));
    diags.sort_for_output();
    if (lint_json) {
      std::printf("%s\n", diags.to_json().c_str());
    } else {
      std::fputs(diags.to_string().c_str(), stdout);
      std::size_t errors = 0;
      std::size_t warnings = 0;
      std::size_t notes = 0;
      for (const auto& d : diags.diagnostics()) {
        switch (d.severity) {
          case sectype::Severity::kError: ++errors; break;
          case sectype::Severity::kWarning: ++warnings; break;
          case sectype::Severity::kNote: ++notes; break;
        }
      }
      std::printf("lint: %zu error%s, %zu warning%s, %zu note%s\n", errors,
                  errors == 1 ? "" : "s", warnings, warnings == 1 ? "" : "s", notes,
                  notes == 1 ? "" : "s");
    }
    return 0;
  }

  sectype::TypeAnalysis analysis(*module, mode);
  if (!analysis.run()) {
    std::fputs(analysis.diagnostics().to_string().c_str(), stderr);
    return 1;
  }
  if (show_placement) {
    auto graph = analysis::build_interaction_graph(analysis);
    if (!profile_json.empty()) {
      std::string err;
      if (!analysis::apply_profile(graph, profile_json, &err)) {
        std::fprintf(stderr, "privagicc: profile ignored: %s\n", err.c_str());
      }
    }
    // The slot table is indexed by the partitioner's color table,
    // [U, program colors...] — reconstruct the same order here.
    std::vector<sectype::Color> color_table;
    color_table.push_back(sectype::Color::untrusted());
    for (const auto& c : analysis.program_colors()) color_table.push_back(c);
    struct Target {
      const char* name;
      sgx::CostParams params;
    };
    const Target targets[] = {{"machine-A", sgx::CostParams::machine_a()},
                              {"machine-B", sgx::CostParams::machine_b()}};
    for (const Target& t : targets) {
      const analysis::PlacementPlan plan = analysis::search_placement(graph, t.params);
      std::printf("placement %-9s (%llu MiB EPC): %s\n", t.name,
                  static_cast<unsigned long long>(t.params.epc_bytes >> 20),
                  plan.to_string().c_str());
      std::printf("  predicted cross-enclave cost %.0f ns vs %.0f ns one-enclave-per-color"
                  " (%.1f%% less)\n",
                  plan.plan_cost_ns, plan.identity_cost_ns, plan.improvement_pct());
      std::printf("  slot table:");
      for (const std::size_t s : plan.slot_table(color_table)) {
        std::printf(" %zu", s);
      }
      std::printf("\n");
    }
    return 0;
  }
  if (show_colors) {
    for (const auto* facts : analysis.reachable_specs()) {
      std::printf("%-24s {", facts->sig().mangled().c_str());
      bool first = true;
      for (const auto& c : facts->color_set()) {
        std::printf("%s%s", first ? "" : ", ", c.to_string().c_str());
        first = false;
      }
      std::printf("}  ret=%s\n", facts->ret_color().to_string().c_str());
    }
  }

  auto result = partition::partition_module(analysis);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.message().c_str());
    return 1;
  }
  if (show_chunks) {
    for (const auto& chunk : result.value()->chunks) {
      std::printf("chunk %-28s color=%-8s%s\n", chunk.fn->name().c_str(),
                  chunk.color.to_string().c_str(),
                  chunk.trampoline != nullptr ? "  [trampoline]" : "");
    }
    for (const auto& [name, fn] : result.value()->interfaces) {
      (void)fn;
      std::printf("interface @%s\n", name.c_str());
    }
  }
  if (show_tcb) {
    for (const auto& [color, n] : result.value()->instructions_per_color) {
      std::printf("tcb %-8s %zu instructions\n", color.to_string().c_str(), n);
    }
  }
  if (emit_partitioned) {
    std::fputs(ir::print_module(*result.value()->module).c_str(), stdout);
  }
  if (dump_bytecode) {
    // A throwaway Machine decodes and fuses the program; its workers never
    // run a call, so construction cost is all there is. The plain listing
    // decodes once more without fusion, against the same address space.
    // =native uses a kNative machine so the listing compiles through the
    // same JitEngine that execution promotes through.
    interp::Machine machine(*result.value(), /*epc_limit_bytes=*/0,
                            dump_native ? interp::ExecMode::kNative
                                        : interp::ExecMode::kFused);
    if (!dump_fused) {
      const interp::bc::ProgramCode plain(machine, /*fuse=*/false);
      std::fputs(interp::bc::disassemble_program(plain).c_str(), stdout);
      return 0;
    }
    if (!dump_native) {
      std::fputs(interp::bc::disassemble_program(machine).c_str(), stdout);
      return 0;
    }
    if (!machine.jit_enabled()) {
      std::fputs(interp::bc::disassemble_program(machine).c_str(), stdout);
      std::fputs("; native tier unavailable (PRIVAGIC_JIT=0 on this build/host)\n",
                 stdout);
      return 0;
    }
    for (const auto& [fn, df] : machine.program_code()->functions()) {
      (void)fn;
      std::fputs(interp::bc::disassemble(*df).c_str(), stdout);
      const interp::bc::NativeCode* nc = machine.jit_compile(df.get());
      if (nc != nullptr) {
        std::fputs(interp::bc::disassemble_native(*df, *nc).c_str(), stdout);
      } else {
        std::fputs("; native compile refused (executable mapping failed)\n", stdout);
      }
      std::fputs("\n", stdout);
    }
    return 0;
  }

  if (!run_entry.empty() && !trace_out.empty()) {
    // Arm capture before the Machine spawns its workers so the spawn
    // handshake and region allocations land in the trace. An offline capture
    // favours fidelity over overhead, so verbose mode (sender-side cont/ack
    // events, spawn deliveries) is on.
    obs::MetricsRegistry::global().reset_all();
    obs::set_metrics_enabled(true);
    obs::set_trace_verbose(true);
    obs::Tracer::instance().clear();
    obs::Tracer::instance().enable();
  }
  if (!run_entry.empty()) {
    interp::Machine machine(*result.value(), /*epc_limit_bytes=*/0, engine);
    machine.set_external_log_enabled(true);
    // Identity classify/declassify so annotated programs run out of the box.
    for (const char* boundary : {"classify", "declassify"}) {
      machine.bind_external(boundary, [](interp::Machine::ExternalCtx&,
                                         std::span<const std::int64_t> a) {
        return a.empty() ? 0 : a[0];
      });
    }
    auto r = machine.call(run_entry, run_args);
    if (!r.ok()) {
      std::fprintf(stderr, "privagicc: execution failed: %s\n", r.message().c_str());
      return 1;
    }
    std::printf("%s(...) = %lld\n", run_entry.c_str(), static_cast<long long>(r.value()));
    for (const auto& line : machine.external_log()) {
      std::printf("  external: %s\n", line.c_str());
    }
  }
  if (!run_entry.empty() && !trace_out.empty()) {
    // The Machine destructor has joined the workers, so every per-thread
    // trace buffer is quiescent and the drain is race-free.
    obs::Tracer::instance().disable();
    obs::set_metrics_enabled(false);
    const auto drained = obs::Tracer::instance().drain();
    if (!obs::TraceWriter::write_chrome_json(trace_out, drained)) {
      std::fprintf(stderr, "privagicc: cannot write trace to '%s'\n", trace_out.c_str());
      return 2;
    }
    std::size_t n = 0;
    for (const auto& d : drained) n += d.events.size();
    std::fprintf(stderr, "privagicc: wrote %zu trace events to %s\n", n, trace_out.c_str());
  }
  return 0;
}
