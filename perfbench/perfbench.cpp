// End-to-end benchmark of the jtam simulator.
//
//   perfbench --workload paper|ensemble|ensemble_par [--seed N]
//             [--seconds S] [--trace 0|1] [--spans PATH]
//
// Runs one workload's fixed set of simulations, checks every result (see
// checks.h), and prints as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// Untraced (--trace 0), a run has three phases:
//  1. Set-up: every simulation of the set once with a zero budget, so it
//     stops before its first simulated instruction (at most one).  This is
//     compile, machine or ensemble construction and boot as a fresh process
//     pays it; setup_s is the wall time from entry to main to its end.
//  2. Timed passes over the whole set until S seconds have gone (at least
//     kMinPasses).  Each simulation keeps its fastest wall and CPU time
//     across passes; wall_s and cpu_s are those minima summed over the set,
//     which a VM that slows down for seconds at a time disturbs far less
//     than a mean.  peak_rss_mb is read after this phase.
//  3. Checks that need extra simulations: on `paper` a SetAssocCache replay
//     of each recorded reference stream, on `ensemble_par` a serial-engine
//     rerun of each ensemble.  They are not timed.
//
// Traced (--trace 1), each pass instead makes the calls that split a
// simulation into layers, with a span around every call (spans.h); the
// per-layer metrics are computed from the spans and counters, which are
// written to --spans.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_bank.h"
#include "cache/stack_sim.h"
#include "checks.h"
#include "driver/experiment.h"
#include "driver/trace_buffer.h"
#include "mdp/machine.h"
#include "mdp/multi.h"
#include "metrics/granularity.h"
#include "obs/host.h"
#include "programs/registry.h"
#include "runtime/layout.h"
#include "spans.h"
#include "support/error.h"
#include "tamc/lower.h"

namespace {

using namespace jtam;
using perfbench::SpanLog;

constexpr int kMinPasses = 2;
constexpr std::uint32_t kDefaultSeed = 0x1234abcd;

// --- host clocks and counters ----------------------------------------------

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

std::uint64_t minor_faults() {
  return static_cast<std::uint64_t>(self_usage().ru_minflt);
}

// --- the workloads -----------------------------------------------------------

/// One simulation of a workload's fixed set.  MD and AM of the same inputs
/// sit next to each other (MD at even indices) so their halt values can be
/// compared.
struct Sim {
  std::string label;
  programs::Workload w;
  driver::RunOptions opts;
  bool multi = false;
  driver::MultiOptions mopts;
};

void add_pair(std::vector<Sim>& sims, const programs::Workload& w,
              const std::string& suffix, driver::RunOptions opts,
              const driver::MultiOptions* mopts) {
  for (rt::BackendKind b : {rt::BackendKind::MessageDriven,
                            rt::BackendKind::ActiveMessages}) {
    Sim s;
    s.label = w.name + "/" + rt::backend_name(b) + suffix;
    s.w = w;
    s.opts = opts;
    s.opts.backend = b;
    if (mopts != nullptr) {
      s.multi = true;
      s.mopts = *mopts;
    }
    sims.push_back(std::move(s));
  }
}

unsigned par_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

std::vector<Sim> make_sims(const std::string& workload, std::uint32_t seed) {
  std::vector<Sim> sims;
  if (workload == "paper") {
    // The uniprocessor cache study at the default scale, serially: one
    // simulation feeds the 24-configuration 64-B ladder.
    const programs::Scale sc;
    driver::RunOptions opts;
    opts.cache_workers = 1;
    for (const programs::Workload& w :
         {programs::make_mmt(sc.mmt_n),
          programs::make_quicksort(sc.qs_n, seed),
          programs::make_dtw(sc.dtw_n),
          programs::make_paraffins(sc.paraffins_n),
          programs::make_wavefront(sc.wavefront_n, sc.wavefront_steps),
          programs::make_selection_sort(sc.ss_n)}) {
      add_pair(sims, w, "", opts, nullptr);
    }
    return sims;
  }
  // Ensembles at the mid scale bench_multinode uses.
  const programs::Scale sc{16, 80, 12, 11, 16, 3, 60};
  const std::vector<programs::Workload> progs = {
      programs::make_mmt(sc.mmt_n), programs::make_quicksort(sc.qs_n, seed)};
  driver::RunOptions opts;
  driver::MultiOptions mo;
  if (workload == "ensemble") {
    mo.num_nodes = 64;
    mo.threads = 0;
    for (const programs::Workload& w : progs) {
      for (net::NetKind k : {net::NetKind::Ideal, net::NetKind::Mesh}) {
        mo.net = k;
        add_pair(sims, w, std::string("/") + net::net_kind_name(k), opts,
                 &mo);
      }
    }
    return sims;
  }
  if (workload == "ensemble_par") {
    mo.num_nodes = 512;
    mo.net = net::NetKind::Ideal;
    mo.threads = par_threads();
    for (const programs::Workload& w : progs) {
      add_pair(sims, w, "/ideal", opts, &mo);
    }
    return sims;
  }
  throw Error("unknown workload '" + workload +
              "' (expected paper, ensemble or ensemble_par)");
}

// --- running and checking one simulation -------------------------------------

struct Outcome {
  std::string error;  // empty: halted and passed its checks
  std::uint32_t halt = 0;
  std::uint64_t instructions = 0;
  driver::RunResult run;          // uniprocessor simulations
  driver::MultiRunResult multi;   // ensembles
};

/// Runs `s` through the driver's public entry point; a simulator fault
/// becomes the outcome's error.  `setup_only` gives the run a zero budget,
/// so it stops at its first simulated instruction (an ensemble executes
/// none) and costs what the driver does before the simulation proper.
Outcome simulate(const Sim& s, const driver::MultiOptions& mopts,
                 bool setup_only = false) {
  Outcome o;
  driver::RunOptions opts = s.opts;
  if (setup_only) opts.max_instructions = 0;
  try {
    if (s.multi) {
      o.multi = driver::run_workload_multi(s.w, opts, mopts);
      o.halt = o.multi.halt_value;
      o.instructions = o.multi.total_instructions;
    } else {
      o.run = driver::run_workload(s.w, opts);
      o.halt = o.run.halt_value;
      o.instructions = o.run.instructions;
    }
  } catch (const std::exception& e) {
    o.error = std::string("simulator fault: ") + e.what();
  }
  return o;
}

void check_outcome(const Sim& s, Outcome& o) {
  if (!o.error.empty()) return;
  o.error = s.multi ? perfbench::check_multi(
                          o.multi, perfbench::mesh_diameter(s.mopts.num_nodes))
                    : perfbench::check_run(o.run);
}

/// Tally of attempted and failed simulations; keeps the first few errors.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const std::string& label, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(label + ": " + error);
  }
};

/// Checks one whole pass: per-simulation checks, then MD against AM, and
/// counts every simulation once.
void tally_pass(const std::vector<Sim>& sims, std::vector<Outcome>& outs,
                Tally& tally) {
  for (std::size_t i = 0; i < sims.size(); ++i) check_outcome(sims[i], outs[i]);
  for (std::size_t i = 0; i + 1 < sims.size(); i += 2) {
    if (outs[i].error.empty() && outs[i + 1].error.empty()) {
      outs[i + 1].error =
          perfbench::check_halt_pair(outs[i].halt, outs[i + 1].halt);
    }
  }
  for (std::size_t i = 0; i < sims.size(); ++i) {
    tally.add(sims[i].label, outs[i].error);
  }
}

/// Phase 3: the checks that need simulations of their own.
void extra_checks(const std::string& workload, const std::vector<Sim>& sims,
                  const std::vector<Outcome>& last, Tally& tally) {
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const Sim& s = sims[i];
    std::string err;
    if (workload == "paper") {
      try {
        mdp::RunStatus st{};
        const perfbench::RecordedTrace tr =
            perfbench::record_trace(s.w, s.opts, &st);
        if (st != mdp::RunStatus::Halted) {
          err = std::string("recording run did not halt: ") +
                mdp::run_status_name(st);
        } else if (last[i].error.empty()) {
          err = perfbench::check_replay(
              last[i].run, tr, perfbench::replay_configs(s.opts.block_bytes));
        }
      } catch (const std::exception& e) {
        err = std::string("simulator fault: ") + e.what();
      }
      tally.add(s.label + " [SetAssocCache replay]", err);
    } else if (workload == "ensemble_par") {
      driver::MultiOptions serial_mo = s.mopts;
      serial_mo.threads = 0;
      Outcome serial = simulate(s, serial_mo);
      err = serial.error;
      if (err.empty() && last[i].error.empty()) {
        if (!last[i].multi.parallel.engaged) {
          err = "the windowed engine fell back to the serial loop";
        } else {
          err = perfbench::check_same_as_serial(last[i].multi, serial.multi);
        }
      }
      tally.add(s.label + " [serial engine]", err);
    }
  }
}

// --- result line -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& e : tally.errors) std::cerr << "FAILED " << e << "\n";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- untraced mode -------------------------------------------------------------

int run_untraced(const std::string& workload, const std::vector<Sim>& sims,
                 double seconds, std::uint64_t t_main) {
  // Phase 1: cold set-up of every simulation.
  for (const Sim& s : sims) {
    const Outcome o = simulate(s, s.mopts, /*setup_only=*/true);
    if (!o.error.empty()) {
      std::cerr << "perfbench: " << s.label << " set-up: " << o.error << "\n";
      return 1;
    }
  }
  const double setup_s = static_cast<double>(wall_ns() - t_main) * 1e-9;

  // Phase 2: timed passes.
  const std::size_t n = sims.size();
  std::vector<std::uint64_t> best_wall(n, ~0ULL), best_cpu(n, ~0ULL);
  std::vector<Outcome> last(n);
  std::uint64_t pass_instructions = 0;
  Tally tally;
  const std::uint64_t t0 = wall_ns();
  int passes = 0;
  while (passes < kMinPasses ||
         static_cast<double>(wall_ns() - t0) * 1e-9 < seconds) {
    pass_instructions = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w0 = wall_ns();
      const std::uint64_t c0 = cpu_ns();
      last[i] = simulate(sims[i], sims[i].mopts);
      const std::uint64_t c1 = cpu_ns();
      const std::uint64_t w1 = wall_ns();
      best_wall[i] = std::min(best_wall[i], w1 - w0);
      best_cpu[i] = std::min(best_cpu[i], c1 - c0);
      pass_instructions += last[i].instructions;
    }
    tally_pass(sims, last, tally);
    ++passes;
  }
  const double peak_rss_mb =
      static_cast<double>(self_usage().ru_maxrss) / 1024.0;

  double wall_s = 0, cpu_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    wall_s += static_cast<double>(best_wall[i]) * 1e-9;
    cpu_s += static_cast<double>(best_cpu[i]) * 1e-9;
    std::cerr << "  " << sims[i].label << ": best "
              << static_cast<double>(best_wall[i]) * 1e-6 << " ms wall, "
              << static_cast<double>(best_cpu[i]) * 1e-6 << " ms cpu, "
              << last[i].instructions << " instructions\n";
  }
  std::cerr << workload << ": " << passes << " passes, setup " << setup_s
            << " s\n";

  // Phase 3: checks with simulations of their own.
  extra_checks(workload, sims, last, tally);

  print_result(tally,
               {{"wall_s", wall_s, "s"},
                {"sim_mips",
                 static_cast<double>(pass_instructions) / wall_s * 1e-6,
                 "MIPS"},
                {"setup_s", setup_s, "s"},
                {"cpu_s", cpu_s, "s"},
                {"peak_rss_mb", peak_rss_mb, "MB"}});
  return 0;
}

// --- traced mode -----------------------------------------------------------------

tamc::CompileOptions compile_options(const Sim& s) {
  tamc::CompileOptions c;
  c.backend = s.opts.backend;
  c.am_enabled_variant = s.opts.am_enabled_variant;
  c.md = s.opts.md;
  if (s.multi) {
    c.multi_node = true;
    c.node_shift = mem::node_shift_for_nodes(s.mopts.num_nodes);
  }
  return c;
}

/// driver::prepare_run under a span.
driver::PreparedRun traced_prepare(SpanLog& log, const Sim& s, int i) {
  auto sp = log.span("driver.prepare_run", i);
  return driver::prepare_run(s.w, s.opts);
}

/// Prepares `s` and runs the machine with `drain` behind a TraceBuffer
/// (none when null), the run under a span named `name`; returns the
/// instructions it executed.
std::uint64_t traced_machine_run(SpanLog& log, const Sim& s, int i,
                                 const char* name, mdp::TraceDrain* drain) {
  driver::PreparedRun prep = traced_prepare(log, s, i);
  mdp::Machine& m = *prep.machine;
  std::unique_ptr<mdp::TraceBuffer> buf;
  if (drain != nullptr) {
    buf = std::make_unique<mdp::TraceBuffer>(drain);
    m.set_trace_buffer(buf.get());
  }
  {
    auto sp = log.span(name, i);
    m.run();
    if (buf) buf->flush();
  }
  m.set_trace_buffer(nullptr);
  return m.instructions_executed();
}

/// One traced pass over a uniprocessor simulation: the end-to-end call,
/// then each layer on its own.
Outcome trace_uniprocessor(SpanLog& log, const Sim& s, int i) {
  const tamc::CompileOptions copts = compile_options(s);
  tamc::CompiledProgram cp;
  {
    auto sp = log.span("tamc.compile", i);
    cp = tamc::compile(s.w.program, copts);
  }
  {
    mdp::Machine::Config mc;
    mc.queue_bytes = s.opts.queue_bytes;
    mc.max_instructions = s.opts.max_instructions;
    const std::uint64_t f0 = minor_faults();
    std::unique_ptr<mdp::Machine> m;
    {
      auto sp = log.span("mdp.Machine", i);
      m = std::make_unique<mdp::Machine>(cp.image, mc);
      log.count("mdp.machine_minflt", i,
                static_cast<double>(minor_faults() - f0));
    }
  }
  Outcome o;
  {
    auto sp = log.span("driver.run_workload", i);
    o = simulate(s, s.mopts);
  }
  log.count("mdp.instructions", i,
            static_cast<double>(
                traced_machine_run(log, s, i, "mdp.Machine::run", nullptr)));
  driver::TracePipeline empty;
  traced_machine_run(log, s, i, "mdp.Machine::run+trace", &empty);
  {
    metrics::StatsSink sink(s.opts.backend, nullptr);
    driver::StatsReplay replay(&sink);
    driver::TracePipeline pipe;
    pipe.add(&replay, "stats");
    traced_machine_run(log, s, i, "mdp.Machine::run+stats", &pipe);
  }
  perfbench::RecordingDrain rec;
  traced_machine_run(log, s, i, "mdp.Machine::run+record", &rec);
  log.count("driver.trace_events", i,
            static_cast<double>(rec.trace.events()));
  {
    cache::StackSimBank bank(cache::paper_ladder(s.opts.block_bytes), 1);
    const perfbench::RecordedTrace& tr = rec.trace;
    auto sp = log.span("cache.StackSimBank", i);
    std::size_t f0 = 0, d0 = 0;
    for (const auto& [f1, d1] : tr.block_ends) {
      for (std::size_t t = 0; t < bank.num_tasks(); ++t) {
        bank.run_task(t, tr.fetch.data() + f0, f1 - f0, tr.data.data() + d0,
                      d1 - d0);
      }
      f0 = f1;
      d0 = d1;
    }
  }
  return o;
}

/// One traced pass over an ensemble simulation.
Outcome trace_ensemble(SpanLog& log, const Sim& s, int i) {
  const tamc::CompileOptions copts = compile_options(s);
  tamc::CompiledProgram cp;
  {
    auto sp = log.span("tamc.compile", i);
    cp = tamc::compile(s.w.program, copts);
  }
  {
    mdp::MultiMachine::Config mc;
    mc.num_nodes = s.mopts.num_nodes;
    mc.net = s.mopts.net;
    mc.latency = s.mopts.latency;
    mc.queue_bytes = s.opts.queue_bytes;
    mc.max_rounds = s.opts.max_instructions;
    mc.node_shift = copts.node_shift;
    mc.threads = s.mopts.threads;
    const std::uint64_t f0 = minor_faults();
    std::unique_ptr<mdp::MultiMachine> mm;
    {
      auto sp = log.span("mdp.MultiMachine", i);
      mm = std::make_unique<mdp::MultiMachine>(cp.image, mc);
      log.count("mdp.machine_minflt", i,
                static_cast<double>(minor_faults() - f0));
    }
  }
  {
    auto sp = log.span("driver.run_workload_multi[setup]", i);
    simulate(s, s.mopts, /*setup_only=*/true);
  }
  Outcome o;
  {
    auto sp = log.span("driver.run_workload_multi", i);
    o = simulate(s, s.mopts);
  }
  const driver::MultiRunResult& r = o.multi;
  log.count("mdp.instructions", i, static_cast<double>(r.total_instructions));
  log.count("mdp.node_rounds", i,
            static_cast<double>(r.rounds) * static_cast<double>(r.num_nodes));
  log.count("net.messages", i, static_cast<double>(r.messages));
  log.count("net.flits", i, static_cast<double>(r.net_stats.flits));
  log.count("mdp.par_windows", i, static_cast<double>(r.parallel.windows));
  log.count("mdp.par_barriers", i, static_cast<double>(r.parallel.barriers));
  if (s.mopts.threads > 0) {
    driver::MultiOptions hp = s.mopts;
    hp.host_profile = true;
    Outcome h;
    {
      auto sp = log.span("driver.run_workload_multi[host_profile]", i);
      h = simulate(s, hp);
    }
    if (h.multi.host) {
      const obs::HostReport& rep = *h.multi.host;
      using P = mdp::EngineProfiler::Phase;
      log.count("host.barrier_wait_ns", i,
                static_cast<double>(
                    rep.phase_ns[static_cast<int>(P::BarrierWait)]));
      log.count("host.node_phase_ns", i,
                static_cast<double>(
                    rep.phase_ns[static_cast<int>(P::NodePhase)]));
      log.count("host.imbalance", i, rep.imbalance());
    }
  }
  return o;
}

/// Reads per-simulation figures back out of the span log.
class SpanStats {
 public:
  SpanStats(const SpanLog& log, std::size_t sims) : n_(sims) {
    for (const SpanLog::Span& s : log.spans()) {
      if (s.sim < 0) continue;
      auto& v = spans_[s.name];
      v.resize(n_);
      v[static_cast<std::size_t>(s.sim)].push_back(s.ns());
    }
    for (const SpanLog::Counter& c : log.counters()) {
      if (c.sim < 0) continue;
      auto& v = counters_[c.name];
      v.resize(n_);
      v[static_cast<std::size_t>(c.sim)].push_back(c.value);
    }
  }

  /// Fastest span of `name` for simulation i, in seconds (0 if none).
  double min_s(const std::string& name, std::size_t i) const {
    const auto it = spans_.find(name);
    if (it == spans_.end() || it->second[i].empty()) return 0;
    return static_cast<double>(*std::min_element(it->second[i].begin(),
                                                 it->second[i].end())) *
           1e-9;
  }
  /// First (cold) span of `name` for simulation i, in seconds.
  double first_s(const std::string& name, std::size_t i) const {
    const auto it = spans_.find(name);
    if (it == spans_.end() || it->second[i].empty()) return 0;
    return static_cast<double>(it->second[i].front()) * 1e-9;
  }
  double sum_min_s(const std::string& name) const {
    double t = 0;
    for (std::size_t i = 0; i < n_; ++i) t += min_s(name, i);
    return t;
  }
  double sum_first_s(const std::string& name) const {
    double t = 0;
    for (std::size_t i = 0; i < n_; ++i) t += first_s(name, i);
    return t;
  }
  /// Counter `name` for simulation i: its first or its last value.
  double counter(const std::string& name, std::size_t i,
                 bool first = false) const {
    const auto it = counters_.find(name);
    if (it == counters_.end() || it->second[i].empty()) return 0;
    return first ? it->second[i].front() : it->second[i].back();
  }
  double sum_counter(const std::string& name, bool first = false) const {
    double t = 0;
    for (std::size_t i = 0; i < n_; ++i) t += counter(name, i, first);
    return t;
  }
  /// Counter `name` of simulation i taken in the pass where span `by` was
  /// fastest.
  double counter_at_min(const std::string& name, const std::string& by,
                        std::size_t i) const {
    const auto s = spans_.find(by);
    const auto c = counters_.find(name);
    if (s == spans_.end() || c == counters_.end() || s->second[i].empty() ||
        c->second[i].size() != s->second[i].size()) {
      return 0;
    }
    const auto& v = s->second[i];
    const std::size_t k = static_cast<std::size_t>(
        std::min_element(v.begin(), v.end()) - v.begin());
    return c->second[i][k];
  }

 private:
  std::size_t n_;
  std::map<std::string, std::vector<std::vector<std::uint64_t>>> spans_;
  std::map<std::string, std::vector<std::vector<double>>> counters_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const std::vector<Sim>& sims,
                                  const SpanStats& st) {
  const std::size_t n = sims.size();
  const bool multi = !sims.empty() && sims.front().multi;
  const double compile_s = st.sum_min_s("tamc.compile");
  const double instructions = st.sum_counter("mdp.instructions");

  double prepare_s = 0, run_s = 0, interp_s = 0, trace_s = 0, stats_s = 0,
         stack_s = 0, events = 0, ensemble_s = 0, mesh_extra_s = 0,
         barrier_s = 0, node_phase_s = 0, imbalance = 0;
  if (!multi) {
    prepare_s = st.sum_min_s("driver.prepare_run") - compile_s;
    run_s = st.sum_min_s("driver.run_workload");
    interp_s = st.sum_min_s("mdp.Machine::run");
    const double traced = st.sum_min_s("mdp.Machine::run+trace");
    trace_s = traced - interp_s;
    stats_s = st.sum_min_s("mdp.Machine::run+stats") - traced;
    stack_s = st.sum_min_s("cache.StackSimBank");
    events = st.sum_counter("driver.trace_events");
  } else {
    // Boot is what the set-up-only driver call does beyond compiling and
    // constructing the ensemble; the engine is the rest of a full call.
    prepare_s = st.sum_min_s("driver.run_workload_multi[setup]") - compile_s -
                st.sum_min_s("mdp.MultiMachine");
    run_s = st.sum_min_s("driver.run_workload_multi");
    double profiled = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double engine = st.min_s("driver.run_workload_multi", i) -
                            st.min_s("driver.run_workload_multi[setup]", i);
      ensemble_s += engine;
      mesh_extra_s +=
          sims[i].mopts.net == net::NetKind::Mesh ? engine : -engine;
      const std::string by = "driver.run_workload_multi[host_profile]";
      if (st.min_s(by, i) > 0) {
        barrier_s += st.counter_at_min("host.barrier_wait_ns", by, i) * 1e-9;
        node_phase_s += st.counter_at_min("host.node_phase_ns", by, i) * 1e-9;
        imbalance += st.counter_at_min("host.imbalance", by, i);
        profiled += 1;
      }
    }
    const bool any_mesh =
        std::any_of(sims.begin(), sims.end(), [](const Sim& s) {
          return s.mopts.net == net::NetKind::Mesh;
        });
    if (!any_mesh) mesh_extra_s = 0;
    imbalance = ratio(imbalance, profiled);
  }
  const double node_rounds = st.sum_counter("mdp.node_rounds");
  return {
      {"tamc.compile_s", compile_s, "s"},
      {"driver.prepare_s", std::max(0.0, prepare_s), "s"},
      {"mdp.machine_new_s",
       st.sum_first_s(multi ? "mdp.MultiMachine" : "mdp.Machine"), "s"},
      {"mdp.machine_minflt", st.sum_counter("mdp.machine_minflt", true),
       "count"},
      {"mdp.interp_s", interp_s, "s"},
      {"mdp.interp_ns_per_instr", ratio(interp_s * 1e9, instructions), "ns"},
      {"mdp.instructions", instructions, "count"},
      {"driver.trace_s", trace_s, "s"},
      {"driver.trace_events", events, "count"},
      {"metrics.stats_replay_s", stats_s, "s"},
      {"cache.stack_s", stack_s, "s"},
      {"cache.ns_per_event", ratio(stack_s * 1e9, events), "ns"},
      {"mdp.ensemble_run_s", ensemble_s, "s"},
      {"mdp.node_rounds", node_rounds, "count"},
      {"mdp.ns_per_node_round", ratio(ensemble_s * 1e9, node_rounds), "ns"},
      {"net.messages", st.sum_counter("net.messages"), "count"},
      {"net.flits", st.sum_counter("net.flits"), "count"},
      {"net.mesh_extra_s", mesh_extra_s, "s"},
      {"mdp.par_windows", st.sum_counter("mdp.par_windows"), "count"},
      {"mdp.par_barriers", st.sum_counter("mdp.par_barriers"), "count"},
      {"mdp.par_barrier_wait_s", barrier_s, "s"},
      {"mdp.par_node_phase_s", node_phase_s, "s"},
      {"mdp.par_imbalance", imbalance, "ratio"},
      {"driver.run_s", run_s, "s"},
  };
}

int run_traced(const std::string& workload, const std::vector<Sim>& sims,
               double seconds, const std::string& spans_path) {
  SpanLog log;
  const std::size_t n = sims.size();
  std::vector<Outcome> last(n);
  Tally tally;
  const std::uint64_t t0 = wall_ns();
  int passes = 0;
  while (passes < kMinPasses ||
         static_cast<double>(wall_ns() - t0) * 1e-9 < seconds) {
    auto pass = log.span("bench.pass", -1);
    for (std::size_t i = 0; i < n; ++i) {
      const int sim = static_cast<int>(i);
      last[i] = sims[i].multi ? trace_ensemble(log, sims[i], sim)
                              : trace_uniprocessor(log, sims[i], sim);
    }
    tally_pass(sims, last, tally);
    ++passes;
  }
  extra_checks(workload, sims, last, tally);
  if (!spans_path.empty() && !log.write_json(spans_path)) {
    std::cerr << "cannot write spans to " << spans_path << "\n";
    return 1;
  }
  std::cerr << workload << ": " << passes << " traced passes, "
            << log.spans().size() << " spans\n";
  print_result(tally, layer_metrics(sims, SpanStats(log, n)));
  return 0;
}

// --- command line -------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper|ensemble|ensemble_par "
               "[--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used, 0);
    if (used == v.size()) return x;
  } catch (const std::exception&) {
  }
  usage("bad value '" + v + "' for " + flag);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_main = wall_ns();
  std::string workload, spans_path;
  std::uint64_t seed = kDefaultSeed, seconds = 10, trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = parse_uint(a, v);
    } else if (a == "--seconds") {
      seconds = parse_uint(a, v);
    } else if (a == "--trace") {
      trace = parse_uint(a, v);
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (workload.empty()) usage("--workload is required");
  if (trace > 1) usage("--trace takes 0 or 1");
  if (seed > 0xFFFFFFFFULL) usage("--seed must fit in 32 bits");
  try {
    const std::vector<Sim> sims =
        make_sims(workload, static_cast<std::uint32_t>(seed));
    const double s = static_cast<double>(seconds);
    return trace != 0 ? run_traced(workload, sims, s, spans_path)
                      : run_untraced(workload, sims, s, t_main);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
