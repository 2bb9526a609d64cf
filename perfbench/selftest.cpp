// Self-test of the benchmark's output checks (checks.h).
//
// Runs a few small real simulations, confirms every check accepts their
// results, then feeds each check a deliberately corrupted copy and
// confirms it is rejected.  Exits 0 only when every clean result passes
// and every corruption is caught.
#include <functional>
#include <iostream>
#include <string>

#include "checks.h"
#include "driver/experiment.h"
#include "programs/registry.h"
#include "support/error.h"

namespace {

using namespace jtam;

int g_bad = 0;

void expect_pass(const std::string& what, const std::string& err) {
  if (err.empty()) {
    std::cout << "ok    clean " << what << " passes\n";
    return;
  }
  std::cout << "FAIL  clean " << what << " rejected: " << err << "\n";
  ++g_bad;
}

void expect_reject(const std::string& what, const std::string& err) {
  if (!err.empty()) {
    std::cout << "ok    " << what << " rejected: " << err << "\n";
    return;
  }
  std::cout << "FAIL  " << what << " was accepted\n";
  ++g_bad;
}

driver::ConfigResult& config(driver::RunResult& r, std::uint32_t size,
                             std::uint32_t assoc) {
  for (driver::ConfigResult& c : r.cache) {
    if (c.config.size_bytes == size && c.config.assoc == assoc) return c;
  }
  throw Error("no such configuration");
}

void test_uniprocessor() {
  const programs::Workload w = programs::make_quicksort(40);
  driver::RunOptions opts;
  opts.cache_workers = 1;
  opts.backend = rt::BackendKind::MessageDriven;
  const driver::RunResult md = driver::run_workload(w, opts);
  opts.backend = rt::BackendKind::ActiveMessages;
  const driver::RunResult am = driver::run_workload(w, opts);
  mdp::RunStatus st{};
  const perfbench::RecordedTrace tr = perfbench::record_trace(w, opts, &st);
  const auto replay = perfbench::replay_configs(opts.block_bytes);

  expect_pass("run", perfbench::check_run(am));
  expect_pass("MD/AM halt pair", perfbench::check_halt_pair(md.halt_value,
                                                            am.halt_value));
  expect_pass("SetAssocCache replay", perfbench::check_replay(am, tr, replay));

  const auto corrupt = [&](const std::string& what,
                           const std::function<void(driver::RunResult&)>& f) {
    driver::RunResult r = am;
    f(r);
    std::string err = perfbench::check_run(r);
    if (err.empty()) err = perfbench::check_replay(r, tr, replay);
    expect_reject(what, err);
  };
  corrupt("run that did not halt",
          [](driver::RunResult& r) { r.status = mdp::RunStatus::Budget; });
  corrupt("run whose oracle failed",
          [](driver::RunResult& r) { r.check_error = "element 3 out of order"; });
  corrupt("one I-cache access too many", [](driver::RunResult& r) {
    ++r.cache.front().icache.accesses;
  });
  corrupt("misses rising with cache size", [](driver::RunResult& r) {
    config(r, 2048, 1).dcache.misses = config(r, 1024, 1).dcache.misses + 1;
  });
  corrupt("one 8K/4-way D-cache miss changed", [](driver::RunResult& r) {
    ++config(r, 8 * 1024, 4).dcache.misses;
  });
  corrupt("one 8K/4-way writeback changed", [](driver::RunResult& r) {
    ++config(r, 8 * 1024, 4).dcache.writebacks;
  });
  corrupt("one 1K direct-mapped I-cache miss changed", [](driver::RunResult& r) {
    --config(r, 1024, 1).icache.misses;
  });
  expect_reject("wrong AM halt value",
                perfbench::check_halt_pair(md.halt_value, am.halt_value + 1));
}

void test_ensembles() {
  const programs::Workload w = programs::make_quicksort(24);
  driver::RunOptions opts;
  driver::MultiOptions mo;
  mo.num_nodes = 8;
  mo.net = net::NetKind::Mesh;
  const int diameter = perfbench::mesh_diameter(mo.num_nodes);
  const driver::MultiRunResult mesh = driver::run_workload_multi(w, opts, mo);
  expect_pass("mesh ensemble", perfbench::check_multi(mesh, diameter));

  const auto corrupt_multi =
      [&](const std::string& what,
          const std::function<void(driver::MultiRunResult&)>& f) {
        driver::MultiRunResult r = mesh;
        f(r);
        expect_reject(what, perfbench::check_multi(r, diameter));
      };
  corrupt_multi("ensemble that deadlocked", [](driver::MultiRunResult& r) {
    r.status = mdp::RunStatus::Deadlock;
  });
  corrupt_multi("ensemble whose oracle failed", [](driver::MultiRunResult& r) {
    r.check_error = "wrong sum";
  });
  corrupt_multi("message longer than the mesh diameter",
                [&](driver::MultiRunResult& r) {
                  r.net_stats.hops.add(static_cast<std::uint64_t>(diameter) + 1);
                });
  corrupt_multi("more messages delivered than sent",
                [](driver::MultiRunResult& r) {
                  r.net_stats.messages = r.messages + 1;
                });

  mo.net = net::NetKind::Ideal;
  mo.threads = 0;
  const driver::MultiRunResult serial = driver::run_workload_multi(w, opts, mo);
  mo.threads = 2;
  const driver::MultiRunResult par = driver::run_workload_multi(w, opts, mo);
  expect_pass("windowed engine against serial",
              perfbench::check_same_as_serial(par, serial));
  if (!par.parallel.engaged) {
    std::cout << "FAIL  the windowed engine did not engage\n";
    ++g_bad;
  }
  const auto corrupt_par =
      [&](const std::string& what,
          const std::function<void(driver::MultiRunResult&)>& f) {
        driver::MultiRunResult r = par;
        f(r);
        expect_reject(what, perfbench::check_same_as_serial(r, serial));
      };
  corrupt_par("threaded rounds off by one",
              [](driver::MultiRunResult& r) { ++r.rounds; });
  corrupt_par("threaded halt value changed",
              [](driver::MultiRunResult& r) { ++r.halt_value; });
  corrupt_par("threaded instructions off by one",
              [](driver::MultiRunResult& r) { --r.total_instructions; });
  corrupt_par("one node's instruction count moved",
              [](driver::MultiRunResult& r) {
                --r.per_node_instructions.front();
                ++r.per_node_instructions.back();
              });
  corrupt_par("threaded messages off by one",
              [](driver::MultiRunResult& r) { ++r.messages; });
  corrupt_par("threaded NetStats latency changed",
              [](driver::MultiRunResult& r) { r.net_stats.latency.add(1); });
}

}  // namespace

int main() {
  try {
    test_uniprocessor();
    test_ensembles();
  } catch (const std::exception& e) {
    std::cout << "FAIL  " << e.what() << "\n";
    return 1;
  }
  std::cout << (g_bad == 0 ? "all checks reject their corruptions\n"
                           : std::to_string(g_bad) + " self-test failures\n");
  return g_bad == 0 ? 0 : 1;
}
