#include "checks.h"

#include <map>
#include <sstream>

#include "net/topology.h"

namespace perfbench {

using jtam::cache::CacheConfig;
using jtam::cache::CacheStats;

namespace {

std::string stats_mismatch(const char* side, const CacheConfig& c,
                           const CacheStats& want, const CacheStats& got) {
  if (want.accesses == got.accesses && want.misses == got.misses &&
      want.hits() == got.hits() && want.writebacks == got.writebacks) {
    return {};
  }
  std::ostringstream os;
  os << side << " " << c.name() << ": SetAssocCache accesses/misses/"
     << "writebacks " << want.accesses << "/" << want.misses << "/"
     << want.writebacks << ", stack engine " << got.accesses << "/"
     << got.misses << "/" << got.writebacks;
  return os.str();
}

}  // namespace

void RecordingDrain::on_block(const jtam::mdp::TraceBuffer& buf) {
  trace.fetch.insert(trace.fetch.end(), buf.fetch().begin(),
                     buf.fetch().end());
  trace.data.insert(trace.data.end(), buf.data().begin(), buf.data().end());
  trace.block_ends.emplace_back(trace.fetch.size(), trace.data.size());
}

RecordedTrace record_trace(const jtam::programs::Workload& w,
                           const jtam::driver::RunOptions& opts,
                           jtam::mdp::RunStatus* status) {
  jtam::driver::PreparedRun prep = jtam::driver::prepare_run(w, opts);
  RecordingDrain rec;
  jtam::mdp::TraceBuffer buf(&rec);
  prep.machine->set_trace_buffer(&buf);
  *status = prep.machine->run();
  buf.flush();
  prep.machine->set_trace_buffer(nullptr);
  return std::move(rec.trace);
}

std::vector<CacheConfig> replay_configs(std::uint32_t block_bytes) {
  return {CacheConfig{1024, block_bytes, 1},
          CacheConfig{8 * 1024, block_bytes, 4},
          CacheConfig{128 * 1024, block_bytes, 2}};
}

std::string check_run(const jtam::driver::RunResult& r) {
  if (r.status != jtam::mdp::RunStatus::Halted) {
    return std::string("did not halt: ") +
           jtam::mdp::run_status_name(r.status);
  }
  if (!r.check_error.empty()) return "oracle: " + r.check_error;
  if (r.cache.empty()) return "no cache configurations in the result";

  // (block bytes, assoc) -> (size, config index), in size order.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::map<std::uint32_t, std::size_t>>
      ladders;
  for (std::size_t i = 0; i < r.cache.size(); ++i) {
    const jtam::driver::ConfigResult& c = r.cache[i];
    if (c.icache.accesses != r.instructions) {
      std::ostringstream os;
      os << "I-cache " << c.config.name() << " saw " << c.icache.accesses
         << " accesses for " << r.instructions << " instructions";
      return os.str();
    }
    ladders[{c.config.block_bytes, c.config.assoc}][c.config.size_bytes] = i;
  }
  for (const auto& [key, by_size] : ladders) {
    const jtam::driver::ConfigResult* prev = nullptr;
    for (const auto& [size, i] : by_size) {
      const jtam::driver::ConfigResult& c = r.cache[i];
      if (prev != nullptr) {
        const bool i_up = c.icache.misses > prev->icache.misses;
        const bool d_up = c.dcache.misses > prev->dcache.misses;
        if (i_up || d_up) {
          std::ostringstream os;
          os << (i_up ? "I" : "D") << "-cache misses rise from "
             << prev->config.name() << " to " << c.config.name() << " ("
             << (i_up ? prev->icache.misses : prev->dcache.misses) << " -> "
             << (i_up ? c.icache.misses : c.dcache.misses)
             << "), violating LRU inclusion";
          return os.str();
        }
      }
      prev = &c;
    }
  }
  return {};
}

std::string check_halt_pair(std::uint32_t md_halt, std::uint32_t am_halt) {
  if (md_halt == am_halt) return {};
  return "MD halts with " + std::to_string(md_halt) + " but AM with " +
         std::to_string(am_halt);
}

std::string check_replay(const jtam::driver::RunResult& r,
                         const RecordedTrace& trace,
                         const std::vector<CacheConfig>& configs) {
  for (const CacheConfig& cfg : configs) {
    jtam::cache::SetAssocCache icache(cfg);
    jtam::cache::SetAssocCache dcache(cfg);
    icache.fetch_block(trace.fetch.data(), trace.fetch.size());
    dcache.data_block(trace.data.data(), trace.data.size());
    const jtam::driver::ConfigResult* got = nullptr;
    for (const jtam::driver::ConfigResult& c : r.cache) {
      if (c.config.size_bytes == cfg.size_bytes &&
          c.config.block_bytes == cfg.block_bytes &&
          c.config.assoc == cfg.assoc) {
        got = &c;
      }
    }
    if (got == nullptr) return "result has no configuration " + cfg.name();
    std::string e = stats_mismatch("I-cache", cfg, icache.stats(), got->icache);
    if (e.empty()) {
      e = stats_mismatch("D-cache", cfg, dcache.stats(), got->dcache);
    }
    if (!e.empty()) return e;
  }
  return {};
}

std::string check_multi(const jtam::driver::MultiRunResult& r, int diameter) {
  if (r.status != jtam::mdp::RunStatus::Halted) {
    return std::string("ensemble did not halt: ") +
           jtam::mdp::run_status_name(r.status);
  }
  if (!r.check_error.empty()) return "oracle: " + r.check_error;
  if (r.net_stats.hops.max() > static_cast<std::uint64_t>(diameter)) {
    return "a message travelled " + std::to_string(r.net_stats.hops.max()) +
           " links on a mesh of diameter " + std::to_string(diameter);
  }
  if (r.net_stats.messages > r.messages) {
    return std::to_string(r.net_stats.messages) + " messages delivered but " +
           std::to_string(r.messages) + " sent";
  }
  return {};
}

std::string check_same_as_serial(const jtam::driver::MultiRunResult& par,
                                 const jtam::driver::MultiRunResult& serial) {
  std::ostringstream os;
  if (par.status != serial.status) {
    os << "status " << jtam::mdp::run_status_name(par.status)
       << " vs serial " << jtam::mdp::run_status_name(serial.status);
  } else if (par.halt_value != serial.halt_value) {
    os << "halt value " << par.halt_value << " vs serial "
       << serial.halt_value;
  } else if (par.rounds != serial.rounds) {
    os << "rounds " << par.rounds << " vs serial " << serial.rounds;
  } else if (par.total_instructions != serial.total_instructions ||
             par.per_node_instructions != serial.per_node_instructions) {
    os << "instructions " << par.total_instructions << " vs serial "
       << serial.total_instructions << " (or a per-node count differs)";
  } else if (par.messages != serial.messages) {
    os << "messages " << par.messages << " vs serial " << serial.messages;
  } else if (!(par.net_stats == serial.net_stats)) {
    os << "NetStats {" << par.net_stats.summary() << "} vs serial {"
       << serial.net_stats.summary() << "}";
  }
  return os.str();
}

int mesh_diameter(int nodes) {
  const jtam::net::Shape s = jtam::net::Shape::for_nodes(nodes);
  return (s.x - 1) + (s.y - 1) + (s.z - 1);
}

}  // namespace perfbench
