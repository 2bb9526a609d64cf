// Output checks for the benchmark's simulations.
//
// Each check returns an empty string when the result passes and a
// description of the first violation otherwise.  None compares against a
// stored copy of earlier output: every check is either an independent
// recomputation (the workload's plain-C++ oracle, a SetAssocCache replay of
// the recorded reference stream, a serial-engine rerun) or a property the
// method must have (MD and AM agree, I-cache accesses equal instructions,
// LRU inclusion, hop counts within the mesh diameter).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "driver/experiment.h"
#include "mdp/machine.h"

namespace perfbench {

/// A reference stream recorded from a TraceBuffer, in its packed encoding
/// (fetch word = addr | level; data word = addr | is_write | level << 1),
/// with the block boundaries the machine flushed at.
struct RecordedTrace {
  std::vector<std::uint32_t> fetch;
  std::vector<std::uint32_t> data;
  /// Per flushed block: end offsets into `fetch` and `data`.
  std::vector<std::pair<std::size_t, std::size_t>> block_ends;

  std::uint64_t events() const { return fetch.size() + data.size(); }
};

/// Drain that keeps every block of a run's reference stream.
class RecordingDrain final : public jtam::mdp::TraceDrain {
 public:
  void on_block(const jtam::mdp::TraceBuffer& buf) override;
  RecordedTrace trace;
};

/// Prepares `w` through the driver and runs it with its reference stream
/// recorded; `status` receives how the run ended.
RecordedTrace record_trace(const jtam::programs::Workload& w,
                           const jtam::driver::RunOptions& opts,
                           jtam::mdp::RunStatus* status);

/// The configurations check_replay covers: the smallest direct-mapped
/// cache, the paper's reference 8K/4-way, and the largest 2-way cache of
/// the ladder.
std::vector<jtam::cache::CacheConfig> replay_configs(std::uint32_t block_bytes);

/// Uniprocessor run: it halted, the workload's oracle passed, every
/// configuration's I-cache saw exactly one access per instruction, and, at
/// each associativity, misses never rise with cache size (LRU inclusion
/// under set refinement), on both the I- and the D-side.
std::string check_run(const jtam::driver::RunResult& r);

/// MD and AM compute the same answer.
std::string check_halt_pair(std::uint32_t md_halt, std::uint32_t am_halt);

/// Replays `trace` through one cache::SetAssocCache pair per configuration
/// in `configs` and requires accesses, hits, misses and writebacks to equal
/// the stack engine's counts in `r` exactly.
std::string check_replay(const jtam::driver::RunResult& r,
                         const RecordedTrace& trace,
                         const std::vector<jtam::cache::CacheConfig>& configs);

/// Ensemble run: it halted, the oracle passed, no message travelled more
/// than `diameter` links, and no more messages were delivered than sent.
std::string check_multi(const jtam::driver::MultiRunResult& r, int diameter);

/// A windowed-engine run equals the serial engine on the same inputs:
/// status, halt value, rounds, instructions (total and per node), messages
/// and the whole NetStats block.
std::string check_same_as_serial(const jtam::driver::MultiRunResult& par,
                                 const jtam::driver::MultiRunResult& serial);

/// Links on the longest e-cube route of the mesh an ensemble of `nodes`
/// is wired as.
int mesh_diameter(int nodes);

}  // namespace perfbench
