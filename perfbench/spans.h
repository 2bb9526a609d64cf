// In-memory span and counter log for the benchmark's traced mode.
//
// A span brackets one call into a layer's public functions, made from the
// benchmark's own code: name, start, end (steady-clock ns since the log was
// created), the enclosing span and the simulation it belongs to.  Counters
// record the work a call did (instructions, events, faults) at the same
// boundary.  Nothing is written until write_json(), after the timed work.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root span
    int sim = -1;     // simulation index, -1 when not tied to one
    std::uint64_t ns() const { return end_ns - start_ns; }
  };
  struct Counter {
    std::string name;
    int sim = -1;
    int span = -1;  // the span the count was taken in
    double value = 0;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, int sim) : log_(log) {
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(Span{std::move(name), 0, 0, log_.open_, sim});
      log_.open_ = index_;
      log_.spans_.back().start_ns = log_.now_ns();
    }
    ~Scope() {
      log_.spans_[static_cast<std::size_t>(index_)].end_ns = log_.now_ns();
      log_.open_ = log_.spans_[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int index() const { return index_; }

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  Scope span(std::string name, int sim) {
    return Scope(*this, std::move(name), sim);
  }
  void count(std::string name, int sim, double value) {
    counters_.push_back(Counter{std::move(name), sim, open_, value});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Counter>& counters() const { return counters_; }

  /// Spans and counters as one JSON document.  Returns false when the file
  /// cannot be written.
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
         << s.name << "\", \"start_ns\": " << s.start_ns
         << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
         << ", \"sim\": " << s.sim << "}";
    }
    os << "\n], \"counters\": [";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      const Counter& c = counters_[i];
      os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << c.name
         << "\", \"sim\": " << c.sim << ", \"span\": " << c.span
         << ", \"value\": " << c.value << "}";
    }
    os << "\n]}\n";
    os.close();
    return static_cast<bool>(os);
  }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  int open_ = -1;
};

}  // namespace perfbench
